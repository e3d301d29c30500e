// Name-based compressor factory: builds any one-shot compressor from a
// spec string: "sign", "topk:0.001", "topk-sampled:0.01" or "randomk:0.01".
//
// Used by the compressor oracles (check/oracles.h), and through them by the
// benches' oracle gate, and by tests to sweep the whole family uniformly.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "compress/compressor.h"

namespace acps::compress {

// Parses `spec` ("name" or "name:param") and constructs the compressor.
// Throws acps::Error for unknown names or invalid parameters.
[[nodiscard]] std::unique_ptr<Compressor> MakeCompressor(
    const std::string& spec);

// All spec names accepted by MakeCompressor (with their default params).
[[nodiscard]] std::vector<std::string> KnownCompressors();

}  // namespace acps::compress
