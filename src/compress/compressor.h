// One-shot (stateless) gradient compressor interface.
//
// Covers the quantization / sparsification families from the paper's §II-B:
// Sign-SGD, Top-k and Random-k (built from a spec by core::MakeCodec).
// Low-rank methods (Power-SGD, ACP-SGD) are stateful per-tensor algorithms
// and live in powersgd.h / acpsgd.h instead.
//
// Encode/Decode are lossy: Decode(Encode(g)) approximates g. Aggregation
// semantics (all-gather + majority vote / scatter-add) are implemented by
// the core runtime on top of these primitives.
//
// The primitive encode operation is zero-copy: EncodeInto writes the blob
// into caller-owned storage of exactly EncodedBytes(|grad|) bytes, so hot
// loops (aggregators encoding every step) reuse one scratch buffer instead
// of allocating a fresh vector per tensor. Encode() is the allocating
// convenience wrapper on top.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "tensor/check.h"

namespace acps::compress {

class Compressor {
 public:
  virtual ~Compressor() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  // Encodes `grad` into `out`, which must be exactly
  // EncodedBytes(grad.size()) bytes (checked). Every byte of `out` is
  // written. Stateful encoders (step counters, RNG streams) advance exactly
  // as they would for Encode().
  virtual void EncodeInto(std::span<const float> grad,
                          std::span<std::byte> out) = 0;

  // Allocating convenience wrapper around EncodeInto.
  [[nodiscard]] std::vector<std::byte> Encode(std::span<const float> grad) {
    std::vector<std::byte> blob(EncodedBytes(grad.size()));
    EncodeInto(grad, blob);
    return blob;
  }

  // Decodes `blob` into `out` (must be the original element count),
  // overwriting all elements.
  virtual void Decode(std::span<const std::byte> blob,
                      std::span<float> out) const = 0;

  // Encoded size in bytes for a gradient of `numel` elements (exact for all
  // implementations in this library).
  [[nodiscard]] virtual size_t EncodedBytes(size_t numel) const = 0;

  // Compression ratio = uncompressed bytes / encoded bytes.
  [[nodiscard]] double CompressionRatio(size_t numel) const {
    const size_t enc = EncodedBytes(numel);
    ACPS_CHECK(enc > 0);
    return static_cast<double>(numel * sizeof(float)) /
           static_cast<double>(enc);
  }
};

// Little-endian scalar (de)serialization helpers shared by the encoders.
namespace wire {

// Fixed-position write into a preallocated blob.
template <typename T>
void Write(std::span<std::byte> out, size_t offset, const T& value) {
  ACPS_CHECK_MSG(offset + sizeof(T) <= out.size(), "wire write out of range");
  std::memcpy(out.data() + offset, &value, sizeof(T));
}

template <typename T>
[[nodiscard]] T Read(std::span<const std::byte> blob, size_t offset) {
  ACPS_CHECK_MSG(offset + sizeof(T) <= blob.size(), "wire read out of range");
  T value;
  std::memcpy(&value, blob.data() + offset, sizeof(T));
  return value;
}

}  // namespace wire
}  // namespace acps::compress
