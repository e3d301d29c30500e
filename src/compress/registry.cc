#include "compress/registry.h"

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "compress/blockwise_sign.h"
#include "compress/fp16.h"
#include "compress/qsgd.h"
#include "compress/randomk.h"
#include "compress/sign.h"
#include "compress/terngrad.h"
#include "compress/topk.h"

namespace acps::compress {
namespace {

struct Spec {
  std::string name;
  std::string param;  // empty if absent
};

// "name:" is rejected here, so an empty Spec::param always means "absent".
Spec Parse(const std::string& spec) {
  const size_t colon = spec.find(':');
  if (colon == std::string::npos) return {spec, ""};
  ACPS_CHECK_MSG(colon + 1 < spec.size(),
                 "empty parameter after ':' in compressor spec '" << spec
                                                                  << "'");
  return {spec.substr(0, colon), spec.substr(colon + 1)};
}

double ParamAsDouble(const Spec& s, double fallback) {
  if (s.param.empty()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(s.param.c_str(), &end);
  ACPS_CHECK_MSG(end != nullptr && *end == '\0',
                 "bad numeric parameter '" << s.param << "' for compressor "
                                           << s.name);
  return v;
}

// Integer parameters parse as integers: the whole string must be consumed
// and the value must lie in [lo, hi] before any cast, so "8.7" or "-1" is an
// error rather than a truncation or an out-of-range conversion.
int64_t ParamAsInt(const Spec& s, int64_t fallback, int64_t lo, int64_t hi) {
  if (s.param.empty()) return fallback;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.param.c_str(), &end, 10);
  ACPS_CHECK_MSG(end != nullptr && *end == '\0' && errno == 0 && v >= lo &&
                     v <= hi,
                 "bad parameter '" << s.param << "' for compressor " << s.name
                                   << ": want an integer in [" << lo << ", "
                                   << hi << "]");
  return v;
}

}  // namespace

std::unique_ptr<Compressor> MakeCompressor(const std::string& spec) {
  const Spec s = Parse(spec);
  if (s.name == "sign") {
    ACPS_CHECK_MSG(s.param.empty(), "sign takes no parameter");
    return std::make_unique<SignCompressor>();
  }
  if (s.name == "blockwise-sign") {
    const int64_t block =
        ParamAsInt(s, 1024, 1, std::numeric_limits<int64_t>::max());
    return std::make_unique<BlockwiseSignCompressor>(
        static_cast<size_t>(block));
  }
  if (s.name == "topk") {
    return std::make_unique<TopkCompressor>(ParamAsDouble(s, 0.001),
                                            TopkSelection::kExact);
  }
  if (s.name == "topk-sampled") {
    return std::make_unique<TopkCompressor>(ParamAsDouble(s, 0.001),
                                            TopkSelection::kSampledThreshold);
  }
  if (s.name == "randomk") {
    return std::make_unique<RandomkCompressor>(ParamAsDouble(s, 0.01));
  }
  if (s.name == "qsgd") {
    return std::make_unique<QsgdCompressor>(
        static_cast<int>(ParamAsInt(s, 16, 1, 127)));
  }
  if (s.name == "terngrad") {
    ACPS_CHECK_MSG(s.param.empty(), "terngrad takes no parameter");
    return std::make_unique<TernGradCompressor>();
  }
  if (s.name == "fp16") {
    ACPS_CHECK_MSG(s.param.empty(), "fp16 takes no parameter");
    return std::make_unique<Fp16Compressor>();
  }
  // Thrown directly (not via ACPS_CHECK_MSG(false, ...)) so -Wreturn-type
  // can see the function never falls off the end, even at -O0.
  std::ostringstream oss;
  oss << "unknown compressor spec '" << spec << "'";
  throw Error(oss.str());
}

std::vector<std::string> KnownCompressors() {
  return {"sign",          "blockwise-sign:1024", "topk:0.001",
          "topk-sampled:0.001", "randomk:0.01",   "qsgd:16",
          "terngrad",      "fp16"};
}

}  // namespace acps::compress
