#include "core/aggregators.h"

#include "core/grad_reducer.h"

namespace acps::core {
namespace {

// One "name[:param]" spec. An empty param after ':' is rejected here, so
// the parsers below read an empty param as "absent".
struct Spec {
  std::string text, name, param;

  explicit Spec(const std::string& spec) : text(spec) {
    const size_t colon = spec.find(':');
    name = spec.substr(0, colon);
    if (colon != std::string::npos) param = spec.substr(colon + 1);
    ACPS_CHECK_MSG(colon == std::string::npos || !param.empty(),
                   "empty parameter after ':' in compressor spec '" << spec
                                                                    << "'");
  }

  void NoParam() const {
    ACPS_CHECK_MSG(param.empty(), "compressor spec '" << name
                                      << "' takes no parameter, got '"
                                      << text << "'");
  }

  [[nodiscard]] int64_t Int(int64_t fallback) const {
    if (param.empty()) return fallback;
    size_t used = 0;
    int64_t v = 0;
    try {
      v = std::stoll(param, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    ACPS_CHECK_MSG(used == param.size() && v >= 1,
                   "bad parameter in compressor spec '" << text
                       << "': want a positive integer, got '" << param << "'");
    return v;
  }

  [[nodiscard]] double Ratio(double fallback) const {
    if (param.empty()) return fallback;
    size_t used = 0;
    double v = 0;
    try {
      v = std::stod(param, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    ACPS_CHECK_MSG(used == param.size() && v > 0.0 && v <= 1.0,
                   "bad parameter in compressor spec '" << text
                       << "': want a ratio in (0, 1], got '" << param << "'");
    return v;
  }
};

}  // namespace

GradReducer::Codec MakeCodec(const std::string& spec) {
  const Spec s(spec);
  if (s.name == "sign") {
    s.NoParam();
    return compress::SignCompressor();
  }
  if (s.name == "topk") return compress::TopkCompressor(s.Ratio(0.001));
  if (s.name == "randomk") return compress::RandomkCompressor(s.Ratio(0.01));
  ACPS_FAIL_MSG("unknown compressor spec '"
                << spec
                << "' (want a codec: sign | topk[:ratio] | randomk[:ratio], "
                   "or for MakeAggregatorFactory also ssgd | acpsgd[:rank] | "
                   "powersgd[:rank])");
}

AggregatorFactory MakeAggregatorFactory(const std::string& spec,
                                        int64_t buffer_bytes) {
  ACPS_CHECK_MSG(buffer_bytes >= 0,
                 "buffer_bytes must be >= 0 (0 = default), got "
                     << buffer_bytes);
  const int64_t bytes =
      buffer_bytes == 0 ? fusion::kDefaultBufferBytes : buffer_bytes;
  const Spec s(spec);

  if (s.name == "ssgd") {
    s.NoParam();
    return [bytes](int, int) { return std::make_unique<GradReducer>(bytes); };
  }
  if (s.name == "acpsgd") {
    const int64_t rank = s.Int(4);
    return [rank, bytes](int, int) {
      compress::AcpSgdConfig cfg;
      cfg.rank = rank;
      return std::make_unique<GradReducer>(cfg, bytes);
    };
  }
  if (s.name == "powersgd") {
    const int64_t rank = s.Int(4);
    return [rank, bytes](int, int) {
      compress::PowerSgdConfig cfg;
      cfg.rank = rank;
      return std::make_unique<GradReducer>(cfg, bytes);
    };
  }
  // Any other name must be a packed codec. Each worker copies the freshly
  // built codec, so Random-k workers share the seed and step.
  return [codec = MakeCodec(spec)](int, int) {
    return std::make_unique<GradReducer>(codec);
  };
}

}  // namespace acps::core
