#include "core/aggregators.h"

#include "core/grad_reducer.h"

namespace acps::core {

AggregatorFactory MakeAggregatorFactory(const std::string& spec,
                                        int64_t buffer_bytes) {
  ACPS_CHECK_MSG(buffer_bytes >= 0,
                 "buffer_bytes must be >= 0 (0 = default), got "
                     << buffer_bytes);
  const int64_t bytes =
      buffer_bytes == 0 ? fusion::kDefaultBufferBytes : buffer_bytes;

  // Split "name[:param]"; an empty param after ':' is rejected here, so the
  // per-method parsers below read an empty param as "absent".
  const size_t colon = spec.find(':');
  const std::string name = spec.substr(0, colon);
  const std::string param =
      colon == std::string::npos ? "" : spec.substr(colon + 1);
  ACPS_CHECK_MSG(colon == std::string::npos || !param.empty(),
                 "empty parameter after ':' in compressor spec '" << spec
                                                                  << "'");
  const auto int_param = [&](int64_t fallback) -> int64_t {
    if (param.empty()) return fallback;
    size_t used = 0;
    int64_t v = 0;
    try {
      v = std::stoll(param, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    ACPS_CHECK_MSG(used == param.size() && v >= 1,
                   "bad parameter in compressor spec '" << spec
                       << "': want a positive integer, got '" << param << "'");
    return v;
  };
  const auto ratio_param = [&](double fallback) -> double {
    if (param.empty()) return fallback;
    size_t used = 0;
    double v = 0;
    try {
      v = std::stod(param, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    ACPS_CHECK_MSG(used == param.size() && v > 0.0 && v <= 1.0,
                   "bad parameter in compressor spec '" << spec
                       << "': want a ratio in (0, 1], got '" << param << "'");
    return v;
  };

  if (name == "ssgd") {
    ACPS_CHECK_MSG(param.empty(),
                   "compressor spec 'ssgd' takes no parameter, got '" << spec
                                                                      << "'");
    return [bytes](int, int) { return std::make_unique<GradReducer>(bytes); };
  }
  if (name == "acpsgd") {
    const int64_t rank = int_param(4);
    return [rank, bytes](int, int) {
      compress::AcpSgdConfig cfg;
      cfg.rank = rank;
      return std::make_unique<GradReducer>(cfg, bytes);
    };
  }
  if (name == "powersgd") {
    const int64_t rank = int_param(4);
    return [rank, bytes](int, int) {
      compress::PowerSgdConfig cfg;
      cfg.rank = rank;
      return std::make_unique<GradReducer>(cfg, bytes);
    };
  }
  if (name == "sign") {
    ACPS_CHECK_MSG(param.empty(),
                   "compressor spec 'sign' takes no parameter, got '" << spec
                                                                      << "'");
    return [](int, int) {
      return std::make_unique<GradReducer>(compress::SignCompressor());
    };
  }
  if (name == "topk") {
    const double ratio = ratio_param(0.001);
    return [ratio](int, int) {
      return std::make_unique<GradReducer>(compress::TopkCompressor(
          ratio, compress::TopkSelection::kSampledThreshold));
    };
  }
  if (name == "randomk") {
    const double ratio = ratio_param(0.01);
    return [ratio](int, int) {
      return std::make_unique<GradReducer>(compress::RandomkCompressor(ratio));
    };
  }
  ACPS_FAIL_MSG("unknown compressor spec '"
                << spec
                << "' (want ssgd | acpsgd[:rank] | powersgd[:rank] | sign | "
                   "topk[:ratio] | randomk[:ratio])");
}

}  // namespace acps::core
