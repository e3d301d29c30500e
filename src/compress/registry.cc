#include "compress/registry.h"

#include <cstdlib>
#include <sstream>

#include "compress/randomk.h"
#include "compress/sign.h"
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

}  // namespace

std::unique_ptr<Compressor> MakeCompressor(const std::string& spec) {
  const Spec s = Parse(spec);
  if (s.name == "sign") {
    ACPS_CHECK_MSG(s.param.empty(), "sign takes no parameter");
    return std::make_unique<SignCompressor>();
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
  // Thrown directly (not via ACPS_CHECK_MSG(false, ...)) so -Wreturn-type
  // can see the function never falls off the end, even at -O0.
  std::ostringstream oss;
  oss << "unknown compressor spec '" << spec << "'";
  throw Error(oss.str());
}

std::vector<std::string> KnownCompressors() {
  return {"sign", "topk:0.001", "topk-sampled:0.001", "randomk:0.01"};
}

}  // namespace acps::compress
