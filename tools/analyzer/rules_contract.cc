// Contract audit: names and return values that cross component boundaries
// as bare strings or ignorable values, where a typo compiles clean and
// silently breaks dashboards, docs, or fault handling.
//
//   metric-name-registry   every metric/span name literal fed to
//                          registry.counter/gauge/histogram, obs::ScopedSpan
//                          or obs::SpanEvent must appear in the committed
//                          registry (tools/analyzer/metrics.conf, regenerate
//                          with --gen-metric-registry). A typo'd
//                          "reducerr.bucket_bytes" creates a fresh series
//                          nobody reads; the registry diff makes every new
//                          name a reviewed change.
//   metric-registry-drift  the reverse direction: a registry entry no
//                          consumer produces any more is stale and must be
//                          regenerated out, or the registry stops being a
//                          map of what the binary actually emits.
//   env-var-documented     every getenv'd ACPS_* variable must appear in
//                          the README reference table — configuration knobs
//                          that exist only in the source are how "works on
//                          my machine" tuning escapes review.
//   error-return-checked   Transport/Session fault paths report errors by
//                          value (Options::Validate returns the problem as
//                          a string); a discarded call is a fault check
//                          that cannot fail.
//
// String literals are blanked in the stripped `code` text, so the metric and
// env rules locate call sites in `code` (comments can't fake a consumer) and
// read the literal bytes back out of `raw` between the preserved quotes.
#include <cctype>
#include <regex>
#include <set>

#include "rules.h"

namespace acps::analyze {

namespace {

// String literals inside the argument span opening at (li, open) of file
// `f`: (line, literal text) in order. The span runs through the matching
// close of the bracket at `open` ('(' or '{'), capped at 6 lines.
std::vector<std::pair<int, std::string>> SpanLiterals(const SourceFile& f,
                                                      size_t li, size_t open) {
  std::vector<std::pair<int, std::string>> out;
  const char open_c = f.code[li][open];
  const char close_c = open_c == '(' ? ')' : '}';
  int depth = 0;
  for (size_t l = li; l < f.code.size() && l < li + 6; ++l) {
    const std::string& code = f.code[l];
    const std::string& raw = f.raw[l];
    for (size_t i = (l == li ? open : 0); i < code.size(); ++i) {
      if (code[i] == open_c) ++depth;
      if (code[i] == close_c && --depth == 0) return out;
      if (code[i] == '"') {
        // Literal delimiters survive stripping; contents only exist in raw.
        size_t j = i + 1;
        while (j < code.size() && code[j] != '"') ++j;
        if (j < code.size() && j < raw.size())
          out.push_back({static_cast<int>(l + 1), raw.substr(i + 1, j - i - 1)});
        i = j;
      }
    }
  }
  return out;
}

}  // namespace

std::vector<NameUse> CollectMetricNames(const Corpus& corpus) {
  std::vector<NameUse> out;
  static const std::regex metric_re(
      R"((^|[^\w])(counter|gauge|histogram)\s*\()");
  static const std::regex span_re(
      R"((^|[^\w])(ScopedSpan\s+[A-Za-z_]\w*\s*\(|SpanEvent\s*\{))");
  for (size_t fi = 0; fi < corpus.files.size(); ++fi) {
    const auto& f = corpus.files[fi];
    const auto& st = corpus.structure[fi];
    for (size_t li = 0; li < f.code.size(); ++li) {
      if (st.IsFuncHeaderLine(static_cast<int>(li + 1)))
        continue;  // the registry/tracer definitions themselves
      const std::string& line = f.code[li];
      for (auto it = std::sregex_iterator(line.begin(), line.end(), metric_re);
           it != std::sregex_iterator(); ++it) {
        const size_t open =
            static_cast<size_t>(it->position(0) + it->length(0) - 1);
        const auto lits = SpanLiterals(f, li, open);
        if (lits.empty()) continue;  // fully dynamic name: nothing to check
        out.push_back({lits.back().second, f.path, lits.back().first, false});
      }
      for (auto it = std::sregex_iterator(line.begin(), line.end(), span_re);
           it != std::sregex_iterator(); ++it) {
        const size_t open =
            static_cast<size_t>(it->position(0) + it->length(0) - 1);
        const auto lits = SpanLiterals(f, li, open);
        if (lits.empty()) continue;
        out.push_back({lits.front().second, f.path, lits.front().first, true});
      }
    }
  }
  return out;
}

void ContractPass(const Corpus& corpus, const Config& cfg,
                  std::vector<Diagnostic>& out) {
  // --- metric-name-registry / metric-registry-drift -------------------------
  if (cfg.has_registry()) {
    std::set<std::string> used_metrics, used_spans;
    for (const auto& use : CollectMetricNames(corpus)) {
      (use.is_span ? used_spans : used_metrics).insert(use.name);
      if (!cfg.InScope("metric-name-registry", use.file)) continue;
      const auto& reg = use.is_span ? cfg.SpanNames() : cfg.MetricNames();
      if (reg.count(use.name)) continue;
      out.push_back(
          {use.file, use.line, "metric-name-registry",
           std::string(use.is_span ? "span" : "metric") + " name '" +
               use.name +
               "' is not in the committed registry "
               "(tools/analyzer/metrics.conf); if the name is intended, "
               "regenerate with acps-analyze --gen-metric-registry so the "
               "new series is a reviewed change"});
    }
    if (cfg.HasScope("metric-registry-drift")) {
      for (const auto& name : cfg.MetricNames()) {
        if (used_metrics.count(name)) continue;
        out.push_back(
            {"tools/analyzer/metrics.conf", 1, "metric-registry-drift",
             "registry lists metric '" + name +
                 "' but no consumer produces it any more; regenerate the "
                 "registry (acps-analyze --gen-metric-registry) so it keeps "
                 "describing what the binary emits"});
      }
      for (const auto& name : cfg.SpanNames()) {
        if (used_spans.count(name)) continue;
        out.push_back(
            {"tools/analyzer/metrics.conf", 1, "metric-registry-drift",
             "registry lists span '" + name +
                 "' but no consumer produces it any more; regenerate the "
                 "registry (acps-analyze --gen-metric-registry)"});
      }
    }
  }

  // --- env-var-documented ---------------------------------------------------
  if (cfg.has_env_docs()) {
    static const std::regex getenv_re(R"((^|[^\w])getenv\s*\()");
    for (const auto& f : corpus.files) {
      if (!cfg.InScope("env-var-documented", f.path)) continue;
      for (size_t li = 0; li < f.code.size(); ++li) {
        const std::string& line = f.code[li];
        for (auto it =
                 std::sregex_iterator(line.begin(), line.end(), getenv_re);
             it != std::sregex_iterator(); ++it) {
          const size_t open =
              static_cast<size_t>(it->position(0) + it->length(0) - 1);
          for (const auto& [lineno, name] : SpanLiterals(f, li, open)) {
            if (name.rfind("ACPS_", 0) != 0) continue;
            if (cfg.DocumentedEnv().count(name)) continue;
            out.push_back(
                {f.path, lineno, "env-var-documented",
                 "environment variable '" + name +
                     "' is read here but missing from the README "
                     "reference table; document the knob (name, values, "
                     "default) or remove the read"});
          }
        }
      }
    }
  }

  // --- error-return-checked -------------------------------------------------
  // A statement that is nothing but `<expr>.Validate(...)`: the returned
  // error string is dropped on the floor.
  static const std::regex discard_re(
      R"(^\s*(\(void\)\s*)?[A-Za-z_][\w.\->:]*(\.|->)?Validate\s*\([^;]*\)\s*;\s*$)");
  for (const auto& f : corpus.files) {
    if (!cfg.InScope("error-return-checked", f.path)) continue;
    for (size_t li = 0; li < f.code.size(); ++li) {
      if (!std::regex_match(f.code[li], discard_re)) continue;
      out.push_back(
          {f.path, static_cast<int>(li + 1), "error-return-checked",
           "discarded Validate() result: Transport/Session option "
           "validation reports the fault as its return value, so an "
           "unchecked call is a fault check that cannot fail"});
    }
  }
}

}  // namespace acps::analyze
