#include <algorithm>
#include <chrono>

#include "callgraph.h"
#include "rules.h"

namespace acps::analyze {

const std::vector<std::string>& AllCheckNames() {
  static const std::vector<std::string> names = {
      // layering
      "include-layering",
      // banned idioms (ex tools/lint.sh)
      "naked-new", "naked-delete", "raw-thread", "raw-sleep", "libc-rand",
      "abort-exit", "groupstate-outside-comm",
      // determinism audit
      "wall-clock", "thread-id", "random-device", "unordered-iter",
      // lock-order family
      "lock-annotation", "lock-level-unique", "lock-order", "lock-graph-cycle",
      // sched-point coverage
      "publish-needs-sched-point", "point-kind-live", "sched-point-under-lock",
      // float determinism
      "float-accumulate", "float-loop-accum", "pack-pure-move",
      // contract audit
      "metric-name-registry", "metric-registry-drift", "env-var-documented",
      "error-return-checked",
      // suppression / exemption hygiene
      "tsan-supp-justified", "stale-allow"};
  return names;
}

std::vector<Diagnostic> RunAllPasses(const Corpus& corpus, const Config& cfg,
                                     const RunOptions& opts) {
  using Clock = std::chrono::steady_clock;
  const auto timed = [&](const char* name, const auto& fn) {
    const auto t0 = Clock::now();
    fn();
    if (opts.timings != nullptr) {
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
      opts.timings->push_back({name, ms});
    }
  };

  Semantics sem;
  timed("phase1:symbols+callgraph",
        [&] { sem = BuildSemantics(corpus, opts.callgraph); });

  std::vector<Diagnostic> all;
  timed("patterns", [&] { PatternPass(corpus, cfg, all); });
  timed("layering", [&] { LayeringPass(corpus, cfg, all); });
  timed("locks", [&] { LockPass(corpus, cfg, sem, all); });
  timed("sched-points", [&] { SchedPointPass(corpus, cfg, sem, all); });
  timed("float", [&] { FloatPass(corpus, cfg, all); });
  timed("contract", [&] { ContractPass(corpus, cfg, all); });
  timed("supp", [&] { SuppPass(corpus, cfg, all); });

  // Exemption drift: a lint:allow comment earns its keep by suppressing a
  // diagnostic this very run (same line or the one below, mirroring
  // HasAllow). Computed against the PRE-filter findings so the allow it is
  // about to silence still counts as used.
  timed("stale-allow", [&] {
    for (const auto& f : corpus.files) {
      if (!cfg.InScope("stale-allow", f.path)) continue;
      for (const AllowSite& site : AllowSites(f)) {
        bool used = false;
        for (const auto& d : all) {
          if (d.file == f.path && d.check == site.check &&
              (d.line == site.line || d.line == site.line + 1)) {
            used = true;
            break;
          }
        }
        if (used) continue;
        all.push_back(
            {f.path, site.line, "stale-allow",
             "lint:allow(" + site.check +
                 ") suppresses nothing: the exemption is dead weight that "
                 "would silently swallow a future regression at this site — "
                 "delete it (or fix the check name)"});
      }
    }
  });

  std::vector<Diagnostic> kept;
  kept.reserve(all.size());
  for (auto& d : all) {
    const SourceFile* f = nullptr;
    for (const auto& sf : corpus.files)
      if (sf.path == d.file) {
        f = &sf;
        break;
      }
    if (f != nullptr && HasAllow(*f, d.line, d.check)) continue;
    kept.push_back(std::move(d));
  }
  std::sort(kept.begin(), kept.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.check < b.check;
            });
  return kept;
}

}  // namespace acps::analyze
