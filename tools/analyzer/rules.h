// acps-analyze: rule passes.
//
// Two-phase engine (DESIGN.md §6g). Phase 1 builds a cross-TU symbol index
// and call graph over the whole corpus (symbols.h / callgraph.h); phase 2
// runs the rule families, the interprocedural ones (lock-order, sched-point
// reachability) against the phase-1 graph:
//
//   1. include-layering          — module include graph vs. layers.conf
//   2. determinism audit         — wall-clock, thread-id, unseeded RNG,
//                                  unordered-container iteration, plus the
//                                  banned idioms migrated from tools/lint.sh
//   3. lock-order                — ACPS_LOCK_LEVEL coverage, level
//                                  uniqueness, nesting ordering, TRANSITIVE
//                                  acquisition sets over the call graph,
//                                  acquisition-graph cycles (cross-TU)
//   4. sched-point coverage      — shared-board accesses vs. SchedPoint
//                                  hooks reachable through calls, PointKind
//                                  liveness, no SchedPoint under a lock
//   5. float determinism         — loop-carried float/double accumulation
//                                  outside blessed kernels; std::accumulate
//                                  over floating types
//   6. contract audit            — metric/tracer names vs. the generated
//                                  registry, ACPS_* env vars vs. the README
//                                  table, unchecked error returns
//
// plus the tsan.supp justification audit and the exemption-drift check
// (stale-allow). A diagnostic names its check; a site opts out with
// `lint:allow(<check>)` on the same or preceding line — an allow that
// suppresses nothing is itself a finding.
#pragma once

#include <string>
#include <vector>

#include "config.h"
#include "source.h"

namespace acps::analyze {

struct Diagnostic {
  std::string file;
  int line = 0;
  std::string check;
  std::string message;
};

struct Corpus {
  std::vector<SourceFile> files;
  std::vector<FileStructure> structure;  // parallel to files

  void Add(SourceFile f) {
    structure.push_back(ScanStructure(f));
    files.push_back(std::move(f));
  }
};

struct Semantics;  // callgraph.h: phase-1 symbol index + call graph

// One metric/span name consumer site: the FINAL (metrics) or FIRST (spans)
// string literal of a registry.counter/gauge/histogram or
// ScopedSpan/SpanEvent argument list. `name` is the literal text — for
// prefixed metrics ("job/<id>/" + "traffic.bytes") that is the stable tail
// the registry records. Shared by the contract rules and
// --gen-metric-registry.
struct NameUse {
  std::string name;
  std::string file;
  int line = 0;
  bool is_span = false;
};
std::vector<NameUse> CollectMetricNames(const Corpus& corpus);

// Every check name the analyzer can emit, in report order. The self-test's
// mutation gate fails unless each of these fires on at least one bad
// fixture — a rule that silently stops matching cannot pass CI.
const std::vector<std::string>& AllCheckNames();

// Per-pass wall time, collected when RunOptions::timings is set.
struct PassTiming {
  std::string pass;
  double ms = 0.0;
};

struct RunOptions {
  // False under --no-callgraph: interprocedural rules degrade to local
  // reasoning (the mode the cross-TU fixtures prove is weaker).
  bool callgraph = true;
  std::vector<PassTiming>* timings = nullptr;
};

// Appends diagnostics; `lint:allow` filtering happens in RunAllPasses.
void PatternPass(const Corpus& corpus, const Config& cfg,
                 std::vector<Diagnostic>& out);
void LayeringPass(const Corpus& corpus, const Config& cfg,
                  std::vector<Diagnostic>& out);
void LockPass(const Corpus& corpus, const Config& cfg, const Semantics& sem,
              std::vector<Diagnostic>& out);
void SchedPointPass(const Corpus& corpus, const Config& cfg,
                    const Semantics& sem, std::vector<Diagnostic>& out);
void FloatPass(const Corpus& corpus, const Config& cfg,
               std::vector<Diagnostic>& out);
void ContractPass(const Corpus& corpus, const Config& cfg,
                  std::vector<Diagnostic>& out);
void SuppPass(const Corpus& corpus, const Config& cfg,
              std::vector<Diagnostic>& out);

// Runs phase 1 then every pass, applies lint:allow filtering (recording
// stale allows as diagnostics), sorts by (file, line).
std::vector<Diagnostic> RunAllPasses(const Corpus& corpus, const Config& cfg,
                                     const RunOptions& opts = {});

}  // namespace acps::analyze
