// Shared helpers for the table/figure reproduction harnesses.
//
// Every bench prints (a) the experiment id + setup, (b) the paper's
// reported values where it states them, and (c) our simulated/measured
// values, so EXPERIMENTS.md can be filled by running the binary.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "check/oracles.h"
#include "metrics/table.h"
#include "models/model_zoo.h"
#include "sim/pipeline.h"

namespace acps::bench {

inline void Header(const std::string& id, const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("================================================================\n");
}

inline void Note(const std::string& text) {
  std::printf("%s\n", text.c_str());
}

// Runs the codec invariant oracles (check/oracles.h) for `spec` the
// first time a bench touches it; later calls for the same spec are free.
// A bench must never publish numbers produced by a compressor that breaks
// its own contract, so a red oracle aborts the binary with the full report.
// The pass is deliberately small (two shapes, two perturbed runs) — the
// exhaustive sweep lives in check_test; this is a gate, not a re-test.
inline void OracleGate(const std::string& spec) {
  static std::set<std::string> verified;
  if (spec.empty() || !verified.insert(spec).second) return;
  check::OracleOptions opt;
  opt.numels = {5, 33};
  opt.perturbed_runs = 2;
  const check::OracleReport report = check::CheckCompressorInvariants(spec, opt);
  if (!report.ok()) {
    std::fprintf(stderr,
                 "oracle gate: compressor '%s' violates its contract; "
                 "refusing to benchmark it\n%s\n",
                 spec.c_str(), report.Summary().c_str());
    std::abort();
  }
  std::printf("[oracle gate] %s: %d invariant checks passed\n", spec.c_str(),
              report.checks_run);
}

// Codec spec (core::MakeCodec) backing a simulated method's element-wise
// compressor, or "" for methods with none: kSSGD is dense, and the
// low-rank pair (Power-SGD, ACP-SGD) is matrix-factorization verified by
// lowrank_test / check_test rather than the codec oracles.
inline std::string MethodOracleSpec(sim::Method method) {
  switch (method) {
    case sim::Method::kSignSGD:
      return "sign";
    case sim::Method::kTopkSGD:
      return "topk:0.001";
    default:
      return "";
  }
}

// Paper defaults: 32 workers, 10GbE, 25MB buffer. Every config passes the
// oracle gate for its compressor before it is trusted to time anything.
inline sim::SimConfig PaperConfig(sim::Method method, int batch,
                                  int64_t rank) {
  OracleGate(MethodOracleSpec(method));
  sim::SimConfig cfg;
  cfg.method = method;
  cfg.batch_size = batch;
  cfg.rank = rank;
  return cfg;
}

inline double IterMs(const models::ModelSpec& model,
                     const sim::SimConfig& cfg) {
  return sim::SimulateIterationAvg(model, cfg).total_ms();
}

}  // namespace acps::bench
