// Churn chaos harness (DESIGN.md "Elastic membership"): drives membership
// churn — crash→rejoin, repeated crash, fresh join, graceful leave, a
// Power-SGD rejoin, and a long-horizon soak — through a real elastic
// training loop, and classifies every scenario with the chaos taxonomy
// (fault/chaos.h): recovered, detected, or the failure mode the layer
// exists to rule out, silent divergence.
//
// The training loop steps the chaos trainer's 8x12 weight and 10-bias
// through core::DistributedOptimizer over the production core::GradReducer
// that core::MakeAggregatorFactory builds (`topk:0.25` or `powersgd:2`),
// with one membership commit (Communicator::commit_view) per step; the
// scenario's membership plan reaches the transport through
// Session::set_fault_injector. The harness owns no exchange, EF or update
// code; it moves the reducer's persistent state through GradReducer::state.
// A harness-owned *escrow board* holds each rank's commit-boundary snapshot
// (the reducer's own state — Top-k's packed EF residual or Power-SGD's E —
// and the Top-k conservation ledgers), and a resync protocol runs after
// every commit that admitted ranks:
//
//   * comm::ResyncJoiners has the donor — the lowest-ranked survivor of
//     the committed view — broadcast the current model, the step counter
//     and the reducer's shared state (Power-SGD's query factor Q,
//     identical on every survivor), all in one broadcast;
//   * a REJOINING rank copies its escrowed own state and ledgers back —
//     the mass it still owes the group — rolled back to its last committed
//     step, so the telescoping EF invariant
//       sum(grad) == sum(reconstruction) + residual
//     holds globally across the crash;
//   * a FRESH joiner starts from zero residual and empty ledgers.
//
// Every scenario is replayable: the harness runs each faulted case twice
// with the same seed and requires byte-identical results (outputs,
// membership records, epochs) before it will classify at all.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/chaos.h"
#include "fault/plan.h"

namespace acps::fault {

// The churn matrix.
enum class ChurnScenario : uint8_t {
  kCrashRejoin,           // crash mid-step, readmitted at the next commit
  kRepeatedCrashRejoin,   // the same rank crashes and rejoins twice
  kFreshJoin,             // latent capacity rank admitted mid-run
  kGracefulLeave,         // planned departure at a commit (LEFT, not CRASHED)
  kJoinDuringCollective,  // intent pending while step collectives are in
                          // flight; admission must wait for the commit
  kLowRankRejoin,         // Power-SGD crash+rejoin; Q rides the donor
                          // broadcast
  kSoak,                  // long horizon: join + crash + leave + repeated
                          // crash, convergence-tolerance envelope vs the
                          // fault-free baseline
};

[[nodiscard]] const char* ToString(ChurnScenario s) noexcept;
[[nodiscard]] std::vector<ChurnScenario> AllChurnScenarios();

struct ChurnOptions {
  // Initial world size; capacity (SessionOptions::max_world_size) is
  // world_size + 1 for join scenarios and world_size otherwise.
  int world_size = 3;
  // Training steps == membership commits (one commit_view per step).
  int steps = 6;
  uint64_t seed = 0xC4E27ull;
  // L-inf envelope for the soak scenario's final model against the
  // fault-free fixed-membership baseline. Churn changes which gradients
  // are aggregated, so the soak model legitimately drifts; the envelope
  // bounds the drift (steps * lr * max |combined gradient| difference) and
  // catches divergence, NaNs, and corruption.
  double tolerance = 6.0;
};

// Raw outcome of one elastic run, indexed by capacity slot.
struct ChurnRun {
  std::vector<std::vector<std::byte>> outputs;  // final model bytes
  std::vector<uint8_t> finished;    // slot was alive at the end of the run
  std::vector<int> generation;      // Communicator::join_generation() at end
  std::vector<double> ef_gap;       // telescoping ledger gap (Top-k)
  std::vector<int> crashed;         // Session::crashed_ranks (crash order)
  std::vector<int> departed;        // Session::departed_ranks (commit order)
  uint64_t epoch = 0;               // Session::membership_epoch
  std::string error;                // non-empty when the run failed
  bool detected = false;            // the failure was fault::DetectedError
};

// One classified churn case. Reuses the chaos outcome taxonomy; `ok()`
// means recovered-or-detected — no silent divergence, no vacuous pass.
struct ChurnCaseResult {
  std::string name;
  ChaosOutcome outcome = ChaosOutcome::kNoInjection;
  uint64_t seed_used = 0;  // replay handle
  std::string detail;

  [[nodiscard]] bool ok() const {
    return outcome == ChaosOutcome::kRecovered ||
           outcome == ChaosOutcome::kDetected;
  }
  [[nodiscard]] std::string Summary() const;
};

// Runs the elastic training workload for `scenario` under its membership
// plan (exposed for determinism tests: two calls with the same options are
// byte-identical).
[[nodiscard]] ChurnRun RunChurnWorkload(ChurnScenario scenario,
                                        const ChurnOptions& opt);

// One cell of the churn matrix: replay-determinism gate, then membership/
// output/ledger classification (and, for kSoak, the tolerance envelope
// against the fault-free baseline).
[[nodiscard]] ChurnCaseResult RunChurnScenario(ChurnScenario scenario,
                                               const ChurnOptions& opt);

}  // namespace acps::fault
