// Schedule explorer: drives every collective kind (and the GradReducer WFBP
// pipeline) through Session runs under a ScheduleController, and checks
// schedule-independence oracles after each run:
//
//   1. the run completes without exception (no contract violation, no
//      watchdog timeout, no ACPS_CHECK failure);
//   2. every rank's output is bitwise identical to an unperturbed baseline
//      run of the same workload (the collectives are deterministic functions
//      of their inputs, so ANY schedule must reproduce the baseline bits);
//   3. per-rank traffic counters match the baseline (chunking and message
//      counts are schedule-invariant);
//   4. where float association order is provably irrelevant (inputs are
//      small integers, sums stay exactly representable), the result equals
//      the arithmetic reference;
//   5. every rank ends with the same bytes: each workload's contract says
//      "all ranks end with the same value" (all-reduce, all-gather,
//      broadcast and the layers built on them).
//
// A violating random schedule is reported with its seed — re-running
// ReplaySeed with that seed reproduces the perturbation decisions (they are
// pure functions of (seed, window, rank)) — plus the controller's schedule
// trace. Exhaustive mode enumerates hand-off publish orders per window with
// an odometer over permutation indices and reports whether enumeration
// completed within the budget.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "check/schedule.h"

namespace acps::check {

enum class Workload {
  kAllReduceRing,
  kAllReduceNaive,
  kAllGatherBytes,
  kBroadcast,
  kBarrier,    // barriers interleaved with a small all-reduce
  kWfbpStep,   // GradReducer hook-driven step (low-rank + dense buckets)
  // Higher layers, explorable but not in AllCollectiveWorkloads() (they
  // compose the collectives above and would double-count enumeration):
  kOptimizerStep,  // DistributedOptimizer::Step over the same GradReducer
                   // via Aggregate (kOptStep point + SGD)
  kRejoin,         // elastic membership: crash mid-run, barrier-aligned
                   // readmission at the next commit_view, donor resync
                   // (kJoinIntent/kViewCommit/kRankDown/kRankUp points)
};

[[nodiscard]] const char* ToString(Workload w) noexcept;

// The collective kinds (everything except kWfbpStep).
[[nodiscard]] std::vector<Workload> AllCollectiveWorkloads();

struct ExploreOptions {
  int world_size = 3;
  int64_t numel = 36;           // elements per rank (small on purpose)
  int runs = 200;               // random schedules per Explore call
  uint64_t base_seed = 0xC0FFEEull;
  bool contract_checking = true;
  double perturb_prob = 0.5;
  std::optional<FaultSpec> fault;  // forwarded to every controlled run
  int max_reported_violations = 8;
};

struct Violation {
  uint64_t seed = 0;
  std::string what;      // which oracle failed, where, expected vs got
  std::string schedule;  // controller trace tail
};

struct ExploreReport {
  Workload workload = Workload::kAllReduceRing;
  int schedules_run = 0;
  int windows = 0;  // hand-off windows per schedule (from the first run)
  bool exhaustive_complete = false;  // exhaustive mode only
  int enforcement_misses = 0;        // exhaustive mode: must be 0 for trust
  std::vector<Violation> violations;

  [[nodiscard]] bool ok() const { return violations.empty(); }
  [[nodiscard]] std::string Summary() const;
};

// `runs` random perturbation schedules (seeds base_seed .. base_seed+runs-1).
[[nodiscard]] ExploreReport ExplorePerturbed(Workload w,
                                             const ExploreOptions& opt);

// Bounded exhaustive exploration of hand-off publish orders: enumerates
// permutation digit vectors over the workload's hand-off windows, stopping
// at `max_schedules`. exhaustive_complete is true when the odometer wrapped
// (every order visited).
[[nodiscard]] ExploreReport ExploreExhaustive(Workload w,
                                              const ExploreOptions& opt,
                                              int max_schedules = 4096);

// Re-runs one random schedule by seed; the report carries at most one
// violation. Deterministic for fault-injection runs and for the seed-keyed
// hand-off decisions of random runs.
[[nodiscard]] ExploreReport ReplaySeed(Workload w, const ExploreOptions& opt,
                                       uint64_t seed);

}  // namespace acps::check
