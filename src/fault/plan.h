// Seeded, replayable fault plans (DESIGN.md §6f).
//
// A FaultPlan is the standard FaultInjector used by the chaos harness and
// tests. Every decision is a pure function of (seed, event coordinates): a
// SplitMix64-style hash of (seed, seq, rank, site) compared against the
// configured rate. No wall-clock input, no mutable per-event state — so two
// runs of the same plan against the same workload inject byte-identical
// fault sequences, and a failure report's (seed, seq, rank) triple replays
// exactly. Faults fire only on retry attempt 0: the transport's bounded
// retry then converges deterministically instead of racing the injector.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/injector.h"

namespace acps::fault {

// Deterministic 64-bit mix (SplitMix64 finalizer). Exposed for tests.
[[nodiscard]] uint64_t Mix64(uint64_t x) noexcept;

// One membership-churn event in a plan's ordered schedule. `at` is 1-based:
// for kCrash it is the victim's per-rank collective-entry index; for
// kRejoin/kJoin/kLeave it is the membership-commit index the event
// targets. kRejoin and kJoin share
// admission semantics (first commit >= `at` at which the rank is down) and
// differ only in intent: kRejoin re-admits a previously crashed/departed
// rank, kJoin admits a latent rank that has never run.
struct MembershipEvent {
  enum class Kind : uint8_t { kCrash, kRejoin, kJoin, kLeave };
  Kind kind = Kind::kCrash;
  int rank = 0;
  uint64_t at = 1;
};

[[nodiscard]] const char* ToString(MembershipEvent::Kind kind) noexcept;

struct FaultPlanConfig {
  uint64_t seed = 1;

  // The wire/read fault kind this plan injects (kDrop, kDuplicate,
  // kStaleRead or kCorrupt), fired per matching event with probability
  // `rate` (0..1). kStraggler and membership churn are driven by the
  // fields below instead.
  FaultKind kind = FaultKind::kNone;
  double rate = 0.0;

  // Straggler injection at collective entry: with probability `rate`, the
  // entering rank is charged `straggler_ticks` of virtual delay.
  int64_t straggler_ticks = 64;

  // Ordered membership schedule: repeated crashes, rejoins, fresh joins
  // and graceful leaves. Order in the vector is documentation only —
  // every event is keyed by its own (rank, at) coordinates, so the
  // schedule is replayable regardless of listing order.
  std::vector<MembershipEvent> membership;
};

class FaultPlan final : public FaultInjector {
 public:
  explicit FaultPlan(FaultPlanConfig config);

  FaultKind OnPublish(int rank, uint64_t seq, int attempt) override;
  FaultKind OnRead(int rank, uint64_t seq, int attempt) override;
  EntryDecision OnCollectiveEntry(int rank, uint64_t collective_index) override;
  bool LeavesAtCommit(int rank, uint64_t commit_index) override;
  std::vector<AdmissionIntent> AdmissionSchedule() override;

  // Total faults actually injected (all kinds). The chaos harness requires
  // this to be > 0 before it will claim a fault kind "recovered" — a plan
  // that never fired proves nothing.
  [[nodiscard]] int64_t injected() const {
    return injected_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const FaultPlanConfig& config() const { return config_; }

  // Human-readable identity for seed-replayable reports.
  [[nodiscard]] std::string Describe() const override;

 private:
  // True with probability config_.rate for the event at (seq, rank, site).
  [[nodiscard]] bool Fires(uint64_t seq, int rank, uint64_t site) const;

  FaultPlanConfig config_;
  std::atomic<int64_t> injected_{0};
};

// True when the plan's membership schedule admits or readmits at least one
// rank (kRejoin/kJoin events). Sessions use this to size the worker pool.
[[nodiscard]] bool HasAdmissions(const FaultPlanConfig& config);

}  // namespace acps::fault
