// Collective usage-contract checking for the in-process communicator.
//
// NCCL-style collectives have an implicit contract: every worker of a group
// must issue the same sequence of collectives with matching shapes. Break it
// and a real cluster deadlocks or silently mis-reduces. In checked builds
// (sanitizer presets, or ACPS_COLLECTIVE_CONTRACT=1) every collective entry
// becomes an explicit rendezvous: each rank deposits a fingerprint of the
// call it is about to make — (op kind, byte size, algorithm, root) — and the group fails fast with a per-rank diff when the
// fingerprints diverge, instead of hanging until the watchdog or corrupting
// the reduction.
//
// Independently of fingerprint checking, the checker tracks which collective
// each rank is currently inside (always on — one small mutex-guarded write
// per collective). When the barrier watchdog fires it renders that table, so
// a timeout reports "rank 2 blocked in all_reduce[ring] seq=17, rank 1 idle
// after seq=16" rather than a bare "timeout".
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "par/lock_level.h"

namespace acps::comm {

// Which collective a rank is issuing. kNone means "not in a collective".
enum class CollectiveKind {
  kNone,
  kBarrier,
  kAllReduce,
  kAllGatherBytes,
  kBroadcast,
  kViewCommit,  // barrier-aligned membership-view commit (elastic sessions)
};

[[nodiscard]] const char* ToString(CollectiveKind kind) noexcept;

// Everything that must match across ranks for one collective call.
struct CollectiveFingerprint {
  CollectiveKind kind = CollectiveKind::kNone;
  uint64_t bytes = 0;  // payload bytes this rank contributes
  int algo = -1;       // static_cast<int>(AllReduceAlgo), -1 when n/a
  int root = -1;       // broadcast root, -1 when n/a
  // Membership epoch the issuing rank believes it is in (0 in non-elastic
  // sessions, so legacy fingerprints compare exactly as before). An
  // epoch-only divergence is a view-transition skew — one rank committed a
  // membership change the other has not seen — and is reported as such,
  // not as a generic shape mismatch.
  uint64_t epoch = 0;

  // Contract equality: every field compared.
  [[nodiscard]] bool Matches(const CollectiveFingerprint& other) const;

  // Like Matches but ignoring `epoch` — used to classify a divergence as
  // "pure view-transition skew" versus a real shape mismatch.
  [[nodiscard]] bool MatchesIgnoringEpoch(
      const CollectiveFingerprint& other) const;

  // "all_reduce[ring, 4096 B]" — the form used in diffs and reports.
  [[nodiscard]] std::string Describe() const;
};

// Shared per-group contract state. Thread-safe; one instance lives in the
// group's shared state next to the barrier.
class ContractChecker {
 public:
  // (Re)arms the checker for a group of `world_size` ranks.
  void Reset(int world_size);

  // --- Fingerprint rendezvous (checked builds) -----------------------------
  // Protocol, driven by the caller around its own barrier:
  //   Deposit(rank, fp);  barrier();  Validate();  barrier();
  // The first barrier makes all deposits visible, Validate() compares them,
  // and the trailing barrier keeps fast ranks from overwriting the slots
  // while slow ranks are still reading.
  void Deposit(int rank, const CollectiveFingerprint& fp);

  // Returns the per-rank diff when deposited fingerprints diverge, nullopt
  // when the group agrees. Crashed ranks are skipped (their slots hold the
  // fingerprint of whatever collective they died before); the comparison
  // baseline is the first alive rank. Every rank computes the same report.
  [[nodiscard]] std::optional<std::string> Validate() const;

  // --- Fault-tolerance bookkeeping (DESIGN.md §6f) -------------------------
  // Marks `rank` as fail-stopped: excluded from fingerprint validation and
  // annotated CRASHED in watchdog reports. Cleared by Reset.
  void SetDead(int rank);

  // --- Elastic-membership bookkeeping (DESIGN.md "Elastic membership") -----
  // Marks `rank` alive again after a committed (re)admission: re-included
  // in fingerprint validation, cleared of dead/left/latent/waiting flags.
  void SetAlive(int rank);

  // Marks `rank` latent: part of the channel's capacity but never yet
  // admitted. Excluded from validation; rendered "not yet joined" so a
  // watchdog report does not blame a rank that was never supposed to run.
  void SetLatent(int rank);

  // Marks `rank` as gracefully departed at a membership commit (vs crashed).
  void SetLeft(int rank);

  // Flags `rank` as parked in AwaitAdmission. A parked rank is rendered
  // "awaiting admission", never "blocked in <collective>", so a rejoin in
  // flight cannot masquerade as a deadlock.
  void NoteJoinWaiting(int rank, bool waiting);

  // Records the membership epoch `rank` last entered a collective under;
  // rendered in reports so epoch skew is visible at a glance.
  void NoteEpoch(int rank, uint64_t epoch);

  // Accumulates `ticks` of virtual straggler delay charged to `rank` at a
  // collective entry — the watchdog escalation path: a straggling rank shows
  // its accumulated delay in BlockedReport, so a timeout report
  // distinguishes "slow" from "gone".
  void NoteStraggler(int rank, int64_t ticks);
  [[nodiscard]] int64_t straggler_ticks(int rank) const;

  // --- Watchdog bookkeeping (always on) ------------------------------------
  // Marks `rank` as inside `fp` / back out of it. Each Enter bumps the
  // rank's collective sequence number.
  void Enter(int rank, const CollectiveFingerprint& fp);
  void Exit(int rank);

  // One line per rank: the collective it is blocked in (with its sequence
  // number) or "idle". Rendered into barrier-timeout errors.
  [[nodiscard]] std::string BlockedReport() const;

 private:
  struct RankStatus {
    CollectiveFingerprint current;
    bool active = false;
    bool dead = false;    // fail-stopped (SetDead)
    bool latent = false;  // capacity slot never admitted (SetLatent)
    bool left = false;    // graceful departure at a commit (SetLeft)
    bool join_waiting = false;    // parked in AwaitAdmission
    uint64_t seq = 0;             // collectives entered so far
    uint64_t epoch = 0;           // last membership epoch noted
    int64_t straggler_ticks = 0;  // cumulative virtual delay charged
  };

  // True when `status_[r]` should be excluded from fingerprint validation.
  [[nodiscard]] static bool Excluded(const RankStatus& st) {
    return st.dead || st.latent || st.left;
  }

  // Level 40: the watchdog composes BlockedReport and MarkDead calls
  // SetDead while holding GroupState::group_mu (30), so the contract lock
  // sits strictly below it in the hierarchy.
  mutable ACPS_LOCK_LEVEL(40) contract_mu_;
  std::vector<CollectiveFingerprint> deposits_;
  std::vector<RankStatus> status_;
};

}  // namespace acps::comm
