// Schedule points: the instrumentation half of the model checker (acps::check).
//
// A SchedPoint marks a synchronization-sensitive spot in the runtime — a ring
// chunk hand-off about to be published, a payload just made visible in a
// mailbox, a barrier entry, a WFBP gradient-ready hook. When no listener is
// installed (the normal case, including release builds) a point costs one
// acquire load and a predicted-not-taken branch; nothing else happens. The
// model checker (schedule.h) installs a process-wide SchedListener that turns
// the points into controlled yields, enforced hand-off orders, or injected
// faults.
//
// This header is the only part of acps::check the instrumented layers
// (acps::comm, acps::core) depend on; it depends on nothing but the standard
// library, so the dependency arrow stays comm -> check::points, never
// check -> comm at the hook level. The explorer/oracle layers (explorer.h,
// oracles.h) sit above comm.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>

namespace acps::check {

// Where in the runtime a schedule point sits.
enum class PointKind : uint8_t {
  // Ring hand-off: every rank of the group is about to publish one chunk to
  // its mailbox (uniform participation — these are the windows the ordered /
  // exhaustive explorer enumerates).
  kHandoffSend,
  // The chunk is now visible in this rank's mailbox; `payload` is a mutable
  // view of the published bytes (fault injection mutates it here, strictly
  // before the barrier that releases readers).
  kHandoffPublished,
  // Rank-subset publish (broadcast root, naive all-reduce root re-publish):
  // perturbed but never order-enforced, since not every rank participates.
  kRootPublish,
  // Entering the group barrier. Rank is -1 when the call site cannot name
  // the rank (GroupState::Barrier is rank-agnostic); perturb-only.
  kBarrierEnter,
  // GradReducer: a gradient-ready hook fired (WFBP ordering point).
  kWfbpReady,
  // GradReducer: a fused bucket's all-reduce is about to be issued.
  kBucketIssue,
  // DistributedOptimizer: one training step (aggregate + SGD update) is
  // about to run. Perturb-only; fault site for step-granular injection.
  kOptStep,
  // Elastic membership: an admission intent was just registered with the
  // group (rejoin/fresh-join schedule entry). Perturb-only.
  kJoinIntent,
  // Elastic membership: this rank is about to enter the barrier-aligned
  // membership-view commit (epoch bump, admissions, departures).
  // Perturb-only — the commit itself is a pair of group barriers.
  kViewCommit,
  // Elastic membership: `rank` is leaving the live group (fail-stop crash
  // or graceful departure). Fired in the leaving rank's thread strictly
  // BEFORE the membership flip (MarkDead / MarkLeft), so a controller's
  // alive-set is updated before any survivor can publish in a window that
  // no longer includes the rank (the entry-stabilization barrier orders
  // the flip before the survivors' publishes).
  kRankDown,
  // Elastic membership: `rank` was readmitted (or freshly admitted) by a
  // view commit and is about to start its new communicator generation.
  // Fired after the admitting commit's closing barrier, before the rank's
  // first collective.
  kRankUp,
};

[[nodiscard]] const char* ToString(PointKind kind) noexcept;

// Receives every schedule point hit while installed. Implementations must be
// thread-safe: points fire concurrently from all worker threads.
class SchedListener {
 public:
  virtual ~SchedListener() = default;

  // `payload` is non-empty only for kHandoffPublished / kRootPublish, where
  // it views (mutably) the bytes just published to the rank's mailbox.
  virtual void OnSchedPoint(PointKind kind, int rank,
                            std::span<std::byte> payload) = 0;
};

namespace detail {
extern std::atomic<SchedListener*> g_listener;
}  // namespace detail

// Installs `listener` process-wide (nullptr uninstalls); returns the previous
// listener. The caller must guarantee no instrumented code is running during
// the swap and that the listener outlives its installation — in practice the
// explorer installs before Session::Run and uninstalls after it joins.
SchedListener* InstallSchedListener(SchedListener* listener);

// RAII installation for harness code.
class ScopedSchedListener {
 public:
  explicit ScopedSchedListener(SchedListener* listener)
      : previous_(InstallSchedListener(listener)) {}
  ~ScopedSchedListener() { InstallSchedListener(previous_); }
  ScopedSchedListener(const ScopedSchedListener&) = delete;
  ScopedSchedListener& operator=(const ScopedSchedListener&) = delete;

 private:
  SchedListener* previous_;
};

// The hook the instrumented layers call. Free when no listener is installed.
inline void SchedPoint(PointKind kind, int rank,
                       std::span<std::byte> payload = {}) {
  SchedListener* l = detail::g_listener.load(std::memory_order_acquire);
  if (l != nullptr) l->OnSchedPoint(kind, rank, payload);
}

}  // namespace acps::check
