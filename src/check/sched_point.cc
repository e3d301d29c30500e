#include "check/sched_point.h"

namespace acps::check {

namespace detail {
std::atomic<SchedListener*> g_listener{nullptr};
}  // namespace detail

SchedListener* InstallSchedListener(SchedListener* listener) {
  return detail::g_listener.exchange(listener, std::memory_order_acq_rel);
}

const char* ToString(PointKind kind) noexcept {
  switch (kind) {
    case PointKind::kHandoffSend: return "handoff_send";
    case PointKind::kHandoffPublished: return "handoff_published";
    case PointKind::kRootPublish: return "root_publish";
    case PointKind::kBarrierEnter: return "barrier_enter";
    case PointKind::kWfbpReady: return "wfbp_ready";
    case PointKind::kBucketIssue: return "bucket_issue";
    case PointKind::kOptStep: return "opt_step";
    case PointKind::kJoinIntent: return "join_intent";
    case PointKind::kViewCommit: return "view_commit";
    case PointKind::kRankDown: return "rank_down";
    case PointKind::kRankUp: return "rank_up";
  }
  return "unknown";
}

}  // namespace acps::check
