#include "fault/plan.h"

#include <sstream>
#include <utility>

namespace acps::fault {

namespace {
// Distinct site tags keep publish / read / entry decision streams
// independent even when (seq, rank) collide.
constexpr uint64_t kSitePublish = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kSiteRead = 0xbf58476d1ce4e5b9ULL;
constexpr uint64_t kSiteEntry = 0x94d049bb133111ebULL;
}  // namespace

const char* ToString(MembershipEvent::Kind kind) noexcept {
  switch (kind) {
    case MembershipEvent::Kind::kCrash: return "crash";
    case MembershipEvent::Kind::kRejoin: return "rejoin";
    case MembershipEvent::Kind::kJoin: return "join";
    case MembershipEvent::Kind::kLeave: return "leave";
  }
  return "?";
}

FaultPlan::FaultPlan(FaultPlanConfig config) : config_(std::move(config)) {}

uint64_t Mix64(uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

bool FaultPlan::Fires(uint64_t seq, int rank, uint64_t site) const {
  if (config_.rate <= 0.0) return false;
  uint64_t h = Mix64(config_.seed ^ Mix64(seq ^ Mix64(
                         site ^ static_cast<uint64_t>(rank))));
  // Top 53 bits -> uniform double in [0, 1).
  double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < config_.rate;
}

FaultKind FaultPlan::OnPublish(int rank, uint64_t seq, int attempt) {
  if (attempt != 0) return FaultKind::kNone;
  switch (config_.kind) {
    case FaultKind::kDrop:
    case FaultKind::kDuplicate:
    case FaultKind::kCorrupt:
      if (Fires(seq, rank, kSitePublish)) {
        injected_.fetch_add(1, std::memory_order_relaxed);
        return config_.kind;
      }
      return FaultKind::kNone;
    default:
      return FaultKind::kNone;
  }
}

FaultKind FaultPlan::OnRead(int rank, uint64_t seq, int attempt) {
  if (attempt != 0 || config_.kind != FaultKind::kStaleRead)
    return FaultKind::kNone;
  if (Fires(seq, rank, kSiteRead)) {
    injected_.fetch_add(1, std::memory_order_relaxed);
    return FaultKind::kStaleRead;
  }
  return FaultKind::kNone;
}

EntryDecision FaultPlan::OnCollectiveEntry(int rank,
                                           uint64_t collective_index) {
  // The same rank may carry several kCrash events (crash, rejoin, crash
  // again at a later entry index) — the per-rank collective index keeps
  // counting across generations, so each event fires at most once.
  for (const MembershipEvent& ev : config_.membership) {
    if (ev.kind == MembershipEvent::Kind::kCrash && ev.rank == rank &&
        ev.at == collective_index) {
      injected_.fetch_add(1, std::memory_order_relaxed);
      return {FaultKind::kCrash, 0};
    }
  }
  if (config_.kind == FaultKind::kStraggler &&
      Fires(collective_index, rank, kSiteEntry)) {
    injected_.fetch_add(1, std::memory_order_relaxed);
    return {FaultKind::kStraggler, config_.straggler_ticks};
  }
  return {};
}

bool FaultPlan::LeavesAtCommit(int rank, uint64_t commit_index) {
  for (const MembershipEvent& ev : config_.membership) {
    if (ev.kind == MembershipEvent::Kind::kLeave && ev.rank == rank &&
        ev.at == commit_index) {
      injected_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

std::vector<AdmissionIntent> FaultPlan::AdmissionSchedule() {
  std::vector<AdmissionIntent> intents;
  for (const MembershipEvent& ev : config_.membership) {
    if (ev.kind == MembershipEvent::Kind::kRejoin ||
        ev.kind == MembershipEvent::Kind::kJoin) {
      intents.push_back({ev.rank, ev.at});
    }
  }
  return intents;
}

bool HasAdmissions(const FaultPlanConfig& config) {
  for (const MembershipEvent& ev : config.membership) {
    if (ev.kind == MembershipEvent::Kind::kRejoin ||
        ev.kind == MembershipEvent::Kind::kJoin) {
      return true;
    }
  }
  return false;
}

std::string FaultPlan::Describe() const {
  std::ostringstream os;
  os << "FaultPlan{seed=" << config_.seed << ", kind="
     << ToString(config_.kind) << ", rate=" << config_.rate;
  if (!config_.membership.empty()) {
    os << ", membership=[";
    for (size_t i = 0; i < config_.membership.size(); ++i) {
      const MembershipEvent& ev = config_.membership[i];
      if (i > 0) os << " ";
      os << ToString(ev.kind) << ":r" << ev.rank << "@" << ev.at;
    }
    os << "]";
  }
  os << ", injected=" << injected() << "}";
  return os.str();
}

}  // namespace acps::fault
