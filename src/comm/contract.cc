#include "comm/contract.h"

#include <sstream>

#include "tensor/check.h"

namespace acps::comm {

const char* ToString(CollectiveKind kind) noexcept {
  switch (kind) {
    case CollectiveKind::kNone: return "none";
    case CollectiveKind::kBarrier: return "barrier";
    case CollectiveKind::kAllReduce: return "all_reduce";
    case CollectiveKind::kAllGatherBytes: return "all_gather_bytes";
    case CollectiveKind::kBroadcast: return "broadcast";
    case CollectiveKind::kViewCommit: return "view_commit";
  }
  return "unknown";
}

bool CollectiveFingerprint::Matches(const CollectiveFingerprint& other) const {
  return epoch == other.epoch && MatchesIgnoringEpoch(other);
}

bool CollectiveFingerprint::MatchesIgnoringEpoch(
    const CollectiveFingerprint& other) const {
  return kind == other.kind && algo == other.algo && root == other.root &&
         bytes == other.bytes;
}

std::string CollectiveFingerprint::Describe() const {
  std::ostringstream oss;
  oss << ToString(kind) << '[';
  bool first = true;
  const auto sep = [&]() -> std::ostringstream& {
    if (!first) oss << ", ";
    first = false;
    return oss;
  };
  if (algo >= 0) sep() << (algo == 0 ? "ring" : "naive");
  if (root >= 0) sep() << "root=" << root;
  if (epoch > 0) sep() << "epoch=" << epoch;
  if (kind != CollectiveKind::kBarrier && kind != CollectiveKind::kViewCommit)
    sep() << bytes << " B";
  oss << ']';
  return oss.str();
}

void ContractChecker::Reset(int world_size) {
  ACPS_CHECK_MSG(world_size >= 1, "world_size must be >= 1");
  std::lock_guard lock(contract_mu_);
  deposits_.assign(static_cast<size_t>(world_size), CollectiveFingerprint{});
  status_.assign(static_cast<size_t>(world_size), RankStatus{});
}

void ContractChecker::Deposit(int rank, const CollectiveFingerprint& fp) {
  std::lock_guard lock(contract_mu_);
  ACPS_CHECK_MSG(rank >= 0 && rank < static_cast<int>(deposits_.size()),
                 "rank out of range");
  deposits_[static_cast<size_t>(rank)] = fp;
}

std::optional<std::string> ContractChecker::Validate() const {
  std::lock_guard lock(contract_mu_);
  // Baseline = first participating rank; crashed/latent/departed ranks'
  // deposits are stale by definition and excluded from the comparison.
  int base = -1;
  for (size_t r = 0; r < deposits_.size(); ++r) {
    if (!Excluded(status_[r])) {
      base = static_cast<int>(r);
      break;
    }
  }
  if (base < 0) return std::nullopt;
  bool diverged = false;
  bool epoch_only = true;
  for (size_t r = static_cast<size_t>(base) + 1; r < deposits_.size(); ++r) {
    if (Excluded(status_[r])) continue;
    if (!deposits_[static_cast<size_t>(base)].Matches(deposits_[r])) {
      diverged = true;
      if (!deposits_[static_cast<size_t>(base)].MatchesIgnoringEpoch(
              deposits_[r]))
        epoch_only = false;
    }
  }
  if (!diverged) return std::nullopt;

  std::ostringstream oss;
  if (epoch_only) {
    oss << "collective contract violation: membership view transition skew — "
           "workers issued the same collective under different membership "
           "epochs (a rank ran past a view commit its peers have not "
           "reached)\n";
  } else {
    oss << "collective contract violation: workers issued mismatched "
           "collectives\n";
  }
  for (size_t r = 0; r < deposits_.size(); ++r) {
    oss << "  rank " << r << ": ";
    if (status_[r].dead) {
      oss << "CRASHED (fail-stop, excluded)\n";
      continue;
    }
    if (status_[r].latent) {
      oss << "not yet joined (latent capacity slot, excluded)\n";
      continue;
    }
    if (status_[r].left) {
      oss << "LEFT (graceful departure, excluded)\n";
      continue;
    }
    oss << deposits_[r].Describe();
    if (!deposits_[static_cast<size_t>(base)].Matches(deposits_[r]))
      oss << "   <-- differs from rank " << base;
    oss << '\n';
  }
  if (epoch_only) {
    oss << "membership epochs must advance in lockstep: every rank passes "
           "the same barrier-aligned view commit before issuing collectives "
           "in the new epoch (DESIGN.md, elastic membership)";
  } else {
    oss << "every worker of a group must issue the same sequence of "
           "collectives with matching sizes (DESIGN.md, NCCL usage contract)";
  }
  return oss.str();
}

void ContractChecker::SetDead(int rank) {
  std::lock_guard lock(contract_mu_);
  ACPS_CHECK_MSG(rank >= 0 && rank < static_cast<int>(status_.size()),
                 "rank out of range");
  auto& st = status_[static_cast<size_t>(rank)];
  st.dead = true;
  st.active = false;
}

void ContractChecker::SetAlive(int rank) {
  std::lock_guard lock(contract_mu_);
  ACPS_CHECK_MSG(rank >= 0 && rank < static_cast<int>(status_.size()),
                 "rank out of range");
  auto& st = status_[static_cast<size_t>(rank)];
  st.dead = false;
  st.latent = false;
  st.left = false;
  st.join_waiting = false;
}

void ContractChecker::SetLatent(int rank) {
  std::lock_guard lock(contract_mu_);
  ACPS_CHECK_MSG(rank >= 0 && rank < static_cast<int>(status_.size()),
                 "rank out of range");
  auto& st = status_[static_cast<size_t>(rank)];
  st.latent = true;
  st.active = false;
}

void ContractChecker::SetLeft(int rank) {
  std::lock_guard lock(contract_mu_);
  ACPS_CHECK_MSG(rank >= 0 && rank < static_cast<int>(status_.size()),
                 "rank out of range");
  auto& st = status_[static_cast<size_t>(rank)];
  st.left = true;
  st.active = false;
}

void ContractChecker::NoteJoinWaiting(int rank, bool waiting) {
  std::lock_guard lock(contract_mu_);
  ACPS_CHECK_MSG(rank >= 0 && rank < static_cast<int>(status_.size()),
                 "rank out of range");
  status_[static_cast<size_t>(rank)].join_waiting = waiting;
}

void ContractChecker::NoteEpoch(int rank, uint64_t epoch) {
  std::lock_guard lock(contract_mu_);
  ACPS_CHECK_MSG(rank >= 0 && rank < static_cast<int>(status_.size()),
                 "rank out of range");
  status_[static_cast<size_t>(rank)].epoch = epoch;
}

void ContractChecker::NoteStraggler(int rank, int64_t ticks) {
  std::lock_guard lock(contract_mu_);
  ACPS_CHECK_MSG(rank >= 0 && rank < static_cast<int>(status_.size()),
                 "rank out of range");
  status_[static_cast<size_t>(rank)].straggler_ticks += ticks;
}

int64_t ContractChecker::straggler_ticks(int rank) const {
  std::lock_guard lock(contract_mu_);
  ACPS_CHECK_MSG(rank >= 0 && rank < static_cast<int>(status_.size()),
                 "rank out of range");
  return status_[static_cast<size_t>(rank)].straggler_ticks;
}

void ContractChecker::Enter(int rank, const CollectiveFingerprint& fp) {
  std::lock_guard lock(contract_mu_);
  ACPS_CHECK_MSG(rank >= 0 && rank < static_cast<int>(status_.size()),
                 "rank out of range");
  auto& st = status_[static_cast<size_t>(rank)];
  st.current = fp;
  st.active = true;
  ++st.seq;
}

void ContractChecker::Exit(int rank) {
  std::lock_guard lock(contract_mu_);
  ACPS_CHECK_MSG(rank >= 0 && rank < static_cast<int>(status_.size()),
                 "rank out of range");
  status_[static_cast<size_t>(rank)].active = false;
}

std::string ContractChecker::BlockedReport() const {
  std::lock_guard lock(contract_mu_);
  std::ostringstream oss;
  oss << "per-rank collective status:\n";
  for (size_t r = 0; r < status_.size(); ++r) {
    const auto& st = status_[r];
    oss << "  rank " << r << ": ";
    if (st.join_waiting)
      oss << "awaiting admission (rejoin/join parked at the next view "
             "commit, not deadlocked)";
    else if (st.dead)
      oss << "CRASHED (fail-stop after " << st.seq << " collectives)";
    else if (st.latent)
      oss << "not yet joined (latent capacity slot)";
    else if (st.left)
      oss << "LEFT (graceful departure after " << st.seq << " collectives)";
    else if (st.active)
      oss << "blocked in " << st.current.Describe() << " (collective #"
          << st.seq << ')';
    else
      oss << "idle (completed " << st.seq << " collectives)";
    if (st.epoch > 0) oss << ", epoch " << st.epoch;
    if (st.straggler_ticks > 0)
      oss << ", straggler delay " << st.straggler_ticks << " ticks";
    oss << '\n';
  }
  return oss.str();
}

}  // namespace acps::comm
