#include "comm/transport.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <cstring>

namespace acps::comm {
namespace detail {
namespace {

// xxHash64's primes and round. Round is a bijection in `acc` for a fixed
// word and in `word` for a fixed accumulator: the odd multipliers are
// invertible mod 2^64, and addition and rotation are.
constexpr uint64_t kP1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kP3 = 0x165667B19E3779F9ull;
constexpr uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kP5 = 0x27D4EB2F165667C5ull;

uint64_t Round(uint64_t acc, uint64_t word) noexcept {
  return std::rotl(acc + word * kP2, 31) * kP1;
}

template <typename T>
T Load(const std::byte* p) noexcept {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

}  // namespace

uint64_t EnvelopeChecksum(std::span<const std::byte> bytes, uint64_t seq,
                          uint64_t salt) noexcept {
  const std::byte* p = bytes.data();
  const size_t n = bytes.size();
  const std::byte* const end = p + n;
  uint64_t h = (seq ^ salt) + kP5;
  if (n >= 32) {
    // The lanes start from constants, not from the seed, so the seed
    // reaches the seal only through `h` and a changed seed always shows.
    uint64_t v1 = kP1 + kP2, v2 = kP2, v3 = 0, v4 = 0 - kP1;
    for (const std::byte* const last = end - 32; p <= last; p += 32) {
      v1 = Round(v1, Load<uint64_t>(p));
      v2 = Round(v2, Load<uint64_t>(p + 8));
      v3 = Round(v3, Load<uint64_t>(p + 16));
      v4 = Round(v4, Load<uint64_t>(p + 24));
    }
    h = Round(Round(Round(Round(h, v1), v2), v3), v4);
  }
  h += n;
  for (; end - p >= 8; p += 8)
    h = std::rotl(h ^ Round(0, Load<uint64_t>(p)), 27) * kP1 + kP4;
  if (end - p >= 4) {
    h = std::rotl(h ^ (Load<uint32_t>(p) * kP1), 23) * kP2 + kP3;
    p += 4;
  }
  for (; p != end; ++p)
    h = std::rotl(h ^ (static_cast<uint64_t>(*p) * kP5), 11) * kP1;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

GroupState::GroupState(int p, int64_t timeout_ms)
    : world_size(p), barrier_timeout_ms(timeout_ms),
      mailbox(static_cast<size_t>(p)),
      retry_flag(static_cast<size_t>(p), 0),
      alive(static_cast<size_t>(p), 1), alive_count(p),
      ever_ran(static_cast<size_t>(p), 1) {
  contract.Reset(p);
}

std::string GroupState::AbortMessage() const {
  std::string msg = "communicator group aborted";
  if (!abort_reason.empty()) msg += ": " + abort_reason;
  return msg;
}

void GroupState::Barrier() {
  // Barrier entry is rank-agnostic here (GroupState does not know which
  // worker is calling), so the hook reports rank -1; the schedule
  // controller treats it as a pure perturbation point.
  check::SchedPoint(check::PointKind::kBarrierEnter, /*rank=*/-1);
  std::unique_lock lock(group_mu);
  if (aborted) throw Error(AbortMessage());
  if (++arrived >= alive_count) {
    arrived = 0;
    sense = !sense;
    cv.notify_all();
  } else {
    const bool my_sense = sense;
    const auto pred = [&] { return sense != my_sense || aborted; };
    if (barrier_timeout_ms > 0) {
      if (!cv.wait_for(lock, std::chrono::milliseconds(barrier_timeout_ms),
                       pred)) {
        // Some worker never arrived: collective mismatch or a hung worker.
        // Compose the watchdog report (who is blocked in which collective),
        // abort the whole group so every waiter unblocks, and surface the
        // report through every thrown error.
        std::string report =
            "collective watchdog: barrier timeout after " +
            std::to_string(barrier_timeout_ms) +
            " ms — a worker never reached the collective (mismatched "
            "collective sequence or hung worker)\n" +
            contract.BlockedReport();
        aborted = true;
        abort_reason = report;
        cv.notify_all();
        throw Error(report);
      }
    } else {
      cv.wait(lock, pred);
    }
    if (aborted) throw Error(AbortMessage());
  }
}

void GroupState::Abort() {
  std::lock_guard lock(group_mu);
  aborted = true;
  cv.notify_all();
}

void GroupState::MarkDead(int rank) {
  std::lock_guard lock(group_mu);
  auto& a = alive[static_cast<size_t>(rank)];
  if (a == 0) return;
  a = 0;
  --alive_count;
  crashed.push_back(rank);
  contract.SetDead(rank);
  if (alive_count > 0 && arrived >= alive_count) {
    arrived = 0;
    sense = !sense;
  }
  cv.notify_all();
}

void GroupState::MarkLeft(int rank) {
  std::lock_guard lock(group_mu);
  auto& a = alive[static_cast<size_t>(rank)];
  if (a == 0) return;
  a = 0;
  --alive_count;
  departed.push_back(rank);
  contract.SetLeft(rank);
  if (alive_count > 0 && arrived >= alive_count) {
    arrived = 0;
    sense = !sense;
  }
  cv.notify_all();
}

ViewTransition GroupState::ApplyViewCommit(uint64_t commit_index,
                                           uint64_t applier_seq) {
  std::lock_guard lock(group_mu);
  if (commit_count >= commit_index) {
    // Another rank of this commit already applied it; the guard makes the
    // outcome independent of which rank reached the lock first (the next
    // commit cannot start before this one's closing barrier, so
    // last_transition is exactly this commit's record).
    return last_transition;
  }
  commit_count = commit_index;
  ViewTransition t;
  t.commit_index = commit_index;
  // This commit's graceful leavers: MarkLeft entries not yet reported.
  for (size_t i = departed_reported; i < departed.size(); ++i)
    t.left.push_back(departed[i]);
  departed_reported = departed.size();
  std::sort(t.left.begin(), t.left.end());
  // Admissions: every unconsumed intent whose eligibility window opened
  // (at_commit <= commit_index) and whose rank is currently down. A rank
  // that has not crashed yet keeps its intent for a later commit.
  for (JoinIntent& intent : join_intents) {
    if (intent.consumed || intent.at_commit > commit_index) continue;
    const auto r = static_cast<size_t>(intent.rank);
    if (alive[r] != 0) continue;
    intent.consumed = true;
    alive[r] = 1;
    ++alive_count;
    contract.SetAlive(intent.rank);
    t.joined.push_back(intent.rank);
    if (ever_ran[r] != 0) t.rejoined.push_back(intent.rank);
    ever_ran[r] = 1;
  }
  std::sort(t.joined.begin(), t.joined.end());
  std::sort(t.rejoined.begin(), t.rejoined.end());
  epoch += 1;
  t.epoch = epoch;
  commit_seq = applier_seq;
  last_transition = t;
  // Growing alive_count can never complete an in-flight barrier round
  // (arrived only moved further from the target), so no round fix-up is
  // needed — only parked joiners must be woken.
  cv.notify_all();
  return t;
}

void GroupState::RegisterAdmission(int rank, uint64_t at_commit) {
  // Fired before the lock: sched-point-under-lock forbids controlled
  // yields inside a guard, and the perturbation window is the registration
  // order itself, not the mailbox write.
  check::SchedPoint(check::PointKind::kJoinIntent, rank);
  std::lock_guard lock(group_mu);
  join_intents.push_back({rank, at_commit, /*consumed=*/false});
}

bool GroupState::HasPendingAdmission(int rank) {
  std::lock_guard lock(group_mu);
  // A commit may consume this rank's intent (flipping it alive) between the
  // crash unwind and this check; the readmission is then already in flight
  // and the worker must proceed to AwaitAdmission (which returns kAdmitted
  // immediately) — exiting instead would strand the survivors' closing
  // barrier waiting on a thread that is gone.
  if (alive[static_cast<size_t>(rank)] != 0) return true;
  for (const JoinIntent& intent : join_intents) {
    if (intent.rank == rank && !intent.consumed) return true;
  }
  return false;
}

AdmissionStatus GroupState::AwaitAdmission(int rank, int64_t timeout_ms) {
  std::unique_lock lock(group_mu);
  contract.NoteJoinWaiting(rank, true);
  const auto pred = [&] {
    return alive[static_cast<size_t>(rank)] == 1 || aborted || working == 0;
  };
  bool woke = true;
  if (timeout_ms > 0) {
    woke = cv.wait_for(lock, std::chrono::milliseconds(timeout_ms), pred);
  } else {
    cv.wait(lock, pred);
  }
  AdmissionStatus status;
  if (woke && alive[static_cast<size_t>(rank)] == 1) {
    // ApplyViewCommit already cleared the waiting flag via contract.SetAlive.
    status = AdmissionStatus::kAdmitted;
  } else if (woke && aborted) {
    contract.NoteJoinWaiting(rank, false);
    status = AdmissionStatus::kAborted;
  } else {
    // Group drained (no thread can commit a view again) or timed out.
    // Consume the rank's remaining intents under the same lock the commit
    // applier admits under, so a later commit cannot admit a joiner that
    // already gave up (which would leave its closing barrier waiting on a
    // thread that is gone).
    for (JoinIntent& intent : join_intents) {
      if (intent.rank == rank) intent.consumed = true;
    }
    contract.NoteJoinWaiting(rank, false);
    status = AdmissionStatus::kAbandoned;
  }
  return status;
}

void GroupState::CheckedRendezvous(int rank, const CollectiveFingerprint& fp) {
  if (!contract_enabled) return;
  contract.Deposit(rank, fp);
  Barrier();
  if (auto diff = contract.Validate()) throw Error(*diff);
  Barrier();
}

}  // namespace detail

namespace {

// ACPS_COLLECTIVE_TIMEOUT_MS resolution for the kCollectiveTimeoutFromEnv
// default: unset/unparsable -> 60000, <= 0 -> watchdog disabled.
int64_t ResolveBarrierTimeout(int64_t requested) {
  if (requested != kCollectiveTimeoutFromEnv) return requested;
  if (const char* env = std::getenv("ACPS_COLLECTIVE_TIMEOUT_MS")) {
    char* end = nullptr;
    const long long v = std::strtoll(env, &end, 10);
    if (end != env && *end == '\0') return static_cast<int64_t>(v);
  }
  return 60000;
}

// Contract checking defaults on in sanitizer builds (the cmake presets
// define ACPS_SANITIZE_BUILD) and off otherwise; ACPS_COLLECTIVE_CONTRACT
// (0/1) overrides either way.
bool ResolveContractDefault() {
  if (const char* env = std::getenv("ACPS_COLLECTIVE_CONTRACT"))
    return env[0] != '\0' && env[0] != '0';
#ifdef ACPS_SANITIZE_BUILD
  return true;
#else
  return false;
#endif
}

}  // namespace

std::string TransportOptions::Validate() const {
  std::string err;
  const auto add = [&err](const std::string& msg) {
    if (!err.empty()) err += "; ";
    err += msg;
  };
  if (max_sessions < 0)
    add("max_sessions must be >= 0 (0 = unlimited), got " +
        std::to_string(max_sessions));
  if (max_total_ranks < 0)
    add("max_total_ranks must be >= 0 (0 = unlimited), got " +
        std::to_string(max_total_ranks));
  return err;
}

Transport::Transport(TransportOptions options) : options_(options) {
  const std::string err = options_.Validate();
  ACPS_CHECK_MSG(err.empty(), "invalid TransportOptions: " << err);
  options_.barrier_timeout_ms =
      ResolveBarrierTimeout(options_.barrier_timeout_ms);
}

Transport::~Transport() = default;

void Transport::set_tracer(obs::Tracer* tracer) noexcept {
  std::lock_guard lock(transport_mu_);
  tracer_ = tracer;
}

obs::Tracer* Transport::tracer() const noexcept {
  std::lock_guard lock(transport_mu_);
  return tracer_;
}

void Transport::set_metrics(obs::MetricsRegistry* metrics) noexcept {
  std::lock_guard lock(transport_mu_);
  metrics_ = metrics;
}

obs::MetricsRegistry* Transport::metrics() const noexcept {
  std::lock_guard lock(transport_mu_);
  return metrics_;
}

int Transport::active_sessions() const {
  std::lock_guard lock(transport_mu_);
  return active_sessions_;
}

int Transport::active_ranks() const {
  std::lock_guard lock(transport_mu_);
  return active_ranks_;
}

uint64_t Transport::sessions_opened() const {
  std::lock_guard lock(transport_mu_);
  return sessions_opened_;
}

uint64_t Transport::EnvelopeSalt(const std::string& job_id) {
  // FNV-1a over the id, then a SplitMix64-style finalizer: deterministic
  // per job id (the solo-parity gate re-runs a job under the same id and
  // must see identical behaviour), well-mixed across ids.
  uint64_t h = 1469598103934665603ull;
  for (const char c : job_id) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

std::unique_ptr<detail::GroupState> Transport::OpenChannel(
    const std::string& job_id, int world_size) {
  ACPS_CHECK_MSG(world_size >= 1, "world_size must be >= 1, got "
                                      << world_size << " (job '" << job_id
                                      << "')");
  {
    std::lock_guard lock(transport_mu_);
    if (options_.max_sessions > 0 &&
        active_sessions_ + 1 > options_.max_sessions) {
      throw Error("transport at capacity: " + std::to_string(active_sessions_) +
                  " open sessions of max " +
                  std::to_string(options_.max_sessions) +
                  " (rejecting job '" + job_id + "')");
    }
    if (options_.max_total_ranks > 0 &&
        active_ranks_ + world_size > options_.max_total_ranks) {
      throw Error("transport at capacity: " + std::to_string(active_ranks_) +
                  " ranks in use of max " +
                  std::to_string(options_.max_total_ranks) +
                  " (rejecting job '" + job_id + "', world_size " +
                  std::to_string(world_size) + ")");
    }
    ++active_sessions_;
    active_ranks_ += world_size;
    ++sessions_opened_;
  }
  auto state = std::make_unique<detail::GroupState>(
      world_size, options_.barrier_timeout_ms);
  state->contract_enabled = ResolveContractDefault();
  state->envelope_salt = EnvelopeSalt(job_id);
  state->metric_prefix = "job/" + job_id + "/";
  return state;
}

void Transport::CloseChannel(int world_size) noexcept {
  std::lock_guard lock(transport_mu_);
  --active_sessions_;
  active_ranks_ -= world_size;
}

}  // namespace acps::comm
