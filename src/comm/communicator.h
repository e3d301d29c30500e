// In-process multi-worker communicator with real ring collectives.
//
// This is the NCCL stand-in (DESIGN.md §2): a comm::Session hosts `p`
// workers (one std::thread each) on a shared comm::Transport; every
// collective moves data through per-worker mailboxes with a barrier per
// ring step, so the *algorithm* — chunking, neighbor exchange, reduction
// order, and per-worker traffic — matches the ring implementations used on
// real clusters. Per-worker traffic counters let tests assert the Table II
// communication-volume formulas exactly.
//
// Concurrency model: collectives are rendezvous-synchronous. Every worker of
// the session must call the same sequence of collectives with matching sizes
// (mismatch throws). This mirrors NCCL's usage contract. Workers of
// *different* sessions share nothing but the transport substrate and never
// rendezvous with each other.
//
// Resilience (DESIGN.md §6f): every mailbox publish carries a sequence
// number + checksum envelope sealed under the session's salt. Readers
// validate both; a failed validation (dropped, replayed, stale, or corrupted
// chunk — injectable per session via Session::set_fault_injector)
// triggers a bounded, deterministic group retry with virtual-time backoff,
// so recoverable wire faults are absorbed with bitwise-identical results. A
// rank that fail-stops at a collective entry is removed from the membership
// view: subsequent collectives run over the surviving ranks (ring
// reconfigured, chunking over the alive count, dead all-gather blocks
// zeroed) and callers rescale by alive_world_size().
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "check/sched_point.h"
#include "comm/contract.h"
#include "comm/session.h"
#include "comm/transport.h"
#include "tensor/check.h"

namespace acps::obs {
class Counter;
}  // namespace acps::obs

namespace acps::comm {

// Per-worker handle. Obtained inside Session::Run; not movable across
// workers.
class Communicator {
 public:
  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int world_size() const noexcept { return world_size_; }

  // --- Membership (fault tolerance) ----------------------------------------
  // The alive view as sampled at this worker's most recent collective entry.
  // Without fault injection it is always the full group. Membership only
  // shrinks at collective entries, and every surviving rank samples the same
  // view at the same entry, so view-derived values (e.g. the 1/p mean scale)
  // are deterministic and identical across ranks.
  [[nodiscard]] int alive_world_size() const noexcept {
    return static_cast<int>(view_.size());
  }
  [[nodiscard]] bool is_alive(int r) const {
    return view_alive_[static_cast<size_t>(r)] != 0;
  }
  // Alive ranks in ascending order.
  [[nodiscard]] const std::vector<int>& alive_ranks() const noexcept {
    return view_;
  }

  // --- Elastic membership (DESIGN.md "Elastic membership") -----------------
  // The membership epoch this worker's view belongs to (0 until the first
  // committed transition). Identical across ranks at every collective —
  // checked by the contract fingerprints in epoch-aware sessions.
  [[nodiscard]] uint64_t membership_epoch() const noexcept { return epoch_; }

  // 0 for a rank's first admission (session start), bumped once per
  // readmission — lets workloads tell a resumed generation from the first.
  [[nodiscard]] int join_generation() const noexcept { return generation_; }

  // Barrier-aligned membership-view commit: the only point where ranks may
  // (re)join or gracefully leave. Every alive worker must call it at the
  // same step boundary (it is a collective). Protocol: entry (crashable) →
  // departure decisions → opening barrier → first claimer applies the
  // commit (consume eligible join intents, bump the epoch, snapshot the
  // collective seq for joiners) → closing barrier, which newly admitted
  // ranks also join → view refresh. Returns the committed transition,
  // identical on every rank; the epoch bumps at every commit, changed or
  // not, so replay handles stay aligned. Throws fault::RankDeparted on a
  // rank whose injector schedules a leave at this commit.
  detail::ViewTransition commit_view();

  // The most recent committed transition (copy; identical across ranks
  // between commits).
  [[nodiscard]] detail::ViewTransition last_transition() const;

  // Blocks until every (alive) worker reaches the barrier.
  void barrier();

  // All-reduce in place over `data`. kRing (the default): reduce-scatter +
  // all-gather, 2*(p-1)/p * N elements per worker. kNaive: flat
  // reduce-to-root + broadcast, the O(p*N) reference that tests and the
  // model checker compare the ring against. After a rank crash the
  // reduction covers the surviving ranks only — divide by
  // alive_world_size() for a mean.
  void all_reduce(std::span<float> data,
                  AllReduceAlgo algo = AllReduceAlgo::kRing);

  // Byte-wise ring all-gather for packed/compressed payloads (e.g. sign
  // bits, top-k index+value records): worker i contributes `send`; `recv`
  // (size p*|send|) receives all contributions in rank order. All workers
  // must pass equal |send|. Per-worker traffic: (p-1) * |send| bytes.
  // Blocks of crashed ranks are zero-filled.
  void all_gather_bytes(std::span<const std::byte> send,
                        std::span<std::byte> recv);

  // Broadcast from `root`. Throws fault::DetectedError on every surviving
  // rank (in lockstep) if the root has crashed.
  void broadcast(std::span<float> data, int root);

  // Traffic counters for this worker (session-scoped: only this job's
  // bytes).
  [[nodiscard]] const TrafficStats& stats() const noexcept { return stats_; }

  // Tracer attached to the owning Transport (nullptr when tracing is off).
  // Runtimes built on the communicator (GradReducer, trainer) emit their
  // spans through the same tracer so all rows share a time base.
  [[nodiscard]] obs::Tracer* tracer() const noexcept { return tracer_; }

 private:
  friend class Session;
  // `resume_seq`/`generation` are nonzero only for a readmitted rank: the
  // joiner adopts the group's collective sequence snapshot taken at the
  // admitting commit, so its next collective entry lands in lockstep with
  // the survivors.
  Communicator(detail::GroupState* state, int rank, int world_size,
               uint64_t resume_seq = 0, int generation = 0);

  // The session's fault injector (Session::set_fault_injector), or nullptr
  // when the session runs fault-free.
  [[nodiscard]] fault::FaultInjector* ActiveInjector() const noexcept {
    return state_->injector;
  }

  // Per-collective entry hook: bumps the collective sequence number, runs
  // the fault-injection entry site (crash / straggler) when the session has
  // an injector, and resamples the membership view behind an entry barrier so
  // all survivors agree on it before the collective body runs.
  void EnterCollective();
  void RefreshView();
  // Position of this rank in the alive view.
  [[nodiscard]] int ViewIndex() const;
  // Sequence number for step `step` of phase `phase` of the current
  // collective — identical on every rank (collectives are lockstep).
  [[nodiscard]] uint64_t StepSeq(int phase, int step) const;

  // One reliable exchange step: optional publish (seq/checksum envelope
  // under the session salt) plus validated reads from `read_from`, with
  // bounded deterministic group retry on validation failure. Exactly two
  // barriers on the fault-free path — identical to the pre-envelope
  // transport. `consume` is invoked at most once per source rank, only with
  // a validated payload.
  using ConsumeFn = std::function<void(int from, std::span<const std::byte>)>;
  void ReliableStep(uint64_t seq, bool publish,
                    std::span<const std::byte> payload, check::PointKind kind,
                    int fanout, std::span<const int> read_from,
                    const ConsumeFn& consume);

  // The ring, written once. Both run over the alive view and must be
  // entered by every alive rank; every exchange is one ReliableStep.
  //
  // RingReduceScatter: pa-1 steps of phase 0; afterwards the worker at view
  // position i owns the fully reduced chunk i of `data` split into pa
  // chunks (all_reduce's first half).
  void RingReduceScatter(std::span<float> data);
  // RingAllGather: pa-1 steps of `phase`, circulating byte blocks addressed
  // by alive-view position; block_of(i) must already hold view position
  // i's block on the worker that owns it (all_gather_bytes, and
  // all_reduce's second half).
  using BlockFn = std::function<std::span<std::byte>(int view_pos)>;
  void RingAllGather(int phase, const BlockFn& block_of);

  // Naive (reduce-to-root + broadcast) all-reduce body.
  void AllReduceNaive(std::span<float> data);

  detail::GroupState* state_;
  int rank_;
  int world_size_;
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  // Session-namespaced fault counters (`<prefix>fault.*`), resolved once at
  // construction so the recovery hot path never concatenates metric names.
  // Null when no registry is attached.
  obs::Counter* ctr_crash_ranks_ = nullptr;
  obs::Counter* ctr_straggler_events_ = nullptr;
  obs::Counter* ctr_straggler_ticks_ = nullptr;
  obs::Counter* ctr_retry_attempts_ = nullptr;
  obs::Counter* ctr_detected_ = nullptr;
  obs::Counter* ctr_rejoin_admitted_ = nullptr;
  obs::Counter* ctr_join_ranks_ = nullptr;
  obs::Counter* ctr_leave_ranks_ = nullptr;
  TrafficStats stats_;
  uint64_t collective_seq_ = 0;
  uint64_t epoch_ = 0;  // membership epoch of view_
  int generation_ = 0;  // readmission count for this rank
  std::vector<int> view_;            // alive ranks, ascending
  std::vector<uint8_t> view_alive_;  // indexed by rank
};

// Donor hand-off after a membership commit (DESIGN.md §6h): when
// `transition` admitted ranks, the donor — the lowest-ranked alive rank not
// admitted at this commit — broadcasts `step` (bit-exact) and the
// concatenation of `state`, and every rank adopts both. A commit that
// admitted no one is a no-op and issues no collective. Collective: every
// alive rank of the committed view calls it with the same `transition`
// and equally sized `state`.
void ResyncJoiners(Communicator& comm, const detail::ViewTransition& transition,
                   const std::vector<std::span<float>>& state, uint64_t& step);

// The contiguous range [begin, end) of chunk `chunk` when splitting `n`
// elements into `p` chunks (first n%p chunks get one extra element).
struct ChunkRange {
  int64_t begin = 0;
  int64_t end = 0;
  [[nodiscard]] int64_t size() const noexcept { return end - begin; }
};
[[nodiscard]] ChunkRange GetChunkRange(int64_t n, int p, int chunk);

}  // namespace acps::comm
