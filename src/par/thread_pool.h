// Deterministic parallel compute layer (DESIGN.md §6e).
//
// A small, work-stealing-free thread pool with STATIC partitioning: a
// parallel region splits its index space into contiguous blocks up front and
// every block is executed exactly once, so which thread runs a block can
// never influence results. Combined with the fixed-split reduction trees in
// parallel.h this makes every kernel built on the pool bitwise deterministic
// for ANY thread count — the property the model-checker oracles
// (bitwise baselines, rank invariance) and the Power-SGD family (all workers
// must compute the identical Q basis) rely on.
//
// Nesting / oversubscription: Run() takes the region lock with try_lock.
// When the pool is already busy — e.g. several simulated ring workers
// (comm::Session workers) hit a kernel at once, or a kernel nests inside another
// parallel region — the caller simply executes all blocks inline. Because
// results are partition- and scheduling-independent by construction, the
// serial fallback is bitwise identical to the parallel path.
//
// This module is intentionally dependency-free (standard library only), like
// check/sched_point.h: every compute layer links it, so an include of any
// other acps module here would invert the layering (tools/lint.sh enforces
// this).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "par/lock_level.h"

namespace acps::par {

// Hard cap on the thread budget; protects against absurd ACPS_NUM_THREADS
// values (the pool allocates one std::thread per extra worker).
inline constexpr int kMaxThreads = 256;

// Threads the hardware offers (>= 1 even when the runtime reports 0).
[[nodiscard]] int HardwareThreads();

// The process-wide compute-thread budget, resolved on first use:
//   1. a value fixed by SetNumThreads(n > 0), else
//   2. the ACPS_NUM_THREADS environment variable (clamped to
//      [1, kMaxThreads]; malformed values are ignored), else
//   3. HardwareThreads().
[[nodiscard]] int NumThreads();

// n >= 1 fixes the budget (and resizes the global pool); n == 0 drops any
// fixed value and re-resolves from the environment / hardware. Safe to call
// between parallel regions only (tests, trainer setup) — not from inside one.
void SetNumThreads(int n);

// Budget for one of `world_size` simulated ring workers: `requested` if
// > 0, else NumThreads() divided by the worker count (min 1), so the
// pool and the session's workers together never oversubscribe the machine.
[[nodiscard]] int WorkerThreadBudget(int requested, int world_size);

class ThreadPool {
 public:
  // Spawns `threads - 1` workers; the caller of Run() is always the first
  // participant, so `threads == 1` means a pool with no worker threads.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int threads() const noexcept { return threads_; }

  // Joins all workers and respawns for the new budget. Must not be called
  // from inside a running region.
  void Resize(int threads);

  // Executes fn(block) for every block in [0, nblocks), distributing blocks
  // statically: participant t runs the contiguous range
  // [t*nblocks/T, (t+1)*nblocks/T). Runs inline (serially, same results)
  // when the pool is busy, has no workers, or nblocks <= 1. Exceptions
  // thrown by fn are rethrown on the calling thread (first one wins).
  void Run(int64_t nblocks, const std::function<void(int64_t)>& fn);

 private:
  void WorkerLoop(int worker_index);
  void RunBlockRange(int participant, const std::function<void(int64_t)>& fn,
                     int64_t nblocks, int participants);

  int threads_;

  // Levels 60/70: a region acquires region_mu_ first, then pool_mu_ for
  // each job hand-off, so the region lock sits above the pool lock in the
  // hierarchy. Nested regions re-enter region_mu_ via try_to_lock only
  // (non-blocking, exempt from ordering).
  ACPS_LOCK_LEVEL(60) region_mu_;  // held for the duration of one parallel region

  ACPS_LOCK_LEVEL(70) pool_mu_;  // guards everything below
  ConditionVariable cv_start_;
  ConditionVariable cv_done_;
  uint64_t generation_ = 0;
  int workers_finished_ = 0;
  bool shutdown_ = false;
  const std::function<void(int64_t)>* job_fn_ = nullptr;
  int64_t job_nblocks_ = 0;
  int job_participants_ = 0;
  std::exception_ptr first_error_;

  std::vector<std::thread> workers_;
};

// The process-wide pool all kernels share, sized to NumThreads(). Created
// lazily on first use.
[[nodiscard]] ThreadPool& GlobalPool();

}  // namespace acps::par
