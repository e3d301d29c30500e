// Per-kernel call/time/FLOP/traffic accounting for the hot compute paths.
//
// The compute kernels (matrix_ops, top-k selection, QR) open a KernelTimer
// naming themselves, their FLOP count, and (optionally) the bytes the call
// moves; when accounting is enabled the timer records wall time, flops and
// traffic into a process-wide table. Disabled (the default), the
// constructor is one relaxed atomic load and nothing is recorded — kernels
// stay unobserved-cost-free like the obs tracer.
//
// GEMM kernels that pack an operand (the packed GemmTransB panels and the
// small-k k-major copy of B; tensor/matrix_ops.cc, DESIGN.md §6e)
// additionally report how much data they staged and how often a packed
// copy was reused, via KernelTimer::AddPanel from inside the parallel
// workers (relaxed atomics on the caller's timer, flushed once at
// destruction).
//
// acps::obs exports this table as metrics / a FLOP-rate report
// (obs/kernel_metrics.h); keeping the collection side here preserves the
// layering (tensor/linalg must not depend on obs).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace acps::par {

struct KernelStat {
  uint64_t calls = 0;
  uint64_t ns = 0;     // accumulated wall time
  uint64_t flops = 0;  // accumulated floating-point operations
  // Operand + result bytes the calls touched (shape-derived: each operand
  // counted once per logical pass, not per cache miss).
  uint64_t bytes = 0;
  // Bytes staged into packed panels (pure layout copies), and the number of
  // micro-kernel sweeps served by an already-packed panel — the panel-reuse
  // ratio panel_reuses/calls is what cache blocking buys (DESIGN.md §6e).
  uint64_t pack_bytes = 0;
  uint64_t panel_reuses = 0;

  // Achieved rate over the accumulated window; 0 when nothing ran.
  [[nodiscard]] double gflops() const noexcept {
    return ns == 0 ? 0.0 : static_cast<double>(flops) / static_cast<double>(ns);
  }
  // Logical traffic rate in GB/s over the accumulated window.
  [[nodiscard]] double gbps() const noexcept {
    return ns == 0 ? 0.0 : static_cast<double>(bytes) / static_cast<double>(ns);
  }
};

void SetKernelStatsEnabled(bool enabled);
[[nodiscard]] bool KernelStatsEnabled();

// Adds one call of `ns` wall-nanoseconds, `flops` operations and `bytes`
// moved to `name`. No-op while disabled. Thread-safe.
void RecordKernel(const char* name, uint64_t ns, uint64_t flops,
                  uint64_t bytes = 0);

// Adds packed-panel traffic (bytes copied into pack scratch, micro-kernel
// sweeps served from an already-packed panel) to `name` without opening a
// new call. No-op while disabled. Thread-safe.
void RecordKernelPack(const char* name, uint64_t pack_bytes,
                      uint64_t panel_reuses);

// Snapshot of all kernels recorded so far, sorted by name.
[[nodiscard]] std::vector<std::pair<std::string, KernelStat>>
KernelStatsSnapshot();

void ResetKernelStats();

// RAII recorder: stamps a clock only when accounting is enabled.
class KernelTimer {
 public:
  KernelTimer(const char* name, uint64_t flops, uint64_t bytes = 0);
  ~KernelTimer();

  KernelTimer(const KernelTimer&) = delete;
  KernelTimer& operator=(const KernelTimer&) = delete;

  // Accumulates packed-panel traffic for this call. Safe to call from the
  // pool workers of the region the timer wraps (relaxed atomics); flushed
  // into the table when the timer closes. No-op while accounting is off.
  void AddPanel(uint64_t pack_bytes, uint64_t panel_reuses) {
    if (name_ == nullptr) return;
    pack_bytes_.fetch_add(pack_bytes, std::memory_order_relaxed);
    panel_reuses_.fetch_add(panel_reuses, std::memory_order_relaxed);
  }

 private:
  const char* name_;  // nullptr when accounting was off at construction
  uint64_t flops_;
  uint64_t bytes_;
  uint64_t begin_ns_;
  std::atomic<uint64_t> pack_bytes_{0};
  std::atomic<uint64_t> panel_reuses_{0};
};

}  // namespace acps::par
