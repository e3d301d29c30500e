// Flat fusion buffer: packs a set of tensors contiguously so one collective
// moves them all (amortizing the 2(p−1)·α startup), then unpacks.
//
// This is the runtime counterpart of BucketAssigner: core::GradReducer
// copies a bucket's ready gradients (or compressed factors) into one
// FusionBuffer, all-reduces flat() once (a packed codec encodes and
// exchanges it instead), and scatters the results back.
#pragma once

#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace acps::fusion {

class FusionBuffer {
 public:
  // Registers a slot of `numel` elements; returns the slot id. Must happen
  // before Pack. Layout is registration order.
  int AddSlot(int64_t numel);

  [[nodiscard]] int64_t total_elements() const noexcept { return total_; }

  // Copies `src` into slot `slot` (sizes must match).
  void Pack(int slot, std::span<const float> src);

  // Copies slot `slot` out into `dst`.
  void Unpack(int slot, std::span<float> dst) const;

  // The contiguous storage, total_elements() long (allocated lazily on the
  // first Pack after a Reset); the collective target. A slot not Packed
  // since the last Reset holds unspecified values.
  [[nodiscard]] std::span<float> flat();
  [[nodiscard]] std::span<const float> flat() const;

  // Drops all slots for reuse with a new layout. The storage is kept (and
  // grown only when a later layout needs more), so the next Pack does not
  // clear it first.
  void Reset();

 private:
  struct Slot {
    int64_t offset;
    int64_t numel;
  };
  void EnsureStorage();

  std::vector<Slot> slots_;
  int64_t total_ = 0;
  bool packed_ = false;  // storage sized for this layout; no more AddSlot
  std::vector<float> storage_;
};

}  // namespace acps::fusion
