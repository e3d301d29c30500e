#include "fusion/fusion_buffer.h"

#include <algorithm>

namespace acps::fusion {

int FusionBuffer::AddSlot(int64_t numel) {
  ACPS_CHECK_MSG(numel >= 0, "negative slot size");
  ACPS_CHECK_MSG(!packed_, "AddSlot after Pack: Reset() the buffer first");
  const int id = static_cast<int>(slots_.size());
  slots_.push_back(Slot{total_, numel});
  total_ += numel;
  return id;
}

void FusionBuffer::EnsureStorage() {
  if (!packed_ && static_cast<int64_t>(storage_.size()) < total_)
    storage_.resize(static_cast<size_t>(total_));
  packed_ = true;
  // Storage must cover the declared layout; anything less means a
  // Pack/Unpack below would read or write out of bounds of the fused
  // buffer (the zero-copy all-reduce path aliases it via flat()).
  ACPS_CHECK_MSG(static_cast<int64_t>(storage_.size()) >= total_,
                 "fusion buffer storage holds " << storage_.size()
                                                << " floats but the layout "
                                                   "declares " << total_);
}

void FusionBuffer::Pack(int slot, std::span<const float> src) {
  ACPS_CHECK_MSG(slot >= 0 && slot < static_cast<int>(slots_.size()),
                 "bad slot " << slot);
  const Slot& s = slots_[static_cast<size_t>(slot)];
  ACPS_CHECK_MSG(static_cast<int64_t>(src.size()) == s.numel,
                 "Pack size mismatch for slot " << slot);
  EnsureStorage();
  std::copy(src.begin(), src.end(),
            storage_.begin() + static_cast<ptrdiff_t>(s.offset));
}

void FusionBuffer::Unpack(int slot, std::span<float> dst) const {
  ACPS_CHECK_MSG(slot >= 0 && slot < static_cast<int>(slots_.size()),
                 "bad slot " << slot);
  const Slot& s = slots_[static_cast<size_t>(slot)];
  ACPS_CHECK_MSG(static_cast<int64_t>(dst.size()) == s.numel,
                 "Unpack size mismatch for slot " << slot);
  ACPS_CHECK_MSG(packed_ || s.numel == 0, "Unpack before any Pack");
  std::copy(storage_.begin() + static_cast<ptrdiff_t>(s.offset),
            storage_.begin() + static_cast<ptrdiff_t>(s.offset + s.numel),
            dst.begin());
}

std::span<float> FusionBuffer::flat() {
  EnsureStorage();
  return {storage_.data(), static_cast<size_t>(total_)};
}

std::span<const float> FusionBuffer::flat() const {
  if (!packed_) return {};
  return {storage_.data(), static_cast<size_t>(total_)};
}

void FusionBuffer::Reset() {
  slots_.clear();
  total_ = 0;
  packed_ = false;
}

}  // namespace acps::fusion
