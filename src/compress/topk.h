// Top-k sparsification (Lin et al. DGC; Shi et al. MLSys'21 variant).
//
// Selection is the paper's "multiple sampling" scheme: pick a magnitude
// threshold that keeps ≈ k elements, then take the elements above it. The
// threshold comes from one 4096-bucket histogram that buckets |g| directly
// by IEEE bit pattern — no max/range pass needed — and the gathered
// candidates are trimmed to exactly k by magnitude (padded past NaNs), so
// selection is 2 data passes (histogram + gather) and keeps the same
// elements as exact top-k (SelectExact, the reference), which the paper
// notes is too slow on GPUs.
//
// Encode: [k][numel][(index, value) × k]. Selected values are the raw
// gradient entries; aggregation is all-gather + scatter-add-average (Top-k
// results from different workers have different coordinates, so they are not
// additive — the paper's §III-C incompatibility).
#pragma once

#include "compress/compressor.h"

namespace acps::compress {

class TopkCompressor final : public Compressor {
 public:
  // `ratio` is the kept fraction (the paper uses 0.001); at least one
  // element is always kept for non-empty inputs.
  explicit TopkCompressor(double ratio);

  [[nodiscard]] std::string name() const override { return "topk"; }

  void EncodeInto(std::span<const float> grad,
                  std::span<std::byte> out) override;

  void Decode(std::span<const std::byte> blob,
              std::span<float> out) const override;

  [[nodiscard]] size_t EncodedBytes(size_t numel) const override;

  [[nodiscard]] size_t KeptCount(size_t numel) const;

  // Scatter-adds `blob / num_workers` into `out` (without zeroing `out`):
  // the aggregation step run after all-gather.
  static void AccumulateInto(std::span<const std::byte> blob,
                             std::span<float> out, int num_workers);

  // The selection EncodeInto runs: exactly k distinct indices, found by the
  // histogram threshold, trimmed to k by magnitude when edge ties overshoot
  // and padded when NaNs undershoot.
  [[nodiscard]] static std::vector<uint32_t> SelectSampled(
      std::span<const float> grad, size_t k);

  // The definitional reference: true top-k by magnitude via nth_element over
  // all n candidates. Only tests (which check SelectSampled against it) and
  // bench_kernels' topk case (its naive baseline: the paper's premise is
  // that exact selection is too slow at scale) call it.
  [[nodiscard]] static std::vector<uint32_t> SelectExact(
      std::span<const float> grad, size_t k);

 private:
  double ratio_;
};

}  // namespace acps::compress
