// Top-k sparsification (Lin et al. DGC; Shi et al. MLSys'21 variant).
//
// Two selection schemes:
//  * kExact — true top-k by magnitude (nth_element); the paper notes this is
//    what you want semantically but is slow on GPUs.
//  * kSampledThreshold — the paper's "multiple sampling" scheme: pick a
//    magnitude threshold that keeps ≈ k elements, then take elements above it
//    (trimming or padding to exactly k so encoded size stays fixed). The
//    production path finds the threshold with one 4096-bucket histogram that
//    buckets |g| directly by IEEE bit pattern — no max/range pass needed, so
//    selection is 2 data passes total (histogram + gather).
//
// Encode: [k][numel][(index, value) × k]. Selected values are the raw
// gradient entries; aggregation is all-gather + scatter-add-average (Top-k
// results from different workers have different coordinates, so they are not
// additive — the paper's §III-C incompatibility).
#pragma once

#include "compress/compressor.h"

namespace acps::compress {

enum class TopkSelection {
  kExact,
  kSampledThreshold,
};

class TopkCompressor final : public Compressor {
 public:
  // `ratio` is the kept fraction (the paper uses 0.001); at least one
  // element is always kept for non-empty inputs.
  explicit TopkCompressor(double ratio,
                          TopkSelection selection = TopkSelection::kExact);

  [[nodiscard]] std::string name() const override;

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

  // Data passes over the gradient made by the last EncodeInto's threshold
  // selection (reset to 0 each call; stays 0 for the exact scheme).
  [[nodiscard]] int last_threshold_passes() const noexcept {
    return last_threshold_passes_;
  }

  // The kSampledThreshold selection EncodeInto runs: exactly k distinct
  // indices, found by the histogram threshold, trimmed to k by magnitude
  // when edge ties overshoot and padded when NaNs undershoot.
  [[nodiscard]] std::vector<uint32_t> SelectSampled(std::span<const float> grad,
                                                    size_t k);

  // The definitional reference: true top-k by magnitude via nth_element over
  // all n candidates. Public as the naive baseline of bench_kernels' topk
  // case (the paper's premise is that exact selection is too slow at scale).
  [[nodiscard]] std::vector<uint32_t> SelectExact(std::span<const float> grad,
                                                  size_t k) const;

 private:
  double ratio_;
  TopkSelection selection_;
  int last_threshold_passes_ = 0;
};

}  // namespace acps::compress
