// Random-k sparsification (Stich et al., NeurIPS'18).
//
// Keeps k uniformly chosen coordinates. When all workers share the seed for
// a given (tensor, step), the selected coordinates coincide, which — unlike
// Top-k — makes the compressed vectors additive and therefore all-reduce
// compatible. Encode stores only [seed][k][numel][values...]: the index set
// is re-derived from the seed on decode (or reused, when the compressor
// itself encoded that step).
#pragma once

#include "compress/compressor.h"

namespace acps::compress {

class RandomkCompressor final : public Compressor {
 public:
  explicit RandomkCompressor(double ratio, uint64_t seed = 0x5EEDull);

  [[nodiscard]] std::string name() const override { return "randomk"; }

  // Advances the internal step counter; workers that construct the
  // compressor with the same seed and encode in lockstep select identical
  // coordinates.
  void EncodeInto(std::span<const float> grad,
                  std::span<std::byte> out) override;

  void Decode(std::span<const std::byte> blob,
              std::span<float> out) const override;

  [[nodiscard]] size_t EncodedBytes(size_t numel) const override;

  [[nodiscard]] size_t KeptCount(size_t numel) const;

  // Recomputes the index set encoded by `blob` (seed-derived).
  [[nodiscard]] static std::vector<uint32_t> IndicesOf(
      std::span<const std::byte> blob);

  // Mutable view of the value payload of `blob`: the part an additive
  // all-reduce sums in place (the header and index seed stay untouched).
  [[nodiscard]] static std::span<float> ValuesOf(std::span<std::byte> blob);

 private:
  double ratio_;
  uint64_t seed_;
  uint64_t step_ = 0;
  // The index set the last EncodeInto sampled, for seed `indices_seed_`
  // over `indices_n_` elements. Decode reuses it for blobs of that step, so
  // an encode and its decodes sample once.
  std::vector<uint32_t> indices_;
  uint64_t indices_seed_ = 0;
  uint64_t indices_n_ = 0;
};

}  // namespace acps::compress
