// Sign-SGD compression (Bernstein et al., ICML'18) with bit packing and
// majority voting.
//
// Encode: 1 bit per element (sign) plus one fp32 scale (the mean magnitude,
// as in 1-bit SGD) — a 32× reduction in the limit, matching Table I.
// Decode: ±scale per element.
//
// Majority vote: signs are not additive (the paper's §III-C), so workers
// all-gather the packed blobs and each reconstructs sign(Σ_w sign_w(g)) with
// the mean of worker scales; MajorityVote implements the local tally.
#pragma once

#include "compress/compressor.h"

namespace acps::compress {

class SignCompressor final : public Compressor {
 public:
  [[nodiscard]] std::string name() const override { return "signsgd"; }

  void EncodeInto(std::span<const float> grad,
                  std::span<std::byte> out) override;

  void Decode(std::span<const std::byte> blob,
              std::span<float> out) const override;

  [[nodiscard]] size_t EncodedBytes(size_t numel) const override {
    // scale (4B) + element count (8B) + packed bits.
    return sizeof(float) + sizeof(uint64_t) + (numel + 7) / 8;
  }

  // Combines one blob per worker (equal original numel, each exactly
  // EncodedBytes(numel) long, checked) into the majority-vote result:
  // out[i] = sign(Σ_w sign_w[i]) * mean_w(scale_w). Ties (possible for even
  // worker counts) resolve to +1, matching the sign(0)=+1 convention the
  // paper uses for quantization.
  static void MajorityVote(std::span<const std::span<const std::byte>> blobs,
                           std::span<float> out);
};

}  // namespace acps::compress
