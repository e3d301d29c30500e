// Error-feedback residual (1-bit SGD / EF-SignSGD / EF-Top-k style).
//
// Biased compressors drop part of the gradient every step; error feedback
// keeps the dropped part (the residual) and adds it back before the next
// compression, which restores convergence (paper §IV-A, Algorithm 2). One
// flat residual serves the one packed bucket a codec encodes per step.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace acps::compress {

class ErrorFeedback {
 public:
  // The residual, created as `numel` zeros on first use. Its size must stay
  // the same across steps (checked).
  [[nodiscard]] std::span<float> residual(size_t numel);

  // grad += residual (the "feedback" half).
  void AddInto(std::span<float> grad);

  // residual = compressed_input − reconstruction (the "error" half), where
  // `compressed_input` is what was fed to the compressor (gradient +
  // previous residual).
  void Update(std::span<const float> compressed_input,
              std::span<const float> reconstruction);

 private:
  std::vector<float> residual_;
};

}  // namespace acps::compress
