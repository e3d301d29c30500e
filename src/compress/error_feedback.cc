#include "compress/error_feedback.h"

#include "par/parallel.h"
#include "tensor/check.h"

namespace acps::compress {

std::span<float> ErrorFeedback::residual(size_t numel) {
  if (residual_.empty()) residual_.assign(numel, 0.0f);
  ACPS_CHECK_MSG(residual_.size() == numel,
                 "residual size changed: " << residual_.size() << " vs "
                                           << numel);
  return residual_;
}

void ErrorFeedback::AddInto(std::span<float> grad) {
  const std::span<const float> e = residual(grad.size());
  par::ParallelFor(par::kDefaultGrain, static_cast<int64_t>(e.size()),
                   [&](int64_t begin, int64_t end) {
                     for (int64_t i = begin; i < end; ++i) grad[i] += e[i];
                   });
}

// Fused e = input − reconstruction: one pass over the three buffers instead
// of a copy pass followed by a subtract pass.
void ErrorFeedback::Update(std::span<const float> compressed_input,
                           std::span<const float> reconstruction) {
  ACPS_CHECK_MSG(compressed_input.size() == reconstruction.size(),
                 "ErrorFeedback::Update size mismatch");
  const std::span<float> e = residual(compressed_input.size());
  par::ParallelFor(par::kDefaultGrain, static_cast<int64_t>(e.size()),
                   [&](int64_t begin, int64_t end) {
                     for (int64_t i = begin; i < end; ++i)
                       e[i] = compressed_input[i] - reconstruction[i];
                   });
}

}  // namespace acps::compress
