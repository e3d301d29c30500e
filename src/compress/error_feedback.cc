#include "compress/error_feedback.h"

#include "par/parallel.h"

namespace acps::compress {

Tensor& ErrorFeedback::residual(int64_t tensor_id, const Shape& shape) {
  auto it = residuals_.find(tensor_id);
  if (it == residuals_.end()) {
    it = residuals_.emplace(tensor_id, Tensor::Zeros(shape)).first;
  }
  ACPS_CHECK_MSG(it->second.shape() == shape,
                 "residual shape changed for tensor " << tensor_id << ": "
                     << ShapeToString(it->second.shape()) << " vs "
                     << ShapeToString(shape));
  return it->second;
}

namespace {

// grad += e.
void AddResidual(const Tensor& e, std::span<float> grad) {
  ACPS_CHECK_MSG(static_cast<int64_t>(grad.size()) == e.numel(),
                 "ErrorFeedback::AddInto size mismatch");
  const float* ed = e.data().data();
  par::ParallelFor(par::kDefaultGrain, e.numel(),
                   [&](int64_t begin, int64_t end) {
                     for (int64_t i = begin; i < end; ++i) grad[i] += ed[i];
                   });
}

// Fused e = input − reconstruction: one pass over the three buffers instead
// of a copy pass followed by a subtract pass.
void Subtract(Tensor& e, std::span<const float> in,
              std::span<const float> rec) {
  ACPS_CHECK_MSG(in.size() == rec.size() &&
                     static_cast<int64_t>(in.size()) == e.numel(),
                 "ErrorFeedback::Update size mismatch");
  float* ed = e.data().data();
  par::ParallelFor(par::kDefaultGrain, e.numel(),
                   [&](int64_t begin, int64_t end) {
                     for (int64_t i = begin; i < end; ++i)
                       ed[i] = in[i] - rec[i];
                   });
}

Shape FlatShape(size_t n) { return {static_cast<int64_t>(n)}; }

}  // namespace

void ErrorFeedback::AddInto(int64_t tensor_id, Tensor& grad) {
  AddResidual(residual(tensor_id, grad.shape()), grad.data());
}

void ErrorFeedback::AddInto(int64_t tensor_id, std::span<float> grad) {
  AddResidual(residual(tensor_id, FlatShape(grad.size())), grad);
}

void ErrorFeedback::Update(int64_t tensor_id, const Tensor& compressed_input,
                           const Tensor& reconstruction) {
  Subtract(residual(tensor_id, compressed_input.shape()),
           compressed_input.data(), reconstruction.data());
}

void ErrorFeedback::Update(int64_t tensor_id,
                           std::span<const float> compressed_input,
                           std::span<const float> reconstruction) {
  Subtract(residual(tensor_id, FlatShape(compressed_input.size())),
           compressed_input, reconstruction);
}

int64_t ErrorFeedback::total_elements() const noexcept {
  int64_t total = 0;
  // Order-independent sum over the residual table (integer adds commute).
  for (const auto& [id, t] : residuals_) total += t.numel();
  return total;
}

}  // namespace acps::compress
