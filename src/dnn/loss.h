// Softmax cross-entropy loss and accuracy metric.
#pragma once

#include <vector>

#include "tensor/tensor.h"

namespace acps::dnn {

struct LossResult {
  float loss = 0.0f;        // mean over the batch
  Tensor grad_logits;       // [batch, classes], already divided by batch
};

// Numerically stable softmax cross entropy. labels[i] in [0, classes).
[[nodiscard]] LossResult SoftmaxCrossEntropy(const Tensor& logits,
                                             const std::vector<int>& labels);

// Number of rows whose arg-max equals the label; on ties the first maximum
// is the arg-max.
[[nodiscard]] int64_t CountCorrect(const Tensor& logits,
                                   const std::vector<int>& labels);

// Fraction of rows whose arg-max equals the label: CountCorrect / rows, and
// 0 for zero rows.
[[nodiscard]] float Accuracy(const Tensor& logits,
                             const std::vector<int>& labels);

}  // namespace acps::dnn
