#include "dnn/loss.h"

#include <algorithm>
#include <cmath>

namespace acps::dnn {

LossResult SoftmaxCrossEntropy(const Tensor& logits,
                               const std::vector<int>& labels) {
  ACPS_CHECK_MSG(logits.ndim() == 2, "logits must be [batch, classes]");
  const int64_t batch = logits.rows(), classes = logits.cols();
  ACPS_CHECK_MSG(static_cast<int64_t>(labels.size()) == batch,
                 "labels/batch mismatch");

  LossResult result;
  result.grad_logits = Tensor({batch, classes});
  double loss_acc = 0.0;
  const float inv_batch = 1.0f / static_cast<float>(batch);

  for (int64_t b = 0; b < batch; ++b) {
    const int label = labels[static_cast<size_t>(b)];
    ACPS_CHECK_MSG(label >= 0 && label < classes, "label out of range");
    float maxv = logits.at(b, 0);
    for (int64_t c = 1; c < classes; ++c)
      maxv = std::max(maxv, logits.at(b, c));
    double denom = 0.0;
    for (int64_t c = 0; c < classes; ++c)
      denom += std::exp(static_cast<double>(logits.at(b, c) - maxv));
    for (int64_t c = 0; c < classes; ++c) {
      const double p =
          std::exp(static_cast<double>(logits.at(b, c) - maxv)) / denom;
      result.grad_logits.at(b, c) =
          (static_cast<float>(p) - (c == label ? 1.0f : 0.0f)) * inv_batch;
    }
    const double p_label =
        std::exp(static_cast<double>(logits.at(b, label) - maxv)) / denom;
    loss_acc += -std::log(std::max(p_label, 1e-12));
  }
  result.loss = static_cast<float>(loss_acc / static_cast<double>(batch));
  return result;
}

int64_t CountCorrect(const Tensor& logits, const std::vector<int>& labels) {
  ACPS_CHECK(logits.ndim() == 2 &&
             static_cast<int64_t>(labels.size()) == logits.rows());
  int64_t correct = 0;
  for (int64_t b = 0; b < logits.rows(); ++b) {
    int64_t best = 0;
    for (int64_t c = 1; c < logits.cols(); ++c)
      if (logits.at(b, c) > logits.at(b, best)) best = c;
    if (static_cast<int>(best) == labels[static_cast<size_t>(b)]) ++correct;
  }
  return correct;
}

float Accuracy(const Tensor& logits, const std::vector<int>& labels) {
  const int64_t correct = CountCorrect(logits, labels);
  return logits.rows() == 0
             ? 0.0f
             : static_cast<float>(correct) / static_cast<float>(logits.rows());
}

}  // namespace acps::dnn
