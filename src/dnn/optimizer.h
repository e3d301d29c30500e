// Momentum SGD with the paper's learning-rate schedule (§V-A): gradual
// warmup over the first epochs, then step decays by 10x.
#pragma once

#include <vector>

#include "dnn/layer.h"

namespace acps::dnn {

struct LrSchedule {
  float base_lr = 0.1f;
  int warmup_epochs = 5;
  std::vector<int> decay_epochs = {150, 220};  // paper's milestones
  float decay_factor = 0.1f;

  // Piecewise schedule: linear warmup from base_lr/warmup to base_lr, then
  // step decays. `epoch` may be fractional.
  [[nodiscard]] float LrAt(double epoch) const;
};

class SgdOptimizer {
 public:
  SgdOptimizer(std::vector<Param*> params, LrSchedule schedule,
               float momentum = 0.9f, float weight_decay = 0.0f);

  // Applies one update using the gradients currently in the params.
  void Step(double epoch);

  [[nodiscard]] float last_lr() const noexcept { return last_lr_; }

 private:
  std::vector<Param*> params_;
  std::vector<Tensor> velocity_;
  LrSchedule schedule_;
  float momentum_;
  float weight_decay_;
  float last_lr_ = 0.0f;
};

}  // namespace acps::dnn
