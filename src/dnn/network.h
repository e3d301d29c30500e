// Sequential network container.
#pragma once

#include <functional>
#include <memory>

#include "dnn/layer.h"

namespace acps::dnn {

// Invoked during Backward as each parameter's gradient becomes final —
// the WFBP hook point (params are identified by their index in params()).
using GradReadyHook = std::function<void(size_t param_index)>;

class Network {
 public:
  Network() = default;

  void Add(std::unique_ptr<Layer> layer) { layers_.push_back(std::move(layer)); }

  // Deterministic initialization; identical seeds yield identical replicas
  // (required so data-parallel workers start from the same weights).
  void Init(uint64_t seed);

  [[nodiscard]] Tensor Forward(const Tensor& x);
  // Returns gradient w.r.t. the network input (usually discarded). If
  // `hook` is set it fires for every parameter of a layer right after that
  // layer's backward completes (layers visited in reverse order).
  Tensor Backward(const Tensor& grad_out, const GradReadyHook& hook = {});

  // Flattened parameter list in forward order; ids are stable indices.
  [[nodiscard]] std::vector<Param*> params();

  void ZeroGrads();

  [[nodiscard]] int64_t total_params();

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace acps::dnn
