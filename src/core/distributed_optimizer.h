// DistributedOptimizer — the library's top-level façade (the quickstart
// API): wraps a model's parameters, a gradient aggregator, and momentum SGD
// into the two calls a training loop needs:
//
//   acps::core::DistributedOptimizer opt(net.params(), factory(rank, world),
//                                        schedule);
//   ... forward / backward ...
//   opt.Step(comm, epoch);   // aggregate gradients + apply the update
//
// Mirrors the paper's description of the prototype: "it wraps the SGD
// optimizer to cope with the underlying gradient compression and
// communication operations" (§IV-C).
#pragma once

#include <memory>

#include "core/aggregators.h"
#include "dnn/optimizer.h"

namespace acps::core {

class DistributedOptimizer {
 public:
  DistributedOptimizer(std::vector<dnn::Param*> params,
                       std::unique_ptr<GradientAggregator> aggregator,
                       dnn::LrSchedule schedule, float momentum = 0.9f,
                       float weight_decay = 0.0f);

  // Aggregates the gradients currently stored in the params across all
  // workers of `comm`, then applies one SGD update. Collective: every
  // worker must call it in lockstep.
  void Step(comm::Communicator& comm, double epoch);

  [[nodiscard]] float last_lr() const { return sgd_.last_lr(); }

 private:
  std::vector<dnn::Param*> params_;
  std::unique_ptr<GradientAggregator> aggregator_;
  dnn::SgdOptimizer sgd_;
};

}  // namespace acps::core
