#include "core/distributed_optimizer.h"

#include "check/sched_point.h"

namespace acps::core {

DistributedOptimizer::DistributedOptimizer(
    std::vector<dnn::Param*> params,
    std::unique_ptr<GradientAggregator> aggregator, dnn::LrSchedule schedule,
    float momentum, float weight_decay)
    : params_(std::move(params)),
      aggregator_(std::move(aggregator)),
      sgd_(params_, schedule, momentum, weight_decay) {
  ACPS_CHECK_MSG(aggregator_ != nullptr, "aggregator must not be null");
}

void DistributedOptimizer::Step(comm::Communicator& comm, double epoch) {
  // Step boundary: schedule-explorable (the model checker perturbs here to
  // interleave whole training steps) and the step-granular fault site.
  check::SchedPoint(check::PointKind::kOptStep, comm.rank());
  aggregator_->Aggregate(params_, comm);
  sgd_.Step(epoch);
}

}  // namespace acps::core
