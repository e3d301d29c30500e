// Gradient aggregators: the per-worker runtime that turns local gradients
// into globally averaged gradients. Every method — S-SGD, Power-SGD,
// ACP-SGD, Sign-SGD, Top-k and Random-k — runs on one runtime,
// core::GradReducer (grad_reducer.h), against the real in-process
// collectives (acps::comm), so the math — bucketing, majority voting,
// factor aggregation, error feedback — is executed end to end, not
// simulated. This header keeps the interface and the spec-string factory.
//
// Contract: Aggregate() is collective — every worker of the group must call
// it with structurally identical parameter lists (same order, shapes), and
// afterwards every param.grad holds the aggregated (mean) gradient the
// optimizer should apply. Params are processed in REVERSE list order,
// mirroring the gradient-ready order of back-propagation.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "comm/communicator.h"
#include "dnn/layer.h"

namespace acps::core {

class GradientAggregator {
 public:
  virtual ~GradientAggregator() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  virtual void Aggregate(const std::vector<dnn::Param*>& params,
                         comm::Communicator& comm) = 0;
};

// One aggregator per worker; the factory is invoked inside each worker
// thread so per-worker state (EF residuals, low-rank factors) stays private.
using AggregatorFactory =
    std::function<std::unique_ptr<GradientAggregator>(int rank, int world)>;

// Spec-string factory, the bridge from comm::SessionOptions::compressor_spec
// to an AggregatorFactory. Grammar: "ssgd", "acpsgd[:rank]" (default 4),
// "powersgd[:rank]" (default 4), or a packed codec as MakeCodec parses it
// ("sign", "topk[:ratio]", "randomk[:ratio]"); each builds a GradReducer,
// the packed codecs with error feedback. `buffer_bytes` is the fusion
// budget for the bucketed methods; 0 means fusion::kDefaultBufferBytes.
// Throws acps::Error on an unknown name or an out-of-range parameter.
[[nodiscard]] AggregatorFactory MakeAggregatorFactory(const std::string& spec,
                                                      int64_t buffer_bytes = 0);

}  // namespace acps::core
