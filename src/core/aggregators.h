// Gradient aggregators: the per-worker runtime that turns local gradients
// into globally averaged gradients. The bucketed methods (S-SGD, Power-SGD,
// ACP-SGD) share one runtime, core::GradReducer (grad_reducer.h); the
// packed all-gather/sparse methods (Sign, Top-k, Random-k) are below. All
// run against the real in-process collectives (acps::comm), so the math —
// bucketing, majority voting, factor aggregation, error feedback — is
// executed end to end, not simulated.
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
#include "compress/error_feedback.h"
#include "compress/randomk.h"
#include "compress/sign.h"
#include "compress/topk.h"
#include "dnn/layer.h"
#include "fusion/bucket_assigner.h"

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

// --- Sign-SGD with majority vote over all-gather. --------------------------
class SignAggregator final : public GradientAggregator {
 public:
  explicit SignAggregator(bool error_feedback = true)
      : error_feedback_(error_feedback) {}
  [[nodiscard]] std::string name() const override { return "signsgd"; }
  void Aggregate(const std::vector<dnn::Param*>& params,
                 comm::Communicator& comm) override;

 private:
  bool error_feedback_;
  compress::SignCompressor compressor_;
  compress::ErrorFeedback ef_;
  // Encode/gather scratch reused across steps (EncodeInto writes in place,
  // so steady-state Aggregate() does no blob allocation).
  std::vector<std::byte> encode_scratch_;
  std::vector<std::byte> gather_scratch_;
};

// --- Top-k SGD over all-gather + scatter-add. ------------------------------
class TopkAggregator final : public GradientAggregator {
 public:
  explicit TopkAggregator(double ratio = 0.001, bool error_feedback = true,
                          compress::TopkSelection selection =
                              compress::TopkSelection::kSampledThreshold)
      : error_feedback_(error_feedback), compressor_(ratio, selection) {}
  [[nodiscard]] std::string name() const override { return "topk"; }
  void Aggregate(const std::vector<dnn::Param*>& params,
                 comm::Communicator& comm) override;

 private:
  bool error_feedback_;
  compress::TopkCompressor compressor_;
  compress::ErrorFeedback ef_;
  std::vector<std::byte> encode_scratch_;  // reused across steps
  std::vector<std::byte> gather_scratch_;
};

// --- Random-k: the additive sparsifier. ------------------------------------
// With a shared per-step seed, every worker selects the SAME coordinates,
// so the compressed value vectors are additive and can ride a ring
// all-reduce — the paper's §III-C "additive communication" property that
// Top-k lacks. The flip side (why the paper prefers Top-k for accuracy):
// random coordinates carry less of the gradient energy.
class RandomkAggregator final : public GradientAggregator {
 public:
  explicit RandomkAggregator(double ratio = 0.01, bool error_feedback = true,
                             uint64_t seed = 0x5EEDull)
      : error_feedback_(error_feedback), compressor_(ratio, seed) {}
  [[nodiscard]] std::string name() const override { return "randomk"; }
  void Aggregate(const std::vector<dnn::Param*>& params,
                 comm::Communicator& comm) override;

 private:
  bool error_feedback_;
  compress::RandomkCompressor compressor_;
  compress::ErrorFeedback ef_;
  std::vector<std::byte> encode_scratch_;  // reused across steps
};

// Spec-string factory, the bridge from comm::SessionOptions::compressor_spec
// to an AggregatorFactory. Grammar: "ssgd", "acpsgd[:rank]" (default 4),
// "powersgd[:rank]" (default 4), "sign", "topk[:ratio]" (default 0.001),
// "randomk[:ratio]" (default 0.01). The first three build a GradReducer.
// `buffer_bytes` is the fusion budget for the bucketed methods; 0 means
// fusion::kDefaultBufferBytes. Throws
// acps::Error on an unknown name or an out-of-range parameter.
[[nodiscard]] AggregatorFactory MakeAggregatorFactory(const std::string& spec,
                                                      int64_t buffer_bytes = 0);

}  // namespace acps::core
