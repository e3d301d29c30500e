// The gradient-reduction runtime of every method: the WFBP + tensor-fusion
// stack of §IV-C for S-SGD, Power-SGD and ACP-SGD, and the packed layout of
// §III-A for Sign-SGD, Top-k and Random-k.
//
// The paper's prototype registers a hook per learnable tensor; when
// back-propagation produces a gradient the hook compresses it and copies
// the result into a fusion bucket, and a bucket's all-reduce is issued the
// moment its last member is ready (wait-free back-propagation + tensor
// fusion). GradReducer is that hook runtime, one per worker:
//
//   GradReducer reducer(acp_config);            // or GradReducer() = S-SGD
//   reducer.BeginStep(net.params(), comm);
//   net.Backward(grad, [&](size_t i) { reducer.OnGradReady(i); });
//   reducer.FinishStep();   // every param->grad now holds the mean
//
// Aggregate(params, comm) is the same three calls with the hooks fired in
// reverse index order, so the post-backward trainer and hook-driven callers
// run the same code. Per method, a gradient-ready tensor either
//   * rides a dense bucket (vectors; every tensor under S-SGD),
//   * is compressed by AcpSgd::LocalStep and its factor rides a factor
//     bucket, decompressed by Finish once the bucket is reduced (ACP-SGD),
//   * runs PowerSgd::Step inline — two blocking all-reduces (Power-SGD), or
//   * joins the one packed bucket of all gradients, which is encoded whole
//     with error feedback and exchanged as the encoding allows (the codecs).
//
// Bucket plans are fixed at the first BeginStep — one per parity, because
// ACP-SGD's P and Q factors differ in size — so every worker issues the
// identical collective sequence. Factor buckets use the scaled budget of
// §IV-B, dense buckets the plain one. A codec packs every gradient into one
// bucket whatever the budget: its encoding (Top-k's k, Sign's scale) is
// defined over the whole flat gradient.
#pragma once

#include <variant>

#include "comm/communicator.h"
#include "compress/acpsgd.h"
#include "compress/error_feedback.h"
#include "compress/powersgd.h"
#include "compress/randomk.h"
#include "compress/sign.h"
#include "compress/topk.h"
#include "core/aggregators.h"
#include "fusion/bucket_assigner.h"
#include "fusion/fusion_buffer.h"
#include "dnn/layer.h"

namespace acps::core {

class GradReducer final : public GradientAggregator {
 public:
  // The packed codecs. Signs are not additive, so Sign-SGD all-gathers the
  // blobs and takes a majority vote; Top-k results have different
  // coordinates per worker, so Top-k all-gathers and scatter-adds; Random-k
  // workers share the seed and step, so their value payloads are additive
  // and ride one all-reduce (the §III-C property).
  using Codec = std::variant<compress::SignCompressor, compress::TopkCompressor,
                             compress::RandomkCompressor>;

  // S-SGD: every tensor rides a dense bucket. `buffer_bytes` must be
  // positive. If the communicator carries an enabled obs::Tracer, every
  // hook/compress/bucket/decompress emits a span.
  explicit GradReducer(int64_t buffer_bytes = fusion::kDefaultBufferBytes);
  // ACP-SGD (Algorithm 2); `config` is validated here.
  explicit GradReducer(compress::AcpSgdConfig config,
                       int64_t buffer_bytes = fusion::kDefaultBufferBytes);
  // Power-SGD (Algorithm 1).
  explicit GradReducer(compress::PowerSgdConfig config,
                       int64_t buffer_bytes = fusion::kDefaultBufferBytes);
  // A packed codec with error feedback, e.g. GradReducer(MakeCodec("topk:0.1"))
  // or GradReducer(compress::TopkCompressor(0.1)). Ratio and seed are the
  // compressor's.
  explicit GradReducer(Codec codec);

  [[nodiscard]] std::string name() const override;
  void Aggregate(const std::vector<dnn::Param*>& params,
                 comm::Communicator& comm) override;

  // Starts a new step over `params` (forward order); all tensors become
  // "not ready". The first call plans the buckets; later calls must pass a
  // structurally identical list. `comm` must outlive the step.
  void BeginStep(const std::vector<dnn::Param*>& params,
                 comm::Communicator& comm);

  // Marks params[param_index].grad as produced: reduces it by the method's
  // per-tensor step and, if this completes a bucket, issues that bucket's
  // collective immediately.
  void OnGradReady(size_t param_index);

  // Verifies every tensor was reduced this step. After this, every
  // param->grad holds the aggregated gradient.
  void FinishStep();

  [[nodiscard]] uint64_t steps() const noexcept { return steps_; }
  [[nodiscard]] size_t num_lowrank() const noexcept;

  // The persistent state the next step reads (DESIGN.md §6h), as spans
  // aliasing the live buffers. `shared` is identical on every rank after
  // each step: Power-SGD's Q per low-rank tensor. `own` is this rank's
  // alone: Power-SGD's E per low-rank tensor, or the packed codec bucket's
  // EF residual. The first call plans over `params` (forward order) and
  // creates the state as the first step would (Q seeded, residuals zero);
  // later calls must pass a structurally identical list. Throws for
  // ACP-SGD and Random-k, whose step counters (P/Q parity, seed step) are
  // not part of this state. Not callable inside a step.
  struct State {
    std::vector<std::span<float>> shared, own;
  };
  [[nodiscard]] State state(const std::vector<dnn::Param*>& params);

 private:
  struct Bucket {
    std::vector<size_t> members;  // param indices, in pack order
    size_t pending = 0;
  };

  void Plan();
  // Binds `params` for this step or state view, planning on first use.
  void Adopt(const std::vector<dnn::Param*>& params);
  void IssueBucket(const Bucket& bucket, int id);
  void AllReduceMean(std::span<float> v);
  // The codecs' stand-in for AllReduceMean: overwrites `flat` with the
  // aggregate of every alive rank's encoded bucket.
  void ReduceEncoded(compress::Compressor& codec, std::span<float> flat);
  [[nodiscard]] compress::Compressor* codec();

  // The method; std::monostate is S-SGD.
  std::variant<std::monostate, compress::AcpSgd, compress::PowerSgd,
               compress::SignCompressor, compress::TopkCompressor,
               compress::RandomkCompressor>
      method_;
  int64_t buffer_bytes_;

  // Plan (fixed at the first BeginStep): per param, whether it is
  // compressed, and per parity (0 = Q step, 1 = P step) its bucket or -1
  // when Power-SGD reduces it inline.
  std::vector<bool> lowrank_;
  std::vector<Bucket> buckets_[2];
  std::vector<int> bucket_of_[2];

  // Per-step state.
  std::vector<dnn::Param*> params_;
  comm::Communicator* comm_ = nullptr;
  std::vector<std::span<float>> payload_;  // what each param packs
  std::vector<bool> ready_;
  fusion::FusionBuffer buf_;  // reused by every bucket of every step
  uint64_t steps_ = 0;
  bool in_step_ = false;
  size_t remaining_ = 0;

  // Codec state: the packed bucket's residual and the encode, decode and
  // gather scratch reused across steps.
  compress::ErrorFeedback ef_;
  std::vector<std::byte> encoded_;
  std::vector<float> decoded_;
  std::vector<std::byte> gathered_;
};

// Builds the packed codec `spec` names, the codec half of
// MakeAggregatorFactory's grammar: "sign", "topk[:ratio]" (default 0.001)
// or "randomk[:ratio]" (default 0.01). Throws acps::Error on any other name
// or an out-of-range parameter.
[[nodiscard]] GradReducer::Codec MakeCodec(const std::string& spec);

}  // namespace acps::core
