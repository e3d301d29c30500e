#include "core/grad_reducer.h"

#include <algorithm>
#include <limits>
#include <type_traits>

#include "check/sched_point.h"
#include "obs/tracer.h"
#include "tensor/matrix_ops.h"

namespace acps::core {

GradReducer::GradReducer(int64_t buffer_bytes) : buffer_bytes_(buffer_bytes) {
  ACPS_CHECK_MSG(buffer_bytes_ > 0,
                 "buffer_bytes must be > 0, got " << buffer_bytes_);
}

GradReducer::GradReducer(compress::AcpSgdConfig config, int64_t buffer_bytes)
    : GradReducer(buffer_bytes) {
  // AcpSgd's ctor runs AcpSgdConfig::Validate.
  method_.emplace<compress::AcpSgd>(config);
}

GradReducer::GradReducer(compress::PowerSgdConfig config, int64_t buffer_bytes)
    : GradReducer(buffer_bytes) {
  method_.emplace<compress::PowerSgd>(config);
}

GradReducer::GradReducer(Codec codec)
    // An unbounded budget plans the one packed bucket of every gradient.
    : GradReducer(std::numeric_limits<int64_t>::max()) {
  std::visit([this](auto& c) { method_ = std::move(c); }, codec);
}

std::string GradReducer::name() const {
  // In the order of method_'s alternatives.
  static constexpr const char* kNames[] = {"ssgd",    "acpsgd", "powersgd",
                                           "signsgd", "topk",   "randomk"};
  return kNames[method_.index()];
}

compress::Compressor* GradReducer::codec() {
  return std::visit(
      [](auto& m) -> compress::Compressor* {
        if constexpr (std::is_base_of_v<compress::Compressor,
                                        std::decay_t<decltype(m)>>)
          return &m;
        return nullptr;
      },
      method_);
}

size_t GradReducer::num_lowrank() const noexcept {
  return static_cast<size_t>(
      std::count(lowrank_.begin(), lowrank_.end(), true));
}

void GradReducer::Aggregate(const std::vector<dnn::Param*>& params,
                            comm::Communicator& comm) {
  BeginStep(params, comm);
  for (size_t i = params.size(); i-- > 0;) OnGradReady(i);
  FinishStep();
}

void GradReducer::Plan() {
  const size_t n = params_.size();
  const auto* acp = std::get_if<compress::AcpSgd>(&method_);
  const auto* powersgd = std::get_if<compress::PowerSgd>(&method_);
  const int64_t rank = acp        ? acp->config().rank
                       : powersgd ? powersgd->config().rank
                                  : 0;
  int64_t grad_total = 0;
  lowrank_.assign(n, false);
  for (size_t i = 0; i < n; ++i) {
    const dnn::Param* p = params_[i];
    grad_total += p->grad.numel() * static_cast<int64_t>(sizeof(float));
    lowrank_[i] = rank > 0 && p->is_matrix() &&
                  compress::LowRankWorthwhile({p->matrix_rows, p->matrix_cols},
                                              rank);
  }
  for (int parity = 0; parity < 2; ++parity) {
    // Bucket members in gradient-ready (reverse) order, per class:
    // [0] dense gradients, [1] ACP-SGD factors of this parity.
    std::vector<size_t> ids[2];
    std::vector<int64_t> bytes[2];
    for (size_t r = 0; r < n; ++r) {
      const size_t i = n - 1 - r;
      const dnn::Param* p = params_[i];
      if (!lowrank_[i]) {
        ids[0].push_back(i);
        bytes[0].push_back(p->grad.numel() *
                           static_cast<int64_t>(sizeof(float)));
      } else if (acp) {
        const int64_t r_eff =
            compress::EffectiveRank(p->matrix_rows, p->matrix_cols, rank);
        ids[1].push_back(i);
        bytes[1].push_back((parity == 1 ? p->matrix_rows : p->matrix_cols) *
                           r_eff * static_cast<int64_t>(sizeof(float)));
      }
    }
    int64_t factor_total = 0;
    for (const int64_t b : bytes[1]) factor_total += b;
    const int64_t budget[2] = {
        buffer_bytes_,
        fusion::ScaledBufferBytes(buffer_bytes_, factor_total, grad_total)};
    auto& plan = buckets_[parity];
    auto& bucket_of = bucket_of_[parity];
    plan.clear();
    bucket_of.assign(n, -1);
    for (const int cls : {1, 0}) {
      for (const auto& members :
           fusion::AssignBuckets(bytes[cls], budget[cls])) {
        Bucket bucket;
        for (const int j : members) {
          const size_t i = ids[cls][static_cast<size_t>(j)];
          bucket.members.push_back(i);
          bucket_of[i] = static_cast<int>(plan.size());
        }
        plan.push_back(std::move(bucket));
      }
    }
  }
  payload_.resize(n);
  ready_.assign(n, false);
}

void GradReducer::Adopt(const std::vector<dnn::Param*>& params) {
  // The first call plans (an empty list plans nothing).
  const bool planned = !ready_.empty();
  ACPS_CHECK_MSG(!planned || params.size() == ready_.size(),
                 "got " << params.size() << " params, planned for "
                        << ready_.size());
  params_ = params;
  if (!planned) Plan();
}

GradReducer::State GradReducer::state(const std::vector<dnn::Param*>& params) {
  ACPS_CHECK_MSG(!in_step_, "state() called inside a step");
  ACPS_CHECK_MSG(!std::holds_alternative<compress::AcpSgd>(method_) &&
                     !std::holds_alternative<compress::RandomkCompressor>(
                         method_),
                 name() << " keeps step-counter state outside "
                           "GradReducer::State");
  Adopt(params);
  State st;
  if (auto* powersgd = std::get_if<compress::PowerSgd>(&method_)) {
    // Keyed and shaped exactly as OnGradReady's PowerSgd::Step.
    for (size_t i = 0; i < params_.size(); ++i) {
      if (!lowrank_[i]) continue;
      const Tensor& grad = params_[i]->grad;
      const auto id = static_cast<int64_t>(i);
      st.shared.push_back(powersgd->factor_q(id, grad.rows(), grad.cols()));
      if (powersgd->config().error_feedback)
        st.own.push_back(powersgd->residual_e(id, grad.rows(), grad.cols()));
    }
  } else if (codec() != nullptr) {
    // The one packed bucket holds every gradient.
    int64_t total = 0;
    for (const dnn::Param* p : params_) total += p->grad.numel();
    st.own.push_back(ef_.residual(static_cast<size_t>(total)));
  }
  return st;
}

void GradReducer::BeginStep(const std::vector<dnn::Param*>& params,
                            comm::Communicator& comm) {
  ACPS_CHECK_MSG(!in_step_, "BeginStep called twice without FinishStep");
  Adopt(params);
  comm_ = &comm;
  in_step_ = true;
  remaining_ = params_.size();
  std::fill(ready_.begin(), ready_.end(), false);
  for (auto& bucket : buckets_[(steps_ + 1) % 2])
    bucket.pending = bucket.members.size();
}

void GradReducer::OnGradReady(size_t param_index) {
  ACPS_CHECK_MSG(in_step_, "OnGradReady outside BeginStep/FinishStep");
  ACPS_CHECK_MSG(param_index < params_.size(), "param index out of range");
  ACPS_CHECK_MSG(!ready_[param_index],
                 "OnGradReady called twice for param " << param_index);
  ready_[param_index] = true;
  --remaining_;

  // WFBP hook-arrival point: lets the schedule explorer perturb the timing
  // between a gradient becoming ready and its bucket filling up.
  check::SchedPoint(check::PointKind::kWfbpReady, comm_->rank());

  obs::ScopedSpan ready_span(comm_->tracer(), "grad_ready", obs::kCatGrad,
                             comm_->rank(), /*bytes=*/0,
                             static_cast<int64_t>(param_index));

  // Compression state is keyed by the forward param index.
  const auto id = static_cast<int64_t>(param_index);
  Tensor& grad = params_[param_index]->grad;
  if (lowrank_[param_index]) {
    obs::ScopedSpan compress_span(comm_->tracer(), "compress",
                                  obs::kCatCompress, comm_->rank(),
                                  grad.numel() * sizeof(float), id);
    if (auto* powersgd = std::get_if<compress::PowerSgd>(&method_)) {
      // The structure the paper criticizes: compute-P -> all-reduce ->
      // orthogonalize -> compute-Q -> all-reduce, blocking everything
      // behind it.
      powersgd->Step(id, grad,
                     [this](std::span<float> v) { AllReduceMean(v); });
      return;
    }
    // Local and non-blocking; the factor is communicated with its bucket.
    payload_[param_index] =
        std::get<compress::AcpSgd>(method_).LocalStep(id, grad);
  } else {
    payload_[param_index] = grad.data();
  }
  const size_t parity = (steps_ + 1) % 2;
  const int bucket = bucket_of_[parity][param_index];
  Bucket& plan = buckets_[parity][static_cast<size_t>(bucket)];
  if (--plan.pending == 0) IssueBucket(plan, bucket);
}

void GradReducer::AllReduceMean(std::span<float> v) {
  comm_->all_reduce(v);
  // Mean over the contributing ranks, sampled after the collective so a
  // crash at this all-reduce's entry rescales it immediately.
  Scal(1.0f / static_cast<float>(comm_->alive_world_size()), v);
}

void GradReducer::ReduceEncoded(compress::Compressor& codec,
                                std::span<float> flat) {
  {
    obs::ScopedSpan compress_span(comm_->tracer(), "compress",
                                  obs::kCatCompress, comm_->rank(),
                                  flat.size_bytes(), /*arg=*/0);
    ef_.AddInto(flat);
    encoded_.resize(codec.EncodedBytes(flat.size()));
    codec.EncodeInto(flat, encoded_);
    // Residual against this rank's own decoded blob, the standard
    // EF-SignSGD / EF-Top-k formulation.
    decoded_.resize(flat.size());
    codec.Decode(encoded_, decoded_);
    ef_.Update(flat, decoded_);
  }
  if (auto* randomk = std::get_if<compress::RandomkCompressor>(&method_)) {
    // Every rank selected the same coordinates: the values are additive.
    AllReduceMean(compress::RandomkCompressor::ValuesOf(encoded_));
    randomk->Decode(encoded_, flat);
    return;
  }
  const size_t blob = encoded_.size();
  gathered_.resize(blob * static_cast<size_t>(comm_->world_size()));
  comm_->all_gather_bytes(encoded_, gathered_);
  // Crashed ranks' blocks are zero-filled by the degraded all-gather; only
  // the alive ranks' blobs are aggregated.
  const auto blob_of = [&](int r) {
    return std::span<const std::byte>(gathered_).subspan(
        blob * static_cast<size_t>(r), blob);
  };
  if (std::holds_alternative<compress::SignCompressor>(method_)) {
    std::vector<std::span<const std::byte>> blobs;
    for (int r = 0; r < comm_->world_size(); ++r)
      if (comm_->is_alive(r)) blobs.push_back(blob_of(r));
    compress::SignCompressor::MajorityVote(blobs, flat);
    return;
  }
  std::fill(flat.begin(), flat.end(), 0.0f);
  for (int r = 0; r < comm_->world_size(); ++r) {
    if (!comm_->is_alive(r)) continue;
    compress::TopkCompressor::AccumulateInto(blob_of(r), flat,
                                             comm_->alive_world_size());
  }
}

void GradReducer::IssueBucket(const Bucket& bucket, int id) {
  check::SchedPoint(check::PointKind::kBucketIssue, comm_->rank());
  buf_.Reset();
  for (const size_t m : bucket.members)
    (void)buf_.AddSlot(static_cast<int64_t>(payload_[m].size()));
  for (size_t s = 0; s < bucket.members.size(); ++s)
    buf_.Pack(static_cast<int>(s), payload_[bucket.members[s]]);
  const auto flat = buf_.flat();
  const uint64_t bucket_bytes = flat.size_bytes();
  {
    obs::ScopedSpan issue_span(comm_->tracer(), "bucket_issue",
                               obs::kCatBucket, comm_->rank(), bucket_bytes,
                               id);
    if (compress::Compressor* c = codec()) {
      ReduceEncoded(*c, flat);
    } else {
      AllReduceMean(flat);
    }
  }
  // A bucket holds only factors or only dense gradients.
  const bool factors = lowrank_[bucket.members.front()];
  obs::ScopedSpan decompress_span(factors ? comm_->tracer() : nullptr,
                                  "decompress", obs::kCatCompress,
                                  comm_->rank(), bucket_bytes, id);
  for (size_t s = 0; s < bucket.members.size(); ++s) {
    const size_t m = bucket.members[s];
    buf_.Unpack(static_cast<int>(s), payload_[m]);
    if (factors) {
      std::get<compress::AcpSgd>(method_).Finish(static_cast<int64_t>(m),
                                                 params_[m]->grad);
    }
  }
}

void GradReducer::FinishStep() {
  ACPS_CHECK_MSG(in_step_, "FinishStep without BeginStep");
  ACPS_CHECK_MSG(remaining_ == 0, remaining_
                                      << " params never reported ready — "
                                         "did every hook fire?");
  in_step_ = false;
  ++steps_;
}

}  // namespace acps::core
