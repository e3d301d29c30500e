#include "compress/powersgd.h"

#include <algorithm>

#include "tensor/matrix_ops.h"

namespace acps::compress {

bool LowRankWorthwhile(const Shape& shape, int64_t rank) {
  if (shape.size() != 2) return false;
  const int64_t n = shape[0], m = shape[1];
  if (n < 2 || m < 2) return false;
  const int64_t r = EffectiveRank(n, m, rank);
  return r * (n + m) < n * m;
}

int64_t EffectiveRank(int64_t n, int64_t m, int64_t rank) {
  return std::min({rank, n, m});
}

PowerSgd::PowerSgd(PowerSgdConfig config) : config_(config) {
  ACPS_CHECK_MSG(config_.rank >= 1, "rank must be >= 1");
}

int64_t PowerSgd::CommElements(int64_t n, int64_t m) const {
  const int64_t r = EffectiveRank(n, m, config_.rank);
  return r * (n + m);
}

PowerSgd::State& PowerSgd::state_for(int64_t tensor_id, int64_t n, int64_t m,
                                     int64_t r) {
  auto it = states_.find(tensor_id);
  if (it == states_.end()) {
    State st;
    st.n = n;
    st.q = Tensor({m, r});
    // Deterministic per-tensor seed shared by all workers so every worker
    // starts from the same query matrix (required for correctness).
    Rng rng = Rng(config_.seed).split(static_cast<uint64_t>(tensor_id));
    rng.fill_normal(st.q);
    if (config_.error_feedback) st.e = Tensor::Zeros({n, m});
    it = states_.emplace(tensor_id, std::move(st)).first;
  }
  ACPS_CHECK_MSG(it->second.n == n && it->second.q.rows() == m &&
                     it->second.q.cols() == r,
                 "tensor " << tensor_id << " shape changed across steps");
  return it->second;
}

std::span<float> PowerSgd::factor_q(int64_t tensor_id, int64_t n, int64_t m) {
  return state_for(tensor_id, n, m, EffectiveRank(n, m, config_.rank))
      .q.data();
}

std::span<float> PowerSgd::residual_e(int64_t tensor_id, int64_t n, int64_t m) {
  State& st = state_for(tensor_id, n, m, EffectiveRank(n, m, config_.rank));
  ACPS_CHECK_MSG(config_.error_feedback,
                 "residual_e requires error_feedback enabled");
  return st.e.data();
}

void PowerSgd::Step(int64_t tensor_id, Tensor& m,
                    const AllReduceMeanFn& allreduce) {
  ACPS_CHECK_MSG(m.ndim() == 2, "PowerSgd::Step needs a matrix, got "
                                    << ShapeToString(m.shape()));
  const int64_t n = m.rows(), mm = m.cols();
  const int64_t r = EffectiveRank(n, mm, config_.rank);
  State& st = state_for(tensor_id, n, mm, r);

  // Compute P = (M+E)·Q_prev, aggregate, orthogonalize. With feedback,
  // M + E is formed in M itself (M is overwritten by M̂ below anyway), one
  // 32-row block at a time just before P reads it. Note the all-reduce here
  // *blocks* the Q computation below — Algorithm 1's structure.
  Tensor p({n, r});
  if (config_.error_feedback) {
    AddGemm(st.e.data(), m.data(), st.q.data(), p.data(), n, mm, r);
  } else {
    Gemm(m.data(), st.q.data(), p.data(), n, mm, r);
  }
  allreduce(p.data());
  Orthogonalize(p);

  // Compute Q = (M+E)ᵀ·P, aggregate.
  GemmTransA(m.data(), p.data(), st.q.data(), mm, n, r);
  allreduce(st.q.data());

  // Decompress and update the residual in one pass: E = (M+E) − M̂, then
  // M = M̂.
  if (!config_.error_feedback) {
    GemmTransB(p.data(), st.q.data(), m.data(), n, r, mm);
    return;
  }
  SplitLowRank(p.data(), st.q.data(), m.data(), st.e.data(), n, r, mm);
}

}  // namespace acps::compress
