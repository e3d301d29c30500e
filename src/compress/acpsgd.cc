#include "compress/acpsgd.h"

#include "tensor/matrix_ops.h"

namespace acps::compress {

std::string AcpSgdConfig::Validate() const {
  if (rank < 1) return "rank must be >= 1, got " + std::to_string(rank);
  return "";
}

AcpSgd::AcpSgd(AcpSgdConfig config) : config_(config) {
  const std::string err = config_.Validate();
  ACPS_CHECK_MSG(err.empty(), "invalid AcpSgdConfig: " << err);
}

int64_t AcpSgd::CommElements(int64_t n, int64_t m, uint64_t step) const {
  const int64_t r = EffectiveRank(n, m, config_.rank);
  // Odd steps communicate P [n×r], even steps Q [m×r].
  return (step % 2 == 1) ? r * n : r * m;
}

uint64_t AcpSgd::step_of(int64_t tensor_id) const {
  const auto it = states_.find(tensor_id);
  return it == states_.end() ? 0 : it->second.t;
}

AcpSgd::State& AcpSgd::state_for(int64_t tensor_id, int64_t n, int64_t m,
                                 int64_t r) {
  auto it = states_.find(tensor_id);
  if (it == states_.end()) {
    State st;
    st.p = Tensor({n, r});
    st.q = Tensor({m, r});
    // P_0 and Q_0 drawn from a per-tensor stream shared by all workers
    // (paper: "initialized randomly from standard normal distribution").
    Rng rng = Rng(config_.seed).split(static_cast<uint64_t>(tensor_id));
    rng.fill_normal(st.p);
    rng.fill_normal(st.q);
    if (config_.error_feedback) st.e = Tensor::Zeros({n, m});
    it = states_.emplace(tensor_id, std::move(st)).first;
  }
  ACPS_CHECK_MSG(it->second.p.rows() == n && it->second.q.rows() == m &&
                     it->second.p.cols() == r,
                 "tensor " << tensor_id << " shape changed across steps");
  return it->second;
}

std::span<float> AcpSgd::LocalStep(int64_t tensor_id, const Tensor& m) {
  ACPS_CHECK_MSG(m.ndim() == 2, "AcpSgd::LocalStep needs a matrix, got "
                                    << ShapeToString(m.shape()));
  const int64_t n = m.rows(), mm = m.cols();
  const int64_t r = EffectiveRank(n, mm, config_.rank);
  State& st = state_for(tensor_id, n, mm, r);
  ACPS_CHECK_MSG(!st.pending, "LocalStep called twice without Finish for "
                                  << tensor_id);
  st.pending = true;
  const uint64_t t = st.t + 1;

  const bool p_step = (t % 2 == 1);
  Tensor& fixed = p_step ? st.q : st.p;  // the factor we orthogonalize
  if (config_.reuse) {
    Orthogonalize(fixed);
  } else {
    // Ablation: discard the carried factor, draw a fresh random basis
    // (deterministic in (seed, tensor, step) so all workers agree).
    Rng rng = Rng(config_.seed ^ 0xFEEDull)
                  .split(static_cast<uint64_t>(tensor_id) * 1315423911ull + t);
    rng.fill_normal(fixed);
    Orthogonalize(fixed);
  }

  // Feedback: compress M + E, accumulated into E in place, and leave the
  // residual from the *local* factor (Algorithm 2 lines 6/11: before
  // aggregation): E = (M+E) − P·Qᵀ.
  if (!config_.error_feedback) {
    if (p_step) {
      Gemm(m.data(), st.q.data(), st.p.data(), n, mm, r);  // P_t = M·Q_t
    } else {
      GemmTransA(m.data(), st.p.data(), st.q.data(), mm, n, r);  // Mᵀ·P_t
    }
  } else if (p_step) {
    // Row i of P_t = (M+E)·Q_t needs only row i of M+E, so one sweep over
    // 32-row blocks of E does E += M, P_t = E·Q_t and E −= P_t·Q_tᵀ.
    ProjectResidual(m.data(), st.e.data(), st.q.data(), st.p.data(), n, mm, r);
  } else {
    // Q_t = (M+E)ᵀ·P_t needs all of M+E first: one sweep adds M into E
    // and folds each row block into Q_t, then one streamed residual pass
    // (P_t·Q_tᵀ is never stored).
    AddGemmTransA(m.data(), st.e.data(), st.p.data(), st.q.data(), n, mm, r);
    SubtractLowRank(st.p.data(), st.q.data(), st.e.data(), n, r, mm);
  }

  return p_step ? st.p.data() : st.q.data();
}

void AcpSgd::Finish(int64_t tensor_id, Tensor& out) {
  auto it = states_.find(tensor_id);
  ACPS_CHECK_MSG(it != states_.end() && it->second.pending,
                 "Finish without LocalStep for tensor " << tensor_id);
  State& st = it->second;
  const int64_t n = st.p.rows(), m = st.q.rows();
  ACPS_CHECK_MSG(out.ndim() == 2 && out.rows() == n && out.cols() == m,
                 "Finish output for tensor " << tensor_id << " must be ["
                                             << n << "x" << m << "], got "
                                             << ShapeToString(out.shape()));
  st.pending = false;
  st.t += 1;

  // M̂ = P·Qᵀ with the aggregated factor now in place.
  GemmTransB(st.p.data(), st.q.data(), out.data(), n, st.p.cols(), m);
}

void AcpSgd::Step(int64_t tensor_id, Tensor& m,
                  const AllReduceMeanFn& allreduce) {
  auto factor = LocalStep(tensor_id, m);
  allreduce(factor);
  Finish(tensor_id, m);
}

}  // namespace acps::compress
