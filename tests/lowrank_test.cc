// Tests for the stateful low-rank algorithms: Power-SGD and ACP-SGD.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <vector>

#include "comm/communicator.h"
#include "compress/acpsgd.h"
#include "compress/powersgd.h"
#include "tensor/matrix_ops.h"
#include "tensor/rng.h"

namespace acps::compress {
namespace {

const AllReduceMeanFn kIdentity = [](std::span<float>) {};

Tensor RandomMatrix(int64_t n, int64_t m, uint64_t seed) {
  Rng rng(seed);
  Tensor t({n, m});
  rng.fill_normal(t);
  return t;
}

float RelErr(const Tensor& approx, const Tensor& target) {
  Tensor d = approx.clone();
  d.sub_(target);
  return d.norm2() / target.norm2();
}

bool SameBits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

// ------------------------------------------------------------ helpers -----

TEST(LowRankWorthwhile, Logic) {
  EXPECT_TRUE(LowRankWorthwhile({64, 128}, 4));
  EXPECT_FALSE(LowRankWorthwhile({64}, 4));          // vector
  EXPECT_FALSE(LowRankWorthwhile({1, 128}, 4));      // degenerate
  EXPECT_FALSE(LowRankWorthwhile({2, 2}, 4));        // r(n+m) >= nm
  EXPECT_FALSE(LowRankWorthwhile({8, 8}, 8));        // no savings at full rank
}

TEST(EffectiveRank, Clamped) {
  EXPECT_EQ(EffectiveRank(100, 200, 4), 4);
  EXPECT_EQ(EffectiveRank(3, 200, 4), 3);
  EXPECT_EQ(EffectiveRank(100, 2, 4), 2);
}

// ------------------------------------------------------------ PowerSGD ----

TEST(PowerSgd, ExactOnLowRankMatrix) {
  Tensor u = RandomMatrix(20, 3, 1);
  Tensor v = RandomMatrix(15, 3, 2);
  const Tensor target = MatMulTB(u, v);  // rank 3

  PowerSgdConfig cfg;
  cfg.rank = 3;
  cfg.error_feedback = false;
  PowerSgd psgd(cfg);
  // Repeated steps on the same matrix converge to it (power iteration).
  Tensor m = target.clone();
  for (int t = 0; t < 6; ++t) {
    m = target.clone();
    psgd.Step(0, m, kIdentity);
  }
  EXPECT_LT(RelErr(m, target), 1e-2f);
}

TEST(PowerSgd, QueryReuseImprovesApproximation) {
  const Tensor target = RandomMatrix(32, 32, 3);
  PowerSgdConfig cfg;
  cfg.rank = 4;
  cfg.error_feedback = false;
  PowerSgd psgd(cfg);
  Tensor first = target.clone();
  psgd.Step(0, first, kIdentity);
  const float err_first = RelErr(first, target);
  for (int t = 0; t < 10; ++t) {
    Tensor m = target.clone();
    psgd.Step(0, m, kIdentity);
    if (t == 9) {
      EXPECT_LT(RelErr(m, target), err_first);
    }
  }
}

TEST(PowerSgd, ErrorFeedbackAveragesToTrueGradient) {
  const Tensor target = RandomMatrix(24, 24, 4);
  PowerSgdConfig cfg;
  cfg.rank = 2;
  cfg.error_feedback = true;
  PowerSgd psgd(cfg);
  Tensor sum({24, 24});
  const int steps = 60;
  for (int t = 0; t < steps; ++t) {
    Tensor m = target.clone();
    psgd.Step(0, m, kIdentity);
    sum.add_(m);
  }
  sum.scale_(1.0f / steps);
  EXPECT_LT(RelErr(sum, target), 0.15f);
}

TEST(PowerSgd, ShapeChangeThrows) {
  PowerSgd psgd(PowerSgdConfig{});
  Tensor a = RandomMatrix(8, 8, 5);
  psgd.Step(0, a, kIdentity);
  Tensor b = RandomMatrix(9, 8, 6);
  EXPECT_THROW(psgd.Step(0, b, kIdentity), Error);
}

// Without error feedback there is no n×m residual to betray the row count,
// so the state check has to compare n itself.
TEST(PowerSgd, RowCountChangeThrowsWithoutErrorFeedback) {
  PowerSgdConfig cfg;
  cfg.error_feedback = false;
  PowerSgd psgd(cfg);
  Tensor a = RandomMatrix(8, 8, 5);
  psgd.Step(0, a, kIdentity);
  Tensor b = RandomMatrix(9, 8, 6);
  EXPECT_THROW(psgd.Step(0, b, kIdentity), Error);
}

// E is rewritten only after both all-reduces, so a failing collective (on
// the P or on the Q factor) leaves the residual exactly as it was.
TEST(PowerSgd, ThrowingAllReduceLeavesResidualUnchanged) {
  for (const int fail_on : {1, 2}) {
    PowerSgd psgd(PowerSgdConfig{});
    Tensor g = RandomMatrix(12, 10, 9);
    psgd.Step(0, g, kIdentity);
    const std::span<float> e = psgd.residual_e(0, 12, 10);
    const std::vector<float> before(e.begin(), e.end());
    int calls = 0;
    const AllReduceMeanFn failing = [&](std::span<float>) {
      if (++calls == fail_on) throw Error("all-reduce failed");
    };
    Tensor h = RandomMatrix(12, 10, 10);
    EXPECT_THROW(psgd.Step(0, h, failing), Error);
    EXPECT_EQ(std::vector<float>(e.begin(), e.end()), before)
        << "failure on all-reduce " << fail_on;
  }
}

// Power-SGD's step rebuilt from public kernels, one full pass each:
// M += E, P = M·Q, orthogonalize, Q = Mᵀ·P, then M̂ = P·Qᵀ and E = M − M̂.
void PassByPassPowerSgdStep(const PowerSgdConfig& cfg, Tensor& q, Tensor& e,
                            Tensor& m, const AllReduceMeanFn& allreduce) {
  const int64_t n = m.rows(), mm = m.cols(), r = q.cols();
  if (cfg.error_feedback) m.add_(e);
  Tensor p({n, r});
  Gemm(m.data(), q.data(), p.data(), n, mm, r);
  allreduce(p.data());
  Orthogonalize(p);
  GemmTransA(m.data(), p.data(), q.data(), mm, n, r);
  allreduce(q.data());
  Tensor recon({n, mm});
  GemmTransB(p.data(), q.data(), recon.data(), n, r, mm);
  if (cfg.error_feedback) {
    for (int64_t i = 0; i < m.numel(); ++i)
      e.data()[i] = m.data()[i] - recon.data()[i];
  }
  m.copy_from(recon);
}

// PowerSgd::Step (the P step's add folded into its product, the streamed
// residual split) against the pass-by-pass step, bit for bit, over four
// steps so each residual feeds the next: error feedback on and off, r on
// both sides of the small-m cutoff, n not a multiple of the 32-row block.
TEST(PowerSgd, FusedStepMatchesPassByPassBitwise) {
  struct Case {
    int64_t n, m, rank;
    bool error_feedback;
  };
  const AllReduceMeanFn scale = [](std::span<float> v) {
    for (float& x : v) x *= 0.75f;
  };
  for (const Case c : {Case{70, 45, 4, true}, Case{70, 45, 4, false},
                       Case{97, 40, 9, true}, Case{97, 40, 9, false},
                       Case{1031, 1031, 4, true}}) {
    PowerSgdConfig cfg;
    cfg.rank = c.rank;
    cfg.error_feedback = c.error_feedback;
    const int64_t id = 5;
    PowerSgd psgd(cfg);
    Tensor ref_q({c.m, c.rank});
    Rng(cfg.seed).split(static_cast<uint64_t>(id)).fill_normal(ref_q);
    Tensor ref_e = Tensor::Zeros({c.n, c.m});
    for (int step = 1; step <= 4; ++step) {
      Tensor got = RandomMatrix(c.n, c.m, 500 + static_cast<uint64_t>(step));
      Tensor want = got.clone();
      psgd.Step(id, got, scale);
      PassByPassPowerSgdStep(cfg, ref_q, ref_e, want, scale);
      ASSERT_TRUE(SameBits(got.data(), want.data()))
          << "M̂, step " << step << ", " << c.n << "x" << c.m << " r"
          << c.rank << " ef=" << c.error_feedback;
      ASSERT_TRUE(SameBits(psgd.factor_q(id, c.n, c.m), ref_q.data()))
          << "Q, step " << step;
      if (c.error_feedback) {
        ASSERT_TRUE(SameBits(psgd.residual_e(id, c.n, c.m), ref_e.data()))
            << "E, step " << step;
      }
    }
  }
}

TEST(PowerSgd, CommElements) {
  PowerSgdConfig cfg;
  cfg.rank = 4;
  PowerSgd psgd(cfg);
  EXPECT_EQ(psgd.CommElements(100, 50), 4 * 150);
  EXPECT_EQ(psgd.CommElements(2, 50), 2 * 52);  // clamped rank
}

// -------------------------------------------------------------- ACP-SGD ---

TEST(AcpSgd, AlternatesParityAndHalvesTraffic) {
  AcpSgdConfig cfg;
  cfg.rank = 4;
  AcpSgd acp(cfg);
  // Odd step communicates P (n*r), even step Q (m*r).
  EXPECT_EQ(acp.CommElements(100, 60, 1), 400);
  EXPECT_EQ(acp.CommElements(100, 60, 2), 240);
  const Tensor m = RandomMatrix(100, 60, 7);
  Tensor g = m.clone();
  EXPECT_EQ(acp.step_of(0), 0u);
  auto f1 = acp.LocalStep(0, g);
  EXPECT_EQ(static_cast<int64_t>(f1.size()), 100 * 4);  // P step
  acp.Finish(0, g);
  EXPECT_EQ(acp.step_of(0), 1u);
  auto f2 = acp.LocalStep(0, g);
  EXPECT_EQ(static_cast<int64_t>(f2.size()), 60 * 4);  // Q step
  acp.Finish(0, g);

  // Average traffic is half of Power-SGD's r(n+m).
  const int64_t avg2 =
      acp.CommElements(100, 60, 1) + acp.CommElements(100, 60, 2);
  EXPECT_EQ(avg2, 4 * 160);
}

TEST(AcpSgd, DoubleLocalStepThrows) {
  AcpSgd acp(AcpSgdConfig{});
  Tensor g = RandomMatrix(10, 10, 8);
  (void)acp.LocalStep(0, g);
  EXPECT_THROW((void)acp.LocalStep(0, g), Error);
}

TEST(AcpSgd, FinishWithoutLocalStepThrows) {
  AcpSgd acp(AcpSgdConfig{});
  Tensor g = RandomMatrix(10, 10, 8);
  EXPECT_THROW(acp.Finish(0, g), Error);
}

// Finish writes M̂ straight into `out`, so `out` must have the gradient's
// [n×m] shape, not merely its element count.
TEST(AcpSgd, FinishRejectsMisshapenOutput) {
  AcpSgd acp(AcpSgdConfig{});
  const Tensor g = RandomMatrix(12, 8, 8);
  (void)acp.LocalStep(0, g);
  Tensor transposed({8, 12});
  EXPECT_THROW(acp.Finish(0, transposed), Error);
  Tensor flat({96});
  EXPECT_THROW(acp.Finish(0, flat), Error);
  // A rejected output leaves the step pending; the right shape finishes it.
  Tensor out({12, 8});
  acp.Finish(0, out);
  EXPECT_EQ(acp.step_of(0), 1u);
}

TEST(AcpSgd, ConvergesToLowRankMatrix) {
  Tensor u = RandomMatrix(20, 2, 11);
  Tensor v = RandomMatrix(16, 2, 12);
  const Tensor target = MatMulTB(u, v);  // rank 2
  AcpSgdConfig cfg;
  cfg.rank = 2;
  cfg.error_feedback = false;
  AcpSgd acp(cfg);
  Tensor m;
  for (int t = 0; t < 10; ++t) {
    m = target.clone();
    acp.Step(0, m, kIdentity);
  }
  EXPECT_LT(RelErr(m, target), 1e-2f);
}

TEST(AcpSgd, ErrorFeedbackAveragesToTrueGradient) {
  const Tensor target = RandomMatrix(24, 18, 13);
  AcpSgdConfig cfg;
  cfg.rank = 4;
  AcpSgd acp(cfg);
  Tensor sum({24, 18});
  const int steps = 80;
  for (int t = 0; t < steps; ++t) {
    Tensor m = target.clone();
    acp.Step(0, m, kIdentity);
    sum.add_(m);
  }
  sum.scale_(1.0f / steps);
  EXPECT_LT(RelErr(sum, target), 0.2f);
}

TEST(AcpSgd, WithoutErrorFeedbackIsBiased) {
  // Without EF the long-run average keeps missing the out-of-subspace
  // component — Fig 7's premise.
  const Tensor target = RandomMatrix(24, 18, 14);
  AcpSgdConfig with_cfg, without_cfg;
  with_cfg.rank = without_cfg.rank = 2;
  without_cfg.error_feedback = false;
  AcpSgd with_ef(with_cfg), without_ef(without_cfg);
  Tensor sum_with({24, 18}), sum_without({24, 18});
  const int steps = 80;
  for (int t = 0; t < steps; ++t) {
    Tensor a = target.clone();
    with_ef.Step(0, a, kIdentity);
    sum_with.add_(a);
    Tensor b = target.clone();
    without_ef.Step(0, b, kIdentity);
    sum_without.add_(b);
  }
  sum_with.scale_(1.0f / steps);
  sum_without.scale_(1.0f / steps);
  EXPECT_LT(RelErr(sum_with, target), RelErr(sum_without, target));
}

TEST(AcpSgd, ReuseBeatsFreshRandomBasis) {
  const Tensor target = RandomMatrix(32, 32, 15);
  AcpSgdConfig reuse_cfg, fresh_cfg;
  reuse_cfg.rank = fresh_cfg.rank = 4;
  reuse_cfg.error_feedback = fresh_cfg.error_feedback = false;
  fresh_cfg.reuse = false;
  AcpSgd reuse(reuse_cfg), fresh(fresh_cfg);
  float err_reuse = 0.0f, err_fresh = 0.0f;
  for (int t = 0; t < 12; ++t) {
    Tensor a = target.clone();
    reuse.Step(0, a, kIdentity);
    err_reuse = RelErr(a, target);
    Tensor b = target.clone();
    fresh.Step(0, b, kIdentity);
    err_fresh = RelErr(b, target);
  }
  EXPECT_LT(err_reuse, err_fresh);
}

TEST(AcpSgd, WorkersStayConsistent) {
  // All workers must produce bit-identical aggregated gradients: identical
  // seeds for the factors, mean-all-reduce for the rest.
  const int p = 4;
  comm::Transport group_transport;
  comm::Session group(group_transport, "lowrank", p);
  std::vector<Tensor> results(static_cast<size_t>(p));
  group.Run([&](comm::Communicator& comm) {
    AcpSgdConfig cfg;
    cfg.rank = 3;
    AcpSgd acp(cfg);
    const AllReduceMeanFn mean = [&](std::span<float> v) {
      comm.all_reduce(v);
      for (float& x : v) x /= static_cast<float>(p);
    };
    // Each worker has a different gradient (different seed).
    for (int t = 0; t < 5; ++t) {
      Tensor g =
          RandomMatrix(16, 12, 100 + static_cast<uint64_t>(comm.rank()) + t);
      acp.Step(0, g, mean);
      if (t == 4) results[static_cast<size_t>(comm.rank())] = std::move(g);
    }
  });
  for (int r = 1; r < p; ++r)
    EXPECT_TRUE(results[static_cast<size_t>(r)].all_close(results[0], 1e-6f))
        << "worker " << r;
}

TEST(AcpSgd, AggregatedEqualsCompressedMeanGradient) {
  // With identical per-worker state, the aggregated output must equal the
  // single-process compression of the mean gradient.
  const int p = 4;
  const int64_t n = 12, m = 10;
  std::vector<Tensor> grads;
  Tensor mean_grad({n, m});
  for (int r = 0; r < p; ++r) {
    grads.push_back(RandomMatrix(n, m, 200 + static_cast<uint64_t>(r)));
    mean_grad.add_(grads.back());
  }
  mean_grad.scale_(1.0f / p);

  // Reference: single process compressing the mean gradient directly,
  // with EF disabled (EF state differs per worker by construction).
  AcpSgdConfig cfg;
  cfg.rank = 2;
  cfg.error_feedback = false;
  AcpSgd ref(cfg);
  Tensor expect = mean_grad.clone();
  ref.Step(0, expect, kIdentity);

  comm::Transport group_transport;

  comm::Session group(group_transport, "lowrank", p);
  std::vector<Tensor> results(static_cast<size_t>(p));
  group.Run([&](comm::Communicator& comm) {
    AcpSgd acp(cfg);
    const AllReduceMeanFn mean = [&](std::span<float> v) {
      comm.all_reduce(v);
      for (float& x : v) x /= static_cast<float>(p);
    };
    Tensor g = grads[static_cast<size_t>(comm.rank())].clone();
    acp.Step(0, g, mean);
    results[static_cast<size_t>(comm.rank())] = std::move(g);
  });
  for (int r = 0; r < p; ++r)
    EXPECT_TRUE(results[static_cast<size_t>(r)].all_close(expect, 1e-3f));
}

// ACP-SGD's step rebuilt from public kernels, one full pass over n×m at a
// time: E += M (add_), then P = E·Q (Gemm) or Q = Eᵀ·P (GemmTransA), then
// E −= P·Qᵀ through a stored GemmTransB product and a subtract.
class ThreePassAcp {
 public:
  ThreePassAcp(const AcpSgdConfig& cfg, int64_t id, int64_t n, int64_t m)
      : cfg_(cfg), id_(id), p_({n, cfg.rank}), q_({m, cfg.rank}) {
    Rng rng = Rng(cfg.seed).split(static_cast<uint64_t>(id));
    rng.fill_normal(p_);
    rng.fill_normal(q_);
    if (cfg.error_feedback) e_ = Tensor::Zeros({n, m});
  }

  std::span<float> LocalStep(const Tensor& g) {
    const uint64_t t = ++t_;
    const bool p_step = t % 2 == 1;
    Tensor& fixed = p_step ? q_ : p_;
    if (!cfg_.reuse) {
      Rng(cfg_.seed ^ 0xFEEDull)
          .split(static_cast<uint64_t>(id_) * 1315423911ull + t)
          .fill_normal(fixed);
    }
    Orthogonalize(fixed);
    if (cfg_.error_feedback) e_.add_(g);
    const Tensor& input = cfg_.error_feedback ? e_ : g;
    if (p_step) {
      Gemm(input.data(), q_.data(), p_.data(), g.rows(), g.cols(), cfg_.rank);
    } else {
      GemmTransA(input.data(), p_.data(), q_.data(), g.cols(), g.rows(),
                 cfg_.rank);
    }
    if (cfg_.error_feedback) {
      Tensor recon(g.shape());
      GemmTransB(p_.data(), q_.data(), recon.data(), g.rows(), cfg_.rank,
                 g.cols());
      for (int64_t i = 0; i < e_.numel(); ++i) e_.data()[i] -= recon.data()[i];
    }
    return p_step ? p_.data() : q_.data();
  }

  void Finish(Tensor& out) {
    GemmTransB(p_.data(), q_.data(), out.data(), out.rows(), cfg_.rank,
               out.cols());
  }

 private:
  AcpSgdConfig cfg_;
  int64_t id_;
  Tensor p_, q_, e_;
  uint64_t t_ = 0;
};

// LocalStep's one-sweep P step (and its streamed Q-step residual) against
// the three-pass sequence, bit for bit, over four steps so both parities
// run and each step's residual feeds the next: n not a multiple of the
// 32-row block, error feedback on and off, reuse off, r on both sides of
// the small-m cutoff, and one shape large enough to split rows on the pool.
TEST(AcpSgd, OneSweepPStepMatchesThreePassesBitwise) {
  struct Case {
    int64_t n, m, rank;
    bool error_feedback, reuse;
  };
  for (const Case c : {Case{70, 45, 4, true, true}, Case{70, 45, 4, false, true},
                       Case{70, 45, 4, true, false}, Case{97, 40, 9, true, true},
                       Case{1031, 1031, 4, true, true}}) {
    AcpSgdConfig cfg;
    cfg.rank = c.rank;
    cfg.error_feedback = c.error_feedback;
    cfg.reuse = c.reuse;
    const int64_t id = 3;
    AcpSgd acp(cfg);
    ThreePassAcp ref(cfg, id, c.n, c.m);
    for (int step = 1; step <= 4; ++step) {
      const Tensor g = RandomMatrix(c.n, c.m, 400 + static_cast<uint64_t>(step));
      const std::span<float> got = acp.LocalStep(id, g);
      const std::span<float> want = ref.LocalStep(g);
      ASSERT_TRUE(SameBits(got, want))
          << "factor, step " << step << ", " << c.n << "x" << c.m << " r"
          << c.rank << " ef=" << c.error_feedback << " reuse=" << c.reuse;
      // Stand-in for the all-reduce: both sides aggregate the same way.
      for (float& v : got) v *= 0.75f;
      for (float& v : want) v *= 0.75f;
      Tensor got_out({c.n, c.m}), want_out({c.n, c.m});
      acp.Finish(id, got_out);
      ref.Finish(want_out);
      ASSERT_TRUE(SameBits(got_out.data(), want_out.data()))
          << "M̂, step " << step << ", " << c.n << "x" << c.m << " r"
          << c.rank << " ef=" << c.error_feedback << " reuse=" << c.reuse;
    }
  }
}

TEST(AcpSgd, ValidateReportsEveryBadField) {
  AcpSgdConfig cfg;
  EXPECT_EQ(cfg.Validate(), "");
  cfg.rank = 0;
  EXPECT_EQ(cfg.Validate(), "rank must be >= 1, got 0");
  EXPECT_THROW(AcpSgd{cfg}, Error);
}

TEST(AcpSgd, RejectsNonMatrix) {
  AcpSgd acp(AcpSgdConfig{});
  Tensor v({16});
  EXPECT_THROW((void)acp.LocalStep(0, v), Error);
}

}  // namespace
}  // namespace acps::compress
