// Additional cross-cutting property tests: state isolation, extreme
// shapes, precision, and schedule-trace invariants.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "comm/communicator.h"
#include "compress/acpsgd.h"
#include "compress/powersgd.h"
#include "linalg/qr.h"
#include "models/model_zoo.h"
#include "sim/pipeline.h"
#include "tensor/matrix_ops.h"
#include "tensor/rng.h"

namespace acps {
namespace {

const compress::AllReduceMeanFn kIdentity = [](std::span<float>) {};

TEST(Properties, AcpSgdTensorsAreStateIsolated) {
  // Interleaved steps on two tensors must behave exactly like two separate
  // AcpSgd instances each handling one tensor.
  compress::AcpSgdConfig cfg;
  cfg.rank = 2;
  compress::AcpSgd joint(cfg), only_a(cfg), only_b(cfg);
  Rng rng(5);
  Tensor ga({10, 8}), gb({12, 6});
  rng.fill_normal(ga);
  rng.fill_normal(gb);
  for (int t = 0; t < 6; ++t) {
    Tensor ja = ga.clone(), jb = gb.clone();
    joint.Step(0, ja, kIdentity);
    joint.Step(1, jb, kIdentity);
    Tensor sa = ga.clone(), sb = gb.clone();
    only_a.Step(0, sa, kIdentity);
    only_b.Step(1, sb, kIdentity);
    EXPECT_TRUE(ja.all_close(sa, 1e-6f)) << t;
    EXPECT_TRUE(jb.all_close(sb, 1e-6f)) << t;
  }
}

TEST(Properties, AcpSgdHandlesExtremeAspectRatios) {
  compress::AcpSgdConfig cfg;
  cfg.rank = 4;
  compress::AcpSgd acp(cfg);
  Rng rng(6);
  for (auto [n, m] : std::vector<std::pair<int64_t, int64_t>>{
           {2, 500}, {500, 2}, {3, 3}, {1000, 4}}) {
    Tensor g({n, m});
    rng.fill_normal(g);
    const Tensor orig = g.clone();
    const int64_t id = n * 10000 + m;
    for (int t = 0; t < 4; ++t) {
      g = orig.clone();
      EXPECT_NO_THROW(acp.Step(id, g, kIdentity)) << n << "x" << m;
      for (float v : g.data()) EXPECT_TRUE(std::isfinite(v));
    }
    // Effective rank is clamped to min(n, m): the output is a projection,
    // so its norm never exceeds the input's (orthonormal basis).
    EXPECT_LE(g.norm2(), orig.norm2() * 2.5f) << n << "x" << m;
  }
}

TEST(Properties, PowerSgdZeroGradientStaysFinite) {
  compress::PowerSgdConfig cfg;
  cfg.rank = 3;
  compress::PowerSgd psgd(cfg);
  Tensor g({8, 8});  // zeros
  for (int t = 0; t < 3; ++t) {
    Tensor step = g.clone();
    psgd.Step(0, step, kIdentity);
    for (float v : step.data()) EXPECT_TRUE(std::isfinite(v));
    EXPECT_LT(step.norm2(), 1e-3f);
  }
}

TEST(Properties, AcpSgdZeroGradientStaysFinite) {
  compress::AcpSgdConfig cfg;
  cfg.rank = 3;
  compress::AcpSgd acp(cfg);
  Tensor g({8, 8});
  for (int t = 0; t < 4; ++t) {
    Tensor step = g.clone();
    acp.Step(0, step, kIdentity);
    for (float v : step.data()) EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(Properties, RingAllReducePrecisionAtScale) {
  // Large vector, many workers: result must match a double-precision
  // reference within float tolerance (the ring's reduction order differs
  // from naive summation).
  const int p = 8;
  const size_t n = 40000;
  comm::Transport group_transport;
  comm::Session group(group_transport, "properties", p);
  std::atomic<int> failures{0};
  group.Run([&](comm::Communicator& comm) {
    Rng rng(3000 + static_cast<uint64_t>(comm.rank()));
    std::vector<float> v(n);
    for (auto& x : v) x = rng.normal();
    comm.all_reduce(v);
    // Reference in double.
    std::vector<double> expect(n, 0.0);
    for (int r = 0; r < p; ++r) {
      Rng wr(3000 + static_cast<uint64_t>(r));
      for (size_t i = 0; i < n; ++i) expect[i] += wr.normal();
    }
    for (size_t i = 0; i < n; i += 97) {
      if (std::abs(v[i] - expect[i]) > 1e-3) {
        ++failures;
        break;
      }
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(Properties, TraceEventsTileComputeStream) {
  // Compute-stream trace events must be non-overlapping and ordered — the
  // single-resource invariant of the simulator.
  std::vector<sim::TraceEvent> trace;
  sim::SimConfig cfg;
  cfg.method = sim::Method::kACPSGD;
  cfg.trace = &trace;
  (void)sim::SimulateIteration(models::ResNet18(), cfg);
  double prev_end = 0.0;
  for (const auto& e : trace) {
    if (e.resource != "compute") continue;
    EXPECT_GE(e.start_s, prev_end - 1e-12) << e.name;
    prev_end = e.end_s;
  }
}

TEST(Properties, SimDeterministic) {
  // Identical configs must produce bit-identical results (the simulator
  // has no hidden global state).
  const auto model = models::BertBase();
  sim::SimConfig cfg;
  cfg.method = sim::Method::kPowerSGDStar;
  cfg.rank = 32;
  const auto a = sim::SimulateIterationAvg(model, cfg);
  const auto b = sim::SimulateIterationAvg(model, cfg);
  EXPECT_DOUBLE_EQ(a.total_s, b.total_s);
  EXPECT_DOUBLE_EQ(a.compress_s, b.compress_s);
  EXPECT_DOUBLE_EQ(a.comm_exposed_s, b.comm_exposed_s);
}

TEST(Properties, OrthogonalizeIdempotent) {
  Rng rng(9);
  Tensor a({20, 4});
  rng.fill_normal(a);
  Orthogonalize(a);
  Tensor once = a.clone();
  Orthogonalize(a);
  // Re-orthogonalizing an orthonormal basis changes nothing (up to sign
  // conventions of QR, which our Householder implementation fixes).
  EXPECT_TRUE(a.all_close(once, 1e-4f));
}

TEST(Properties, GemmLinearity) {
  // MatMul(alpha*A + B, C) == alpha*MatMul(A, C) + MatMul(B, C).
  Rng rng(10);
  Tensor a({6, 5}), b({6, 5}), c({5, 7});
  rng.fill_normal(a);
  rng.fill_normal(b);
  rng.fill_normal(c);
  const float alpha = 2.5f;
  Tensor lhs_in = a.clone();
  lhs_in.scale_(alpha);
  lhs_in.add_(b);
  const Tensor lhs = MatMul(lhs_in, c);
  Tensor rhs = MatMul(a, c);
  rhs.scale_(alpha);
  rhs.add_(MatMul(b, c));
  EXPECT_TRUE(lhs.all_close(rhs, 1e-3f));
}

TEST(Properties, ModelZooFootprintsConsistent) {
  // P+Q+dense element counts must account for every parameter's wire form.
  for (const char* name : {"resnet50", "bert-base"}) {
    const auto model = models::ByName(name);
    for (int64_t rank : {4, 32}) {
      const auto fp = model.FootprintAtRank(rank);
      EXPECT_GT(fp.p_elements, 0) << name;
      EXPECT_GT(fp.q_elements, 0) << name;
      // The compressed representation is smaller than the model.
      EXPECT_LT(fp.p_elements + fp.q_elements + fp.dense_elements,
                model.total_params())
          << name << " r=" << rank;
    }
  }
}

}  // namespace
}  // namespace acps
