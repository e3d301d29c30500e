// Cross-module integration and property sweeps:
//  * every (model x method) simulator combination satisfies basic sanity,
//  * the simulated speedup claims hold as parameterized properties,
//  * distributed training is bit-deterministic across repeated runs,
//  * compressors round-trip across a grid of sizes,
//  * the S-SGD GradReducer is numerically equivalent to a hand-computed
//    mean for arbitrary parameter mixes.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "core/grad_reducer.h"
#include "core/trainer.h"
#include "models/model_zoo.h"
#include "sim/pipeline.h"
#include "tensor/rng.h"

namespace acps {
namespace {

// -------------------------------------------- simulator sweep properties --

struct SweepCase {
  const char* model;
  sim::Method method;
};

class SimSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(SimSweepTest, BasicSanity) {
  const auto& c = GetParam();
  const auto model = models::ByName(c.model);
  sim::SimConfig cfg;
  cfg.method = c.method;
  cfg.rank = 8;
  const sim::Breakdown b = sim::SimulateIterationAvg(model, cfg);
  EXPECT_GT(b.total_s, 0.0);
  EXPECT_GT(b.fwdbwd_s, 0.0);
  EXPECT_GE(b.compress_s, 0.0);
  EXPECT_GE(b.comm_exposed_s, 0.0);
  // An iteration can never beat pure compute.
  EXPECT_GE(b.total_s, b.fwdbwd_s - 1e-9);
  // Nor exceed the fully serialized sum by much (scheduling overhead 0).
  EXPECT_LE(b.total_s, b.fwdbwd_s + b.compress_s + b.comm_exposed_s + 1e-9);
}

TEST_P(SimSweepTest, MoreWorkersNeverFaster) {
  const auto& c = GetParam();
  const auto model = models::ByName(c.model);
  double prev = 0.0;
  for (int p : {1, 4, 16, 64}) {
    sim::SimConfig cfg;
    cfg.method = c.method;
    cfg.rank = 8;
    cfg.world_size = p;
    const double t = sim::SimulateIterationAvg(model, cfg).total_s;
    EXPECT_GE(t, prev - 1e-9) << "p=" << p;
    prev = t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimSweepTest,
    ::testing::Values(
        SweepCase{"resnet18", sim::Method::kSSGD},
        SweepCase{"resnet50", sim::Method::kSignSGD},
        SweepCase{"resnet50", sim::Method::kTopkSGD},
        SweepCase{"resnet152", sim::Method::kPowerSGD},
        SweepCase{"bert-base", sim::Method::kPowerSGDStar},
        SweepCase{"bert-base", sim::Method::kACPSGD},
        SweepCase{"bert-large", sim::Method::kACPSGD},
        SweepCase{"vgg16", sim::Method::kACPSGD}));

// -------------------------------------------- compressor round-trip grid --

struct RoundTripCase {
  const char* spec;  // core::MakeCodec spec
  size_t numel;
};

class CompressorGridTest : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(CompressorGridTest, EncodedSizeExactAndDecodeSafe) {
  const auto& c = GetParam();
  auto codec = core::MakeCodec(c.spec);
  compress::Compressor* compressor = std::visit(
      [](auto& x) -> compress::Compressor* { return &x; }, codec);
  Rng rng(c.numel + 17);
  std::vector<float> g(c.numel);
  for (auto& v : g) v = rng.normal();
  const auto blob = compressor->Encode(g);
  EXPECT_EQ(blob.size(), compressor->EncodedBytes(c.numel)) << c.spec;
  std::vector<float> out(c.numel, -777.0f);
  compressor->Decode(blob, out);
  for (float v : out) {
    EXPECT_TRUE(std::isfinite(v)) << c.spec;
    EXPECT_NE(v, -777.0f) << c.spec << ": element left unwritten";
  }
}

std::vector<RoundTripCase> GridCases() {
  std::vector<RoundTripCase> cases;
  for (const char* spec : {"sign", "topk:0.1", "randomk:0.1"}) {
    for (size_t n : {1u, 63u, 64u, 65u, 1000u}) cases.push_back({spec, n});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, CompressorGridTest,
                         ::testing::ValuesIn(GridCases()));

// ------------------------------------------------ training determinism ----

TEST(Integration, DistributedTrainingIsDeterministic) {
  core::TrainConfig cfg;
  cfg.model = "res-mini";
  cfg.train_samples = 256;
  cfg.test_samples = 64;
  cfg.epochs = 2;
  cfg.batch_per_worker = 32;
  cfg.lr = dnn::LrSchedule{0.05f, 1, {}, 1.0f};

  auto run = [&] {
    comm::Transport group_transport;
    comm::Session group(group_transport, "integration", 2);
    return core::TrainDistributed(group, cfg,
                                  core::MakeAggregatorFactory("acpsgd:2"));
  };
  const core::TrainResult a = run();
  const core::TrainResult b = run();
  ASSERT_EQ(a.history.size(), b.history.size());
  for (size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.history[i].train_loss, b.history[i].train_loss) << i;
    EXPECT_DOUBLE_EQ(a.history[i].test_acc, b.history[i].test_acc) << i;
  }
}

TEST(Integration, SsgdMatchesSingleWorkerWithBigBatch) {
  // 2 workers x batch 16 with exact averaging == 1 worker x batch 32 (same
  // samples): losses must match closely (fp reduction order differs).
  core::TrainConfig two;
  two.model = "vgg-mini";
  two.train_samples = 256;
  two.test_samples = 64;
  two.epochs = 2;
  two.batch_per_worker = 16;
  two.lr = dnn::LrSchedule{0.05f, 0, {}, 1.0f};
  two.shuffle_seed = 0;  // note: shards shuffle independently, so align by
                         // disabling momentum-free single step comparisons
  core::TrainConfig one = two;
  one.batch_per_worker = 32;

  comm::Transport g2_transport;

  comm::Session g2(g2_transport, "integration", 2);
  const auto r2 =
      core::TrainDistributed(g2, two, core::MakeAggregatorFactory("ssgd"));
  comm::Transport g1_transport;
  comm::Session g1(g1_transport, "integration", 1);
  const auto r1 =
      core::TrainDistributed(g1, one, core::MakeAggregatorFactory("ssgd"));
  // Different batch composition (shuffling) => only statistical agreement.
  EXPECT_NEAR(r2.final_test_acc, r1.final_test_acc, 0.25);
}

// ------------------------------------------------- aggregator property ----

TEST(Integration, SsgdReducerMatchesManualMeanAnyShapes) {
  const int p = 3;
  // A mix of many small params to exercise bucket boundaries.
  const std::vector<Shape> shapes = {{3, 5}, {7}, {2, 2}, {1}, {11, 3}, {4}};
  comm::Transport group_transport;
  comm::Session group(group_transport, "integration", p);
  std::atomic<int> failures{0};
  group.Run([&](comm::Communicator& comm) {
    std::vector<dnn::Param> params(shapes.size());
    std::vector<dnn::Param*> ptrs;
    Rng rng(400 + static_cast<uint64_t>(comm.rank()));
    for (size_t i = 0; i < shapes.size(); ++i) {
      params[i].name = "p" + std::to_string(i);
      params[i].value = Tensor(shapes[i]);
      params[i].grad = Tensor(shapes[i]);
      rng.fill_normal(params[i].grad);
      ptrs.push_back(&params[i]);
    }
    // Manual expectation: regenerate all workers' grads and average.
    std::vector<Tensor> expect;
    for (size_t i = 0; i < shapes.size(); ++i)
      expect.push_back(Tensor(shapes[i]));
    for (int r = 0; r < p; ++r) {
      Rng wr(400 + static_cast<uint64_t>(r));
      for (size_t i = 0; i < shapes.size(); ++i) {
        Tensor g(shapes[i]);
        wr.fill_normal(g);
        expect[i].add_(g);
      }
    }
    for (auto& e : expect) e.scale_(1.0f / p);

    core::GradReducer agg(/*buffer_bytes=*/64);  // tiny buckets
    agg.Aggregate(ptrs, comm);
    for (size_t i = 0; i < shapes.size(); ++i) {
      if (!params[i].grad.all_close(expect[i], 1e-4f)) ++failures;
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace acps
