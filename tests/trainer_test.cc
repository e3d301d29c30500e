// End-to-end distributed-training smoke tests (small versions of Fig 6/7).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <utility>

#include "core/distributed_optimizer.h"
#include "core/grad_reducer.h"
#include "core/trainer.h"
#include "dnn/loss.h"
#include "dnn/mini_models.h"
#include "obs/kernel_metrics.h"
#include "par/kernel_stats.h"

namespace acps::core {
namespace {

TrainConfig SmallConfig() {
  TrainConfig cfg;
  cfg.model = "vgg-mini";
  cfg.train_samples = 512;
  cfg.test_samples = 128;
  cfg.epochs = 4;
  cfg.batch_per_worker = 32;
  cfg.lr = dnn::LrSchedule{0.05f, 1, {3}, 0.1f};
  cfg.data.noise = 0.5f;
  return cfg;
}

TEST(Trainer, SsgdLossDecreases) {
  comm::Transport group_transport;
  comm::Session group(group_transport, "trainer", 4);
  const TrainResult r =
      TrainDistributed(group, SmallConfig(), MakeAggregatorFactory("ssgd"));
  ASSERT_EQ(r.history.size(), 4u);
  EXPECT_LT(r.history.back().train_loss, 0.7 * r.history.front().train_loss);
  EXPECT_GT(r.final_test_acc, 0.5);
}

TEST(Trainer, AcpSgdLearns) {
  comm::Transport group_transport;
  comm::Session group(group_transport, "trainer", 4);
  TrainConfig cfg = SmallConfig();
  cfg.epochs = 6;
  cfg.lr.decay_epochs = {4};
  const TrainResult r =
      TrainDistributed(group, cfg, MakeAggregatorFactory("acpsgd:4"));
  EXPECT_LT(r.history.back().train_loss, r.history.front().train_loss);
  EXPECT_GT(r.best_test_acc, 0.4);
}

TEST(Trainer, WorldSizeOneMatchesSingleProcess) {
  comm::Transport group_transport;
  comm::Session group(group_transport, "trainer", 1);
  TrainConfig cfg = SmallConfig();
  cfg.batch_per_worker = 64;
  const TrainResult r =
      TrainDistributed(group, cfg, MakeAggregatorFactory("ssgd"));
  EXPECT_GT(r.final_test_acc, 0.5);
}

TEST(Trainer, PerStepMetricsIncludeKernelStats) {
  // With kernel accounting on, the rank-0 per-iteration metrics block must
  // export the kernel table — including the packed-panel traffic gauges —
  // and re-exporting every step must not inflate anything (the gauges carry
  // cumulative snapshot totals, so the final value matches the snapshot).
  par::ResetKernelStats();
  par::SetKernelStatsEnabled(true);
  obs::MetricsRegistry registry;
  registry.Enable();
  comm::Transport group_transport;
  comm::Session group(group_transport, "trainer", 2);
  TrainConfig cfg = SmallConfig();
  cfg.epochs = 2;
  cfg.metrics = &registry;
  (void)TrainDistributed(group, cfg, MakeAggregatorFactory("ssgd"));
  par::SetKernelStatsEnabled(false);

  const std::string dump = registry.DumpText();
  EXPECT_NE(dump.find("kernel.gemm.calls"), std::string::npos) << dump;
  EXPECT_NE(dump.find("kernel.gemm.pack_bytes"), std::string::npos) << dump;
  EXPECT_NE(dump.find("kernel.gemm.panel_reuses"), std::string::npos) << dump;
  EXPECT_NE(dump.find("kernel.gemm.bytes"), std::string::npos) << dump;

  uint64_t gemm_calls = 0;
  for (const auto& [name, stat] : par::KernelStatsSnapshot()) {
    if (name == "gemm") gemm_calls = stat.calls;
  }
  ASSERT_GT(gemm_calls, 0u);
  // The last per-step export happened before the final evaluation pass, so
  // the gauge trails the snapshot; it must still be positive and bounded.
  EXPECT_GT(registry.gauge("kernel.gemm.calls").value(), 0.0);
  EXPECT_LE(registry.gauge("kernel.gemm.calls").value(),
            static_cast<double>(gemm_calls));
  // Idempotence: re-exporting twice lands on the snapshot total both times
  // instead of accumulating.
  obs::ExportKernelStats(registry);
  obs::ExportKernelStats(registry);
  EXPECT_EQ(registry.gauge("kernel.gemm.calls").value(),
            static_cast<double>(gemm_calls));
  par::ResetKernelStats();
}

TEST(Trainer, RejectsNonDivisibleSamples) {
  comm::Transport group_transport;
  comm::Session group(group_transport, "trainer", 3);
  TrainConfig cfg = SmallConfig();  // 512 not divisible by 3*32
  EXPECT_THROW(
      (void)TrainDistributed(group, cfg, MakeAggregatorFactory("ssgd")),
      Error);
}

TEST(Trainer, ValidateRejectsNonFiniteHyperparameters) {
  // A non-finite rate trains to NaN weights and a decay factor <= 0 runs
  // the schedule in reverse; both must fail validation, not "succeed".
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<std::pair<const char*, std::function<void(TrainConfig&)>>>
      bad = {
          {"base_lr=nan", [&](TrainConfig& c) { c.lr.base_lr = nan; }},
          {"base_lr=inf", [&](TrainConfig& c) { c.lr.base_lr = inf; }},
          {"momentum=nan", [&](TrainConfig& c) { c.momentum = nan; }},
          {"weight_decay=nan", [&](TrainConfig& c) { c.weight_decay = nan; }},
          {"decay_factor=0", [](TrainConfig& c) { c.lr.decay_factor = 0.0f; }},
          {"decay_factor=-0.5",
           [](TrainConfig& c) { c.lr.decay_factor = -0.5f; }},
          // Eval sums correct counts in a float all-reduce.
          {"test_samples=2^24+1",
           [](TrainConfig& c) { c.test_samples = (int64_t{1} << 24) + 1; }},
      };
  EXPECT_EQ(SmallConfig().Validate(2), "");
  TrainConfig no_decay = SmallConfig();
  no_decay.lr.decay_factor = 1.0f;
  EXPECT_EQ(no_decay.Validate(2), "");
  for (const auto& [what, mutate] : bad) {
    TrainConfig cfg = SmallConfig();
    mutate(cfg);
    EXPECT_NE(cfg.Validate(2), "") << what;
  }
}

// The synthetic sets need a sample per class; a split smaller than
// data.num_classes must fail validation with one message, not throw from
// every worker's dataset build.
TEST(Trainer, ValidateRejectsFewerSamplesThanClasses) {
  const std::string want =
      "train_samples (512) and test_samples (9) must each be >= "
      "data.num_classes (10)";
  TrainConfig cfg = SmallConfig();
  cfg.test_samples = 9;
  EXPECT_EQ(cfg.Validate(2), want);
  cfg = SmallConfig();
  cfg.data.num_classes = 600;
  EXPECT_NE(cfg.Validate(2).find("must each be >= data.num_classes (600)"),
            std::string::npos);
  cfg.data.num_classes = 128;  // == test_samples: one per class is enough
  EXPECT_EQ(cfg.Validate(2), "");
  comm::Transport group_transport;
  comm::Session group(group_transport, "trainer", 2);
  cfg = SmallConfig();
  cfg.test_samples = 9;
  try {
    (void)TrainDistributed(group, cfg, MakeAggregatorFactory("ssgd"));
    ADD_FAILURE() << "TrainDistributed accepted 9 test samples for 10 classes";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos) << e.what();
  }
}

// Each rank evaluates its ShardFor slice of the test set, including uneven
// shards (101 samples on 3 ranks) and an empty one (3 samples on 4 ranks;
// the synthetic set needs a sample per class, hence 3 classes). Every epoch
// must be recorded, each accuracy must be a whole count over test_samples,
// and a rerun must repeat the history bitwise.
TEST(Trainer, ShardedEvalCoversUnevenAndEmptyShards) {
  struct Case {
    int world;
    int64_t test_samples;
    int num_classes;
  };
  for (const Case c : {Case{3, 101, 10}, Case{4, 3, 3}}) {
    TrainConfig cfg = SmallConfig();
    cfg.data.num_classes = c.num_classes;
    cfg.epochs = 2;
    cfg.train_samples = int64_t{2} * c.world * cfg.batch_per_worker;
    cfg.test_samples = c.test_samples;
    const auto run = [&] {
      comm::Transport transport;
      comm::Session session(transport, "trainer", c.world);
      return TrainDistributed(session, cfg, MakeAggregatorFactory("ssgd"));
    };
    const TrainResult a = run();
    const TrainResult b = run();
    ASSERT_EQ(a.history.size(), 2u) << "world " << c.world;
    ASSERT_EQ(b.history.size(), 2u) << "world " << c.world;
    const float n = static_cast<float>(c.test_samples);
    for (size_t e = 0; e < a.history.size(); ++e) {
      const double acc = a.history[e].test_acc;
      const float correct = std::round(static_cast<float>(acc) * n);
      EXPECT_GE(correct, 0.0f);
      EXPECT_LE(correct, n);
      EXPECT_EQ(acc, static_cast<double>(correct / n))
          << "world " << c.world << " epoch " << e;
      EXPECT_EQ(a.history[e].epoch, b.history[e].epoch);
      EXPECT_EQ(std::memcmp(&a.history[e].train_loss,
                            &b.history[e].train_loss, sizeof(double)),
                0)
          << "world " << c.world << " epoch " << e;
      EXPECT_EQ(std::memcmp(&a.history[e].test_acc, &b.history[e].test_acc,
                            sizeof(double)),
                0)
          << "world " << c.world << " epoch " << e;
    }
  }
}

TEST(Trainer, HistoryIsOrdered) {
  comm::Transport group_transport;
  comm::Session group(group_transport, "trainer", 2);
  const TrainResult r =
      TrainDistributed(group, SmallConfig(), MakeAggregatorFactory("ssgd"));
  for (size_t i = 0; i < r.history.size(); ++i)
    EXPECT_EQ(r.history[i].epoch, static_cast<int>(i));
}

TEST(DistributedOptimizer, StepAggregatesAndUpdates) {
  comm::Transport group_transport;
  comm::Session group(group_transport, "trainer", 2);
  std::vector<float> first_weights(2);
  group.Run([&](comm::Communicator& comm) {
    dnn::Network net = dnn::VggMini();
    net.Init(5);
    DistributedOptimizer opt(net.params(),
                             std::make_unique<GradReducer>(),
                             dnn::LrSchedule{0.1f, 0, {}, 1.0f});
    // Different per-worker gradients.
    Rng rng(10 + static_cast<uint64_t>(comm.rank()));
    for (auto* p : net.params()) rng.fill_normal(p->grad);
    opt.Step(comm, 0.0);
    EXPECT_GT(opt.last_lr(), 0.0f);
    first_weights[static_cast<size_t>(comm.rank())] =
        net.params()[0]->value.at(0);
  });
  // After an aggregated step, replicas must have identical weights.
  EXPECT_FLOAT_EQ(first_weights[0], first_weights[1]);
}

TEST(DistributedOptimizer, RejectsNullAggregator) {
  dnn::Network net = dnn::VggMini();
  net.Init(1);
  EXPECT_THROW(DistributedOptimizer(net.params(), nullptr,
                                    dnn::LrSchedule{}),
               Error);
}

}  // namespace
}  // namespace acps::core
