// Integration tests: gradient aggregators against the real thread cluster.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>

#include "core/aggregators.h"
#include "core/grad_reducer.h"
#include "dnn/dataset.h"
#include "dnn/layers.h"
#include "dnn/loss.h"
#include "dnn/mini_models.h"
#include "tensor/rng.h"

namespace acps::core {
namespace {

// Builds a small parameter set (2 matrices + 1 vector) with per-worker
// deterministic gradients.
struct TestParams {
  dnn::Param w1, w2, bias;

  explicit TestParams(int rank) {
    w1.name = "w1";
    w1.value = Tensor({16, 24});
    w1.grad = Tensor({16, 24});
    w1.matrix_rows = 16;
    w1.matrix_cols = 24;
    w2.name = "w2";
    w2.value = Tensor({8, 40});
    w2.grad = Tensor({8, 40});
    w2.matrix_rows = 8;
    w2.matrix_cols = 40;
    bias.name = "bias";
    bias.value = Tensor({24});
    bias.grad = Tensor({24});
    Rng rng(1000 + static_cast<uint64_t>(rank));
    rng.fill_normal(w1.grad);
    rng.fill_normal(w2.grad);
    rng.fill_normal(bias.grad);
  }

  std::vector<dnn::Param*> list() { return {&w1, &w2, &bias}; }
};

// The exact mean gradients across `p` workers.
TestParams MeanOf(int p) {
  TestParams mean(0);
  for (int r = 1; r < p; ++r) {
    TestParams other(r);
    mean.w1.grad.add_(other.w1.grad);
    mean.w2.grad.add_(other.w2.grad);
    mean.bias.grad.add_(other.bias.grad);
  }
  const float inv = 1.0f / static_cast<float>(p);
  mean.w1.grad.scale_(inv);
  mean.w2.grad.scale_(inv);
  mean.bias.grad.scale_(inv);
  return mean;
}

TEST(SsgdReducer, ComputesExactMean) {
  const int p = 4;
  comm::Transport group_transport;
  comm::Session group(group_transport, "aggregator", p);
  const TestParams expect = MeanOf(p);
  std::atomic<int> failures{0};
  group.Run([&](comm::Communicator& comm) {
    TestParams tp(comm.rank());
    GradReducer agg;
    auto params = tp.list();
    agg.Aggregate(params, comm);
    if (!tp.w1.grad.all_close(expect.w1.grad, 1e-4f)) ++failures;
    if (!tp.w2.grad.all_close(expect.w2.grad, 1e-4f)) ++failures;
    if (!tp.bias.grad.all_close(expect.bias.grad, 1e-4f)) ++failures;
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(SsgdReducer, SmallBucketsStillExact) {
  const int p = 3;
  comm::Transport group_transport;
  comm::Session group(group_transport, "aggregator", p);
  const TestParams expect = MeanOf(p);
  std::atomic<int> failures{0};
  group.Run([&](comm::Communicator& comm) {
    TestParams tp(comm.rank());
    GradReducer agg(/*buffer_bytes=*/256);  // force many buckets
    auto params = tp.list();
    agg.Aggregate(params, comm);
    if (!tp.w1.grad.all_close(expect.w1.grad, 1e-4f)) ++failures;
  });
  EXPECT_EQ(failures.load(), 0);
}

// All workers must hold identical gradients after any aggregator runs —
// otherwise replicas diverge.
template <typename MakeAgg>
void CheckWorkersIdentical(int p, MakeAgg make) {
  comm::Transport group_transport;
  comm::Session group(group_transport, "aggregator", p);
  std::vector<Tensor> w1(static_cast<size_t>(p)), w2(static_cast<size_t>(p)),
      bias(static_cast<size_t>(p));
  group.Run([&](comm::Communicator& comm) {
    TestParams tp(comm.rank());
    auto agg = make(comm.rank(), p);
    auto params = tp.list();
    // Two rounds so stateful aggregators exercise both parities.
    for (int round = 0; round < 2; ++round) agg->Aggregate(params, comm);
    w1[static_cast<size_t>(comm.rank())] = tp.w1.grad.clone();
    w2[static_cast<size_t>(comm.rank())] = tp.w2.grad.clone();
    bias[static_cast<size_t>(comm.rank())] = tp.bias.grad.clone();
  });
  for (int r = 1; r < p; ++r) {
    EXPECT_TRUE(w1[static_cast<size_t>(r)].all_close(w1[0], 1e-5f)) << r;
    EXPECT_TRUE(w2[static_cast<size_t>(r)].all_close(w2[0], 1e-5f)) << r;
    EXPECT_TRUE(bias[static_cast<size_t>(r)].all_close(bias[0], 1e-5f)) << r;
  }
}

TEST(Aggregators, AllWorkersEndIdentical) {
  CheckWorkersIdentical(4, MakeAggregatorFactory("ssgd"));
  CheckWorkersIdentical(4, MakeAggregatorFactory("powersgd:2"));
  CheckWorkersIdentical(4, MakeAggregatorFactory("acpsgd:2"));
  CheckWorkersIdentical(3, [](int, int) {
    compress::AcpSgdConfig cfg;
    cfg.rank = 2;
    cfg.error_feedback = false;
    cfg.reuse = false;
    return std::make_unique<GradReducer>(cfg);
  });
  CheckWorkersIdentical(4, MakeAggregatorFactory("sign"));
  CheckWorkersIdentical(4, MakeAggregatorFactory("topk:0.1"));
}

TEST(Aggregators, SpecRejectsEmptyParameter) {
  // "name:" is a typo, not a request for the default parameter.
  for (const char* spec :
       {"acpsgd:", "powersgd:", "ssgd:", "sign:", "topk:", "randomk:"})
    EXPECT_THROW((void)MakeAggregatorFactory(spec), Error) << spec;
  for (const char* spec : {"acpsgd", "powersgd:2", "ssgd", "sign", "topk",
                           "randomk:0.1"})
    EXPECT_NO_THROW((void)MakeAggregatorFactory(spec)) << spec;
}

TEST(Aggregators, SpecRejectsBadNamesAndParameters) {
  // One grammar: the factory and MakeCodec refuse the same codec specs.
  for (const char* spec :
       {"unknown", "topk:abc", "topk:0.1x", "sign:3", "topk:0", "topk:1.5",
        "randomk:nan", "randomk:abc", "randomk:-0.5"}) {
    EXPECT_THROW((void)MakeAggregatorFactory(spec), Error) << spec;
    EXPECT_THROW((void)MakeCodec(spec), Error) << spec;
  }
  for (const char* spec : {"acpsgd:0", "powersgd:-1", "acpsgd:2.5", "ssgd:1"})
    EXPECT_THROW((void)MakeAggregatorFactory(spec), Error) << spec;
  // MakeCodec builds only the packed codecs.
  for (const char* spec : {"ssgd", "acpsgd:2", "powersgd"})
    EXPECT_THROW((void)MakeCodec(spec), Error) << spec;
}

TEST(Aggregators, MakeCodecParsesParameters) {
  const auto topk = MakeCodec("topk:0.5");
  ASSERT_TRUE(std::holds_alternative<compress::TopkCompressor>(topk));
  // Ratio 0.5 on 10 elements keeps 5 (index, value) records.
  EXPECT_EQ(std::get<compress::TopkCompressor>(topk).EncodedBytes(10),
            16u + 5u * 8u);
  EXPECT_EQ(std::get<compress::TopkCompressor>(MakeCodec("topk")).KeptCount(
                10000),
            10u);  // default ratio 0.001
  const auto randomk = MakeCodec("randomk:0.5");
  ASSERT_TRUE(std::holds_alternative<compress::RandomkCompressor>(randomk));
  EXPECT_EQ(std::get<compress::RandomkCompressor>(randomk).EncodedBytes(10),
            24u + 5u * 4u);
  EXPECT_EQ(
      std::get<compress::RandomkCompressor>(MakeCodec("randomk")).KeptCount(
          1000),
      10u);  // default ratio 0.01
  EXPECT_TRUE(
      std::holds_alternative<compress::SignCompressor>(MakeCodec("sign")));
}

// The single-step tests below run with error feedback on: the residual
// starts at zero, so the first step equals the uncorrected exchange.
TEST(SignReducer, MatchesMajorityVoteReference) {
  const int p = 3;
  comm::Transport group_transport;
  comm::Session group(group_transport, "aggregator", p);
  std::vector<Tensor> results(static_cast<size_t>(p));
  group.Run([&](comm::Communicator& comm) {
    TestParams tp(comm.rank());
    GradReducer agg(compress::SignCompressor{});
    auto params = tp.list();
    agg.Aggregate(params, comm);
    results[static_cast<size_t>(comm.rank())] = tp.bias.grad.clone();
  });
  // Reference: majority vote of the bias signs (the bias is packed last in
  // reverse order => first in the flat layout).
  std::vector<TestParams> workers;
  for (int r = 0; r < p; ++r) workers.emplace_back(r);
  for (int64_t i = 0; i < 24; ++i) {
    int vote = 0;
    for (auto& w : workers) vote += w.bias.grad.at(i) < 0 ? -1 : 1;
    const float got = results[0].at(i);
    EXPECT_EQ(got > 0, vote >= 0) << i;
  }
}

TEST(TopkReducer, KeepsOnlyUnionOfTopkCoordinates) {
  const int p = 2;
  comm::Transport group_transport;
  comm::Session group(group_transport, "aggregator", p);
  std::vector<Tensor> results(static_cast<size_t>(p));
  group.Run([&](comm::Communicator& comm) {
    TestParams tp(comm.rank());
    GradReducer agg(compress::TopkCompressor(0.05));
    auto params = tp.list();
    agg.Aggregate(params, comm);
    results[static_cast<size_t>(comm.rank())] = tp.w1.grad.clone();
  });
  // With ratio 0.05 over 1448 elements total, most coordinates are zero.
  int64_t nonzero = 0;
  for (float v : results[0].data())
    if (v != 0.0f) ++nonzero;
  EXPECT_GT(nonzero, 0);
  EXPECT_LT(nonzero, results[0].numel() / 4);
}

TEST(PowerSgdReducer, VectorParamsExact) {
  // Vector params bypass compression and must be exactly averaged.
  const int p = 4;
  comm::Transport group_transport;
  comm::Session group(group_transport, "aggregator", p);
  const TestParams expect = MeanOf(p);
  std::atomic<int> failures{0};
  group.Run([&](comm::Communicator& comm) {
    TestParams tp(comm.rank());
    GradReducer agg(compress::PowerSgdConfig{});
    auto params = tp.list();
    agg.Aggregate(params, comm);
    if (!tp.bias.grad.all_close(expect.bias.grad, 1e-4f)) ++failures;
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(AcpSgdReducer, ApproximatesMeanOverSteps) {
  // Averaged over many steps with error feedback, the ACP aggregate
  // converges to the true mean gradient (each worker keeps the same local
  // gradient across steps).
  const int p = 4;
  comm::Transport group_transport;
  comm::Session group(group_transport, "aggregator", p);
  const TestParams expect = MeanOf(p);
  std::atomic<int> failures{0};
  group.Run([&](comm::Communicator& comm) {
    compress::AcpSgdConfig cfg;
    cfg.rank = 4;
    GradReducer agg(cfg);
    Tensor sum({16, 24});
    const int steps = 40;
    for (int t = 0; t < steps; ++t) {
      TestParams tp(comm.rank());  // fresh copy of the same gradients
      auto params = tp.list();
      agg.Aggregate(params, comm);
      sum.add_(tp.w1.grad);
    }
    sum.scale_(1.0f / steps);
    Tensor diff = sum.clone();
    diff.sub_(expect.w1.grad);
    if (diff.norm2() / expect.w1.grad.norm2() > 0.25f) ++failures;
  });
  EXPECT_EQ(failures.load(), 0);
}

// --- Golden bitwise gate -------------------------------------------------
// FNV-1a over every rank's gradients after each of 4 steps on res-mini
// parameter shapes (fresh seeded gradients per rank and step). The constants
// pin the exact bytes each method produces, so any change to bucketing,
// scaling or compression order shows up here.
uint64_t Fnv1a(std::span<const float> v, uint64_t h) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(v.data());
  for (size_t i = 0; i < v.size_bytes(); ++i)
    h = (h ^ bytes[i]) * 0x100000001b3ull;
  return h;
}

uint64_t GoldenDigest(const AggregatorFactory& factory) {
  constexpr int kWorld = 4;
  constexpr int kSteps = 4;
  std::vector<uint64_t> digests(kWorld);
  comm::Transport transport;
  comm::Session session(transport, "aggregator", kWorld);
  session.Run([&](comm::Communicator& comm) {
    dnn::Network net = dnn::ResMini();
    net.Init(7);
    const auto params = net.params();
    auto agg = factory(comm.rank(), kWorld);
    uint64_t h = 0xcbf29ce484222325ull;
    for (int step = 0; step < kSteps; ++step) {
      Rng rng(static_cast<uint64_t>(5000 + 100 * comm.rank() + step));
      for (auto* p : params) rng.fill_normal(p->grad);
      agg->Aggregate(params, comm);
      for (auto* p : params) h = Fnv1a(p->grad.data(), h);
    }
    digests[static_cast<size_t>(comm.rank())] = h;
  });
  for (int r = 1; r < kWorld; ++r)
    EXPECT_EQ(digests[static_cast<size_t>(r)], digests[0]) << "rank " << r;
  return digests[0];
}

AggregatorFactory AcpFactory(bool error_feedback, bool reuse,
                             int64_t buffer_bytes) {
  return [=](int, int) -> std::unique_ptr<GradientAggregator> {
    compress::AcpSgdConfig cfg;
    cfg.error_feedback = error_feedback;
    cfg.reuse = reuse;
    return std::make_unique<GradReducer>(cfg, buffer_bytes);
  };
}

AggregatorFactory PowerFactory(bool error_feedback) {
  return [=](int, int) -> std::unique_ptr<GradientAggregator> {
    compress::PowerSgdConfig cfg;
    cfg.error_feedback = error_feedback;
    return std::make_unique<GradReducer>(cfg);
  };
}

TEST(Aggregators, GoldenDigestsResMini) {
  struct Case {
    const char* what;
    AggregatorFactory factory;
    uint64_t digest;
  };
  const int64_t kDefault = fusion::kDefaultBufferBytes;
  const Case cases[] = {
      {"ssgd", MakeAggregatorFactory("ssgd"), 0x4b1ece72ce38aa2full},
      {"ssgd@256", MakeAggregatorFactory("ssgd", 256), 0x3f8d9c3e45d843a5ull},
      {"acpsgd:4", MakeAggregatorFactory("acpsgd:4"), 0x38c808ca8954e28dull},
      {"acpsgd:4@256", MakeAggregatorFactory("acpsgd:4", 256),
       0xdd1ba9719b7707f0ull},
      {"powersgd:4", MakeAggregatorFactory("powersgd:4"),
       0x71872f7464b7f30cull},
      {"powersgd:4@256", MakeAggregatorFactory("powersgd:4", 256),
       0xdff92fc509ff029bull},
      // Ranks 1, 2 and 8 pin the rank-r reconstruction at other widths.
      {"acpsgd:1", MakeAggregatorFactory("acpsgd:1"), 0x44ef40a79c2c25caull},
      {"acpsgd:2", MakeAggregatorFactory("acpsgd:2"), 0xccfc5328acd01efaull},
      {"acpsgd:8", MakeAggregatorFactory("acpsgd:8"), 0x929102176fd022b3ull},
      {"powersgd:1", MakeAggregatorFactory("powersgd:1"),
       0x543a5fe8288a3196ull},
      {"powersgd:8", MakeAggregatorFactory("powersgd:8"),
       0xade68ccf28db17efull},
      // Without EF the gradient is both Power-SGD's input and its output.
      {"powersgd-no-ef", PowerFactory(false), 0x968859dfc9fafe5full},
      {"acp-no-ef", AcpFactory(false, true, kDefault), 0x3b7695c5f37f1150ull},
      {"acp-no-ef@256", AcpFactory(false, true, 256), 0x844d94f41a6fc8beull},
      {"acp-no-reuse", AcpFactory(true, false, kDefault),
       0x5b2a48e88e7da893ull},
      {"acp-no-reuse@256", AcpFactory(true, false, 256), 0x07a691c7779cf9b2ull},
      // The packed methods: one flat bucket whatever the fusion budget.
      {"sign", MakeAggregatorFactory("sign"), 0xa399f482462072f9ull},
      {"sign@256", MakeAggregatorFactory("sign", 256), 0xa399f482462072f9ull},
      {"topk", MakeAggregatorFactory("topk"), 0xdcada4104b54b41bull},
      {"topk:0.1", MakeAggregatorFactory("topk:0.1"), 0x754b08a7523c8906ull},
      {"topk:0.1@256", MakeAggregatorFactory("topk:0.1", 256),
       0x754b08a7523c8906ull},
      {"randomk", MakeAggregatorFactory("randomk"), 0x27812fbc19ddb040ull},
      {"randomk:0.1", MakeAggregatorFactory("randomk:0.1"),
       0xbe2ad56d97aa3860ull},
      {"randomk:0.1@256", MakeAggregatorFactory("randomk:0.1", 256),
       0xbe2ad56d97aa3860ull},
  };
  for (const Case& c : cases)
    EXPECT_EQ(GoldenDigest(c.factory), c.digest) << c.what;
}

// Every rank's gradient bytes after each of 3 real res-mini backward passes,
// reduced either by hooks fired from Network::Backward or by one Aggregate
// call after it.
std::vector<std::vector<float>> ReduceBackward(const std::string& spec,
                                               bool hooks) {
  constexpr int kWorld = 2;
  std::vector<std::vector<float>> out(kWorld);
  comm::Transport transport;
  comm::Session session(transport, "aggregator", kWorld);
  session.Run([&](comm::Communicator& comm) {
    dnn::Network net = dnn::ResMini();
    net.Init(7);
    const auto params = net.params();
    const auto agg = MakeAggregatorFactory(spec)(comm.rank(), kWorld);
    auto* reducer = dynamic_cast<GradReducer*>(agg.get());
    ASSERT_NE(reducer, nullptr) << spec;
    const dnn::Dataset data = dnn::MakeSynthetic({}, 96, 1);
    const dnn::Shard shard = dnn::ShardFor(data, comm.rank(), kWorld);
    auto& bytes = out[static_cast<size_t>(comm.rank())];
    for (int step = 0; step < 3; ++step) {
      Tensor x;
      std::vector<int> y;
      data.Slice(shard.begin + 16 * step, 16, x, y);
      net.ZeroGrads();
      const dnn::LossResult loss = dnn::SoftmaxCrossEntropy(net.Forward(x), y);
      if (hooks) {
        reducer->BeginStep(params, comm);
        (void)net.Backward(loss.grad_logits,
                           [&](size_t i) { reducer->OnGradReady(i); });
        reducer->FinishStep();
      } else {
        (void)net.Backward(loss.grad_logits);
        reducer->Aggregate(params, comm);
      }
      for (auto* p : params)
        bytes.insert(bytes.end(), p->grad.data().begin(), p->grad.data().end());
    }
  });
  return out;
}

TEST(Aggregators, BackwardHooksMatchAggregateBitwise) {
  for (const char* spec : {"ssgd", "powersgd:2", "acpsgd:2", "sign",
                           "topk:0.1", "randomk:0.1"}) {
    const auto via_hooks = ReduceBackward(spec, true);
    const auto via_aggregate = ReduceBackward(spec, false);
    for (size_t r = 0; r < via_hooks.size(); ++r) {
      ASSERT_EQ(via_hooks[r].size(), via_aggregate[r].size());
      EXPECT_EQ(std::memcmp(via_hooks[r].data(), via_aggregate[r].data(),
                            via_hooks[r].size() * sizeof(float)),
                0)
          << spec << " rank " << r;
    }
  }
}

TEST(AcpSgdReducer, VectorParamsExact) {
  const int p = 4;
  comm::Transport group_transport;
  comm::Session group(group_transport, "aggregator", p);
  const TestParams expect = MeanOf(p);
  std::atomic<int> failures{0};
  group.Run([&](comm::Communicator& comm) {
    compress::AcpSgdConfig cfg;
    cfg.rank = 2;
    GradReducer agg(cfg);
    TestParams tp(comm.rank());
    auto params = tp.list();
    agg.Aggregate(params, comm);
    if (!tp.bias.grad.all_close(expect.bias.grad, 1e-4f)) ++failures;
  });
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace acps::core
