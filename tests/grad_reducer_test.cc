// Tests for the hook-driven WFBP runtime (GradReducer) and the Network
// gradient-ready hook.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>

#include "core/grad_reducer.h"
#include "dnn/loss.h"
#include "dnn/dataset.h"
#include "dnn/mini_models.h"
#include "dnn/optimizer.h"
#include "tensor/rng.h"

namespace acps::core {
namespace {

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

// Every rank's gradient bytes after 3 steps of `spec`, reduced by hooks
// fired in `order` (empty = one Aggregate call per step).
std::vector<std::vector<float>> ReduceSteps(const std::string& spec,
                                            const std::vector<size_t>& order) {
  const int p = 4;
  std::vector<std::vector<float>> out(static_cast<size_t>(p));
  comm::Transport group_transport;
  comm::Session group(group_transport, "grad-reducer", p);
  group.Run([&](comm::Communicator& comm) {
    TestParams tp(comm.rank());
    const auto agg = MakeAggregatorFactory(spec)(comm.rank(), p);
    auto& reducer = dynamic_cast<GradReducer&>(*agg);
    for (int step = 0; step < 3; ++step) {
      TestParams fresh(comm.rank());
      tp.w1.grad.copy_from(fresh.w1.grad);
      tp.w2.grad.copy_from(fresh.w2.grad);
      tp.bias.grad.copy_from(fresh.bias.grad);
      if (order.empty()) {
        reducer.Aggregate(tp.list(), comm);
      } else {
        reducer.BeginStep(tp.list(), comm);
        for (const size_t i : order) reducer.OnGradReady(i);
        reducer.FinishStep();
      }
    }
    auto& bytes = out[static_cast<size_t>(comm.rank())];
    for (auto* prm : tp.list())
      bytes.insert(bytes.end(), prm->grad.data().begin(),
                   prm->grad.data().end());
  });
  return out;
}

TEST(GradReducer, MatchesAggregatorResults) {
  // Hooks fired in any order (identical on every rank) reduce to the same
  // bytes as the post-backward Aggregate: same bucket plans, same math.
  for (const char* spec : {"ssgd", "powersgd:2", "acpsgd:3", "sign",
                           "topk:0.1", "randomk:0.1"}) {
    const auto via_aggregate = ReduceSteps(spec, {});
    for (const auto& order : {std::vector<size_t>{2, 1, 0},
                              std::vector<size_t>{0, 1, 2},
                              std::vector<size_t>{1, 2, 0}}) {
      const auto via_hooks = ReduceSteps(spec, order);
      for (size_t r = 0; r < via_hooks.size(); ++r) {
        ASSERT_EQ(via_hooks[r].size(), via_aggregate[r].size());
        EXPECT_EQ(std::memcmp(via_hooks[r].data(), via_aggregate[r].data(),
                              via_hooks[r].size() * sizeof(float)),
                  0)
            << spec << ": rank " << r << ", first hook " << order.front();
      }
    }
  }
}

TEST(GradReducer, ContractViolationsThrow) {
  comm::Transport group_transport;
  comm::Session group(group_transport, "grad-reducer", 1);
  group.Run([&](comm::Communicator& comm) {
    TestParams tp(0);
    GradReducer reducer(compress::AcpSgdConfig{});
    EXPECT_THROW(reducer.OnGradReady(0), Error);  // before BeginStep
    reducer.BeginStep(tp.list(), comm);
    EXPECT_THROW(reducer.BeginStep(tp.list(), comm), Error);  // nested
    reducer.OnGradReady(0);
    EXPECT_THROW(reducer.OnGradReady(0), Error);  // duplicate
    EXPECT_THROW(reducer.OnGradReady(9), Error);  // out of range
    EXPECT_THROW(reducer.FinishStep(), Error);    // incomplete
    reducer.OnGradReady(1);
    reducer.OnGradReady(2);
    reducer.FinishStep();
    EXPECT_EQ(reducer.steps(), 1u);
    // Later steps must keep the planned structure.
    EXPECT_THROW(reducer.BeginStep({&tp.w1, &tp.w2}, comm), Error);
  });
}

TEST(GradReducer, AlternatesParityAcrossSteps) {
  comm::Transport group_transport;
  comm::Session group(group_transport, "grad-reducer", 2);
  std::atomic<int> failures{0};
  group.Run([&](comm::Communicator& comm) {
    TestParams tp(comm.rank());
    compress::AcpSgdConfig cfg;
    cfg.rank = 2;
    GradReducer reducer(cfg);
    // Two steps: traffic (message count) differs between the P parity
    // ([n x r] factors) and the Q parity ([m x r]) because bucket byte
    // sizes differ — verify both complete and gradients stay aligned.
    for (int step = 0; step < 2; ++step) {
      TestParams fresh(comm.rank());
      tp.w1.grad.copy_from(fresh.w1.grad);
      tp.w2.grad.copy_from(fresh.w2.grad);
      tp.bias.grad.copy_from(fresh.bias.grad);
      reducer.BeginStep(tp.list(), comm);
      for (size_t i = tp.list().size(); i-- > 0;) reducer.OnGradReady(i);
      reducer.FinishStep();
    }
    if (reducer.steps() != 2) ++failures;
    if (reducer.num_lowrank() != 2) ++failures;
  });
  EXPECT_EQ(failures.load(), 0);
}

// Copies one state list into another of the same structure.
void CopyState(const std::vector<std::span<float>>& from,
               const std::vector<std::span<float>>& to) {
  ASSERT_EQ(from.size(), to.size());
  for (size_t i = 0; i < from.size(); ++i) {
    ASSERT_EQ(from[i].size(), to[i].size());
    std::copy(from[i].begin(), from[i].end(), to[i].begin());
  }
}

// Every rank's aggregated gradient bytes over 4 steps of `spec` at p = 2,
// with new gradients each step. If `resume_rank` >= 0, that rank replaces
// its reducer with a fresh one after step 2, carrying the old reducer's
// state over through the state view.
std::vector<std::vector<float>> ResumeRun(const std::string& spec,
                                          int resume_rank) {
  const int p = 2;
  const AggregatorFactory factory = MakeAggregatorFactory(spec);
  std::vector<std::vector<float>> out(static_cast<size_t>(p));
  comm::Transport group_transport;
  comm::Session group(group_transport, "grad-reducer", p);
  group.Run([&](comm::Communicator& comm) {
    const int r = comm.rank();
    TestParams tp(r);
    std::unique_ptr<GradientAggregator> agg = factory(r, p);
    for (int step = 0; step < 4; ++step) {
      if (step == 2 && r == resume_rank) {
        std::unique_ptr<GradientAggregator> fresh = factory(r, p);
        const GradReducer::State from =
            dynamic_cast<GradReducer&>(*agg).state(tp.list());
        const GradReducer::State to =
            dynamic_cast<GradReducer&>(*fresh).state(tp.list());
        EXPECT_FALSE(from.own.empty()) << spec;
        CopyState(from.shared, to.shared);
        CopyState(from.own, to.own);
        agg = std::move(fresh);
      }
      TestParams fresh_grads(r + p * step);
      tp.w1.grad.copy_from(fresh_grads.w1.grad);
      tp.w2.grad.copy_from(fresh_grads.w2.grad);
      tp.bias.grad.copy_from(fresh_grads.bias.grad);
      agg->Aggregate(tp.list(), comm);
      auto& bytes = out[static_cast<size_t>(r)];
      for (auto* prm : tp.list())
        bytes.insert(bytes.end(), prm->grad.data().begin(),
                     prm->grad.data().end());
    }
  });
  return out;
}

TEST(GradReducer, StateViewResumesAFreshReducerBitwise) {
  // Power-SGD's Q (shared) and E (own), and Top-k's packed EF residual
  // (own), are all the state a fresh reducer needs to continue a run.
  for (const char* spec : {"powersgd:2", "topk:0.25"}) {
    const auto uninterrupted = ResumeRun(spec, -1);
    const auto resumed = ResumeRun(spec, 1);
    for (size_t r = 0; r < resumed.size(); ++r) {
      ASSERT_EQ(resumed[r].size(), uninterrupted[r].size());
      EXPECT_EQ(std::memcmp(resumed[r].data(), uninterrupted[r].data(),
                            resumed[r].size() * sizeof(float)),
                0)
          << spec << ": rank " << r;
    }
  }
  // ACP-SGD's P/Q parity and Random-k's seed step are not in the view.
  TestParams tp(0);
  for (const char* spec : {"acpsgd", "randomk"}) {
    const auto agg = MakeAggregatorFactory(spec)(0, 1);
    EXPECT_THROW((void)dynamic_cast<GradReducer&>(*agg).state(tp.list()),
                 Error)
        << spec;
  }
}

TEST(NetworkHook, FiresOncePerParamInBackwardOrder) {
  dnn::Network net = dnn::VggMini();
  net.Init(3);
  Rng rng(4);
  Tensor x({2, 3 * 8 * 8});
  rng.fill_uniform(x, -1.0f, 1.0f);
  const Tensor y = net.Forward(x);

  std::vector<size_t> fired;
  (void)net.Backward(y.clone(), [&](size_t i) { fired.push_back(i); });
  ASSERT_EQ(fired.size(), net.params().size());
  // Each index exactly once.
  auto sorted = fired;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
  // Later layers' params fire before earlier layers' (backward order).
  EXPECT_GT(fired.front(), fired.back());
}

TEST(NetworkHook, EndToEndTrainingStepThroughReducer) {
  // A complete data-parallel step: forward, backward with hooks streaming
  // into the reducer, optimizer update — replicas must remain identical.
  const int p = 2;
  comm::Transport group_transport;
  comm::Session group(group_transport, "grad-reducer", p);
  std::vector<float> first_weight(static_cast<size_t>(p));
  group.Run([&](comm::Communicator& comm) {
    dnn::Network net = dnn::ResMini();
    net.Init(7);
    compress::AcpSgdConfig cfg;
    cfg.rank = 2;
    GradReducer reducer(cfg);
    dnn::SgdOptimizer opt(net.params(), dnn::LrSchedule{0.05f, 0, {}, 1.0f});

    const dnn::Dataset data = dnn::MakeSynthetic({}, 64, 1);
    const dnn::Shard shard = dnn::ShardFor(data, comm.rank(), p);
    Tensor x;
    std::vector<int> y;
    data.Slice(shard.begin, 32, x, y);

    for (int step = 0; step < 2; ++step) {
      net.ZeroGrads();
      const Tensor logits = net.Forward(x);
      const dnn::LossResult loss = dnn::SoftmaxCrossEntropy(logits, y);
      reducer.BeginStep(net.params(), comm);
      (void)net.Backward(loss.grad_logits,
                         [&](size_t i) { reducer.OnGradReady(i); });
      reducer.FinishStep();
      opt.Step(0);
    }
    first_weight[static_cast<size_t>(comm.rank())] =
        net.params()[0]->value.at(0);
  });
  EXPECT_FLOAT_EQ(first_weight[0], first_weight[1]);
}

}  // namespace
}  // namespace acps::core
