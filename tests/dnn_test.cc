// DNN substrate tests, including finite-difference gradient checks for
// every layer — the convergence experiments are only meaningful if the
// backward passes are exactly right.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "dnn/conv.h"
#include "dnn/dataset.h"
#include "dnn/layers.h"
#include "dnn/loss.h"
#include "dnn/mini_models.h"
#include "dnn/network.h"
#include "dnn/optimizer.h"

namespace acps::dnn {
namespace {

// Scalar objective: sum of elementwise-squared outputs / 2, whose gradient
// w.r.t. the output is the output itself.
float Objective(const Tensor& y) { return 0.5f * y.dot(y); }

// Finite-difference gradient check of a layer's parameter and input
// gradients against the analytic backward pass.
void GradCheck(Layer& layer, Tensor& x, float tol = 2e-2f) {
  Rng rng(321);
  layer.Init(rng);
  for (Param* p : layer.params()) {
    Rng prng(17);
    prng.fill_uniform(p->value, -0.5f, 0.5f);
    p->grad.zero();
  }

  const Tensor y = layer.Forward(x);
  const Tensor gx = layer.Backward(y.clone());  // dObj/dy = y

  const float eps = 1e-2f;
  // Check a sample of parameter coordinates.
  for (Param* p : layer.params()) {
    const int64_t n = p->value.numel();
    for (int64_t i = 0; i < n; i += std::max<int64_t>(1, n / 7)) {
      const float orig = p->value.at(i);
      p->value.at(i) = orig + eps;
      const float fp = Objective(layer.Forward(x));
      p->value.at(i) = orig - eps;
      const float fm = Objective(layer.Forward(x));
      p->value.at(i) = orig;
      const float numeric = (fp - fm) / (2.0f * eps);
      EXPECT_NEAR(p->grad.at(i), numeric,
                  tol * (std::abs(numeric) + 1.0f))
          << p->name << "[" << i << "]";
    }
    (void)layer.Forward(x);  // restore cached input
  }
  // Check a sample of input coordinates.
  (void)layer.Forward(x);
  for (int64_t i = 0; i < x.numel(); i += std::max<int64_t>(1, x.numel() / 7)) {
    const float orig = x.at(i);
    x.at(i) = orig + eps;
    const float fp = Objective(layer.Forward(x));
    x.at(i) = orig - eps;
    const float fm = Objective(layer.Forward(x));
    x.at(i) = orig;
    const float numeric = (fp - fm) / (2.0f * eps);
    EXPECT_NEAR(gx.at(i), numeric, tol * (std::abs(numeric) + 1.0f))
        << "input[" << i << "]";
  }
}

Tensor RandomInput(int64_t batch, int64_t features, uint64_t seed) {
  Rng rng(seed);
  Tensor x({batch, features});
  rng.fill_uniform(x, -1.0f, 1.0f);
  return x;
}

TEST(GradCheck, Linear) {
  Linear layer("fc", 6, 4);
  Tensor x = RandomInput(3, 6, 1);
  GradCheck(layer, x);
}

TEST(GradCheck, Conv2d) {
  Conv2d layer("conv", 2, 3, 4, 4);
  Tensor x = RandomInput(2, 2 * 4 * 4, 2);
  GradCheck(layer, x);
}

TEST(GradCheck, Residual) {
  std::vector<std::unique_ptr<Layer>> inner;
  inner.push_back(std::make_unique<Linear>("r.fc1", 5, 5));
  inner.push_back(std::make_unique<ReLU>("r.relu"));
  inner.push_back(std::make_unique<Linear>("r.fc2", 5, 5));
  Residual layer("res", std::move(inner));
  Tensor x = RandomInput(3, 5, 3);
  GradCheck(layer, x);
}

TEST(GradCheck, MaxPool) {
  MaxPool2d layer("pool", 2, 4, 4);
  Tensor x = RandomInput(2, 2 * 4 * 4, 4);
  // MaxPool is piecewise linear; finite differences are valid away from
  // ties, which random inputs avoid almost surely.
  const Tensor y = layer.Forward(x);
  const Tensor gx = layer.Backward(y.clone());
  const float eps = 1e-3f;
  for (int64_t i = 0; i < x.numel(); i += 5) {
    const float orig = x.at(i);
    x.at(i) = orig + eps;
    const float fp = Objective(layer.Forward(x));
    x.at(i) = orig - eps;
    const float fm = Objective(layer.Forward(x));
    x.at(i) = orig;
    EXPECT_NEAR(gx.at(i), (fp - fm) / (2.0f * eps), 2e-2f) << i;
  }
}

TEST(ReLULayer, ForwardBackward) {
  ReLU relu("relu");
  Tensor x({1, 4}, {-1.0f, 2.0f, 0.0f, 3.0f});
  const Tensor y = relu.Forward(x);
  EXPECT_EQ(y.at(0, 0), 0.0f);
  EXPECT_EQ(y.at(0, 1), 2.0f);
  Tensor g({1, 4}, {1, 1, 1, 1});
  const Tensor gx = relu.Backward(g);
  EXPECT_EQ(gx.at(0, 0), 0.0f);
  EXPECT_EQ(gx.at(0, 1), 1.0f);
  EXPECT_EQ(gx.at(0, 2), 0.0f);  // relu'(0) = 0 convention
}

TEST(SoftmaxCE, KnownValues) {
  Tensor logits({2, 3}, {10.0f, 0.0f, 0.0f, 0.0f, 0.0f, 10.0f});
  const LossResult r = SoftmaxCrossEntropy(logits, {0, 2});
  EXPECT_LT(r.loss, 0.01f);  // confident & correct
  // Gradient rows sum to ~0 (softmax minus one-hot).
  for (int64_t b = 0; b < 2; ++b) {
    float s = 0.0f;
    for (int64_t c = 0; c < 3; ++c) s += r.grad_logits.at(b, c);
    EXPECT_NEAR(s, 0.0f, 1e-5f);
  }
}

TEST(SoftmaxCE, GradientMatchesFiniteDifference) {
  Rng rng(5);
  Tensor logits({2, 4});
  rng.fill_uniform(logits, -1.0f, 1.0f);
  const std::vector<int> labels{1, 3};
  const LossResult r = SoftmaxCrossEntropy(logits, labels);
  const float eps = 1e-3f;
  for (int64_t i = 0; i < logits.numel(); ++i) {
    const float orig = logits.at(i);
    logits.at(i) = orig + eps;
    const float fp = SoftmaxCrossEntropy(logits, labels).loss;
    logits.at(i) = orig - eps;
    const float fm = SoftmaxCrossEntropy(logits, labels).loss;
    logits.at(i) = orig;
    EXPECT_NEAR(r.grad_logits.at(i), (fp - fm) / (2.0f * eps), 1e-3f) << i;
  }
}

TEST(SoftmaxCE, RejectsBadLabels) {
  Tensor logits({1, 3});
  EXPECT_THROW((void)SoftmaxCrossEntropy(logits, {5}), Error);
  EXPECT_THROW((void)SoftmaxCrossEntropy(logits, {0, 1}), Error);
}

TEST(AccuracyMetric, Counts) {
  Tensor logits({2, 2}, {0.9f, 0.1f, 0.2f, 0.8f});
  EXPECT_FLOAT_EQ(Accuracy(logits, {0, 1}), 1.0f);
  EXPECT_FLOAT_EQ(Accuracy(logits, {1, 1}), 0.5f);
}

TEST(AccuracyMetric, CountCorrectTiesAndZeroRows) {
  // On a tie the first maximum is the arg-max, as in Accuracy.
  Tensor tied({3, 3}, {0.5f, 0.5f, 0.1f,  //
                       0.2f, 0.7f, 0.7f,  //
                       0.3f, 0.3f, 0.3f});
  EXPECT_EQ(CountCorrect(tied, {0, 1, 0}), 3);
  EXPECT_EQ(CountCorrect(tied, {1, 2, 2}), 0);
  EXPECT_EQ(Accuracy(tied, {0, 2, 0}), 2.0f / 3.0f);
  Tensor empty({0, 3});
  EXPECT_EQ(CountCorrect(empty, {}), 0);
  EXPECT_EQ(Accuracy(empty, {}), 0.0f);
  EXPECT_THROW((void)CountCorrect(tied, {0, 1}), Error);
}

// The trainer evaluates the test set one ShardFor shard per rank and sums
// the counts. That is only exact if a sample's logits do not depend on its
// batch mates: at every world size the concatenated shard logits must be
// bitwise the full-batch logits, and the shard counts must sum to the
// full-batch count.
TEST(ShardedEval, ShardLogitsAreBitwiseTheFullBatchLogits) {
  const SyntheticSpec spec;
  const Dataset train = MakeSynthetic(spec, 64, 1);
  const Dataset test = MakeSynthetic(spec, 101, 2);
  Tensor full_x;
  std::vector<int> full_y;
  test.Slice(0, test.size(), full_x, full_y);
  for (const char* model : {"vgg-mini", "res-mini"}) {
    Network net = MiniByName(model);
    net.Init(5);
    // A few SGD steps, so the logits are not those of the initial weights.
    SgdOptimizer opt(net.params(), LrSchedule{0.05f, 0, {}, 1.0f}, 0.9f);
    Tensor x;
    std::vector<int> y;
    for (int step = 0; step < 4; ++step) {
      train.Slice(step * 16, 16, x, y);
      net.ZeroGrads();
      const LossResult r = SoftmaxCrossEntropy(net.Forward(x), y);
      (void)net.Backward(r.grad_logits);
      opt.Step(0);
    }
    const Tensor full = net.Forward(full_x);
    const int64_t full_correct = CountCorrect(full, full_y);
    for (int world = 1; world <= 5; ++world) {
      std::vector<float> joined;
      int64_t correct = 0;
      for (int rank = 0; rank < world; ++rank) {
        const Shard s = ShardFor(test, rank, world);
        test.Slice(s.begin, s.count, x, y);
        const Tensor logits = net.Forward(x);
        correct += CountCorrect(logits, y);
        joined.insert(joined.end(), logits.data().begin(),
                      logits.data().end());
      }
      ASSERT_EQ(joined.size(), full.data().size()) << model << " " << world;
      EXPECT_EQ(std::memcmp(joined.data(), full.data().data(),
                            joined.size() * sizeof(float)),
                0)
          << model << " at world " << world;
      EXPECT_EQ(correct, full_correct) << model << " at world " << world;
    }
  }
}

TEST(Network, InitIsDeterministic) {
  Network a = VggMini();
  Network b = VggMini();
  a.Init(99);
  b.Init(99);
  auto pa = a.params(), pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i)
    EXPECT_TRUE(pa[i]->value.all_close(pb[i]->value, 0.0f)) << pa[i]->name;
}

TEST(Network, DifferentSeedsDiffer) {
  Network a = VggMini();
  Network b = VggMini();
  a.Init(1);
  b.Init(2);
  EXPECT_FALSE(a.params()[0]->value.all_close(b.params()[0]->value, 1e-6f));
}

TEST(Network, ZeroGrads) {
  Network net = ResMini();
  net.Init(3);
  Tensor x = RandomInput(2, 3 * 8 * 8, 6);
  const Tensor y = net.Forward(x);
  (void)net.Backward(y.clone());
  bool any_nonzero = false;
  for (auto* p : net.params())
    if (p->grad.norm2() > 0) any_nonzero = true;
  EXPECT_TRUE(any_nonzero);
  net.ZeroGrads();
  for (auto* p : net.params()) EXPECT_EQ(p->grad.norm2(), 0.0f);
}

TEST(MiniModels, ShapesAndLookup) {
  Network vgg = VggMini();
  Network res = ResMini();
  EXPECT_GT(vgg.total_params(), 1000);
  EXPECT_GT(res.total_params(), 1000);
  Tensor x = RandomInput(4, 3 * 8 * 8, 7);
  EXPECT_EQ(vgg.Forward(x).cols(), 10);
  EXPECT_EQ(res.Forward(x).cols(), 10);
  EXPECT_THROW((void)MiniByName("alexnet-mini"), Error);
}

TEST(LrSchedule, WarmupAndDecay) {
  LrSchedule s{0.1f, 5, {150, 220}, 0.1f};
  EXPECT_LT(s.LrAt(0), 0.1f);  // warming up
  EXPECT_LT(s.LrAt(1), s.LrAt(3));
  EXPECT_FLOAT_EQ(s.LrAt(10), 0.1f);
  EXPECT_FLOAT_EQ(s.LrAt(150), 0.01f);
  EXPECT_NEAR(s.LrAt(220), 0.001f, 1e-8f);
}

TEST(SgdOptimizer, PlainStep) {
  Param p;
  p.value = Tensor({2}, {1.0f, 2.0f});
  p.grad = Tensor({2}, {0.5f, -0.5f});
  LrSchedule s{0.1f, 0, {}, 1.0f};
  SgdOptimizer opt({&p}, s, /*momentum=*/0.0f);
  opt.Step(0);
  EXPECT_FLOAT_EQ(p.value.at(0), 1.0f - 0.1f * 0.5f);
  EXPECT_FLOAT_EQ(p.value.at(1), 2.0f + 0.1f * 0.5f);
}

TEST(SgdOptimizer, MomentumAccumulates) {
  Param p;
  p.value = Tensor({1}, {0.0f});
  p.grad = Tensor({1}, {1.0f});
  LrSchedule s{1.0f, 0, {}, 1.0f};
  SgdOptimizer opt({&p}, s, /*momentum=*/0.5f);
  opt.Step(0);  // v=1, w=-1
  EXPECT_FLOAT_EQ(p.value.at(0), -1.0f);
  opt.Step(0);  // v=1.5, w=-2.5
  EXPECT_FLOAT_EQ(p.value.at(0), -2.5f);
}

TEST(SgdOptimizer, WeightDecay) {
  Param p;
  p.value = Tensor({1}, {10.0f});
  p.grad = Tensor({1}, {0.0f});
  LrSchedule s{0.1f, 0, {}, 1.0f};
  SgdOptimizer opt({&p}, s, 0.0f, /*weight_decay=*/0.1f);
  opt.Step(0);
  EXPECT_FLOAT_EQ(p.value.at(0), 10.0f - 0.1f * (0.1f * 10.0f));
}

TEST(Dataset, DeterministicAndBalanced) {
  SyntheticSpec spec;
  const Dataset a = MakeSynthetic(spec, 100, 1);
  const Dataset b = MakeSynthetic(spec, 100, 1);
  EXPECT_TRUE(a.xs.all_close(b.xs, 0.0f));
  EXPECT_EQ(a.labels, b.labels);
  std::vector<int> counts(static_cast<size_t>(spec.num_classes), 0);
  for (int label : a.labels) ++counts[static_cast<size_t>(label)];
  for (int c : counts) EXPECT_EQ(c, 10);
}

TEST(Dataset, SplitsDiffer) {
  SyntheticSpec spec;
  const Dataset train = MakeSynthetic(spec, 50, 1);
  const Dataset test = MakeSynthetic(spec, 50, 2);
  EXPECT_FALSE(train.xs.all_close(test.xs, 1e-6f));
}

TEST(Dataset, ValuesBounded) {
  const Dataset ds = MakeSynthetic(SyntheticSpec{}, 64, 3);
  for (float v : ds.xs.data()) {
    EXPECT_GE(v, -1.0f);
    EXPECT_LE(v, 1.0f);  // tanh output
  }
}

TEST(Dataset, SliceAndShard) {
  const Dataset ds = MakeSynthetic(SyntheticSpec{}, 40, 1);
  Tensor x;
  std::vector<int> y;
  ds.Slice(10, 5, x, y);
  EXPECT_EQ(x.rows(), 5);
  EXPECT_EQ(y.size(), 5u);
  EXPECT_THROW(ds.Slice(38, 5, x, y), Error);

  int64_t covered = 0;
  for (int r = 0; r < 3; ++r) {
    const Shard s = ShardFor(ds, r, 3);
    covered += s.count;
  }
  EXPECT_EQ(covered, 40);
  EXPECT_THROW((void)ShardFor(ds, 3, 3), Error);
}

TEST(Training, SingleProcessLearnsTheTask) {
  // End-to-end sanity: a mini model fits a small synthetic set.
  SyntheticSpec spec;
  spec.noise = 0.5f;
  const Dataset train = MakeSynthetic(spec, 200, 1);
  Network net = VggMini();
  net.Init(11);
  LrSchedule s{0.05f, 0, {}, 1.0f};
  SgdOptimizer opt(net.params(), s, 0.9f);
  Tensor x;
  std::vector<int> y;
  float first_loss = 0.0f, last_loss = 0.0f;
  for (int step = 0; step < 60; ++step) {
    const int64_t begin = (step * 50) % 200;
    train.Slice(begin, 50, x, y);
    net.ZeroGrads();
    const Tensor logits = net.Forward(x);
    const LossResult r = SoftmaxCrossEntropy(logits, y);
    if (step == 0) first_loss = r.loss;
    last_loss = r.loss;
    (void)net.Backward(r.grad_logits);
    opt.Step(0);
  }
  EXPECT_LT(last_loss, 0.5f * first_loss);
}

}  // namespace
}  // namespace acps::dnn
