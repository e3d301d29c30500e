// Validates the model zoo against the paper's Table I and the standard
// published parameter counts.
#include <gtest/gtest.h>

#include "models/model_zoo.h"

namespace acps::models {
namespace {

struct ParamCountCase {
  const char* name;
  double millions;
  double tolerance;  // relative
};

class ParamCountTest : public ::testing::TestWithParam<ParamCountCase> {};

TEST_P(ParamCountTest, MatchesPublishedCount) {
  const auto& c = GetParam();
  const ModelSpec spec = ByName(c.name);
  const double actual = static_cast<double>(spec.total_params()) / 1e6;
  EXPECT_NEAR(actual, c.millions, c.millions * c.tolerance) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    TableI, ParamCountTest,
    ::testing::Values(ParamCountCase{"resnet50", 25.6, 0.01},
                      ParamCountCase{"resnet152", 60.2, 0.01},
                      ParamCountCase{"bert-base", 110.1, 0.02},
                      ParamCountCase{"bert-large", 336.2, 0.02},
                      ParamCountCase{"resnet18", 11.7, 0.01},
                      ParamCountCase{"vgg16", 138.4, 0.01}));

struct RatioCase {
  const char* name;
  int64_t rank;
  double paper_ratio;
  double tolerance;  // relative
};

class CompressionRatioTest : public ::testing::TestWithParam<RatioCase> {};

TEST_P(CompressionRatioTest, MatchesTableI) {
  const auto& c = GetParam();
  const ModelSpec spec = ByName(c.name);
  EXPECT_NEAR(spec.LowRankCompressionRatio(c.rank), c.paper_ratio,
              c.paper_ratio * c.tolerance)
      << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    TableI, CompressionRatioTest,
    ::testing::Values(RatioCase{"resnet50", 4, 67.0, 0.10},
                      RatioCase{"resnet152", 4, 53.0, 0.10},
                      RatioCase{"bert-base", 32, 16.0, 0.15},
                      RatioCase{"bert-large", 32, 21.0, 0.10}));

TEST(ModelZoo, ByNameThrowsOnUnknown) {
  EXPECT_THROW((void)ByName("alexnet"), Error);
}

TEST(ModelZoo, BackwardOrderIsReversed) {
  const ModelSpec spec = ResNet50();
  const auto bwd = spec.backward_order();
  ASSERT_EQ(bwd.size(), spec.layers.size());
  EXPECT_EQ(bwd.front()->name, spec.layers.back().name);
  EXPECT_EQ(bwd.back()->name, spec.layers.front().name);
}

TEST(ModelZoo, AllLayersWellFormed) {
  for (const char* name :
       {"resnet18", "resnet50", "resnet152", "vgg16", "bert-base",
        "bert-large"}) {
    const ModelSpec spec = ByName(name);
    EXPECT_GT(spec.num_tensors(), 10u) << name;
    for (const auto& l : spec.layers) {
      EXPECT_GT(l.numel(), 0) << l.name;
      EXPECT_GE(l.fwd_flops_per_sample, 0.0) << l.name;
      if (l.compressible) {
        EXPECT_EQ(l.matrix_rows * l.matrix_cols, l.numel()) << l.name;
        EXPECT_GT(l.matrix_rows, 1) << l.name;
        EXPECT_GT(l.matrix_cols, 1) << l.name;
      }
    }
  }
}

TEST(ModelZoo, ResNet50FlopsMatchPublished) {
  // ResNet-50 forward ≈ 4.1 GMACs = 8.2 GFLOPs per 224x224 image.
  const ModelSpec spec = ResNet50();
  EXPECT_NEAR(spec.total_fwd_flops_per_sample() / 1e9, 8.2, 0.5);
}

TEST(ModelZoo, Vgg16FlopsMatchPublished) {
  // VGG-16 forward ≈ 15.5 GMACs = 31 GFLOPs.
  EXPECT_NEAR(Vgg16().total_fwd_flops_per_sample() / 1e9, 31.0, 1.5);
}

TEST(ModelZoo, BertFlopsScaleWithSeqLen) {
  const double f64 = BertBase(64).total_fwd_flops_per_sample();
  const double f128 = BertBase(128).total_fwd_flops_per_sample();
  EXPECT_GT(f128, 1.9 * f64);
  EXPECT_LT(f128, 2.3 * f64);  // slight super-linearity from attention
}

TEST(ModelZoo, FootprintPSmallerThanQForConvNets) {
  // Conv matrices are [cout, cin·k²] with cout < cin·k² mostly, so the P
  // factors are smaller than Q — Fig 5's observation (P: 0.63MB vs
  // Q: 1.04MB for ResNet-50 at rank 4).
  const auto fp = ResNet50().FootprintAtRank(4);
  EXPECT_LT(fp.p_elements, fp.q_elements);
  EXPECT_GT(fp.dense_elements, 0);
}

TEST(ModelZoo, HigherRankLowerRatio) {
  const ModelSpec spec = BertLarge();
  double prev = 1e18;
  for (int64_t r : {4, 32, 128, 256}) {
    const double ratio = spec.LowRankCompressionRatio(r);
    EXPECT_LT(ratio, prev);
    prev = ratio;
  }
  // Rank 256 on BERT-Large ≈ 5.4x (paper §V-D; this is the per-step
  // ACP-SGD ratio — one factor per iteration).
  EXPECT_NEAR(spec.AcpCompressionRatio(256), 5.4, 1.0);
}

TEST(ModelZoo, PaperEvalSetMatchesPaperSettings) {
  const auto eval = PaperEvalSet();
  ASSERT_EQ(eval.size(), 4u);
  EXPECT_EQ(eval[0].name, "resnet50");
  EXPECT_EQ(eval[0].batch_size, 64);
  EXPECT_EQ(eval[0].powersgd_rank, 4);
  EXPECT_EQ(eval[3].name, "bert-large");
  EXPECT_EQ(eval[3].batch_size, 8);
  EXPECT_EQ(eval[3].powersgd_rank, 32);
}

TEST(ModelZoo, BertLargeSizeInMB) {
  // Paper §V-D: BERT-Large has 1282.6MB of parameters.
  EXPECT_NEAR(static_cast<double>(BertLarge().total_bytes()) / 1e6 * 1e6 /
                  (1024.0 * 1024.0),
              1282.6, 30.0);
}

}  // namespace
}  // namespace acps::models
