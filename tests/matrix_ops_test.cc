#include "tensor/matrix_ops.h"

#include <gtest/gtest.h>

#include "tensor/rng.h"

namespace acps {
namespace {

// Naive reference GEMM for validation.
Tensor RefMatMul(const Tensor& a, const Tensor& b) {
  Tensor c({a.rows(), b.cols()});
  for (int64_t i = 0; i < a.rows(); ++i)
    for (int64_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (int64_t k = 0; k < a.cols(); ++k)
        acc += double(a.at(i, k)) * b.at(k, j);
      c.at(i, j) = static_cast<float>(acc);
    }
  return c;
}

Tensor RefTranspose(const Tensor& a) {
  Tensor t({a.cols(), a.rows()});
  for (int64_t i = 0; i < a.rows(); ++i)
    for (int64_t j = 0; j < a.cols(); ++j) t.at(j, i) = a.at(i, j);
  return t;
}

TEST(MatMul, Small) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  const Tensor c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(MatMul, ShapeMismatchThrows) {
  Tensor a({2, 3});
  Tensor b({2, 3});
  EXPECT_THROW((void)MatMul(a, b), Error);
}

struct GemmDims {
  int64_t n, k, m;
};

class GemmTest : public ::testing::TestWithParam<GemmDims> {};

TEST_P(GemmTest, MatchesReference) {
  const auto [n, k, m] = GetParam();
  Rng rng(n * 1000 + k * 10 + m);
  Tensor a({n, k});
  Tensor b({k, m});
  rng.fill_normal(a);
  rng.fill_normal(b);
  const Tensor c = MatMul(a, b);
  const Tensor ref = RefMatMul(a, b);
  EXPECT_TRUE(c.all_close(ref, 1e-3f));
}

TEST_P(GemmTest, TransAMatchesReference) {
  const auto [n, k, m] = GetParam();
  Rng rng(42 + n + k + m);
  Tensor at({k, n});  // stores Aᵀ
  Tensor b({k, m});
  rng.fill_normal(at);
  rng.fill_normal(b);
  const Tensor c = MatMulTA(at, b);
  const Tensor ref = RefMatMul(RefTranspose(at), b);
  EXPECT_TRUE(c.all_close(ref, 1e-3f));
}

TEST_P(GemmTest, TransBMatchesReference) {
  const auto [n, k, m] = GetParam();
  Rng rng(77 + n * k * m);
  Tensor a({n, k});
  Tensor bt({m, k});  // stores Bᵀ
  rng.fill_normal(a);
  rng.fill_normal(bt);
  const Tensor c = MatMulTB(a, bt);
  const Tensor ref = RefMatMul(a, RefTranspose(bt));
  EXPECT_TRUE(c.all_close(ref, 1e-3f));
}

INSTANTIATE_TEST_SUITE_P(
    Dims, GemmTest,
    ::testing::Values(GemmDims{1, 1, 1}, GemmDims{2, 3, 4}, GemmDims{5, 1, 7},
                      GemmDims{1, 8, 1}, GemmDims{16, 16, 16},
                      GemmDims{31, 7, 13}, GemmDims{64, 4, 32}));

TEST(Gemm, AlphaBeta) {
  Tensor a({1, 2}, {1, 2});
  Tensor b({2, 1}, {3, 4});
  Tensor c({1, 1}, {100});
  Gemm(a.data(), b.data(), c.data(), 1, 2, 1, /*alpha=*/2.0f, /*beta=*/1.0f);
  EXPECT_FLOAT_EQ(c.at(0, 0), 100.0f + 2.0f * 11.0f);
}

TEST(Gemm, BetaZeroOverwritesGarbage) {
  Tensor a({1, 1}, {2});
  Tensor b({1, 1}, {3});
  Tensor c({1, 1}, {999});
  Gemm(a.data(), b.data(), c.data(), 1, 1, 1);
  EXPECT_FLOAT_EQ(c.at(0, 0), 6.0f);
}

TEST(Gemm, SizeMismatchThrows) {
  std::vector<float> a(6), b(6), c(4);
  EXPECT_THROW(Gemm(a, b, c, 2, 3, 3), Error);  // c too small
}

}  // namespace
}  // namespace acps
