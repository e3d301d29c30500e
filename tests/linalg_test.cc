#include <gtest/gtest.h>

#include <vector>

#include "linalg/qr.h"
#include "tensor/matrix_ops.h"
#include "tensor/rng.h"

namespace acps {
namespace {

struct QrDims {
  int64_t n, r;
};

class QrTest : public ::testing::TestWithParam<QrDims> {};

TEST_P(QrTest, OrthonormalBasisOfTheColumnSpan) {
  const auto [n, r] = GetParam();
  Rng rng(n * 31 + r);
  Tensor a({n, r});
  rng.fill_normal(a);
  const Tensor original = a.clone();
  Orthogonalize(a);

  // Q has orthonormal columns.
  EXPECT_LT(OrthonormalityError(a), 1e-4f);
  // span(Q) = span(A): projecting the original columns onto span(Q)
  // reproduces them, original = Q (Qᵀ original).
  const Tensor coeffs = MatMulTA(a, original);
  const Tensor recon = MatMul(a, coeffs);
  EXPECT_TRUE(recon.all_close(original, 1e-3f));
}

INSTANTIATE_TEST_SUITE_P(Dims, QrTest,
                         ::testing::Values(QrDims{1, 1}, QrDims{4, 4},
                                           QrDims{8, 3}, QrDims{20, 3},
                                           QrDims{40, 6}, QrDims{100, 4},
                                           QrDims{64, 32}, QrDims{257, 16}));

TEST(Orthogonalize, RejectsBadShapes) {
  Tensor vector({4});
  EXPECT_THROW(Orthogonalize(vector), Error);
  Tensor wide({2, 4});  // n < r
  EXPECT_THROW(Orthogonalize(wide), Error);
  Tensor empty({3, 0});  // r = 0
  EXPECT_THROW(Orthogonalize(empty), Error);
}

TEST(Orthogonalize, RankDeficientInputRecovers) {
  // Any finite input, however rank-deficient, yields an orthonormal basis:
  // Q is a product of Householder reflectors applied to [I; 0], and a zero
  // column only skips its reflector.
  Tensor identical({10, 2});
  for (int64_t i = 0; i < 10; ++i) {
    identical.at(i, 0) = static_cast<float>(i + 1);
    identical.at(i, 1) = static_cast<float>(i + 1);
  }
  Tensor zero_column({10, 3});
  for (int64_t i = 0; i < 10; ++i) {
    zero_column.at(i, 0) = static_cast<float>(i + 1);
    zero_column.at(i, 2) = static_cast<float>(10 - i);
  }
  std::vector<Tensor> inputs;
  inputs.push_back(std::move(identical));
  inputs.push_back(std::move(zero_column));
  inputs.push_back(Tensor({10, 4}));  // zero matrix
  for (Tensor& a : inputs) {
    Orthogonalize(a);
    EXPECT_LT(OrthonormalityError(a), 1e-3f) << ShapeToString(a.shape());
  }
}

TEST(Orthogonalize, DeterministicAcrossCalls) {
  // Power-SGD requires all workers to produce the identical basis.
  Rng rng(77);
  Tensor a({30, 4});
  rng.fill_normal(a);
  Tensor b = a.clone();
  Orthogonalize(a);
  Orthogonalize(b);
  EXPECT_TRUE(a.all_close(b, 0.0f));
}

}  // namespace
}  // namespace acps
