// Bitwise parity and thread-count invariance of the acps::par compute
// kernels (DESIGN.md §6e):
//  * at 1 thread, every production kernel matches its *Naive reference
//    bit-for-bit (same accumulation policy, only the loop structure differs);
//  * at 2/4/8 threads, results are bitwise identical to 1 thread (static
//    partition + fixed reduction trees);
//  * compressor encodes (sign bit-packing, sampled top-k selection) produce
//    identical blobs for every thread budget.
// Runs under both `unit` and `modelcheck` ctest labels.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "check/oracles.h"
#include "compress/sign.h"
#include "compress/topk.h"
#include "par/thread_pool.h"
#include "tensor/matrix_ops.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace acps {
namespace {

// Bitwise equality (float == would hide -0.0f vs 0.0f and NaN mismatches).
::testing::AssertionResult BitsEqual(std::span<const float> a,
                                     std::span<const float> b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  if (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0)
    return ::testing::AssertionSuccess();
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0)
      return ::testing::AssertionFailure()
             << "bit mismatch at [" << i << "]: " << a[i] << " vs " << b[i];
  }
  return ::testing::AssertionSuccess();
}

std::vector<float> RandomVec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = rng.normal();
  return v;
}

struct ThreadGuard {
  ~ThreadGuard() { par::SetNumThreads(0); }
};

// Shapes chosen to cover full 8×32 tiles, ragged edges in both dimensions,
// and the tall-skinny factors of the Power-SGD family.
struct Shape3 {
  int64_t n, k, m;
};
const Shape3 kShapes[] = {
    {8, 16, 32}, {33, 17, 9}, {7, 3, 2}, {256, 8, 40}, {1000, 4, 4}};

TEST(KernelParity, GemmFamilyMatchesNaiveBitwise) {
  ThreadGuard guard;
  par::SetNumThreads(1);
  for (const auto& s : kShapes) {
    const auto a = RandomVec(static_cast<size_t>(s.n * s.k), 1);
    const auto b = RandomVec(static_cast<size_t>(s.k * s.m), 2);
    const auto c0 = RandomVec(static_cast<size_t>(s.n * s.m), 3);
    for (const float alpha : {1.0f, -0.5f}) {
      for (const float beta : {0.0f, 1.0f, 0.25f}) {
        std::vector<float> got = c0, want = c0;
        Gemm(a, b, got, s.n, s.k, s.m, alpha, beta);
        GemmNaive(a, b, want, s.n, s.k, s.m, alpha, beta);
        EXPECT_TRUE(BitsEqual(got, want))
            << "gemm " << s.n << "x" << s.k << "x" << s.m << " beta=" << beta;

        got = c0, want = c0;
        GemmTransA(a, b, got, s.n, s.k, s.m, alpha, beta);
        GemmTransANaive(a, b, want, s.n, s.k, s.m, alpha, beta);
        EXPECT_TRUE(BitsEqual(got, want)) << "gemm_ta " << s.n << "x" << s.k;

        got = c0, want = c0;
        GemmTransB(a, b, got, s.n, s.k, s.m, alpha, beta);
        GemmTransBNaive(a, b, want, s.n, s.k, s.m, alpha, beta);
        EXPECT_TRUE(BitsEqual(got, want)) << "gemm_tb " << s.n << "x" << s.k;
      }
    }
  }
}

// Routing is a pure function of the shape (DESIGN.md §6e), so these shapes
// reach every saxpy route (Gemm/GemmTransA: small-m for m <= 8, else the
// 6×32 register tiles) and every dot route (GemmTransB: small-k for k <= 8,
// packed for k >= 64, n >= 8, m >= 8, else one Dot8 per element) at their
// edges, and each must match its naive reference bit-for-bit at every
// thread budget.
TEST(KernelParity, RouteBoundariesMatchNaiveBitwise) {
  ThreadGuard guard;
  const Shape3 boundary[] = {
      // saxpy: small-m; dot: small-k.
      {1, 1, 1},
      // saxpy: one full 6×32 tile plus ragged edge tiles; dot: small-k.
      {10, 1, 40},
      // saxpy: exactly one full tile; dot: small-k at k = 8.
      {6, 8, 32},
      // saxpy: full tiles only; dot: packed, no k % 8 tail or column rest.
      {96, 256, 128},
      // saxpy: ragged rows and one edge column; dot: packed with a k % 8
      // tail and one leftover column on the Dot8 rows.
      {97, 257, 129},
      // As above, past the serial inline cutoff so the pool splits rows.
      {769, 300, 65},
      // saxpy: small-m at m = 1; dot: Dot8 rows (m < 8).
      {13, 300, 1},
      // saxpy: small-m at m = 7; dot: Dot8 rows (m < 8).
      {33, 100, 7},
      // saxpy: edge tiles only (8 < m < 32); dot: packed plus one column.
      {33, 100, 9},
      // Both sides of each packed GemmTransB cutoff (k >= 64, n >= 8,
      // m >= 8): {8, 64, 8} is packed, the other three take the Dot8 rows.
      // saxpy: small-m (m <= 8).
      {8, 64, 8},
      {8, 63, 8},
      {7, 64, 8},
      {8, 64, 7},
      // The same cutoffs past the serial inline cutoff. saxpy: register
      // tiles for m > 8, small-m for m <= 8.
      {1031, 64, 129},  // dot: packed
      {1031, 63, 129},  // dot: Dot8 rows
      {8, 64, 10000},   // dot: packed
      {7, 64, 10000},   // dot: Dot8 rows
      {10000, 64, 8},   // dot: packed
      {10000, 64, 7},   // dot: Dot8 rows
  };
  for (const auto& s : boundary) {
    const auto a = RandomVec(static_cast<size_t>(s.n * s.k), 51);
    const auto b = RandomVec(static_cast<size_t>(s.k * s.m), 52);
    const auto c0 = RandomVec(static_cast<size_t>(s.n * s.m), 53);
    for (const float alpha : {1.0f, -0.5f}) {
      for (const float beta : {0.0f, 1.0f, 0.25f}) {
        std::vector<float> want = c0, want_ta = c0, want_tb = c0;
        GemmNaive(a, b, want, s.n, s.k, s.m, alpha, beta);
        GemmTransANaive(a, b, want_ta, s.n, s.k, s.m, alpha, beta);
        GemmTransBNaive(a, b, want_tb, s.n, s.k, s.m, alpha, beta);
        for (const int threads : {1, 2, 4, 8}) {
          par::SetNumThreads(threads);
          std::vector<float> got = c0;
          Gemm(a, b, got, s.n, s.k, s.m, alpha, beta);
          EXPECT_TRUE(BitsEqual(got, want))
              << "gemm " << s.n << "x" << s.k << "x" << s.m
              << " alpha=" << alpha << " beta=" << beta
              << " threads=" << threads;

          got = c0;
          GemmTransA(a, b, got, s.n, s.k, s.m, alpha, beta);
          EXPECT_TRUE(BitsEqual(got, want_ta))
              << "gemm_ta " << s.n << "x" << s.k << "x" << s.m
              << " alpha=" << alpha << " beta=" << beta
              << " threads=" << threads;

          got = c0;
          GemmTransB(a, b, got, s.n, s.k, s.m, alpha, beta);
          EXPECT_TRUE(BitsEqual(got, want_tb))
              << "gemm_tb " << s.n << "x" << s.k << "x" << s.m
              << " alpha=" << alpha << " beta=" << beta
              << " threads=" << threads;
        }
      }
    }
  }
}

TEST(KernelParity, GemmTransBBetaZeroOverwritesGarbage) {
  // The beta == 0 contract: old C contents must never feed the result, even
  // when they are NaN (the regression the old beta * (beta==0 ? 0 : c) guard
  // protected against — now policy across the whole family).
  ThreadGuard guard;
  par::SetNumThreads(1);
  const auto a = RandomVec(6, 11), b = RandomVec(6, 12);
  std::vector<float> c(4, std::numeric_limits<float>::quiet_NaN());
  GemmTransB(a, b, c, 2, 3, 2, 1.0f, 0.0f);
  for (float v : c) EXPECT_FALSE(std::isnan(v));
  std::vector<float> c2(4, std::numeric_limits<float>::quiet_NaN());
  Gemm(a, b, c2, 2, 3, 2, 1.0f, 0.0f);
  for (float v : c2) EXPECT_FALSE(std::isnan(v));
}

// Operands for the small-k TransB path: normals sprinkled with signed zeros
// (so products come out as -0, which a lane's `0 + x*y` turns into +0) and
// with tiny values whose products underflow.
std::vector<float> SmallKOperand(size_t n, uint64_t seed) {
  std::vector<float> v = RandomVec(n, seed);
  for (size_t i = 0; i < n; ++i) {
    if (i % 5 == 0) v[i] = (i / 5) % 2 == 0 ? -0.0f : 0.0f;
    if (i % 11 == 3) v[i] = (i % 2 == 0 ? 1.0f : -1.0f) * 1e-30f;
  }
  return v;
}

// The small-k dot-form path (k <= 8: at most one product per Dot8 lane)
// against the naive reference, across every remainder of the vectorized
// column loop, both sides of k = 8 and every thread budget.
TEST(KernelParity, SmallKTransBMatchesNaiveBitwise) {
  ThreadGuard guard;
  std::vector<Shape3> shapes;
  for (int64_t k = 1; k <= 9; ++k)
    for (const int64_t m : {1, 7, 8, 9, 33, 4608})
      for (const int64_t n : {1, 5, 97}) shapes.push_back({n, k, m});
  // Large enough to leave the serial inline cutoff and split rows.
  shapes.push_back({1031, 4, 1031});
  shapes.push_back({1031, 8, 521});
  shapes.push_back({2053, 1, 2053});
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const auto& s : shapes) {
    const auto a = SmallKOperand(static_cast<size_t>(s.n * s.k), 71);
    const auto b = SmallKOperand(static_cast<size_t>(s.m * s.k), 72);
    const auto c_rand = RandomVec(static_cast<size_t>(s.n * s.m), 73);
    for (const float alpha : {1.0f, -0.5f}) {
      for (const float beta : {0.0f, 1.0f, 0.25f}) {
        // beta == 0 must overwrite, so start it from NaN garbage.
        const std::vector<float> c0 =
            beta == 0.0f ? std::vector<float>(c_rand.size(), nan) : c_rand;
        std::vector<float> want = c0;
        GemmTransBNaive(a, b, want, s.n, s.k, s.m, alpha, beta);
        for (const int threads : {1, 2, 4, 8}) {
          par::SetNumThreads(threads);
          std::vector<float> got = c0;
          GemmTransB(a, b, got, s.n, s.k, s.m, alpha, beta);
          EXPECT_TRUE(BitsEqual(got, want))
              << "gemm_tb " << s.n << "x" << s.k << "x" << s.m
              << " alpha=" << alpha << " beta=" << beta
              << " threads=" << threads;
        }
      }
    }
  }
}

// The small-m saxpy path (m <= 8: the rank-r factor products M·Q and Mᵀ·P)
// against the naive references, for both Gemm and GemmTransA: m = 1..8 and
// one past, n on both sides of the 32-row tile (and of GemmTransA's
// 16-column strip), k on both sides of GemmTransA's 32-row block and of the
// 256-deep Gemm panel, and for every m one shape past the serial inline
// cutoff (2·n·k·m >= 2^23) so the pool splits rows. Each result must also
// be the same at every thread budget.
TEST(KernelParity, SmallMSaxpyMatchesNaiveBitwise) {
  ThreadGuard guard;
  struct Case {
    Shape3 s;
    bool all_alphas;
  };
  std::vector<Case> cases;
  for (int64_t m = 1; m <= 9; ++m) {
    for (const int64_t n : {1, 31, 32, 33, 97})
      for (const int64_t k : {0, 1, 7, 31, 32, 33, 65, 300})
        cases.push_back({{n, k, m}, true});
    // Past the serial inline cutoff; n is not a multiple of the tile.
    const int64_t n = 1031;
    const int64_t k = (int64_t{1} << 22) / (n * m) + 1;
    ASSERT_GE(2 * n * k * m, int64_t{1} << 23);
    cases.push_back({{n, k, m}, false});
  }
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const auto& [s, all_alphas] : cases) {
    const auto a = SmallKOperand(static_cast<size_t>(s.n * s.k), 81);
    const auto b = SmallKOperand(static_cast<size_t>(s.k * s.m), 82);
    const auto c_rand = RandomVec(static_cast<size_t>(s.n * s.m), 83);
    // -0.3 is not a power of two, so alpha * a_ik rounds: folding alpha in
    // anywhere else than that one multiply would show.
    for (const float alpha : {-0.3f, 1.0f}) {
      if (alpha == 1.0f && !all_alphas) continue;
      for (const float beta : {0.0f, 1.0f, 0.25f}) {
        // beta == 0 must overwrite, so start it from NaN garbage.
        const std::vector<float> c0 =
            beta == 0.0f ? std::vector<float>(c_rand.size(), nan) : c_rand;
        std::vector<float> want = c0, want_ta = c0;
        GemmNaive(a, b, want, s.n, s.k, s.m, alpha, beta);
        GemmTransANaive(a, b, want_ta, s.n, s.k, s.m, alpha, beta);
        for (const int threads : {1, 2, 4, 8}) {
          par::SetNumThreads(threads);
          std::vector<float> got = c0;
          Gemm(a, b, got, s.n, s.k, s.m, alpha, beta);
          EXPECT_TRUE(BitsEqual(got, want))
              << "gemm " << s.n << "x" << s.k << "x" << s.m
              << " alpha=" << alpha << " beta=" << beta
              << " threads=" << threads;
          got = c0;
          GemmTransA(a, b, got, s.n, s.k, s.m, alpha, beta);
          EXPECT_TRUE(BitsEqual(got, want_ta))
              << "gemm_ta " << s.n << "x" << s.k << "x" << s.m
              << " alpha=" << alpha << " beta=" << beta
              << " threads=" << threads;
        }
      }
    }
  }
}

// The streamed low-rank reconstruction against GemmTransBNaive plus a plain
// elementwise loop, for both epilogues (SubtractLowRank: E −= P·Qᵀ;
// SplitLowRank: E = X − P·Qᵀ, X = P·Qᵀ): r on both sides of the small-k
// cutoff, m not a multiple of the 8-wide vector, n = 1 and n = 33, two
// shapes past the serial inline cutoff, every thread budget.
TEST(KernelParity, LowRankEpiloguesMatchNaiveBitwise) {
  ThreadGuard guard;
  std::vector<Shape3> shapes;  // {n, k = r, m}
  for (const int64_t r : {1, 2, 3, 4, 5, 8, 9, 32})
    for (const int64_t m : {1, 7, 13, 64, 4607})
      for (const int64_t n : {1, 33}) shapes.push_back({n, r, m});
  shapes.push_back({1031, 4, 1031});
  shapes.push_back({1031, 9, 521});
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const auto& s : shapes) {
    const size_t nm = static_cast<size_t>(s.n * s.m);
    const auto p = SmallKOperand(static_cast<size_t>(s.n * s.k), 91);
    const auto q = SmallKOperand(static_cast<size_t>(s.m * s.k), 92);
    const auto x0 = RandomVec(nm, 93);
    const auto e0 = RandomVec(nm, 94);
    std::vector<float> recon(nm);
    GemmTransBNaive(p, q, recon, s.n, s.k, s.m);
    std::vector<float> want_sub = e0, want_split(nm);
    for (size_t i = 0; i < nm; ++i) {
      want_sub[i] -= recon[i];
      want_split[i] = x0[i] - recon[i];
    }
    for (const int threads : {1, 2, 4, 8}) {
      par::SetNumThreads(threads);
      std::vector<float> e = e0;
      SubtractLowRank(p, q, e, s.n, s.k, s.m);
      EXPECT_TRUE(BitsEqual(e, want_sub))
          << "subtract " << s.n << "x" << s.k << "x" << s.m
          << " threads=" << threads;
      // E is overwritten, so start it from NaN garbage.
      std::vector<float> x = x0;
      e.assign(nm, nan);
      SplitLowRank(p, q, x, e, s.n, s.k, s.m);
      EXPECT_TRUE(BitsEqual(e, want_split))
          << "split E " << s.n << "x" << s.k << "x" << s.m
          << " threads=" << threads;
      EXPECT_TRUE(BitsEqual(x, recon))
          << "split X " << s.n << "x" << s.k << "x" << s.m
          << " threads=" << threads;
    }
  }
}

// The fused sweep E += X, P = E·Q, E −= P·Qᵀ (ProjectResidual) against the
// same three steps taken one full pass at a time through the naive
// references: n on both sides of the 32-row block, m on both sides of the
// 256-deep Gemm panel, r on both sides of the small-m/small-k cutoff, two
// shapes past the serial inline cutoff, every thread budget.
TEST(KernelParity, ProjectResidualMatchesThreePassesBitwise) {
  ThreadGuard guard;
  std::vector<Shape3> shapes;  // {n, m, r}
  for (const int64_t r : {1, 2, 3, 4, 5, 8, 9, 32})
    for (const int64_t n : {1, 31, 32, 33, 97})
      for (const int64_t m : {1, 7, 300}) shapes.push_back({n, m, r});
  shapes.push_back({1031, 1031, 4});
  shapes.push_back({1031, 521, 9});
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const auto& [n, m, r] : shapes) {
    const size_t nm = static_cast<size_t>(n * m);
    const auto x = SmallKOperand(nm, 95);
    const auto e0 = RandomVec(nm, 96);
    const auto q = SmallKOperand(static_cast<size_t>(m * r), 97);
    std::vector<float> want_e = e0, want_p(static_cast<size_t>(n * r));
    std::vector<float> recon(nm);
    for (size_t i = 0; i < nm; ++i) want_e[i] += x[i];
    GemmNaive(want_e, q, want_p, n, m, r);
    GemmTransBNaive(want_p, q, recon, n, r, m);
    for (size_t i = 0; i < nm; ++i) want_e[i] -= recon[i];
    for (const int threads : {1, 2, 4, 8}) {
      par::SetNumThreads(threads);
      std::vector<float> e = e0, p(want_p.size(), nan);
      ProjectResidual(x, e, q, p, n, m, r);
      EXPECT_TRUE(BitsEqual(p, want_p))
          << "P " << n << "x" << m << "x" << r << " threads=" << threads;
      EXPECT_TRUE(BitsEqual(e, want_e))
          << "E " << n << "x" << m << "x" << r << " threads=" << threads;
    }
  }
}

// The error-feedback adds folded into a factor product, against `add_`
// followed by the naive product: AddGemmTransA (E += X, Q = Eᵀ·P) and
// AddGemm (E += X, P = E·Q). r on both sides of the small-m cutoff, n on
// both sides of the 32-row block and m on both sides of the 16-column
// strip, one shape past the serial inline cutoff, every thread budget.
std::vector<Shape3> AddGemmShapes() {
  std::vector<Shape3> shapes;  // {n, m, r}
  for (int64_t r = 1; r <= 9; ++r)
    for (const int64_t n : {1, 31, 32, 33, 97})
      for (const int64_t m : {1, 15, 16, 17, 300}) shapes.push_back({n, m, r});
  shapes.push_back({1031, 1031, 4});
  return shapes;
}

TEST(KernelParity, AddGemmTransAMatchesTwoPassesBitwise) {
  ThreadGuard guard;
  for (const auto& [n, m, r] : AddGemmShapes()) {
    const size_t nm = static_cast<size_t>(n * m);
    const Tensor x = Tensor::FromSpan({n, m}, SmallKOperand(nm, 71));
    const Tensor e0 = Tensor::FromSpan({n, m}, RandomVec(nm, 72));
    const auto p = SmallKOperand(static_cast<size_t>(n * r), 73);
    Tensor want_e = e0.clone();
    want_e.add_(x);
    std::vector<float> want_q(static_cast<size_t>(m * r));
    GemmTransANaive(want_e.data(), p, want_q, m, n, r);
    for (const int threads : {1, 2, 4, 8}) {
      par::SetNumThreads(threads);
      Tensor e = e0.clone();
      std::vector<float> q(want_q.size(),
                           std::numeric_limits<float>::quiet_NaN());
      AddGemmTransA(x.data(), e.data(), p, q, n, m, r);
      EXPECT_TRUE(BitsEqual(e.data(), want_e.data()))
          << "E " << n << "x" << m << "x" << r << " threads=" << threads;
      EXPECT_TRUE(BitsEqual(q, want_q))
          << "Q " << n << "x" << m << "x" << r << " threads=" << threads;
    }
  }
}

TEST(KernelParity, AddGemmMatchesTwoPassesBitwise) {
  ThreadGuard guard;
  for (const auto& [n, m, r] : AddGemmShapes()) {
    const size_t nm = static_cast<size_t>(n * m);
    const Tensor x = Tensor::FromSpan({n, m}, SmallKOperand(nm, 74));
    const Tensor e0 = Tensor::FromSpan({n, m}, RandomVec(nm, 75));
    const auto q = SmallKOperand(static_cast<size_t>(m * r), 76);
    Tensor want_e = e0.clone();
    want_e.add_(x);
    std::vector<float> want_p(static_cast<size_t>(n * r));
    GemmNaive(want_e.data(), q, want_p, n, m, r);
    for (const int threads : {1, 2, 4, 8}) {
      par::SetNumThreads(threads);
      Tensor e = e0.clone();
      std::vector<float> p(want_p.size(),
                           std::numeric_limits<float>::quiet_NaN());
      AddGemm(x.data(), e.data(), q, p, n, m, r);
      EXPECT_TRUE(BitsEqual(e.data(), want_e.data()))
          << "E " << n << "x" << m << "x" << r << " threads=" << threads;
      EXPECT_TRUE(BitsEqual(p, want_p))
          << "P " << n << "x" << m << "x" << r << " threads=" << threads;
    }
  }
}

TEST(KernelParity, AllKernelsThreadCountInvariant) {
  // n spans several grain blocks so 2/4/8 threads genuinely partition work.
  ThreadGuard guard;
  const int64_t n = 4096, k = 173, m = 64;
  const auto a = RandomVec(static_cast<size_t>(n * k), 31);
  const auto b = RandomVec(static_cast<size_t>(k * m), 32);
  const auto c0 = RandomVec(static_cast<size_t>(n * m), 33);

  const auto run = [&] {
    std::vector<float> out;
    std::vector<float> c = c0;
    Gemm(a, b, c, n, k, m, 1.0f, 0.5f);
    out.insert(out.end(), c.begin(), c.end());
    c = c0;
    GemmTransA(a, b, c, n, k, m, -0.5f, 0.25f);
    out.insert(out.end(), c.begin(), c.end());
    c = c0;
    GemmTransB(a, b, c, n, k, m, 2.0f, 0.0f);
    out.insert(out.end(), c.begin(), c.end());
    Tensor t = Tensor::FromSpan({n * k}, a);
    const Tensor u = Tensor::FromSpan({n * k}, RandomVec(a.size(), 34));
    t.axpy_(0.5f, u);
    const float red[3] = {t.sum(), t.dot(u), t.norm2()};
    out.insert(out.end(), red, red + 3);
    return out;
  };

  par::SetNumThreads(1);
  const auto baseline = run();
  for (const int threads : {2, 4, 8}) {
    par::SetNumThreads(threads);
    EXPECT_TRUE(BitsEqual(run(), baseline)) << threads << " threads";
  }
}

TEST(KernelParity, CompressorBlobsThreadCountInvariant) {
  ThreadGuard guard;
  const auto g = RandomVec(200003, 41);

  const auto encode_both = [&] {
    compress::SignCompressor sign;
    compress::TopkCompressor topk(0.003);
    return std::make_pair(sign.Encode(g), topk.Encode(g));
  };

  par::SetNumThreads(1);
  const auto [sign1, topk1] = encode_both();
  for (const int threads : {2, 4, 8}) {
    par::SetNumThreads(threads);
    const auto [signN, topkN] = encode_both();
    EXPECT_EQ(sign1, signN) << "sign blob @ " << threads << " threads";
    EXPECT_EQ(topk1, topkN) << "topk blob @ " << threads << " threads";
  }
}

TEST(KernelParity, ThreadInvarianceOracle) {
  // The packaged oracle (also run by check_test / tools/check_collectives):
  // full kernel suite at 1/2/4/8 threads plus naive parity, one report.
  check::OracleOptions opt;
  const auto report = check::CheckKernelThreadInvariance(opt);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.checks_run, 0);
}

}  // namespace
}  // namespace acps
