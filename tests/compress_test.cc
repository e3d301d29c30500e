// Tests for the one-shot compressors: Sign, Top-k, Random-k, and the
// error-feedback store.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "compress/error_feedback.h"
#include "compress/registry.h"
#include "compress/randomk.h"
#include "compress/sign.h"
#include "compress/topk.h"
#include "tensor/rng.h"

namespace acps::compress {
namespace {

std::vector<float> RandomGrad(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> g(n);
  for (auto& v : g) v = rng.normal();
  return g;
}

// ---------------------------------------------------------------- Sign ----

TEST(Sign, RoundTripSigns) {
  SignCompressor c;
  const std::vector<float> g{1.5f, -0.25f, 0.0f, -3.0f, 2.0f};
  const auto blob = c.Encode(g);
  std::vector<float> out(g.size());
  c.Decode(blob, out);
  const float scale = (1.5f + 0.25f + 0.0f + 3.0f + 2.0f) / 5.0f;
  EXPECT_NEAR(out[0], scale, 1e-5f);
  EXPECT_NEAR(out[1], -scale, 1e-5f);
  EXPECT_NEAR(out[2], scale, 1e-5f);  // sign(0) = +1
  EXPECT_NEAR(out[3], -scale, 1e-5f);
}

TEST(Sign, CompressionRatioApproaches32x) {
  SignCompressor c;
  const double ratio = c.CompressionRatio(1 << 20);
  EXPECT_GT(ratio, 30.0);
  EXPECT_LE(ratio, 32.0);
}

TEST(Sign, EncodedSizeExact) {
  SignCompressor c;
  for (size_t n : {0u, 1u, 7u, 8u, 9u, 1000u}) {
    const auto blob = c.Encode(RandomGrad(n, n));
    EXPECT_EQ(blob.size(), c.EncodedBytes(n));
  }
}

TEST(Sign, MajorityVote) {
  SignCompressor c;
  // Three workers; element 0: (+,+,-) => +; element 1: (-,-,+) => -.
  std::vector<std::vector<std::byte>> blobs;
  blobs.push_back(c.Encode(std::vector<float>{1.0f, -1.0f}));
  blobs.push_back(c.Encode(std::vector<float>{1.0f, -1.0f}));
  blobs.push_back(c.Encode(std::vector<float>{-1.0f, 1.0f}));
  std::vector<float> out(2);
  SignCompressor::MajorityVote(blobs, out);
  EXPECT_GT(out[0], 0.0f);
  EXPECT_LT(out[1], 0.0f);
}

TEST(Sign, MajorityVoteTieIsPositive) {
  SignCompressor c;
  std::vector<std::vector<std::byte>> blobs;
  blobs.push_back(c.Encode(std::vector<float>{1.0f}));
  blobs.push_back(c.Encode(std::vector<float>{-1.0f}));
  std::vector<float> out(1);
  SignCompressor::MajorityVote(blobs, out);
  EXPECT_GT(out[0], 0.0f);
}

TEST(Sign, DecodeSizeMismatchThrows) {
  SignCompressor c;
  const auto blob = c.Encode(RandomGrad(8, 1));
  std::vector<float> out(9);
  EXPECT_THROW(c.Decode(blob, out), Error);
}

// ---------------------------------------------------------------- Topk ----

class TopkSelectionTest : public ::testing::TestWithParam<TopkSelection> {};

TEST_P(TopkSelectionTest, SelectsLargestMagnitudes) {
  TopkCompressor c(0.1, GetParam());
  std::vector<float> g(100, 0.01f);
  // Plant 10 large entries at known spots.
  for (int i = 0; i < 10; ++i) g[static_cast<size_t>(i * 10)] = 5.0f + i;
  const auto blob = c.Encode(g);
  std::vector<float> out(g.size());
  c.Decode(blob, out);
  int found = 0;
  for (int i = 0; i < 10; ++i)
    if (out[static_cast<size_t>(i * 10)] > 1.0f) ++found;
  EXPECT_EQ(found, 10);
  // Everything else zero.
  for (size_t i = 0; i < g.size(); ++i) {
    if (i % 10 != 0) {
      EXPECT_EQ(out[i], 0.0f);
    }
  }
}

TEST_P(TopkSelectionTest, ExactlyKRecords) {
  TopkCompressor c(0.05, GetParam());
  for (size_t n : {20u, 100u, 999u}) {
    const auto g = RandomGrad(n, n * 3);
    const auto blob = c.Encode(g);
    EXPECT_EQ(blob.size(), c.EncodedBytes(n)) << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, TopkSelectionTest,
                         ::testing::Values(TopkSelection::kExact,
                                           TopkSelection::kSampledThreshold));

TEST(Topk, SampledMatchesExactEnergyClosely) {
  // Sampled threshold selection must capture nearly the same gradient
  // energy as exact top-k (it is allowed to differ in tie handling).
  const auto g = RandomGrad(20000, 9);
  TopkCompressor exact(0.01, TopkSelection::kExact);
  TopkCompressor sampled(0.01, TopkSelection::kSampledThreshold);
  auto energy = [&](Compressor& c) {
    const auto blob = c.Encode(g);
    std::vector<float> out(g.size());
    c.Decode(blob, out);
    double e = 0.0;
    for (float v : out) e += double(v) * v;
    return e;
  };
  const double ee = energy(exact);
  const double es = energy(sampled);
  EXPECT_GT(es, 0.97 * ee);
}

TEST(Topk, HistogramSelectionIsTwoPass) {
  TopkCompressor c(0.001, TopkSelection::kSampledThreshold);
  (void)c.Encode(RandomGrad(50000, 5));
  // Histogram-assisted selection: the bit-pattern bucketing needs no
  // max/range pass, so selection is histogram pass + gather pass.
  EXPECT_EQ(c.last_threshold_passes(), 2);
}

TEST(Topk, HistogramSelectionTrimsTiesToK) {
  TopkCompressor c(0.5, TopkSelection::kSampledThreshold);
  // All magnitudes tie, so they share one histogram bucket: the gather
  // returns all 8 and the trim cuts it back to exactly k.
  const std::vector<float> ties(8, 1.0f);
  const auto tied = c.SelectSampled(ties, 4);
  EXPECT_EQ(tied.size(), 4u);
  EXPECT_EQ(std::set<uint32_t>(tied.begin(), tied.end()).size(), 4u);
  // One nonzero among zeros: k is only covered at the zero bucket, so the
  // threshold is 0, the gather returns everything and the trim keeps the
  // nonzero plus three zeros.
  std::vector<float> sparse(8, 0.0f);
  sparse[5] = 3.0f;
  const auto idx = c.SelectSampled(sparse, 4);
  ASSERT_EQ(idx.size(), 4u);
  EXPECT_EQ(std::count(idx.begin(), idx.end(), 5u), 1);
  EXPECT_EQ(std::set<uint32_t>(idx.begin(), idx.end()).size(), 4u);
}

TEST(Topk, HistogramSelectionPadsPastNaN) {
  // A NaN lands in the top histogram bucket but fails every comparison, so
  // the gather comes up one short and the pad tops the selection up to k.
  TopkCompressor c(0.5, TopkSelection::kSampledThreshold);
  const std::vector<float> g{std::numeric_limits<float>::quiet_NaN(), 1.0f,
                             -4.0f, 2.0f};  // k = 2
  const auto blob = c.Encode(g);
  ASSERT_EQ(blob.size(), c.EncodedBytes(g.size()));
  std::vector<float> out(g.size());
  c.Decode(blob, out);
  EXPECT_EQ(out[2], -4.0f);
  EXPECT_EQ(std::count_if(out.begin(), out.end(),
                          [](float v) { return v != 0.0f; }),
            2);
}

TEST(Topk, ThresholdPassesResetEachEncode) {
  // Regression: the pass counter is per-call state. An exact-scheme encode
  // after a sampled one must report 0, not the stale sampled count — and a
  // mixed-magnitude gradient (one huge outlier 20 decades above the rest;
  // under the old linear-scale histogram it crowded everything else into
  // the bottom bucket) must still select exactly k.
  TopkCompressor sampled(0.01, TopkSelection::kSampledThreshold);
  std::vector<float> g = RandomGrad(10000, 11);
  g[123] = 1e20f;  // outlier, alone in a top bucket
  const auto blob = sampled.Encode(g);
  EXPECT_EQ(blob.size(), sampled.EncodedBytes(g.size()));
  EXPECT_EQ(sampled.last_threshold_passes(), 2);
  std::vector<float> out(g.size());
  sampled.Decode(blob, out);
  EXPECT_EQ(out[123], 1e20f);  // the outlier always survives selection

  TopkCompressor exact(0.01, TopkSelection::kExact);
  (void)exact.Encode(g);
  EXPECT_EQ(exact.last_threshold_passes(), 0);
}

TEST(Topk, AccumulateAverages) {
  TopkCompressor c(0.5, TopkSelection::kExact);
  const std::vector<float> g{4.0f, 0.0f, -8.0f, 0.0f};
  const auto blob = c.Encode(g);
  std::vector<float> out(4, 0.0f);
  TopkCompressor::AccumulateInto(blob, out, /*num_workers=*/2);
  EXPECT_FLOAT_EQ(out[0], 2.0f);
  EXPECT_FLOAT_EQ(out[2], -4.0f);
}

TEST(Topk, KeptCountAtLeastOne) {
  TopkCompressor c(0.001);
  EXPECT_EQ(c.KeptCount(10), 1u);
  EXPECT_EQ(c.KeptCount(0), 0u);
  EXPECT_EQ(c.KeptCount(10000), 10u);
}

TEST(Topk, RejectsBadRatio) {
  EXPECT_THROW(TopkCompressor(0.0), Error);
  EXPECT_THROW(TopkCompressor(1.5), Error);
}

// -------------------------------------------------------------- Randomk ---

TEST(Randomk, RoundTripSparse) {
  RandomkCompressor c(0.2);
  const auto g = RandomGrad(50, 3);
  const auto blob = c.Encode(g);
  std::vector<float> out(g.size());
  c.Decode(blob, out);
  size_t nonzero = 0;
  for (size_t i = 0; i < g.size(); ++i) {
    if (out[i] != 0.0f) {
      EXPECT_FLOAT_EQ(out[i], g[i]);
      ++nonzero;
    }
  }
  EXPECT_EQ(nonzero, c.KeptCount(g.size()));
}

TEST(Randomk, SameSeedSameIndices) {
  RandomkCompressor a(0.1, 99), b(0.1, 99);
  const auto g = RandomGrad(200, 4);
  const auto ba = a.Encode(g);
  const auto bb = b.Encode(g);
  EXPECT_EQ(RandomkCompressor::IndicesOf(ba), RandomkCompressor::IndicesOf(bb));
}

TEST(Randomk, IndicesChangePerStep) {
  RandomkCompressor c(0.1, 5);
  const auto g = RandomGrad(200, 4);
  const auto i1 = RandomkCompressor::IndicesOf(c.Encode(g));
  const auto i2 = RandomkCompressor::IndicesOf(c.Encode(g));
  EXPECT_NE(i1, i2);
}

TEST(Randomk, IndicesDistinct) {
  RandomkCompressor c(0.5, 6);
  const auto idx = RandomkCompressor::IndicesOf(c.Encode(RandomGrad(40, 2)));
  auto sorted = idx;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

TEST(Randomk, AdditiveBlobs) {
  // The all-reduce-compatibility property: same (seed, step) blobs add.
  RandomkCompressor a(0.25, 123), b(0.25, 123);
  const auto g1 = RandomGrad(64, 7);
  const auto g2 = RandomGrad(64, 8);
  const auto b1 = a.Encode(g1);
  const auto b2 = b.Encode(g2);
  const auto sum = RandomkCompressor::Add(b1, b2);
  std::vector<float> out(64), o1(64), o2(64);
  a.Decode(sum, out);
  a.Decode(b1, o1);
  a.Decode(b2, o2);
  for (size_t i = 0; i < 64; ++i) EXPECT_NEAR(out[i], o1[i] + o2[i], 1e-5f);
}

TEST(Randomk, AddRejectsMismatchedHeaders) {
  RandomkCompressor a(0.25, 1), b(0.25, 2);  // different seeds
  const auto g = RandomGrad(64, 7);
  const auto b1 = a.Encode(g);
  const auto b2 = b.Encode(g);
  EXPECT_THROW((void)RandomkCompressor::Add(b1, b2), Error);
}

// ------------------------------------------------------- ErrorFeedback ----

TEST(ErrorFeedback, StartsAtZeroAndAccumulates) {
  ErrorFeedback ef;
  Tensor grad({4}, {1, 2, 3, 4});
  ef.AddInto(0, grad);  // residual zero: unchanged
  EXPECT_FLOAT_EQ(grad.at(0), 1.0f);

  Tensor recon({4}, {0.5f, 2.0f, 3.0f, 3.0f});
  ef.Update(0, grad, recon);  // residual = grad - recon
  Tensor next({4}, {1, 1, 1, 1});
  ef.AddInto(0, next);
  EXPECT_FLOAT_EQ(next.at(0), 1.5f);
  EXPECT_FLOAT_EQ(next.at(3), 2.0f);
}

TEST(ErrorFeedback, PerTensorIsolation) {
  ErrorFeedback ef;
  Tensor a({2}, {1, 1});
  Tensor zero({2});
  ef.Update(1, a, zero);  // residual(1) = a
  Tensor b({2});
  ef.AddInto(2, b);  // residual(2) is fresh zeros
  EXPECT_EQ(b.at(0), 0.0f);
  EXPECT_EQ(ef.num_tensors(), 2u);
  EXPECT_EQ(ef.total_elements(), 4);
}

TEST(ErrorFeedback, ShapeChangeThrows) {
  ErrorFeedback ef;
  (void)ef.residual(0, {2, 2});
  EXPECT_THROW((void)ef.residual(0, {4}), Error);
}

// ---------------------------------------------------- EncodeInto parity ----

// The zero-copy EncodeInto path must be byte-identical to the allocating
// Encode() wrapper for every registered compressor. Random-k advances
// internal state per encode, so the two paths run on two identically
// constructed instances.
TEST(EncodeInto, ByteIdenticalToEncodeForAllCompressors) {
  const auto grads = {RandomGrad(1, 11), RandomGrad(257, 12),
                      RandomGrad(4096, 13)};
  for (const std::string& spec : KnownCompressors()) {
    for (const auto& g : grads) {
      auto a = MakeCompressor(spec);
      auto b = MakeCompressor(spec);
      const std::vector<std::byte> via_encode = a->Encode(g);
      std::vector<std::byte> via_into(b->EncodedBytes(g.size()));
      b->EncodeInto(g, via_into);
      ASSERT_EQ(via_encode.size(), via_into.size()) << spec;
      EXPECT_TRUE(via_encode == via_into) << spec << " n=" << g.size();
      // Both blobs decode to the same vector.
      std::vector<float> da(g.size()), db(g.size());
      a->Decode(via_encode, da);
      b->Decode(via_into, db);
      EXPECT_TRUE(da == db) << spec;
    }
  }
}

TEST(EncodeInto, RejectsWronglySizedOutput) {
  SignCompressor c;
  const auto g = RandomGrad(64, 3);
  std::vector<std::byte> small(c.EncodedBytes(g.size()) - 1);
  EXPECT_THROW(c.EncodeInto(g, small), Error);
  std::vector<std::byte> big(c.EncodedBytes(g.size()) + 1);
  EXPECT_THROW(c.EncodeInto(g, big), Error);
}

TEST(Registry, RejectsMalformedParameters) {
  // A parameter must parse whole, and "name:" is a typo, not the default.
  for (const char* spec : {"topk:", "topk-sampled:", "randomk:", "topk:0.1x",
                           "randomk:abc", "sign:"})
    EXPECT_THROW((void)MakeCompressor(spec), Error) << spec;
  EXPECT_NO_THROW((void)MakeCompressor("topk-sampled:0.01"));
  EXPECT_NO_THROW((void)MakeCompressor("randomk:0.5"));
}

// Compression ratios summary (Table I row: Sign 32x, Top-k 1000x).
TEST(CompressionRatios, MatchTableI) {
  SignCompressor sign;
  TopkCompressor topk(0.001);
  const size_t n = 25600000;  // ResNet-50 scale
  EXPECT_NEAR(sign.CompressionRatio(n), 32.0, 1.0);
  // Top-k with ratio 0.001 sends (idx,val) pairs: ~500x in bytes.
  EXPECT_GT(topk.CompressionRatio(n), 400.0);
}

}  // namespace
}  // namespace acps::compress
