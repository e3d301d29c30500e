// Tests for the one-shot compressors: Sign, Top-k, Random-k, and the
// error-feedback residual.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>

#include "compress/error_feedback.h"
#include "compress/randomk.h"
#include "compress/sign.h"
#include "compress/topk.h"
#include "core/grad_reducer.h"
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

// MajorityVote takes spans over the blobs, as GradReducer passes the
// all-gathered buffer.
std::vector<float> Vote(const std::vector<std::vector<std::byte>>& blobs,
                        size_t n) {
  const std::vector<std::span<const std::byte>> spans(blobs.begin(),
                                                      blobs.end());
  std::vector<float> out(n);
  SignCompressor::MajorityVote(spans, out);
  return out;
}

TEST(Sign, MajorityVote) {
  SignCompressor c;
  // Three workers; element 0: (+,+,-) => +; element 1: (-,-,+) => -.
  std::vector<std::vector<std::byte>> blobs;
  blobs.push_back(c.Encode(std::vector<float>{1.0f, -1.0f}));
  blobs.push_back(c.Encode(std::vector<float>{1.0f, -1.0f}));
  blobs.push_back(c.Encode(std::vector<float>{-1.0f, 1.0f}));
  const auto out = Vote(blobs, 2);
  EXPECT_GT(out[0], 0.0f);
  EXPECT_LT(out[1], 0.0f);
}

TEST(Sign, MajorityVoteTieIsPositive) {
  SignCompressor c;
  std::vector<std::vector<std::byte>> blobs;
  blobs.push_back(c.Encode(std::vector<float>{1.0f}));
  blobs.push_back(c.Encode(std::vector<float>{-1.0f}));
  EXPECT_GT(Vote(blobs, 1)[0], 0.0f);
}

TEST(Sign, MajorityVoteRejectsTruncatedBlob) {
  // The header of the second blob still claims 100 elements, but its sign
  // bits stop short: the vote must refuse it instead of reading past it.
  SignCompressor c;
  std::vector<std::vector<std::byte>> blobs;
  blobs.push_back(c.Encode(RandomGrad(100, 1)));
  blobs.push_back(c.Encode(RandomGrad(100, 2)));
  blobs.back().resize(blobs.back().size() - 1);
  EXPECT_THROW((void)Vote(blobs, 100), Error);
  blobs.back().resize(c.EncodedBytes(100) + 1);  // too long: also refused
  EXPECT_THROW((void)Vote(blobs, 100), Error);
}

TEST(Sign, DecodeSizeMismatchThrows) {
  SignCompressor c;
  const auto blob = c.Encode(RandomGrad(8, 1));
  std::vector<float> out(9);
  EXPECT_THROW(c.Decode(blob, out), Error);
}

// ---------------------------------------------------------------- Topk ----

TEST(Topk, SelectsLargestMagnitudes) {
  TopkCompressor c(0.1);
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

TEST(Topk, ExactlyKRecords) {
  TopkCompressor c(0.05);
  for (size_t n : {20u, 100u, 999u}) {
    const auto g = RandomGrad(n, n * 3);
    const auto blob = c.Encode(g);
    EXPECT_EQ(blob.size(), c.EncodedBytes(n)) << n;
  }
}

TEST(Topk, DecodesExactTopkBitwise) {
  // The histogram threshold keeps every element of the buckets that cover
  // k, and the trim cuts them to the k largest magnitudes: the decoded
  // output is the scatter of exact top-k, bit for bit.
  for (const size_t n : {1u, 2u, 7u, 100u, 1000u, 4099u, 100003u}) {
    for (const double ratio : {0.001, 0.01, 0.1, 0.5}) {
      for (const uint64_t seed : {1u, 2u, 3u}) {
        const auto g = RandomGrad(n, seed * 7919 + n);
        TopkCompressor c(ratio);
        std::vector<float> got(n);
        c.Decode(c.Encode(g), got);
        std::vector<float> want(n, 0.0f);
        for (const uint32_t i : TopkCompressor::SelectExact(g, c.KeptCount(n)))
          want[i] = g[i];
        EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(float)), 0)
            << "n=" << n << " ratio=" << ratio << " seed=" << seed;
      }
    }
  }
}

TEST(Topk, HistogramSelectionTrimsTiesToK) {
  // All magnitudes tie, so they share one histogram bucket: the gather
  // returns all 8 and the trim cuts it back to exactly k.
  const std::vector<float> ties(8, 1.0f);
  const auto tied = TopkCompressor::SelectSampled(ties, 4);
  EXPECT_EQ(tied.size(), 4u);
  EXPECT_EQ(std::set<uint32_t>(tied.begin(), tied.end()).size(), 4u);
  // One nonzero among zeros: k is only covered at the zero bucket, so the
  // threshold is 0, the gather returns everything and the trim keeps the
  // nonzero plus three zeros.
  std::vector<float> sparse(8, 0.0f);
  sparse[5] = 3.0f;
  const auto idx = TopkCompressor::SelectSampled(sparse, 4);
  ASSERT_EQ(idx.size(), 4u);
  EXPECT_EQ(std::count(idx.begin(), idx.end(), 5u), 1);
  EXPECT_EQ(std::set<uint32_t>(idx.begin(), idx.end()).size(), 4u);
}

TEST(Topk, HistogramSelectionPadsPastNaN) {
  // A NaN lands in the top histogram bucket but fails every comparison, so
  // the gather comes up one short and the pad tops the selection up to k.
  TopkCompressor c(0.5);
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

TEST(Topk, OutlierSurvivesSelection) {
  // A mixed-magnitude gradient (one huge outlier 20 decades above the rest;
  // under a linear-scale histogram it would crowd everything else into the
  // bottom bucket) must still select exactly k, the outlier among them.
  TopkCompressor c(0.01);
  std::vector<float> g = RandomGrad(10000, 11);
  g[123] = 1e20f;  // outlier, alone in a top bucket
  const auto blob = c.Encode(g);
  EXPECT_EQ(blob.size(), c.EncodedBytes(g.size()));
  std::vector<float> out(g.size());
  c.Decode(blob, out);
  EXPECT_EQ(out[123], 1e20f);
}

TEST(Topk, AccumulateAverages) {
  TopkCompressor c(0.5);
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

TEST(Randomk, DecodeOfAnyStepMatchesAFreshDecoder) {
  // Decode reuses the index set of the compressor's last encode; a blob of
  // an earlier step, or one decoded by a compressor that never encoded,
  // re-derives it from the seed. All three decode alike.
  RandomkCompressor c(0.1, 5), reader(0.1, 5);
  const auto g = RandomGrad(200, 4);
  const auto old = c.Encode(g);
  std::vector<float> first(g.size()), again(g.size()), fresh(g.size());
  c.Decode(old, first);
  (void)c.Encode(g);
  c.Decode(old, again);
  reader.Decode(old, fresh);
  EXPECT_EQ(first, again);
  EXPECT_EQ(first, fresh);
}

TEST(Randomk, AdditiveBlobs) {
  // The all-reduce-compatibility property: same (seed, step) blobs add.
  // Production sums the ValuesOf payloads in place, as here.
  RandomkCompressor a(0.25, 123), b(0.25, 123);
  const auto g1 = RandomGrad(64, 7);
  const auto g2 = RandomGrad(64, 8);
  const auto b1 = a.Encode(g1);
  const auto b2 = b.Encode(g2);
  auto sum = b1;
  auto other = b2;
  const auto values = RandomkCompressor::ValuesOf(sum);
  const auto added = RandomkCompressor::ValuesOf(other);
  for (size_t j = 0; j < values.size(); ++j) values[j] += added[j];
  std::vector<float> out(64), o1(64), o2(64);
  a.Decode(sum, out);
  a.Decode(b1, o1);
  a.Decode(b2, o2);
  for (size_t i = 0; i < 64; ++i) EXPECT_NEAR(out[i], o1[i] + o2[i], 1e-5f);
}

// ------------------------------------------------------- ErrorFeedback ----

TEST(ErrorFeedback, StartsAtZeroAndAccumulates) {
  ErrorFeedback ef;
  std::vector<float> grad{1, 2, 3, 4};
  ef.AddInto(grad);  // residual zero: unchanged
  EXPECT_FLOAT_EQ(grad[0], 1.0f);

  const std::vector<float> recon{0.5f, 2.0f, 3.0f, 3.0f};
  ef.Update(grad, recon);  // residual = grad - recon
  std::vector<float> next{1, 1, 1, 1};
  ef.AddInto(next);
  EXPECT_FLOAT_EQ(next[0], 1.5f);
  EXPECT_FLOAT_EQ(next[3], 2.0f);
}

TEST(ErrorFeedback, SizeChangeThrows) {
  ErrorFeedback ef;
  EXPECT_EQ(ef.residual(4).size(), 4u);
  EXPECT_THROW((void)ef.residual(3), Error);
  std::vector<float> grad(5);
  EXPECT_THROW(ef.AddInto(grad), Error);
}

// ---------------------------------------------------- EncodeInto parity ----

// The zero-copy EncodeInto path must be byte-identical to the allocating
// Encode() wrapper for every codec. Random-k advances internal state per
// encode, so the two paths run on two identically constructed instances.
TEST(EncodeInto, ByteIdenticalToEncodeForAllCodecs) {
  const auto grads = {RandomGrad(1, 11), RandomGrad(257, 12),
                      RandomGrad(4096, 13)};
  const auto as_compressor = [](core::GradReducer::Codec& codec) {
    return std::visit([](auto& c) -> Compressor* { return &c; }, codec);
  };
  for (const char* spec : {"sign", "topk:0.001", "randomk:0.01"}) {
    for (const auto& g : grads) {
      auto codec_a = core::MakeCodec(spec);
      auto codec_b = core::MakeCodec(spec);
      Compressor* a = as_compressor(codec_a);
      Compressor* b = as_compressor(codec_b);
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
