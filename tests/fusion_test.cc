#include <gtest/gtest.h>

#include "fusion/bucket_assigner.h"
#include "fusion/fusion_buffer.h"
#include "tensor/check.h"

namespace acps::fusion {
namespace {

TEST(AssignBuckets, GreedyInOrder) {
  const std::vector<int64_t> sizes{10, 10, 10, 10, 10};
  const auto buckets = AssignBuckets(sizes, 25);
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(buckets[1], (std::vector<int>{2, 3}));
  EXPECT_EQ(buckets[2], (std::vector<int>{4}));
}

TEST(AssignBuckets, ZeroBudgetDisablesFusion) {
  const std::vector<int64_t> sizes{5, 5, 5};
  const auto buckets = AssignBuckets(sizes, 0);
  ASSERT_EQ(buckets.size(), 3u);
  for (size_t i = 0; i < 3; ++i)
    EXPECT_EQ(buckets[i], std::vector<int>{static_cast<int>(i)});
}

TEST(AssignBuckets, HugeBudgetSingleBucket) {
  const std::vector<int64_t> sizes{100, 200, 300};
  const auto buckets = AssignBuckets(sizes, 1 << 30);
  ASSERT_EQ(buckets.size(), 1u);
  EXPECT_EQ(buckets[0].size(), 3u);
}

TEST(AssignBuckets, OversizedTensorGetsOwnBucket) {
  const std::vector<int64_t> sizes{5, 100, 5};
  const auto buckets = AssignBuckets(sizes, 20);
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[1], std::vector<int>{1});
}

TEST(AssignBuckets, EveryTensorExactlyOnce) {
  const std::vector<int64_t> sizes{3, 9, 27, 81, 1, 1, 1, 243, 9};
  const auto buckets = AssignBuckets(sizes, 50);
  std::vector<int> seen(sizes.size(), 0);
  int prev_last = -1;
  for (const auto& b : buckets) {
    for (int i : b) {
      ++seen[static_cast<size_t>(i)];
      EXPECT_GT(i, prev_last);  // order preserved
      prev_last = i;
    }
  }
  for (int s : seen) EXPECT_EQ(s, 1);
}

TEST(AssignBuckets, EmptyInput) {
  EXPECT_TRUE(AssignBuckets({}, 100).empty());
}

TEST(AssignBuckets, NegativeSizeThrows) {
  EXPECT_THROW((void)AssignBuckets({-1}, 10), Error);
}

TEST(ScaledBufferBytes, PaperExample) {
  // ResNet-50 with rank 4: P compresses ~0.64% of the gradient bytes,
  // 25MB * 0.0064 ≈ 0.16MB (§IV-B).
  const int64_t grad_bytes = 97LL * 1024 * 1024;  // ~97.5MB
  const int64_t p_bytes = static_cast<int64_t>(0.0064 * grad_bytes);
  const int64_t scaled =
      ScaledBufferBytes(kDefaultBufferBytes, p_bytes, grad_bytes);
  EXPECT_NEAR(static_cast<double>(scaled), 0.0064 * kDefaultBufferBytes,
              2048.0);
}

TEST(ScaledBufferBytes, EdgeCases) {
  EXPECT_EQ(ScaledBufferBytes(0, 10, 100), 0);          // fusion disabled
  EXPECT_GE(ScaledBufferBytes(100, 0, 100), 1);         // floor at 1 byte
  EXPECT_EQ(ScaledBufferBytes(100, 100, 100), 100);     // rate 1
  EXPECT_EQ(ScaledBufferBytes(1000, 0, 0), 1000);       // no gradients
  EXPECT_THROW((void)ScaledBufferBytes(-1, 0, 0), Error);
}

TEST(ScaledBufferBytes, KeepsBucketCountComparable) {
  // The paper's rationale: scaling the budget by the compression rate keeps
  // the number of buckets roughly equal before/after compression.
  const std::vector<int64_t> grad_sizes(100, 1 << 20);  // 100 x 1MB
  const std::vector<int64_t> factor_sizes(100, 1 << 12);  // 100 x 4KB
  int64_t grads = 0, factors = 0;
  for (size_t i = 0; i < 100; ++i) {
    grads += grad_sizes[i];
    factors += factor_sizes[i];
  }
  const auto grad_buckets = AssignBuckets(grad_sizes, kDefaultBufferBytes);
  const auto factor_buckets = AssignBuckets(
      factor_sizes, ScaledBufferBytes(kDefaultBufferBytes, factors, grads));
  EXPECT_EQ(grad_buckets.size(), factor_buckets.size());
}

TEST(BucketBytes, Sums) {
  const std::vector<int64_t> sizes{1, 2, 4, 8};
  EXPECT_EQ(BucketBytes({0, 2}, sizes), 5);
  EXPECT_EQ(BucketBytes({}, sizes), 0);
}

TEST(FusionBuffer, PackUnpackRoundTrip) {
  FusionBuffer buf;
  const int s0 = buf.AddSlot(3);
  const int s1 = buf.AddSlot(2);
  EXPECT_EQ(buf.total_elements(), 5);
  const std::vector<float> a{1, 2, 3}, b{4, 5};
  buf.Pack(s0, a);
  buf.Pack(s1, b);
  const auto flat = buf.flat();
  EXPECT_EQ(flat[0], 1.0f);
  EXPECT_EQ(flat[4], 5.0f);
  std::vector<float> out(3);
  buf.Unpack(s0, out);
  EXPECT_EQ(out, a);
}

TEST(FusionBuffer, CollectiveInPlace) {
  // Mutating flat() is visible on Unpack — the all-reduce use case.
  FusionBuffer buf;
  const int s = buf.AddSlot(2);
  buf.Pack(s, std::vector<float>{1, 2});
  for (float& v : buf.flat()) v *= 10.0f;
  std::vector<float> out(2);
  buf.Unpack(s, out);
  EXPECT_EQ(out, (std::vector<float>{10, 20}));
}

TEST(FusionBuffer, Errors) {
  FusionBuffer buf;
  const int s = buf.AddSlot(2);
  EXPECT_THROW(buf.Pack(s, std::vector<float>{1.0f}), Error);  // wrong size
  EXPECT_THROW(buf.Pack(7, std::vector<float>{1, 2}), Error);  // bad slot
  buf.Pack(s, std::vector<float>{1, 2});
  EXPECT_THROW((void)buf.AddSlot(1), Error);  // AddSlot after Pack
  EXPECT_THROW((void)buf.AddSlot(-1), Error);
}

TEST(FusionBuffer, ResetAllowsReuse) {
  FusionBuffer buf;
  (void)buf.AddSlot(4);
  buf.Pack(0, std::vector<float>(4, 1.0f));
  buf.Reset();
  EXPECT_EQ(buf.total_elements(), 0);
  const int s = buf.AddSlot(2);
  buf.Pack(s, std::vector<float>{7, 8});
  std::vector<float> out(2);
  buf.Unpack(s, out);
  EXPECT_EQ(out[1], 8.0f);
}

// Reset keeps the storage, so a smaller layout packed after a larger one
// must still see exactly its own elements through flat() and Unpack, and
// still refuse AddSlot once packed.
TEST(FusionBuffer, ResetToSmallerLayoutRoundTrips) {
  FusionBuffer buf;
  (void)buf.AddSlot(6);
  buf.Pack(0, std::vector<float>(6, 9.0f));
  buf.Reset();
  const int s0 = buf.AddSlot(1);
  const int s1 = buf.AddSlot(2);
  buf.Pack(s0, std::vector<float>{1});
  buf.Pack(s1, std::vector<float>{2, 3});
  const auto flat = buf.flat();
  EXPECT_EQ(std::vector<float>(flat.begin(), flat.end()),
            (std::vector<float>{1, 2, 3}));
  for (float& v : buf.flat()) v *= 2.0f;
  std::vector<float> out(2);
  buf.Unpack(s1, out);
  EXPECT_EQ(out, (std::vector<float>{4, 6}));
  EXPECT_THROW((void)buf.AddSlot(1), Error);
}

}  // namespace
}  // namespace acps::fusion
