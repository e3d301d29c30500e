#include "compress/topk.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>

#include "par/kernel_stats.h"
#include "par/parallel.h"

namespace acps::compress {

namespace {
constexpr size_t kHeaderBytes = 2 * sizeof(uint64_t);
constexpr size_t kRecordBytes = sizeof(uint32_t) + sizeof(float);

// Histogram resolution for the threshold selection. Magnitudes are
// bucketed directly by IEEE-754 bit pattern: for non-negative floats the bit
// pattern is monotone in the value, so `(bits & 0x7FFFFFFF) >> kBucketShift`
// — the exponent plus the top 4 mantissa bits — is a magnitude-ordered
// 4096-bucket histogram that needs no prior max/range pass and no float math
// in the counting loop. A bucket spans ~6% of relative magnitude, so the
// trim nth_element after the gather touches a small overflow set.
constexpr size_t kHistBuckets = 4096;
constexpr int kBucketShift = 19;
static_assert((0x7FFFFFFFu >> kBucketShift) == kHistBuckets - 1,
              "bucket shift must map the finite |float| range onto the "
              "histogram exactly");

// Ascending-index gather of elements with |g_i| >= threshold. Per-block
// gathers concatenated in block order reproduce the serial ascending order
// for any partition, so the selection is thread-count invariant.
std::vector<uint32_t> GatherAtLeast(std::span<const float> grad,
                                    float threshold) {
  const int64_t n = static_cast<int64_t>(grad.size());
  const int64_t nblocks = par::NumForBlocks(par::kDefaultGrain, n);
  std::vector<std::vector<uint32_t>> locals(
      static_cast<size_t>(std::max<int64_t>(nblocks, 1)));
  par::ParallelForBlocks(par::kDefaultGrain, n, /*align=*/1,
                         [&](int64_t b, int64_t begin, int64_t end) {
                           auto& local = locals[static_cast<size_t>(b)];
                           for (int64_t i = begin; i < end; ++i)
                             if (std::abs(grad[static_cast<size_t>(i)]) >=
                                 threshold)
                               local.push_back(static_cast<uint32_t>(i));
                         });
  std::vector<uint32_t> idx;
  for (const auto& local : locals) idx.insert(idx.end(), local.begin(), local.end());
  return idx;
}

}  // namespace

TopkCompressor::TopkCompressor(double ratio) : ratio_(ratio) {
  ACPS_CHECK_MSG(ratio > 0.0 && ratio <= 1.0,
                 "top-k ratio must be in (0, 1], got " << ratio);
}

size_t TopkCompressor::KeptCount(size_t numel) const {
  if (numel == 0) return 0;
  return std::max<size_t>(1, static_cast<size_t>(
                                 std::llround(ratio_ * double(numel))));
}

size_t TopkCompressor::EncodedBytes(size_t numel) const {
  return kHeaderBytes + KeptCount(numel) * kRecordBytes;
}

std::vector<uint32_t> TopkCompressor::SelectExact(std::span<const float> grad,
                                                  size_t k) {
  std::vector<uint32_t> idx(grad.size());
  std::iota(idx.begin(), idx.end(), 0u);
  std::nth_element(idx.begin(), idx.begin() + static_cast<ptrdiff_t>(k),
                   idx.end(), [&](uint32_t a, uint32_t b) {
                     return std::abs(grad[a]) > std::abs(grad[b]);
                   });
  idx.resize(k);
  return idx;
}

std::vector<uint32_t> TopkCompressor::SelectSampled(
    std::span<const float> grad, size_t k) {
  // Histogram-assisted threshold selection, two passes total:
  //   1. histogram pass — every |g_i| bucketed by bit pattern (see
  //                       kBucketShift above): pure integer ops, no prior
  //                       max/range pass, and integer counts make the
  //                       cross-chunk merge exact and order-independent
  //   2. gather pass    — indices with |g| >= threshold
  // versus ~25 counting passes for a binary search over the threshold and 3
  // passes for a max-then-linear-scale histogram.
  par::KernelTimer timer("topk_select", 0);
  const size_t n = grad.size();
  const int64_t n64 = static_cast<int64_t>(n);

  // Per-block integer histograms; summing them is exact in any order.
  const int64_t nblocks = par::NumForBlocks(par::kDefaultGrain, n64);
  std::vector<std::vector<uint32_t>> locals(
      static_cast<size_t>(std::max<int64_t>(nblocks, 1)));
  par::ParallelForBlocks(
      par::kDefaultGrain, n64, /*align=*/1,
      [&](int64_t b, int64_t begin, int64_t end) {
        auto& hist = locals[static_cast<size_t>(b)];
        hist.assign(kHistBuckets, 0);
        for (int64_t i = begin; i < end; ++i) {
          uint32_t bits;
          std::memcpy(&bits, &grad[static_cast<size_t>(i)], sizeof(bits));
          ++hist[(bits & 0x7FFFFFFFu) >> kBucketShift];
        }
      });
  std::vector<uint64_t> hist(kHistBuckets, 0);
  for (const auto& local : locals)
    for (size_t bkt = 0; bkt < local.size(); ++bkt) hist[bkt] += local[bkt];

  // Walk buckets from the top until at least k elements are covered; the
  // threshold is that bucket's lower edge (its bit pattern reconstructed by
  // undoing the shift), so the gather returns every covered element
  // (possibly a few more from edge ties — trimmed below). NaN/Inf magnitudes
  // land in the topmost buckets; the gather's `>=` comparison excludes NaN,
  // and the pad path below tops the selection back up to k.
  uint64_t covered = 0;
  uint32_t cut = 0;
  for (size_t bkt = kHistBuckets; bkt-- > 0;) {
    covered += hist[bkt];
    if (covered >= k) {
      cut = static_cast<uint32_t>(bkt);
      break;
    }
  }
  float threshold = 0.0f;
  const uint32_t cut_bits = cut << kBucketShift;
  std::memcpy(&threshold, &cut_bits, sizeof(threshold));

  std::vector<uint32_t> idx = GatherAtLeast(grad, threshold);

  if (idx.size() > k) {
    std::nth_element(idx.begin(), idx.begin() + static_cast<ptrdiff_t>(k),
                     idx.end(), [&](uint32_t a, uint32_t b) {
                       return std::abs(grad[a]) > std::abs(grad[b]);
                     });
    idx.resize(k);
  } else if (idx.size() < k) {
    // Can only happen via NaN magnitudes (excluded by every comparison):
    // fill up from the complement so the encoded size stays fixed.
    std::vector<uint32_t> rest;
    rest.reserve(n - idx.size());
    for (uint32_t i = 0; i < n; ++i)
      if (!(std::abs(grad[i]) >= threshold)) rest.push_back(i);
    const size_t need = k - idx.size();
    std::nth_element(rest.begin(), rest.begin() + static_cast<ptrdiff_t>(need),
                     rest.end(), [&](uint32_t a, uint32_t b) {
                       return std::abs(grad[a]) > std::abs(grad[b]);
                     });
    idx.insert(idx.end(), rest.begin(),
               rest.begin() + static_cast<ptrdiff_t>(need));
  }
  return idx;
}

void TopkCompressor::EncodeInto(std::span<const float> grad,
                                std::span<std::byte> out) {
  const size_t n = grad.size();
  const size_t k = KeptCount(n);
  ACPS_CHECK_MSG(out.size() == EncodedBytes(n), "Topk encode size mismatch");
  wire::Write(out, 0, static_cast<uint64_t>(k));
  wire::Write(out, sizeof(uint64_t), static_cast<uint64_t>(n));
  if (n == 0) return;

  const std::vector<uint32_t> idx = SelectSampled(grad, k);
  ACPS_CHECK(idx.size() == k);
  size_t off = kHeaderBytes;
  for (uint32_t i : idx) {
    wire::Write(out, off, i);
    wire::Write(out, off + sizeof(uint32_t), grad[i]);
    off += kRecordBytes;
  }
}

void TopkCompressor::Decode(std::span<const std::byte> blob,
                            std::span<float> out) const {
  const auto n = wire::Read<uint64_t>(blob, sizeof(uint64_t));
  ACPS_CHECK_MSG(out.size() == n, "Topk decode size mismatch");
  std::fill(out.begin(), out.end(), 0.0f);
  AccumulateInto(blob, out, /*num_workers=*/1);
}

void TopkCompressor::AccumulateInto(std::span<const std::byte> blob,
                                    std::span<float> out, int num_workers) {
  ACPS_CHECK(num_workers >= 1);
  const auto k = wire::Read<uint64_t>(blob, 0);
  const auto n = wire::Read<uint64_t>(blob, sizeof(uint64_t));
  ACPS_CHECK_MSG(out.size() == n, "Topk accumulate size mismatch");
  ACPS_CHECK(blob.size() == kHeaderBytes + k * kRecordBytes);
  const float inv = 1.0f / static_cast<float>(num_workers);
  size_t off = kHeaderBytes;
  for (uint64_t j = 0; j < k; ++j) {
    const auto i = wire::Read<uint32_t>(blob, off);
    const auto v = wire::Read<float>(blob, off + sizeof(uint32_t));
    ACPS_CHECK_MSG(i < n, "Topk index out of range");
    out[i] += v * inv;
    off += kRecordBytes;
  }
}

}  // namespace acps::compress
