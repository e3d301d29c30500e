#include "compress/sign.h"

#include <algorithm>
#include <cmath>

#include "par/accum_policy.h"
#include "par/kernel_stats.h"
#include "par/parallel.h"

namespace acps::compress {

namespace {
constexpr size_t kHeaderBytes = sizeof(float) + sizeof(uint64_t);
}

void SignCompressor::EncodeInto(std::span<const float> grad,
                                std::span<std::byte> out) {
  const size_t n = grad.size();
  ACPS_CHECK_MSG(out.size() == EncodedBytes(n), "Sign encode size mismatch");
  par::KernelTimer timer("sign_encode", static_cast<uint64_t>(n));

  // Deterministic fixed-chunk tree (par/parallel.h): same scale for every
  // thread count.
  const double abs_sum = par::ParallelReduce(
      int64_t{1} << 15, static_cast<int64_t>(n), 0.0,
      [&](int64_t begin, int64_t end) {
        double acc = 0.0;
        for (int64_t i = begin; i < end; ++i)
          acc += std::abs(grad[static_cast<size_t>(i)]);
        return acc;
      },
      [](double x, double y) { return x + y; });
  const float scale = n > 0 ? static_cast<float>(abs_sum / double(n)) : 0.0f;

  wire::Write(out, 0, scale);
  wire::Write(out, sizeof(float), static_cast<uint64_t>(n));

  std::byte* bits = out.data() + kHeaderBytes;
  // Block boundaries aligned to 8 elements: each block owns whole bytes, so
  // blocks zero and set their bytes without sharing.
  par::ParallelForBlocks(
      par::kDefaultGrain, static_cast<int64_t>(n), /*align=*/8,
      [&](int64_t, int64_t begin, int64_t end) {
        std::byte* first = bits + begin / 8;
        std::byte* last = bits + (end + 7) / 8;
        std::fill(first, last, std::byte{0});
        for (int64_t i = begin; i < end; ++i) {
          if (grad[static_cast<size_t>(i)] < 0.0f)  // sign(0) = +1 convention
            bits[i / 8] |= static_cast<std::byte>(1u << (i % 8));
        }
      });
}

void SignCompressor::Decode(std::span<const std::byte> blob,
                            std::span<float> out) const {
  const auto scale = wire::Read<float>(blob, 0);
  const auto n = wire::Read<uint64_t>(blob, sizeof(float));
  ACPS_CHECK_MSG(out.size() == n, "Sign decode size mismatch");
  ACPS_CHECK(blob.size() == kHeaderBytes + (n + 7) / 8);
  par::KernelTimer timer("sign_decode", n);
  const std::byte* bits = blob.data() + kHeaderBytes;
  par::ParallelFor(par::kDefaultGrain, static_cast<int64_t>(n),
                   [&](int64_t begin, int64_t end) {
                     for (int64_t i = begin; i < end; ++i) {
                       const bool neg =
                           (bits[i / 8] &
                            static_cast<std::byte>(1u << (i % 8))) !=
                           std::byte{0};
                       out[static_cast<size_t>(i)] = neg ? -scale : scale;
                     }
                   });
}

void SignCompressor::MajorityVote(
    std::span<const std::span<const std::byte>> blobs, std::span<float> out) {
  ACPS_CHECK_MSG(!blobs.empty(), "MajorityVote needs at least one blob");
  const auto n = wire::Read<uint64_t>(blobs[0], sizeof(float));
  ACPS_CHECK_MSG(out.size() == n, "MajorityVote size mismatch");
  par::KernelTimer timer("sign_vote", n * blobs.size());

  // Scales fold in ascending rank order (blobs arrive rank-indexed), the
  // same order on every voter.
  ACPS_ACCUM_POLICY(rank_order);
  double scale_sum = 0.0;
  for (const auto& b : blobs) {
    ACPS_CHECK_MSG(wire::Read<uint64_t>(b, sizeof(float)) == n,
                   "MajorityVote blobs disagree on element count");
    ACPS_CHECK_MSG(b.size() == kHeaderBytes + (n + 7) / 8,
                   "MajorityVote blob of " << b.size() << " B cannot hold "
                                           << n << " sign bits");
    scale_sum += wire::Read<float>(b, 0);
  }
  const float scale = static_cast<float>(scale_sum / double(blobs.size()));

  par::ParallelFor(
      par::kDefaultGrain, static_cast<int64_t>(n),
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          int vote = 0;
          for (const auto& b : blobs) {
            const std::byte* bits = b.data() + kHeaderBytes;
            const bool neg =
                (bits[i / 8] & static_cast<std::byte>(1u << (i % 8))) !=
                std::byte{0};
            vote += neg ? -1 : 1;
          }
          out[static_cast<size_t>(i)] = (vote >= 0) ? scale : -scale;  // tie => +1
        }
      });
}

}  // namespace acps::compress
