#include "compress/randomk.h"

#include <algorithm>
#include <cmath>

#include "tensor/rng.h"

namespace acps::compress {

namespace {
constexpr size_t kHeaderBytes = 3 * sizeof(uint64_t);  // seed, k, numel

// Samples k distinct indices in [0, n) via a partial Fisher–Yates walk,
// deterministic in `seed`.
std::vector<uint32_t> SampleIndices(uint64_t seed, size_t k, size_t n) {
  ACPS_CHECK(k <= n);
  Rng rng(seed);
  std::vector<uint32_t> pool(n);
  for (size_t i = 0; i < n; ++i) pool[i] = static_cast<uint32_t>(i);
  for (size_t i = 0; i < k; ++i) {
    const size_t j = i + static_cast<size_t>(rng.next_below(n - i));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  pool.shrink_to_fit();  // a kept sample holds k entries, not n
  return pool;
}

struct Header {
  uint64_t seed, k, n;
};

Header HeaderOf(std::span<const std::byte> blob) {
  return {wire::Read<uint64_t>(blob, 0),
          wire::Read<uint64_t>(blob, sizeof(uint64_t)),
          wire::Read<uint64_t>(blob, 2 * sizeof(uint64_t))};
}

}  // namespace

RandomkCompressor::RandomkCompressor(double ratio, uint64_t seed)
    : ratio_(ratio), seed_(seed) {
  ACPS_CHECK_MSG(ratio > 0.0 && ratio <= 1.0,
                 "random-k ratio must be in (0, 1], got " << ratio);
}

size_t RandomkCompressor::KeptCount(size_t numel) const {
  if (numel == 0) return 0;
  return std::max<size_t>(
      1, static_cast<size_t>(std::llround(ratio_ * double(numel))));
}

size_t RandomkCompressor::EncodedBytes(size_t numel) const {
  return kHeaderBytes + KeptCount(numel) * sizeof(float);
}

void RandomkCompressor::EncodeInto(std::span<const float> grad,
                                   std::span<std::byte> out) {
  const size_t n = grad.size();
  const size_t k = KeptCount(n);
  ACPS_CHECK_MSG(out.size() == EncodedBytes(n), "Randomk encode size mismatch");
  const uint64_t step_seed = seed_ ^ (0x9E3779B97F4A7C15ull * (step_ + 1));
  ++step_;

  wire::Write(out, 0, step_seed);
  wire::Write(out, sizeof(uint64_t), static_cast<uint64_t>(k));
  wire::Write(out, 2 * sizeof(uint64_t), static_cast<uint64_t>(n));
  if (n == 0) return;

  indices_ = SampleIndices(step_seed, k, n);
  indices_seed_ = step_seed;
  indices_n_ = n;
  size_t off = kHeaderBytes;
  for (uint32_t i : indices_) {
    wire::Write(out, off, grad[i]);
    off += sizeof(float);
  }
}

std::vector<uint32_t> RandomkCompressor::IndicesOf(
    std::span<const std::byte> blob) {
  const Header h = HeaderOf(blob);
  if (h.n == 0) return {};
  return SampleIndices(h.seed, h.k, h.n);
}

std::span<float> RandomkCompressor::ValuesOf(std::span<std::byte> blob) {
  const auto k = wire::Read<uint64_t>(blob, sizeof(uint64_t));
  ACPS_CHECK_MSG(blob.size() == kHeaderBytes + k * sizeof(float),
                 "Random-k blob of " << blob.size() << " B cannot hold k=" << k
                                     << " values after the " << kHeaderBytes
                                     << " B header");
  return {reinterpret_cast<float*>(blob.data() + kHeaderBytes),
          static_cast<size_t>(k)};
}

void RandomkCompressor::Decode(std::span<const std::byte> blob,
                               std::span<float> out) const {
  const Header h = HeaderOf(blob);
  ACPS_CHECK_MSG(out.size() == h.n, "Randomk decode size mismatch");
  std::fill(out.begin(), out.end(), 0.0f);
  if (h.n == 0) return;
  // The index set is a pure function of the header: a blob of the step
  // this compressor last encoded reuses that step's sample.
  std::vector<uint32_t> sampled;
  const bool last_step = h.seed == indices_seed_ && h.k == indices_.size() &&
                         h.n == indices_n_;
  if (!last_step) sampled = IndicesOf(blob);
  const std::vector<uint32_t>& idx = last_step ? indices_ : sampled;
  for (size_t j = 0; j < h.k; ++j) {
    out[idx[j]] =
        wire::Read<float>(blob, kHeaderBytes + j * sizeof(float));
  }
}

}  // namespace acps::compress
