#include "core/aggregators.h"

#include <algorithm>

#include "core/grad_reducer.h"
#include "par/parallel.h"
#include "tensor/matrix_ops.h"

namespace acps::core {
namespace {

// Params in gradient-ready (reverse) order.
std::vector<dnn::Param*> ReverseOrder(const std::vector<dnn::Param*>& params) {
  return {params.rbegin(), params.rend()};
}

// Flattens all gradients into one tensor (reverse order) — the "packed"
// layout Sign/Top-k use (§III-A).
Tensor PackGrads(const std::vector<dnn::Param*>& rev) {
  int64_t total = 0;
  for (auto* p : rev) total += p->grad.numel();
  Tensor flat({total});
  auto dst = flat.data();
  int64_t off = 0;
  for (auto* p : rev) {
    const auto src = p->grad.data();
    par::ParallelFor(par::kDefaultGrain, p->grad.numel(),
                     [&](int64_t begin, int64_t end) {
                       std::copy(src.begin() + begin, src.begin() + end,
                                 dst.begin() + off + begin);
                     });
    off += p->grad.numel();
  }
  return flat;
}

void UnpackGrads(const Tensor& flat, const std::vector<dnn::Param*>& rev) {
  const auto src = flat.data();
  int64_t off = 0;
  for (auto* p : rev) {
    auto dst = p->grad.data();
    par::ParallelFor(par::kDefaultGrain, p->grad.numel(),
                     [&](int64_t begin, int64_t end) {
                       std::copy(src.begin() + off + begin,
                                 src.begin() + off + end, dst.begin() + begin);
                     });
    off += p->grad.numel();
  }
  ACPS_CHECK(off == flat.numel());
}

}  // namespace

// ---------------------------------------------------------------------------

void SignAggregator::Aggregate(const std::vector<dnn::Param*>& params,
                               comm::Communicator& comm) {
  const auto rev = ReverseOrder(params);
  Tensor flat = PackGrads(rev);
  if (error_feedback_) ef_.AddInto(/*tensor_id=*/0, flat);

  encode_scratch_.resize(
      compressor_.EncodedBytes(static_cast<size_t>(flat.numel())));
  const std::span<std::byte> blob(encode_scratch_);
  compressor_.EncodeInto(flat.data(), blob);
  gather_scratch_.resize(blob.size() * static_cast<size_t>(comm.world_size()));
  const std::span<std::byte> gathered(gather_scratch_);
  ACPS_CHECK_MSG(gathered.size() ==
                     blob.size() * static_cast<size_t>(comm.world_size()),
                 "Sign gather scratch under-sized: " << gathered.size()
                     << " B for " << comm.world_size() << " blobs of "
                     << blob.size() << " B");
  comm.all_gather_bytes(blob, gathered);

  // Majority vote over the per-worker blobs. Crashed ranks' blocks are
  // zero-filled by the degraded all-gather; skip them so the vote is over
  // actual contributions only.
  std::vector<std::vector<std::byte>> blobs;
  blobs.reserve(static_cast<size_t>(comm.alive_world_size()));
  for (int r = 0; r < comm.world_size(); ++r) {
    if (!comm.is_alive(r)) continue;
    blobs.emplace_back(gathered.begin() + static_cast<ptrdiff_t>(
                                              blob.size() * static_cast<size_t>(r)),
                       gathered.begin() + static_cast<ptrdiff_t>(
                                              blob.size() *
                                              static_cast<size_t>(r + 1)));
  }
  Tensor voted({flat.numel()});
  compress::SignCompressor::MajorityVote(blobs, voted.data());

  if (error_feedback_) {
    // Residual against the *locally* compressed gradient, the standard
    // EF-SignSGD formulation.
    Tensor local({flat.numel()});
    compressor_.Decode(blob, local.data());
    ef_.Update(0, flat, local);
  }
  UnpackGrads(voted, rev);
}

// ---------------------------------------------------------------------------

void TopkAggregator::Aggregate(const std::vector<dnn::Param*>& params,
                               comm::Communicator& comm) {
  const auto rev = ReverseOrder(params);
  Tensor flat = PackGrads(rev);
  if (error_feedback_) ef_.AddInto(0, flat);

  encode_scratch_.resize(
      compressor_.EncodedBytes(static_cast<size_t>(flat.numel())));
  const std::span<std::byte> blob(encode_scratch_);
  compressor_.EncodeInto(flat.data(), blob);
  gather_scratch_.resize(blob.size() * static_cast<size_t>(comm.world_size()));
  const std::span<std::byte> gathered(gather_scratch_);
  comm.all_gather_bytes(blob, gathered);

  if (error_feedback_) {
    Tensor local({flat.numel()});
    compressor_.Decode(blob, local.data());
    ef_.Update(0, flat, local);
  }

  Tensor merged({flat.numel()});
  merged.zero();
  for (int r = 0; r < comm.world_size(); ++r) {
    if (!comm.is_alive(r)) continue;  // crashed ranks gathered as zeros
    ACPS_CHECK_MSG(blob.size() * static_cast<size_t>(r + 1) <=
                       gathered.size(),
                   "Top-k gather scratch under-sized: worker " << r
                       << "'s blob ends past " << gathered.size() << " B");
    const std::span<const std::byte> wblob(
        gathered.data() + blob.size() * static_cast<size_t>(r), blob.size());
    compress::TopkCompressor::AccumulateInto(wblob, merged.data(),
                                             comm.alive_world_size());
  }
  UnpackGrads(merged, rev);
}

// ---------------------------------------------------------------------------

void RandomkAggregator::Aggregate(const std::vector<dnn::Param*>& params,
                                  comm::Communicator& comm) {
  const auto rev = ReverseOrder(params);
  Tensor flat = PackGrads(rev);
  if (error_feedback_) ef_.AddInto(0, flat);

  // All workers share the compressor seed and step counter, so this blob's
  // coordinate set is identical everywhere: the VALUE payload is additive
  // and rides a plain ring all-reduce — no all-gather needed.
  encode_scratch_.resize(
      compressor_.EncodedBytes(static_cast<size_t>(flat.numel())));
  const std::span<std::byte> blob(encode_scratch_);
  compressor_.EncodeInto(flat.data(), blob);
  const auto indices = compress::RandomkCompressor::IndicesOf(blob);
  constexpr size_t kHeader = 3 * sizeof(uint64_t);  // seed, k, numel
  // The value payload is aliased in place inside the encode scratch and
  // handed straight to the ring all-reduce; an under-sized blob would let
  // the reduction scribble past the buffer instead of failing loudly.
  ACPS_CHECK_MSG(kHeader + indices.size() * sizeof(float) <= blob.size(),
                 "Random-k blob under-sized: " << blob.size()
                     << " B cannot hold k=" << indices.size()
                     << " values after the " << kHeader << " B header");
  auto values = std::span<float>(
      reinterpret_cast<float*>(blob.data() + kHeader), indices.size());
  comm.all_reduce(values);
  Scal(1.0f / static_cast<float>(comm.alive_world_size()), values);

  if (error_feedback_) {
    // Residual against the locally kept coordinates (standard EF).
    Tensor local({flat.numel()});
    local.zero();
    for (size_t j = 0; j < indices.size(); ++j)
      local.at(indices[j]) = flat.at(indices[j]);
    ef_.Update(0, flat, local);
  }

  Tensor merged({flat.numel()});
  compressor_.Decode(blob, merged.data());
  UnpackGrads(merged, rev);
}

// ---------------------------------------------------------------------------

AggregatorFactory MakeAggregatorFactory(const std::string& spec,
                                        int64_t buffer_bytes) {
  ACPS_CHECK_MSG(buffer_bytes >= 0,
                 "buffer_bytes must be >= 0 (0 = default), got "
                     << buffer_bytes);
  const int64_t bytes =
      buffer_bytes == 0 ? fusion::kDefaultBufferBytes : buffer_bytes;

  // Split "name[:param]"; an empty param after ':' is rejected below by the
  // per-method parser.
  const size_t colon = spec.find(':');
  const std::string name = spec.substr(0, colon);
  const std::string param =
      colon == std::string::npos ? "" : spec.substr(colon + 1);
  const auto int_param = [&](int64_t fallback) -> int64_t {
    if (param.empty()) return fallback;
    size_t used = 0;
    int64_t v = 0;
    try {
      v = std::stoll(param, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    ACPS_CHECK_MSG(used == param.size() && v >= 1,
                   "bad parameter in compressor spec '" << spec
                       << "': want a positive integer, got '" << param << "'");
    return v;
  };
  const auto ratio_param = [&](double fallback) -> double {
    if (param.empty()) return fallback;
    size_t used = 0;
    double v = 0;
    try {
      v = std::stod(param, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    ACPS_CHECK_MSG(used == param.size() && v > 0.0 && v <= 1.0,
                   "bad parameter in compressor spec '" << spec
                       << "': want a ratio in (0, 1], got '" << param << "'");
    return v;
  };

  if (name == "ssgd") {
    ACPS_CHECK_MSG(param.empty(),
                   "compressor spec 'ssgd' takes no parameter, got '" << spec
                                                                      << "'");
    return [bytes](int, int) { return std::make_unique<GradReducer>(bytes); };
  }
  if (name == "acpsgd") {
    const int64_t rank = int_param(4);
    return [rank, bytes](int, int) {
      compress::AcpSgdConfig cfg;
      cfg.rank = rank;
      return std::make_unique<GradReducer>(cfg, bytes);
    };
  }
  if (name == "powersgd") {
    const int64_t rank = int_param(4);
    return [rank, bytes](int, int) {
      compress::PowerSgdConfig cfg;
      cfg.rank = rank;
      return std::make_unique<GradReducer>(cfg, bytes);
    };
  }
  if (name == "sign") {
    ACPS_CHECK_MSG(param.empty(),
                   "compressor spec 'sign' takes no parameter, got '" << spec
                                                                      << "'");
    return [](int, int) { return std::make_unique<SignAggregator>(); };
  }
  if (name == "topk") {
    const double ratio = ratio_param(0.001);
    return [ratio](int, int) {
      return std::make_unique<TopkAggregator>(ratio);
    };
  }
  if (name == "randomk") {
    const double ratio = ratio_param(0.01);
    return [ratio](int, int) {
      return std::make_unique<RandomkAggregator>(ratio);
    };
  }
  ACPS_FAIL_MSG("unknown compressor spec '"
                << spec
                << "' (want ssgd | acpsgd[:rank] | powersgd[:rank] | sign | "
                   "topk[:ratio] | randomk[:ratio])");
}

}  // namespace acps::core
