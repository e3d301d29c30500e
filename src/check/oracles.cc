#include "check/oracles.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <sstream>

#include "comm/communicator.h"
#include "compress/error_feedback.h"
#include "compress/sign.h"
#include "compress/topk.h"
#include "core/grad_reducer.h"
#include "par/thread_pool.h"
#include "tensor/matrix_ops.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace acps::check {
namespace {

// Deterministic per-(seed, shape, rank, step) gradient data.
std::vector<float> GradData(uint64_t seed, int64_t numel, int rank, int step) {
  Rng rng(seed + static_cast<uint64_t>(numel) * 1000003ull +
          static_cast<uint64_t>(rank) * 7919ull +
          static_cast<uint64_t>(step) * 104729ull);
  std::vector<float> g(static_cast<size_t>(numel));
  for (float& v : g) v = rng.normal();
  return g;
}

float MaxAbs(std::span<const float> v) {
  float m = 0.0f;
  for (float x : v) m = std::max(m, std::abs(x));
  return m;
}

// `spec`'s codec, driven through the compressor interface.
struct OracleCodec {
  core::GradReducer::Codec codec;

  explicit OracleCodec(const std::string& spec) : codec(core::MakeCodec(spec)) {}
  compress::Compressor* operator->() {
    return std::visit([](auto& c) -> compress::Compressor* { return &c; },
                      codec);
  }
};

std::string BaseName(const std::string& spec) {
  const size_t colon = spec.find(':');
  return colon == std::string::npos ? spec : spec.substr(0, colon);
}

void AddFailure(OracleReport& report, const std::string& spec,
                const std::string& property, int64_t numel, uint64_t seed,
                std::string detail) {
  report.failures.push_back(
      OracleFailure{spec, property, numel, seed, std::move(detail)});
}

// --- Oracle 1: EncodeInto writes exactly what Encode returns. --------------
void CheckEncodeIntoParity(const std::string& spec, int64_t numel,
                           const OracleOptions& opt, OracleReport& report) {
  // Two fresh instances: stateful encoders (RNG streams, step counters)
  // advance per call, so comparing two encodes of ONE instance would test
  // the wrong thing.
  OracleCodec via_encode(spec);
  OracleCodec via_into(spec);
  const auto g = GradData(opt.seed, numel, /*rank=*/0, /*step=*/0);
  const auto blob = via_encode->Encode(g);
  std::vector<std::byte> into(via_into->EncodedBytes(g.size()));
  via_into->EncodeInto(g, into);
  ++report.checks_run;
  if (blob != into) {
    size_t i = 0;
    while (i < blob.size() && i < into.size() && blob[i] == into[i]) ++i;
    AddFailure(report, spec, "encode-into-parity", numel, opt.seed,
               "Encode and EncodeInto blobs differ at byte " +
                   std::to_string(i) + " (sizes " + std::to_string(blob.size()) +
                   " / " + std::to_string(into.size()) + ")");
  }
}

// --- Oracle 2: Decode is a pure function of the blob. ----------------------
void CheckDecodeDeterminism(const std::string& spec, int64_t numel,
                            const OracleOptions& opt, OracleReport& report) {
  OracleCodec encoder(spec);
  const auto g = GradData(opt.seed, numel, 0, 1);
  const auto blob = encoder->Encode(g);
  std::vector<float> d1(g.size());
  std::vector<float> d2(g.size());
  std::vector<float> d3(g.size());
  encoder->Decode(blob, d1);
  encoder->Decode(blob, d2);
  OracleCodec(spec)->Decode(blob, d3);
  ++report.checks_run;
  if (std::memcmp(d1.data(), d2.data(), d1.size() * sizeof(float)) != 0 ||
      std::memcmp(d1.data(), d3.data(), d1.size() * sizeof(float)) != 0) {
    AddFailure(report, spec, "decode-determinism", numel, opt.seed,
               "two decodes of the same blob produced different bits");
  }
}

// --- Oracle 3: EF residual + decoded gradient conserves the input. ---------
void CheckEfConservation(const std::string& spec, int64_t numel,
                         const OracleOptions& opt, OracleReport& report) {
  OracleCodec compressor(spec);
  compress::ErrorFeedback ef;
  const auto n = static_cast<size_t>(numel);
  const double tol = EfTolerance(spec);
  std::vector<float> recon(n);
  for (int step = 0; step < 3; ++step) {
    std::vector<float> grad = GradData(opt.seed, numel, 0, step);
    ef.AddInto(grad);  // grad is now the compressor input
    const auto blob = compressor->Encode(grad);
    compressor->Decode(blob, recon);
    ef.Update(grad, recon);
    const std::span<const float> residual = ef.residual(n);
    const float scale = 1.0f + MaxAbs(grad) + MaxAbs(recon);
    const double bound = tol * static_cast<double>(scale);
    ++report.checks_run;
    for (size_t i = 0; i < n; ++i) {
      const double recovered =
          static_cast<double>(residual[i]) + static_cast<double>(recon[i]);
      const double want = static_cast<double>(grad[i]);
      if (std::abs(recovered - want) > bound) {
        std::ostringstream oss;
        oss << "step " << step << " element " << i << ": residual+decoded = "
            << recovered << " vs input " << want << " (|diff| "
            << std::abs(recovered - want) << " > tol " << bound << ")";
        AddFailure(report, spec, "ef-conservation", numel, opt.seed, oss.str());
        return;
      }
    }
  }
}

// --- Oracle 4: the codec's aggregation is bitwise rank-invariant. --------
//
// Every rank runs the production path, GradReducer(codec).Aggregate, over
// one gradient of `numel` elements for kSteps steps on a real session:
// error feedback, encode, then Sign's majority vote, Top-k's all-gather and
// scatter-add, or Random-k's additive all-reduce. The gradients are seeded
// per (rank, step) and every one of these aggregations is fixed-order, so
// after each step every rank must hold the same bits, and every run under
// the schedule explorer's perturbation must reproduce the unperturbed run.
void CheckRankInvariance(const std::string& spec, int64_t numel,
                         const OracleOptions& opt, OracleReport& report) {
  constexpr int kSteps = 2;
  const int p = opt.world_size;
  const auto n = static_cast<size_t>(numel);

  // Per rank: the aggregated gradient after each step, concatenated.
  using Outputs = std::vector<std::vector<float>>;
  const auto run_once = [&](ScheduleController* controller, uint64_t seed,
                            Outputs& outputs) -> bool {
    outputs.assign(static_cast<size_t>(p), {});
    std::string error;
    {
      comm::Transport transport;
      comm::Session group(transport, "oracle", p);
      group.set_contract_checking(true);
      ScopedSchedListener install(controller);
      try {
        group.Run([&](comm::Communicator& comm) {
          const int r = comm.rank();
          core::GradReducer reducer(core::MakeCodec(spec));
          dnn::Param param;
          param.grad = Tensor({numel});
          auto& out = outputs[static_cast<size_t>(r)];
          for (int step = 0; step < kSteps; ++step) {
            const auto g = GradData(opt.seed, numel, r, step);
            std::copy(g.begin(), g.end(), param.grad.data().begin());
            reducer.Aggregate({&param}, comm);
            out.insert(out.end(), param.grad.data().begin(),
                       param.grad.data().end());
          }
        });
      } catch (const std::exception& e) {
        error = e.what();
      }
    }
    ++report.checks_run;
    if (!error.empty()) {
      AddFailure(report, spec, "rank-invariance", numel, seed,
                 "GradReducer aggregate threw: " + error);
      return false;
    }
    return true;
  };

  // Every rank of `got` against rank 0 of the unperturbed run.
  Outputs reference;
  const auto matches = [&](const Outputs& got, uint64_t seed) -> bool {
    const std::vector<float>& want = reference.front();
    for (int r = 0; r < p; ++r) {
      const auto& v = got[static_cast<size_t>(r)];
      if (std::memcmp(v.data(), want.data(), want.size() * sizeof(float)) ==
          0)
        continue;
      size_t i = 0;
      while (std::memcmp(&v[i], &want[i], sizeof(float)) == 0) ++i;
      std::ostringstream oss;
      oss << std::setprecision(9) << "rank " << r << " step " << i / n
          << " element " << i % n << ": got " << v[i]
          << ", unperturbed rank 0 has " << want[i];
      AddFailure(report, spec, "rank-invariance", numel, seed, oss.str());
      return false;
    }
    return true;
  };

  if (!run_once(nullptr, 0, reference) || !matches(reference, 0)) return;
  Outputs perturbed;
  for (int i = 0; i < opt.perturbed_runs; ++i) {
    const uint64_t seed = opt.seed + 1 + static_cast<uint64_t>(i);
    ScheduleConfig cfg;
    cfg.seed = seed;
    cfg.world_size = p;
    cfg.perturb_prob = opt.perturb_prob;
    ScheduleController controller(cfg);
    if (!run_once(&controller, seed, perturbed) || !matches(perturbed, seed))
      return;
  }
}

}  // namespace

std::string OracleFailure::Describe() const {
  std::ostringstream oss;
  oss << "oracle FAILED: compressor=" << compressor << " property=" << property
      << " shape=[" << numel << "] seed=" << seed << " — " << detail;
  return oss.str();
}

std::string OracleReport::Summary() const {
  std::ostringstream oss;
  oss << checks_run << " oracle checks";
  if (failures.empty()) {
    oss << ", all passed";
  } else {
    oss << ", " << failures.size() << " FAILURE(S):";
    for (const auto& f : failures) oss << "\n  " << f.Describe();
  }
  return oss.str();
}

double EfTolerance(const std::string& spec) {
  // Sparsifiers copy kept values verbatim (residual is exactly the dropped
  // mass), so they conserve bit-exactly. Sign reconstructs at magnitudes up
  // to ‖g‖, where the fp32 residual arithmetic rounds; its tolerance is a
  // small multiple of machine epsilon on the (1 + max|g| + max|recon|) scale.
  const std::string name = BaseName(spec);
  if (name == "topk" || name == "randomk") {
    return 0.0;
  }
  return 1e-6;  // sign
}

OracleReport CheckCompressorInvariants(const std::string& spec,
                                       const OracleOptions& opt) {
  OracleReport report;
  for (int64_t numel : opt.numels) {
    CheckEncodeIntoParity(spec, numel, opt, report);
    CheckDecodeDeterminism(spec, numel, opt, report);
    CheckEfConservation(spec, numel, opt, report);
  }
  // Rank-invariance is the expensive oracle (real Session runs under the
  // explorer); run it on a representative small and large shape.
  const std::vector<int64_t> comm_numels = {opt.numels.front(),
                                            opt.numels.back()};
  for (int64_t numel : comm_numels)
    CheckRankInvariance(spec, numel, opt, report);
  return report;
}

namespace {

struct GemmShape {
  int64_t n, k, m;
};

// One full pass of every parallel kernel at the CURRENT thread budget.
// Returns all outputs concatenated into one float vector so the caller can
// compare runs bitwise with a single memcmp-style equality.
std::vector<float> RunKernelSuite(uint64_t seed) {
  std::vector<float> out;
  const auto emit = [&out](std::span<const float> v) {
    out.insert(out.end(), v.begin(), v.end());
  };

  // Shapes: odd sizes exercise the edge tiles, the (n, r)-style shapes match
  // the paper's low-rank factors, and the last two are past the serial
  // inline cutoff: at 1031×4×1031 the small-k TransB path splits its rows
  // across the pool, at 1031×1031×4 the small-m Gemm and GemmTransA paths
  // do.
  for (const GemmShape s :
       {GemmShape{33, 17, 8}, GemmShape{64, 64, 32}, GemmShape{1000, 4, 4},
        GemmShape{1031, 4, 1031}, GemmShape{1031, 1031, 4}}) {
    Rng rng(seed ^ (static_cast<uint64_t>(s.n) << 20));
    std::vector<float> a(static_cast<size_t>(s.n * s.k));
    std::vector<float> b(static_cast<size_t>(s.k * s.m));
    std::vector<float> c(static_cast<size_t>(s.n * s.m));
    for (float& v : a) v = rng.normal();
    for (float& v : b) v = rng.normal();
    for (float& v : c) v = rng.normal();

    std::vector<float> c1 = c;
    Gemm(a, b, c1, s.n, s.k, s.m, 1.25f, 0.5f);
    emit(c1);
    // A stored [k×n] for TransA: reuse `a` reinterpreted (size matches).
    std::vector<float> c2 = c;
    GemmTransA(a, b, c2, s.n, s.k, s.m, 1.0f, 0.0f);
    emit(c2);
    // B stored [m×k] for TransB: sizes match b.
    std::vector<float> c3 = c;
    GemmTransB(a, b, c3, s.n, s.k, s.m, -0.75f, 1.0f);
    emit(c3);
  }

  // Vector kernels + deterministic reductions on a size that spans several
  // grain blocks and a ragged tail.
  const int64_t n = 100003;
  Rng rng(seed ^ 0xFEEDull);
  Tensor t({n}), u({n});
  for (int64_t i = 0; i < n; ++i) t.at(i) = rng.normal();
  for (int64_t i = 0; i < n; ++i) u.at(i) = rng.normal();
  Scal(1.1f, t.data());
  emit(t.data());
  const float red[4] = {t.sum(), t.dot(u), t.norm2(), t.abs_max()};
  emit(std::span<const float>(red, 4));

  // Compressor kernels: blobs reinterpreted as floats for the comparison
  // (bit patterns are what must match).
  compress::SignCompressor sign;
  const auto sign_blob = sign.Encode(t.data());
  std::vector<float> sign_dec(static_cast<size_t>(n));
  sign.Decode(sign_blob, sign_dec);
  emit(sign_dec);

  compress::TopkCompressor topk(0.01);
  const auto topk_blob = topk.Encode(t.data());
  std::vector<float> topk_dec(static_cast<size_t>(n));
  topk.Decode(topk_blob, topk_dec);
  emit(topk_dec);

  return out;
}

// Bitwise comparison (float == would treat -0.0f == 0.0f and NaN != NaN).
bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b,
                  size_t* first_diff) {
  if (a.size() != b.size()) {
    *first_diff = std::min(a.size(), b.size());
    return false;
  }
  if (a.empty() ||
      std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0)
    return true;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) {
      *first_diff = i;
      return false;
    }
  }
  return true;
}

}  // namespace

OracleReport CheckKernelThreadInvariance(const OracleOptions& opt) {
  OracleReport report;
  const int saved = par::NumThreads();

  par::SetNumThreads(1);
  const std::vector<float> baseline = RunKernelSuite(opt.seed);

  // GEMM-family naive parity at 1 thread: the production kernels implement
  // the documented accumulation policy exactly. k = 4 is the rank-r
  // reconstruction shape, which GemmTransB routes to its small-k path; m = 4
  // is the factor-product shape, which Gemm and GemmTransA route to their
  // small-m path.
  for (const GemmShape s : {GemmShape{61, 37, 33}, GemmShape{61, 4, 33},
                            GemmShape{61, 37, 4}}) {
    Rng rng(opt.seed ^ 0xBEEFull);
    const int64_t n = s.n, k = s.k, m = s.m;
    std::vector<float> a(static_cast<size_t>(n * k));
    std::vector<float> b(static_cast<size_t>(k * m));
    std::vector<float> c(static_cast<size_t>(n * m));
    for (float& v : a) v = rng.normal();
    for (float& v : b) v = rng.normal();
    for (float& v : c) v = rng.normal();
    struct Variant {
      const char* name;
      void (*kernel)(std::span<const float>, std::span<const float>,
                     std::span<float>, int64_t, int64_t, int64_t, float,
                     float);
      void (*naive)(std::span<const float>, std::span<const float>,
                    std::span<float>, int64_t, int64_t, int64_t, float, float);
    };
    for (const Variant v :
         {Variant{"gemm", &Gemm, &GemmNaive},
          Variant{"gemm_ta", &GemmTransA, &GemmTransANaive},
          Variant{"gemm_tb", &GemmTransB, &GemmTransBNaive}}) {
      for (const float beta : {0.0f, 1.0f, 0.5f}) {
        std::vector<float> got = c, want = c;
        v.kernel(a, b, got, n, k, m, 1.5f, beta);
        v.naive(a, b, want, n, k, m, 1.5f, beta);
        ++report.checks_run;
        size_t diff = 0;
        if (!BitwiseEqual(got, want, &diff)) {
          std::ostringstream oss;
          oss << v.name << " " << n << "x" << k << "x" << m << " (beta="
              << beta << ") diverges from its naive reference at element "
              << diff;
          AddFailure(report, "par-kernels", "naive-parity", n * m, opt.seed,
                     oss.str());
        }
      }
    }
  }

  for (const int threads : {2, 4, 8}) {
    par::SetNumThreads(threads);
    const std::vector<float> got = RunKernelSuite(opt.seed);
    ++report.checks_run;
    size_t diff = 0;
    if (!BitwiseEqual(got, baseline, &diff)) {
      std::ostringstream oss;
      oss << "kernel suite at " << threads
          << " threads diverges from 1 thread at output element " << diff;
      AddFailure(report, "par-kernels", "thread-invariance",
                 static_cast<int64_t>(baseline.size()), opt.seed, oss.str());
    }
  }

  par::SetNumThreads(saved);
  return report;
}

}  // namespace acps::check
