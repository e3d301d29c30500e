#include "tensor/matrix_ops.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "par/kernel_stats.h"
#include "par/parallel.h"

namespace acps {
namespace {

std::atomic<GemmPackMode> g_pack_mode{GemmPackMode::kAuto};

// Micro-tile shape for the register-blocked GEMM family: kMr C rows × kNj C
// columns of fp32 accumulators live in registers across the whole k loop, so
// C is touched once per tile instead of once per k step. Measured on
// AVX2/GCC-12 at the paper's Power-SGD shape (4096×4096×32): 6×32 is the
// fastest sweep point (52 GFLOP/s vs 47 for 8×32 and 46 for 4×32). kNj = 32
// is load-bearing — GCC vectorizes the 32-wide jj loop into clean 4-ymm FMA
// blocks, while 16- or 8-wide tiles fall out of the vectorizer's profitable
// range and collapse ~20× (2–4 GFLOP/s). Don't shrink kNj without re-running
// bench/bench_kernels.
constexpr int64_t kMr = 6;
constexpr int64_t kNj = 32;

void CheckGemmSizes(size_t a, size_t b, size_t c, int64_t n, int64_t k,
                    int64_t m) {
  ACPS_CHECK_MSG(n >= 0 && k >= 0 && m >= 0, "negative gemm dims");
  ACPS_CHECK_MSG(static_cast<int64_t>(a) == n * k, "A size mismatch");
  ACPS_CHECK_MSG(static_cast<int64_t>(b) == k * m, "B size mismatch");
  ACPS_CHECK_MSG(static_cast<int64_t>(c) == n * m, "C size mismatch");
}

// Row grain: ~kDefaultGrain multiply-adds per block, but never splitting a
// micro-tile. Depends only on the problem shape, not the thread count.
int64_t GemmRowGrain(int64_t k, int64_t m) {
  const int64_t per_row = std::max<int64_t>(1, k * m);
  return std::max<int64_t>(kMr, 8 * par::kDefaultGrain / per_row);
}

uint64_t GemmFlops(int64_t n, int64_t k, int64_t m) {
  return 2ull * static_cast<uint64_t>(n) * static_cast<uint64_t>(k) *
         static_cast<uint64_t>(m);
}

// Logical operand/result traffic of one GEMM call for the kernel-stats
// table: A + B read once, C written once, and read once more when beta != 0.
uint64_t GemmBytes(int64_t n, int64_t k, int64_t m, float beta) {
  const uint64_t a = static_cast<uint64_t>(n) * static_cast<uint64_t>(k);
  const uint64_t b = static_cast<uint64_t>(k) * static_cast<uint64_t>(m);
  const uint64_t cc = static_cast<uint64_t>(n) * static_cast<uint64_t>(m);
  return (a + b + cc * (beta == 0.0f ? 1 : 2)) * sizeof(float);
}

// Below this many flops a GEMM runs inline on the calling thread: the
// pool's dispatch + join costs more than the math at the Power-SGD r=1/2
// factor shapes (2·1024·1024·r < 2^23 for r <= 3). Partitioning never
// changes an accumulation chain, so serial-vs-pool is bitwise neutral.
constexpr uint64_t kSerialInlineFlops = 1ull << 23;

// FMA-contraction barrier for the beta != 0 writeback. Under the default
// -ffp-contract=fast, textually identical `alpha_term + beta * c` expressions
// may compile to different mul/fma splits in different functions (observed:
// GemmTransBRows vs GemmTransBNaive diverging in the last bit for
// non-power-of-two alpha). Production and naive writebacks both call this
// exact non-inlined function, so the compiler makes the choice once.
[[gnu::noinline]] float BetaBlend(float alpha_term, float beta, float c_old) {
  return alpha_term + beta * c_old;
}

// Saxpy-form rows [i0, i1) of C = alpha·op(A)·B + beta·C. TransA selects the
// element layout of A ([k×n] instead of [n×k]); the accumulation chain —
// fp32 accumulator from 0, each contribution folded in with an explicit
// std::fmaf (single rounding — never left to -ffp-contract's discretion),
// ascending k, beta applied at writeback — is identical either way and
// identical to the naive references.
template <bool TransA>
void GemmRows(const float* a, const float* b, float* c, int64_t i0_begin,
              int64_t i0_end, int64_t n, int64_t k, int64_t m, float alpha,
              float beta) {
  for (int64_t i0 = i0_begin; i0 < i0_end; i0 += kMr) {
    const int64_t ib = std::min<int64_t>(kMr, i0_end - i0);
    for (int64_t j0 = 0; j0 < m; j0 += kNj) {
      const int64_t jb = std::min<int64_t>(kNj, m - j0);
      if (ib == kMr && jb == kNj) {
        // Full tile: all kMr×kNj accumulators stay in registers.
        float acc[kMr][kNj] = {};
        const float* __restrict__ arow[kMr] = {};
        if constexpr (!TransA) {
          for (int64_t r = 0; r < kMr; ++r) arow[r] = a + (i0 + r) * k;
        }
        for (int64_t kk = 0; kk < k; ++kk) {
          const float* __restrict__ bk = b + kk * m + j0;
          float av[kMr];
          if constexpr (TransA) {
            const float* __restrict__ acol = a + kk * n + i0;
            for (int64_t r = 0; r < kMr; ++r) av[r] = acol[r];
          } else {
            for (int64_t r = 0; r < kMr; ++r) av[r] = arow[r][kk];
          }
          for (int64_t r = 0; r < kMr; ++r) {
            const float aik = alpha * av[r];
            for (int64_t jj = 0; jj < kNj; ++jj)
              acc[r][jj] = std::fmaf(aik, bk[jj], acc[r][jj]);
          }
        }
        for (int64_t r = 0; r < kMr; ++r) {
          float* __restrict__ ci = c + (i0 + r) * m + j0;
          if (beta == 0.0f) {
            for (int64_t jj = 0; jj < kNj; ++jj) ci[jj] = acc[r][jj];
          } else {
            for (int64_t jj = 0; jj < kNj; ++jj)
              ci[jj] = BetaBlend(acc[r][jj], beta, ci[jj]);
          }
        }
      } else {
        // Edge tile (ragged rows, or the last m % kNj columns of an m > 8
        // output; narrower outputs take the small-m path): same
        // per-element chain, one row at a time.
        float accv[kNj] = {};
        for (int64_t i = i0; i < i0 + ib; ++i) {
          std::fill(accv, accv + jb, 0.0f);
          for (int64_t kk = 0; kk < k; ++kk) {
            const float aik = alpha * (TransA ? a[kk * n + i] : a[i * k + kk]);
            const float* __restrict__ bk = b + kk * m + j0;
            for (int64_t jj = 0; jj < jb; ++jj)
              accv[jj] = std::fmaf(aik, bk[jj], accv[jj]);
          }
          float* __restrict__ ci = c + i * m + j0;
          if (beta == 0.0f) {
            for (int64_t jj = 0; jj < jb; ++jj) ci[jj] = accv[jj];
          } else {
            for (int64_t jj = 0; jj < jb; ++jj)
              ci[jj] = BetaBlend(accv[jj], beta, ci[jj]);
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// L2-blocked packed-panel layer (DESIGN.md §6e). The (m,n,k) nest is tiled
// into macro-panels sized for the 2 MiB L2; A panels are copied kMr-row
// interleaved (alpha folded in — the same single `alpha * a_ik` multiply the
// unpacked tile performs) and B panels kNj-column interleaved into
// per-thread scratch, so the micro-kernel reads both operands as contiguous
// streams and a packed B panel is reused by every row tile of the ic loop.
// Edge tiles are zero-padded to full kMr×kNj inside the pack — the padded
// lanes compute garbage accumulators that are simply never written back, so
// every real element keeps the exact fmaf chain of the unpacked path.
// k-splitting (the pc loop) spills the fp32 accumulators to a scratch C
// block between panels; a float round-trips memory exactly, so the chain
// value is untouched. Scratch is thread_local: workers never share panels.
// ---------------------------------------------------------------------------
constexpr int64_t kKc = 256;  // k macro-panel depth
constexpr int64_t kMc = 96;   // rows per A pack (16 micro row tiles)
constexpr int64_t kNc = 128;  // cols per B pack (4 micro col tiles, 128 KiB)
constexpr int64_t kRc = 768;  // row chunk bounding the accumulator scratch

// Packs rows [i0, i0+mb) of op(A)'s k-panel [pc, pc+kc) into `dst`,
// kMr-interleaved per micro row tile: dst[t*kc*kMr + kk*kMr + r] =
// alpha * op(A)[i0 + t*kMr + r][pc + kk], zero beyond mb. Pure data
// movement plus the alpha fold — no accumulation (acps-analyze
// pack-pure-move enforces this for every Pack* function).
template <bool TransA>
void PackAPanel(const float* a, int64_t n, int64_t k, int64_t i0, int64_t mb,
                int64_t pc, int64_t kc, float alpha, float* dst) {
  const int64_t mtiles = (mb + kMr - 1) / kMr;
  for (int64_t t = 0; t < mtiles; ++t) {
    float* __restrict__ tile = dst + t * kc * kMr;
    const int64_t rb = std::min<int64_t>(kMr, mb - t * kMr);
    if constexpr (TransA) {
      // A is [k×n]: walk kk outer so source reads stay row-sequential.
      for (int64_t kk = 0; kk < kc; ++kk) {
        const float* __restrict__ acol = a + (pc + kk) * n + i0 + t * kMr;
        for (int64_t r = 0; r < rb; ++r) tile[kk * kMr + r] = alpha * acol[r];
        for (int64_t r = rb; r < kMr; ++r) tile[kk * kMr + r] = 0.0f;
      }
    } else {
      // A is [n×k]: walk each source row once, scattering into the tile.
      for (int64_t r = 0; r < rb; ++r) {
        const float* __restrict__ arow = a + (i0 + t * kMr + r) * k + pc;
        for (int64_t kk = 0; kk < kc; ++kk)
          tile[kk * kMr + r] = alpha * arow[kk];
      }
      for (int64_t r = rb; r < kMr; ++r)
        for (int64_t kk = 0; kk < kc; ++kk) tile[kk * kMr + r] = 0.0f;
    }
  }
}

// Packs B's [pc, pc+kc) × [jc, jc+nb) panel kNj-interleaved per micro
// column tile: dst[t*kc*kNj + kk*kNj + jj] = B[pc+kk][jc + t*kNj + jj],
// zero beyond nb. Pure data movement.
void PackBPanel(const float* b, int64_t m, int64_t pc, int64_t kc, int64_t jc,
                int64_t nb, float* dst) {
  const int64_t ntiles = (nb + kNj - 1) / kNj;
  for (int64_t t = 0; t < ntiles; ++t) {
    float* __restrict__ tile = dst + t * kc * kNj;
    const int64_t jb = std::min<int64_t>(kNj, nb - t * kNj);
    for (int64_t kk = 0; kk < kc; ++kk) {
      const float* __restrict__ brow = b + (pc + kk) * m + jc + t * kNj;
      for (int64_t jj = 0; jj < jb; ++jj) tile[kk * kNj + jj] = brow[jj];
      for (int64_t jj = jb; jj < kNj; ++jj) tile[kk * kNj + jj] = 0.0f;
    }
  }
}

// One kMr×kNj register tile over a packed k-panel: load the running
// accumulators (or start at 0 on the first panel), fold kc contributions in
// ascending k with the same explicit std::fmaf as the unpacked tile, spill
// back. acc_io round-trips fp32 exactly, so chaining panels reproduces the
// full-k register chain bit for bit.
void PackedMicroKernel(const float* __restrict__ ap,
                       const float* __restrict__ bp, int64_t kc, bool first,
                       float* __restrict__ acc_io) {
  float acc[kMr][kNj];
  for (int64_t r = 0; r < kMr; ++r)
    for (int64_t jj = 0; jj < kNj; ++jj)
      acc[r][jj] = first ? 0.0f : acc_io[r * kNj + jj];
  for (int64_t kk = 0; kk < kc; ++kk) {
    const float* __restrict__ av = ap + kk * kMr;
    const float* __restrict__ bk = bp + kk * kNj;
    for (int64_t r = 0; r < kMr; ++r) {
      const float aik = av[r];
      for (int64_t jj = 0; jj < kNj; ++jj)
        acc[r][jj] = std::fmaf(aik, bk[jj], acc[r][jj]);
    }
  }
  for (int64_t r = 0; r < kMr; ++r)
    for (int64_t jj = 0; jj < kNj; ++jj) acc_io[r * kNj + jj] = acc[r][jj];
}

// Packed-path rows [rb_, re_) of C = alpha·op(A)·B + beta·C. Loop order
// rc → jc → pc → ic: each packed B panel is reused by every row tile of its
// rc chunk, each packed A panel by every column tile of its jc panel. beta
// is applied exactly once per element at the final writeback from the
// accumulator scratch, against the untouched original C.
template <bool TransA>
void PackedGemmRows(const float* a, const float* b, float* c, int64_t rb_,
                    int64_t re_, int64_t n, int64_t k, int64_t m, float alpha,
                    float beta, par::KernelTimer* timer) {
  thread_local std::vector<float> apack, bpack, cacc;
  uint64_t pack_bytes = 0;
  uint64_t reuses = 0;
  for (int64_t rc = rb_; rc < re_; rc += kRc) {
    const int64_t rows = std::min<int64_t>(kRc, re_ - rc);
    for (int64_t jc = 0; jc < m; jc += kNc) {
      const int64_t nb = std::min<int64_t>(kNc, m - jc);
      const int64_t ntiles = (nb + kNj - 1) / kNj;
      const int64_t mtiles_all = (rows + kMr - 1) / kMr;
      cacc.resize(static_cast<size_t>(mtiles_all * ntiles * kMr * kNj));
      if (k == 0) std::fill(cacc.begin(), cacc.end(), 0.0f);
      for (int64_t pc = 0; pc < k; pc += kKc) {
        const int64_t kc = std::min<int64_t>(kKc, k - pc);
        bpack.resize(static_cast<size_t>(ntiles * kc * kNj));
        PackBPanel(b, m, pc, kc, jc, nb, bpack.data());
        pack_bytes += static_cast<uint64_t>(ntiles * kc * kNj) * sizeof(float);
        const bool first = pc == 0;
        for (int64_t ic = rc; ic < rc + rows; ic += kMc) {
          const int64_t mb = std::min<int64_t>(kMc, rc + rows - ic);
          const int64_t mtiles = (mb + kMr - 1) / kMr;
          apack.resize(static_cast<size_t>(mtiles * kc * kMr));
          PackAPanel<TransA>(a, n, k, ic, mb, pc, kc, alpha, apack.data());
          pack_bytes +=
              static_cast<uint64_t>(mtiles * kc * kMr) * sizeof(float);
          for (int64_t t = 0; t < mtiles; ++t) {
            const int64_t it = (ic - rc) / kMr + t;
            for (int64_t jt = 0; jt < ntiles; ++jt) {
              PackedMicroKernel(
                  apack.data() + t * kc * kMr, bpack.data() + jt * kc * kNj,
                  kc, first, cacc.data() + (it * ntiles + jt) * kMr * kNj);
              ++reuses;
            }
          }
        }
      }
      for (int64_t i = rc; i < rc + rows; ++i) {
        const int64_t it = (i - rc) / kMr;
        const int64_t r = (i - rc) % kMr;
        for (int64_t jt = 0; jt < ntiles; ++jt) {
          const float* __restrict__ at =
              cacc.data() + (it * ntiles + jt) * kMr * kNj + r * kNj;
          const int64_t jb = std::min<int64_t>(kNj, nb - jt * kNj);
          float* __restrict__ cj = c + i * m + jc + jt * kNj;
          if (beta == 0.0f) {
            for (int64_t jj = 0; jj < jb; ++jj) cj[jj] = at[jj];
          } else {
            for (int64_t jj = 0; jj < jb; ++jj)
              cj[jj] = BetaBlend(at[jj], beta, cj[jj]);
          }
        }
      }
    }
  }
  if (timer != nullptr) timer->AddPanel(pack_bytes, reuses);
}

// Packed-path routing. kAuto takes the packed saxpy path only where the
// panel reuse pays for the copies: enough columns for an A panel to serve
// several column tiles, a deep enough k for the pc loop to matter, and a B
// footprint that is actually straining L2. The acceptance dense shape
// (4096×4096×32, B = 512 KiB, m = kNj) stays on the direct path, which
// already runs at ~28× naive out of L2.
bool UsePackedSaxpy(int64_t n, int64_t k, int64_t m) {
  switch (g_pack_mode.load(std::memory_order_relaxed)) {
    case GemmPackMode::kAlways:
      return true;
    case GemmPackMode::kNever:
      return false;
    case GemmPackMode::kAuto:
      break;
  }
  return m >= 2 * kNj && k >= 128 && n >= kMr &&
         static_cast<uint64_t>(k) * static_cast<uint64_t>(m) * sizeof(float) >=
             (1u << 20);
}

// ---------------------------------------------------------------------------
// Small-m saxpy form (1 <= m <= kSmallM): the rank-r factor products of
// Power-SGD / ACP-SGD, P = M·Q (Gemm) and Q = Mᵀ·P (GemmTransA), whose
// output has only r columns. The general tiles are kNj columns wide, so
// these shapes would fall to GemmRows' one-row-at-a-time edge path. Here m
// is a template constant and both kernels keep an m×W accumulator block for
// W output rows instead: each k step multiplies a contiguous run of those
// rows' A elements by one B row, so the fma runs vectorized across output
// rows.
//  * GemmTransA (A stored [k×n]) finds that run in place, in A's row k. It
//    streams A's rows in blocks of kTaRowBlock and, inside a block, walks
//    kTaStrip-column strips: a strip's m×kTaStrip accumulators stay in
//    registers for all the block's rows, then wait in a per-thread scratch
//    for the next block, so A is read row-contiguously rather than one
//    strip at a time down all k rows at stride n. The pool splits columns
//    on strip boundaries.
//  * Gemm first copies a kSmallMRows-row tile's A elements, alpha folded,
//    k-major into a kKc-deep stack panel (PackASmallM) and runs over that.
//    (The register block the naive loop suggests — rows × m accumulators,
//    one broadcast a_ik per row — measured 2–3× slower at m = 3..7 (AVX2,
//    GCC 12): the vectorizer mixes scalar and vector lanes there.)
// Either way every element's chain is still `acc = fmaf(alpha·a, b, acc)`
// from 0 in ascending k with beta at writeback (a float round-trips the
// scratch exactly), so the result is bitwise the naive reference's,
// whatever rows it is computed beside.
// ---------------------------------------------------------------------------
constexpr int64_t kSmallM = 8;
// Measured at 1024×1024×4, 1 thread (AVX2, GCC 12), M·Q: 32 rows took
// 0.84 ms, 64 rows 1.21 ms and 16 rows 3.6 ms.
constexpr int64_t kSmallMRows = 32;
// GemmTransA's strip width and row block. 16 columns keep 2·m accumulator
// vectors plus the A strip in registers up to m = 8; a 32-wide strip
// spilled.
constexpr int64_t kTaStrip = 16;
constexpr int64_t kTaRowBlock = 32;

// Eight floats; GCC lowers the vector code below to the target's SIMD
// level.
using V8f = float __attribute__((vector_size(32)));
using V8i = int32_t __attribute__((vector_size(32)));

// c += a·b per lane with one rounding: std::fmaf lane by lane, which GCC
// emits as one vector fma. Vectors go by reference, as in
// PackTranspose8x8: by value they would trip -Wpsabi in builds without AVX.
[[gnu::always_inline]] inline void Fma8(const V8f& a, const V8f& b, V8f& c) {
  for (int l = 0; l < 8; ++l) c[l] = std::fmaf(a[l], b[l], c[l]);
}

// Writes the accumulator block of output rows [i0, i0 + rows): acc[j][w]
// is element (i0 + w, j).
template <int64_t M>
void SmallMWriteback(const float (&acc)[M][kSmallMRows], float* c, int64_t i0,
                     int64_t rows, float beta) {
  for (int64_t w = 0; w < rows; ++w) {
    float* __restrict__ ci = c + (i0 + w) * M;
    if (beta == 0.0f) {
      for (int64_t j = 0; j < M; ++j) ci[j] = acc[j][w];
    } else {
      for (int64_t j = 0; j < M; ++j) ci[j] = BetaBlend(acc[j][w], beta, ci[j]);
    }
  }
}

// One k step of the accumulator block: acc[j][w] += av[w] * bk[j] for the
// first `rows` rows, one fmaf per element.
template <int64_t M>
inline void SmallMAccumulate(const float* __restrict__ av,
                             const float* __restrict__ bk,
                             float (&acc)[M][kSmallMRows], int64_t rows) {
  for (int64_t j = 0; j < M; ++j)
    for (int64_t w = 0; w < rows; ++w)
      acc[j][w] = std::fmaf(av[w], bk[j], acc[j][w]);
}

// The kernels below take `Full` (a whole tile or strip) as a template flag
// so the accumulate loops have a compile-time bound and acc stays in
// registers. With a runtime bound, the 32-row GemmTransA tile that the
// strip kernel replaced took 0.91–0.93 ms against 0.49–0.52 ms at
// 1024×1024×4 (1 thread, AVX2, GCC 12).

// Folds A rows [k0, k0 + rows) into one strip of output rows [j0, j0 +
// width): acc_io[j * kTaStrip + w] is element (j0 + w, j). A partial strip
// loads zeros past `width`; those lanes are never written back. The strip
// is spelled as kTaStrip / 8 eight-float vectors with std::fmaf per lane
// (Fma8): written over plain float arrays, GCC fully unrolls the 16-wide
// loop before vectorizing it and then vectorizes across j with shuffles,
// which ran 3–8× slower (512×4608×4, 1 thread). As vectors, the 2·m
// accumulators stay in registers across the block (objdump, GCC 12: none
// spill at m = 4 under the default AVX2 flags, three of sixteen at m = 8;
// none at m = 8 under -march=native with AVX-512VL's 32 registers).
template <int64_t M, bool Full>
void TransAStrip(const float* a, const float* b, int64_t n, int64_t k0,
                 int64_t rows, int64_t j0, int64_t width, float alpha,
                 float* __restrict__ acc_io) {
  static_assert(kTaStrip == 16, "the strip is two eight-float vectors");
  V8f acc[M][2];  // the same layout as acc_io
  std::memcpy(acc, acc_io, sizeof(acc));
  for (int64_t kk = k0; kk < k0 + rows; ++kk) {
    const float* __restrict__ ak = a + kk * n + j0;
    const float* __restrict__ bk = b + kk * M;
    float pad[kTaStrip] = {};
    if constexpr (!Full) {
      std::copy(ak, ak + width, pad);
      ak = pad;
    }
    V8f lo, hi;
    std::memcpy(&lo, ak, sizeof(V8f));
    std::memcpy(&hi, ak + 8, sizeof(V8f));
    lo = alpha * lo;
    hi = alpha * hi;
#pragma GCC unroll 8
    for (int64_t j = 0; j < M; ++j) {
      const V8f bj = {bk[j], bk[j], bk[j], bk[j], bk[j], bk[j], bk[j], bk[j]};
      Fma8(lo, bj, acc[j][0]);
      Fma8(hi, bj, acc[j][1]);
    }
  }
  std::memcpy(acc_io, acc, sizeof(acc));
}

// Output rows [j_begin, j_end) of C = alpha·Aᵀ·B + beta·C (A [k×n]). With
// a non-null x, each row block of those columns first takes A += X in `e`
// (the same matrix as `a`, writable) and is read while still in cache.
template <int64_t M>
void GemmTransASmallMCols(const float* x, float* e, const float* a,
                          const float* b, float* c, int64_t j_begin,
                          int64_t j_end, int64_t n, int64_t k, float alpha,
                          float beta) {
  const int64_t cols = j_end - j_begin;
  const int64_t full = cols / kTaStrip;
  const int64_t tail = cols - full * kTaStrip;
  const int64_t strips = full + (tail > 0 ? 1 : 0);
  thread_local std::vector<float> scratch;
  scratch.assign(static_cast<size_t>(strips * M * kTaStrip), 0.0f);
  float* const acc = scratch.data();
  for (int64_t k0 = 0; k0 < k; k0 += kTaRowBlock) {
    const int64_t rows = std::min<int64_t>(kTaRowBlock, k - k0);
    if (x != nullptr) {
      for (int64_t kk = k0; kk < k0 + rows; ++kk) {
        float* __restrict__ ek = e + kk * n;
        const float* __restrict__ xk = x + kk * n;
        for (int64_t j = j_begin; j < j_end; ++j) ek[j] += xk[j];
      }
    }
    for (int64_t s = 0; s < full; ++s)
      TransAStrip<M, true>(a, b, n, k0, rows, j_begin + s * kTaStrip,
                           kTaStrip, alpha, acc + s * M * kTaStrip);
    if (tail > 0)
      TransAStrip<M, false>(a, b, n, k0, rows, j_begin + full * kTaStrip,
                            tail, alpha, acc + full * M * kTaStrip);
  }
  for (int64_t i = j_begin; i < j_end; ++i) {
    const float* __restrict__ at =
        acc + (i - j_begin) / kTaStrip * M * kTaStrip + (i - j_begin) % kTaStrip;
    float* __restrict__ ci = c + i * M;
    if (beta == 0.0f) {
      for (int64_t j = 0; j < M; ++j) ci[j] = at[j * kTaStrip];
    } else {
      for (int64_t j = 0; j < M; ++j)
        ci[j] = BetaBlend(at[j * kTaStrip], beta, ci[j]);
    }
  }
}

using TransAColsFn = void (*)(const float*, float*, const float*,
                              const float*, float*, int64_t, int64_t, int64_t,
                              int64_t, float, float);
constexpr TransAColsFn kTransASmallMCols[kSmallM + 1] = {
    nullptr,
    &GemmTransASmallMCols<1>,
    &GemmTransASmallMCols<2>,
    &GemmTransASmallMCols<3>,
    &GemmTransASmallMCols<4>,
    &GemmTransASmallMCols<5>,
    &GemmTransASmallMCols<6>,
    &GemmTransASmallMCols<7>,
    &GemmTransASmallMCols<8>};

// Interleaves four rows of an 8×8 block, pairwise and then pair with pair:
// v[0] holds columns 0 and 4 of the four rows, v[1] columns 1 and 5, v[2]
// columns 2 and 6, v[3] columns 3 and 7.
[[gnu::always_inline]] inline void Interleave4Rows(const V8f& r0,
                                                   const V8f& r1,
                                                   const V8f& r2,
                                                   const V8f& r3, V8f* v) {
  const V8i lo_mask{0, 8, 1, 9, 4, 12, 5, 13};
  const V8i hi_mask{2, 10, 3, 11, 6, 14, 7, 15};
  const V8i even_pairs{0, 1, 8, 9, 4, 5, 12, 13};
  const V8i odd_pairs{2, 3, 10, 11, 6, 7, 14, 15};
  const V8f lo0 = __builtin_shuffle(r0, r1, lo_mask);
  const V8f hi0 = __builtin_shuffle(r0, r1, hi_mask);
  const V8f lo1 = __builtin_shuffle(r2, r3, lo_mask);
  const V8f hi1 = __builtin_shuffle(r2, r3, hi_mask);
  v[0] = __builtin_shuffle(lo0, lo1, even_pairs);
  v[1] = __builtin_shuffle(lo0, lo1, odd_pairs);
  v[2] = __builtin_shuffle(hi0, hi1, even_pairs);
  v[3] = __builtin_shuffle(hi0, hi1, odd_pairs);
}

// Transposes the 8×8 block src[w*ld + kk] into dst[kk*kSmallMRows + w]
// (w, kk < 8), times alpha, in registers: eight row loads, three rounds of
// shuffles, eight stores. Pure data movement plus the alpha fold.
[[gnu::always_inline]] inline void PackTranspose8x8(const float* src,
                                                    int64_t ld, float alpha,
                                                    float* dst) {
  V8f r0, r1, r2, r3, r4, r5, r6, r7;
  std::memcpy(&r0, src, sizeof(V8f));
  std::memcpy(&r1, src + ld, sizeof(V8f));
  std::memcpy(&r2, src + 2 * ld, sizeof(V8f));
  std::memcpy(&r3, src + 3 * ld, sizeof(V8f));
  std::memcpy(&r4, src + 4 * ld, sizeof(V8f));
  std::memcpy(&r5, src + 5 * ld, sizeof(V8f));
  std::memcpy(&r6, src + 6 * ld, sizeof(V8f));
  std::memcpy(&r7, src + 7 * ld, sizeof(V8f));
  V8f s[8];
  Interleave4Rows(r0, r1, r2, r3, s);
  Interleave4Rows(r4, r5, r6, r7, s + 4);
  // Column c of all eight rows: the low halves of s[c] and s[4 + c];
  // column c + 4: their high halves.
  for (int64_t c = 0; c < 4; ++c) {
    const V8f col_c =
        alpha * __builtin_shuffle(s[c], s[4 + c], V8i{0, 1, 2, 3, 8, 9, 10, 11});
    const V8f col_c4 = alpha * __builtin_shuffle(s[c], s[4 + c],
                                                 V8i{4, 5, 6, 7, 12, 13, 14, 15});
    std::memcpy(dst + c * kSmallMRows, &col_c, sizeof(V8f));
    std::memcpy(dst + (c + 4) * kSmallMRows, &col_c4, sizeof(V8f));
  }
}

// Copies alpha * A[i0 + w][pc + kk] to dst[kk*kSmallMRows + w] for w < rows,
// kk < kc: Gemm's row tile in the k-major layout GemmTransA reads in place.
// Pure data movement plus the alpha fold (the same single multiply the
// naive loop performs). Whole 8×8 blocks are transposed in registers; an
// element-wise copy reads A at stride k, which cost more than the
// multiply-adds the panel feeds.
void PackASmallM(const float* a, int64_t k, int64_t i0, int64_t rows,
                 int64_t pc, int64_t kc, float alpha, float* dst) {
  const float* __restrict__ src = a + i0 * k + pc;
  const int64_t rows8 = rows - rows % 8, kc8 = kc - kc % 8;
  for (int64_t w0 = 0; w0 < rows8; w0 += 8)
    for (int64_t kk0 = 0; kk0 < kc8; kk0 += 8)
      PackTranspose8x8(src + w0 * k + kk0, k, alpha,
                       dst + kk0 * kSmallMRows + w0);
  for (int64_t kk = 0; kk < kc; ++kk) {
    const int64_t w_begin = kk < kc8 ? rows8 : 0;
    for (int64_t w = w_begin; w < rows; ++w)
      dst[kk * kSmallMRows + w] = alpha * src[w * k + kk];
  }
}

// Output rows [i0, i0 + rows) of C = alpha·A·B + beta·C, rows <=
// kSmallMRows.
template <int64_t M, bool Full>
void GemmSmallMTile(const float* a, const float* b, float* c, int64_t i0,
                    int64_t rows, int64_t k, float alpha, float beta) {
  const int64_t w_end = Full ? kSmallMRows : rows;
  float acc[M][kSmallMRows] = {};
  alignas(64) float panel[kKc * kSmallMRows];
  for (int64_t pc = 0; pc < k; pc += kKc) {
    const int64_t kc = std::min<int64_t>(kKc, k - pc);
    PackASmallM(a, k, i0, w_end, pc, kc, alpha, panel);
    for (int64_t kk = 0; kk < kc; ++kk)
      SmallMAccumulate<M>(panel + kk * kSmallMRows, b + (pc + kk) * M, acc,
                          w_end);
  }
  SmallMWriteback<M>(acc, c, i0, w_end, beta);
}

// Rows [i_begin, i_end) of the small-m Gemm: full tiles, then one partial.
template <int64_t M>
void GemmSmallMRows(const float* a, const float* b, float* c, int64_t i_begin,
                    int64_t i_end, int64_t k, float alpha, float beta) {
  for (int64_t i0 = i_begin; i0 < i_end; i0 += kSmallMRows) {
    const int64_t rows = std::min<int64_t>(kSmallMRows, i_end - i0);
    if (rows == kSmallMRows) {
      GemmSmallMTile<M, true>(a, b, c, i0, rows, k, alpha, beta);
    } else {
      GemmSmallMTile<M, false>(a, b, c, i0, rows, k, alpha, beta);
    }
  }
}

using SmallMRowsFn = void (*)(const float*, const float*, float*, int64_t,
                              int64_t, int64_t, float, float);
constexpr SmallMRowsFn kGemmSmallMRows[kSmallM + 1] = {
    nullptr,
    &GemmSmallMRows<1>,
    &GemmSmallMRows<2>,
    &GemmSmallMRows<3>,
    &GemmSmallMRows<4>,
    &GemmSmallMRows<5>,
    &GemmSmallMRows<6>,
    &GemmSmallMRows<7>,
    &GemmSmallMRows<8>};

// Shape routing under kAuto and kNever, as for the small-k TransB path;
// kAlways keeps forcing the packed path.
bool UseSmallM(int64_t m) {
  return m >= 1 && m <= kSmallM &&
         g_pack_mode.load(std::memory_order_relaxed) != GemmPackMode::kAlways;
}

// E += X elementwise on the pool, as Tensor::add_ does.
void AddInPlace(const float* x, float* e, int64_t count) {
  par::ParallelFor(par::kDefaultGrain, count, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) e[i] += x[i];
  });
}

// C = alpha·op(A)·B + beta·C on the kernel its shape routes to, rows split
// on the pool. A non-null x (TransA only) first adds X into A, held
// writable in `e`: the small-m kernel folds that add into its row blocks,
// the other paths take it as one pass before the product.
template <bool TransA>
void GemmRouted(const float* x, float* e, const float* a, const float* b,
                float* c, int64_t n, int64_t k, int64_t m, float alpha,
                float beta, par::KernelTimer* timer) {
  const bool small_m = UseSmallM(m);
  if (x != nullptr && !small_m) AddInPlace(x, e, n * k);
  const bool packed = !small_m && UsePackedSaxpy(n, k, m);
  const auto rows = [&](int64_t begin, int64_t end) {
    if (small_m && TransA) {
      kTransASmallMCols[m](x, e, a, b, c, begin, end, n, k, alpha, beta);
    } else if (small_m) {
      kGemmSmallMRows[m](a, b, c, begin, end, k, alpha, beta);
    } else if (packed) {
      PackedGemmRows<TransA>(a, b, c, begin, end, n, k, m, alpha, beta, timer);
    } else {
      GemmRows<TransA>(a, b, c, begin, end, n, k, m, alpha, beta);
    }
  };
  if (GemmFlops(n, k, m) < kSerialInlineFlops) {
    rows(0, n);
    return;
  }
  // Blocks split on tile boundaries, so only a block's last tile is partial.
  const int64_t align = !small_m ? kMr : TransA ? kTaStrip : kSmallMRows;
  par::ParallelForBlocks(GemmRowGrain(k, m), n, align,
                         [&](int64_t, int64_t begin, int64_t end) {
                           rows(begin, end);
                         });
}

template <bool TransA>
void GemmImpl(std::span<const float> a, std::span<const float> b,
              std::span<float> c, int64_t n, int64_t k, int64_t m, float alpha,
              float beta, const char* stat_name) {
  CheckGemmSizes(a.size(), b.size(), c.size(), n, k, m);
  if (n == 0 || m == 0) return;
  par::KernelTimer timer(stat_name, GemmFlops(n, k, m),
                         GemmBytes(n, k, m, beta));
  GemmRouted<TransA>(nullptr, nullptr, a.data(), b.data(), c.data(), n, k, m,
                     alpha, beta, &timer);
}

// Fixed 8-lane interleaved fp32 dot product (lane l takes k ≡ l mod 8),
// lanes combined in a fixed pairwise tree. The interleaving is part of the
// accumulation policy: production and naive code both use it, so results
// match bitwise and are independent of any row partition.
float Dot8(const float* __restrict__ x, const float* __restrict__ y,
           int64_t k) {
  float lane[8] = {};
  int64_t kk = 0;
  for (; kk + 8 <= k; kk += 8) {
    for (int64_t l = 0; l < 8; ++l) lane[l] += x[kk + l] * y[kk + l];
  }
  for (; kk < k; ++kk) lane[kk % 8] += x[kk] * y[kk];
  const float s0 = (lane[0] + lane[1]) + (lane[2] + lane[3]);
  const float s1 = (lane[4] + lane[5]) + (lane[6] + lane[7]);
  return s0 + s1;
}

void GemmTransBRows(const float* a, const float* b, float* c, int64_t i_begin,
                    int64_t i_end, int64_t j_begin, int64_t j_end, int64_t k,
                    int64_t m, float alpha, float beta) {
  for (int64_t i = i_begin; i < i_end; ++i) {
    const float* ai = a + i * k;
    float* ci = c + i * m;
    for (int64_t j = j_begin; j < j_end; ++j) {
      const float dot = Dot8(ai, b + j * k, k);
      if (beta == 0.0f) {
        ci[j] = alpha * dot;
      } else {
        ci[j] = BetaBlend(alpha * dot, beta, ci[j]);
      }
    }
  }
}

// Columns per packed GemmTransB j-panel. Dot8's single 8-lane accumulator
// is a serial fma dependency chain, so one dot at a time runs at fma
// *latency*, not throughput; interleaving kTbJb independent output columns
// gives the core kTbJb chains to overlap. Each column's own lane array
// still receives the exact Dot8 update sequence (ascending 8-blocks, then
// the k%8 tail, then the fixed pairwise tree), so outputs stay bitwise
// identical to the unpacked path.
constexpr int64_t kTbJb = 8;

// Packs kTbJb rows of B (the j-panel's dot operands) 8-block-interleaved:
// dst[(kb/8)*kTbJb*8 + jj*8 + l] = B[j0+jj][kb+l] for the vectorizable
// prefix k8 = k - k%8. Pure data movement.
void PackTransBPanel(const float* b, int64_t k, int64_t j0, int64_t k8,
                     float* dst) {
  for (int64_t jj = 0; jj < kTbJb; ++jj) {
    const float* __restrict__ bj = b + (j0 + jj) * k;
    for (int64_t kb = 0; kb < k8; kb += 8) {
      float* __restrict__ blk = dst + kb * kTbJb + jj * 8;
      for (int64_t l = 0; l < 8; ++l) blk[l] = bj[kb + l];
    }
  }
}

// Packed-path rows [i_begin, i_end) of C = alpha·A·Bᵀ + beta·C: j-panels
// are packed in groups sized to stay L2-resident (~1 MiB), then every A row
// sweeps the whole group — A streams through once per group, the packed
// panels replay from L2, and each panel is processed with kTbJb interleaved
// lane arrays. The k%8 tail and any m%kTbJb remainder columns take the
// plain Dot8 path.
void GemmTransBPackedRows(const float* a, const float* b, float* c,
                          int64_t i_begin, int64_t i_end, int64_t k, int64_t m,
                          float alpha, float beta, par::KernelTimer* timer) {
  const int64_t k8 = k - k % 8;
  const int64_t jp_end = m - m % kTbJb;
  const int64_t panel_floats = kTbJb * k8;
  const int64_t group_panels = std::max<int64_t>(
      1, (1 << 20) / std::max<int64_t>(1, panel_floats *
                                              static_cast<int64_t>(
                                                  sizeof(float))));
  thread_local std::vector<float> pack;
  uint64_t pack_bytes = 0;
  uint64_t reuses = 0;
  for (int64_t g0 = 0; g0 < jp_end; g0 += group_panels * kTbJb) {
    const int64_t gend = std::min<int64_t>(jp_end, g0 + group_panels * kTbJb);
    const int64_t npanels = (gend - g0) / kTbJb;
    pack.resize(static_cast<size_t>(npanels * panel_floats));
    for (int64_t p = 0; p < npanels; ++p)
      PackTransBPanel(b, k, g0 + p * kTbJb, k8,
                      pack.data() + p * panel_floats);
    pack_bytes += static_cast<uint64_t>(npanels * panel_floats) * sizeof(float);
    for (int64_t i = i_begin; i < i_end; ++i) {
      const float* __restrict__ ai = a + i * k;
      float* ci = c + i * m;
      for (int64_t p = 0; p < npanels; ++p) {
        const int64_t j0 = g0 + p * kTbJb;
        const float* __restrict__ panel = pack.data() + p * panel_floats;
        float lane[kTbJb][8] = {};
        for (int64_t kb = 0; kb < k8; kb += 8) {
          const float* __restrict__ xv = ai + kb;
          const float* __restrict__ pv = panel + kb * kTbJb;
          for (int64_t jj = 0; jj < kTbJb; ++jj)
            for (int64_t l = 0; l < 8; ++l)
              lane[jj][l] += xv[l] * pv[jj * 8 + l];
        }
        for (int64_t kk = k8; kk < k; ++kk) {
          const float av = ai[kk];
          for (int64_t jj = 0; jj < kTbJb; ++jj)
            lane[jj][kk % 8] += av * b[(j0 + jj) * k + kk];
        }
        for (int64_t jj = 0; jj < kTbJb; ++jj) {
          const float s0 =
              (lane[jj][0] + lane[jj][1]) + (lane[jj][2] + lane[jj][3]);
          const float s1 =
              (lane[jj][4] + lane[jj][5]) + (lane[jj][6] + lane[jj][7]);
          const float dot = s0 + s1;
          if (beta == 0.0f) {
            ci[j0 + jj] = alpha * dot;
          } else {
            ci[j0 + jj] = BetaBlend(alpha * dot, beta, ci[j0 + jj]);
          }
        }
      }
      reuses += static_cast<uint64_t>(npanels);
    }
  }
  if (jp_end < m) {
    GemmTransBRows(a, b, c, i_begin, i_end, jp_end, m, k, m, alpha, beta);
  }
  if (timer != nullptr) timer->AddPanel(pack_bytes, reuses);
}

// kAuto takes the packed TransB path when k is deep enough for the
// interleaved 8-blocks to dominate the tail and there are enough rows to
// amortize the panel copy.
bool UsePackedTransB(int64_t n, int64_t k, int64_t m) {
  switch (g_pack_mode.load(std::memory_order_relaxed)) {
    case GemmPackMode::kAlways:
      return true;
    case GemmPackMode::kNever:
      return false;
    case GemmPackMode::kAuto:
      break;
  }
  return k >= 64 && n >= 8 && m >= kTbJb;
}

// Small-k dot form (1 <= k <= kSmallK): the rank-r reconstruction P·Qᵀ of
// Power-SGD / ACP-SGD. With k <= 8 every Dot8 lane receives at most one
// product, so an element's whole chain is lane[l] = 0 + a_il * b_jl (lanes
// >= k stay 0), the fixed pairwise tree and the alpha multiply. Nothing
// carries across j, so computing a vector of adjacent output columns at once
// reproduces Dot8 bit for bit. (Dot8 would run one serial dot per element
// over stride-k loads of B, slower than the naive loop at these shapes.) B
// is staged k-major once per call so every lane is a contiguous stream
// across j.
constexpr int64_t kSmallK = 8;

// Packs B [m×k] k-major: dst[l*m + j] = B[j][l]. Pure data movement.
void PackTransBSmallK(const float* b, int64_t k, int64_t m, float* dst) {
  for (int64_t j = 0; j < m; ++j) {
    const float* __restrict__ bj = b + j * k;
    for (int64_t l = 0; l < k; ++l) dst[l * m + j] = bj[l];
  }
}

// Contraction is off for the small-k kernel so each product a_il * b_jl
// rounds on its own before any add, exactly like Dot8's lane update `0 +
// x*y` (a fused fma would also turn an underflowing negative product into
// -0 where Dot8 has +0).
#pragma GCC push_options
#pragma GCC optimize("fp-contract=off")

// Dot8's pairwise tree over lanes [L, L + N) of element (i, j), each lane
// holding its single product, with the lanes >= K (Dot8's untouched zeros)
// left out. Adding those zeros changes nothing, and neither does each
// lane's leading `0 +`, except that it turns a -0 product into +0: since
// (0 + x) + (0 + y) equals (x + y) + 0 for all x, y (a sum is -0 only when
// both terms are), SmallKDot applies that `+ 0` once, to the whole tree.
template <int64_t L, int64_t N, int64_t K>
inline float SmallKTree(const float* ai, const float* bt, int64_t m,
                        int64_t j) {
  if constexpr (N == 1) {
    return ai[L] * bt[L * m + j];
  } else if constexpr (L + N / 2 >= K) {
    return SmallKTree<L, N / 2, K>(ai, bt, m, j);
  } else {
    return SmallKTree<L, N / 2, K>(ai, bt, m, j) +
           SmallKTree<L + N / 2, N / 2, K>(ai, bt, m, j);
  }
}

// Dot8's value for element (i, j): the lane tree plus the zero every lane
// starts from. Four adds fewer per element than summing eight zero-started
// lanes at K = 4.
template <int64_t K>
inline float SmallKDot(const float* ai, const float* bt, int64_t m,
                       int64_t j) {
  return SmallKTree<0, 8, K>(ai, bt, m, j) + 0.0f;
}

// Rows [i_begin, i_end) of C = alpha·A·Bᵀ + beta·C over the k-major B (bt).
// The beta branch sits outside the column loop so the beta == 0 loop
// vectorizes at every K.
template <int64_t K>
void GemmTransBSmallKRows(const float* a, const float* bt, float* c,
                          int64_t i_begin, int64_t i_end, int64_t m,
                          float alpha, float beta) {
  for (int64_t i = i_begin; i < i_end; ++i) {
    const float* __restrict__ ai = a + i * K;
    float* __restrict__ ci = c + i * m;
    if (beta == 0.0f) {
      for (int64_t j = 0; j < m; ++j)
        ci[j] = alpha * SmallKDot<K>(ai, bt, m, j);
    } else {
      for (int64_t j = 0; j < m; ++j)
        ci[j] = BetaBlend(alpha * SmallKDot<K>(ai, bt, m, j), beta, ci[j]);
    }
  }
}

// The two epilogues of the streamed reconstruction: what happens to each
// value R of P·Qᵀ as soon as it is computed.
enum class Recon {
  kSubtract,  // e −= R
  kSplit,     // e = x − R, then x = R
};

// Rows [i_begin, i_end) of the reconstruction over the k-major Qᵀ (bt),
// each value SmallKDot's — GemmTransBSmallKRows' at alpha 1, beta 0 —
// fed straight into the epilogue.
template <int64_t K, Recon Ep>
void ReconSmallKRows(const float* p, const float* __restrict__ bt, float* x,
                     float* e, int64_t i_begin, int64_t i_end, int64_t m) {
  for (int64_t i = i_begin; i < i_end; ++i) {
    const float* __restrict__ pi = p + i * K;
    float* __restrict__ ei = e + i * m;
    if constexpr (Ep == Recon::kSubtract) {
      for (int64_t j = 0; j < m; ++j) ei[j] -= SmallKDot<K>(pi, bt, m, j);
    } else {
      float* __restrict__ xi = x + i * m;
      for (int64_t j = 0; j < m; ++j) {
        const float rij = SmallKDot<K>(pi, bt, m, j);
        ei[j] = xi[j] - rij;
        xi[j] = rij;
      }
    }
  }
}

#pragma GCC pop_options

using ReconRowsFn = void (*)(const float*, const float*, float*, float*,
                             int64_t, int64_t, int64_t);
template <Recon Ep>
constexpr ReconRowsFn kReconSmallKRows[kSmallK + 1] = {
    nullptr,
    &ReconSmallKRows<1, Ep>,
    &ReconSmallKRows<2, Ep>,
    &ReconSmallKRows<3, Ep>,
    &ReconSmallKRows<4, Ep>,
    &ReconSmallKRows<5, Ep>,
    &ReconSmallKRows<6, Ep>,
    &ReconSmallKRows<7, Ep>,
    &ReconSmallKRows<8, Ep>};

// The same rows for r > kSmallK: one Dot8 per value over Q's rows, the
// chain GemmTransB's other paths compute.
template <Recon Ep>
void ReconDot8Rows(const float* p, const float* q, float* x, float* e,
                   int64_t i_begin, int64_t i_end, int64_t r, int64_t m) {
  for (int64_t i = i_begin; i < i_end; ++i) {
    const float* pi = p + i * r;
    float* __restrict__ ei = e + i * m;
    for (int64_t j = 0; j < m; ++j) {
      const float rij = Dot8(pi, q + j * r, r);
      if constexpr (Ep == Recon::kSubtract) {
        ei[j] -= rij;
      } else {
        ei[j] = x[i * m + j] - rij;
        x[i * m + j] = rij;
      }
    }
  }
}

// Packs B [m×k] k-major (PackTransBSmallK) into the calling thread's
// scratch and returns it; valid until that thread packs again. Kernels hand
// the pointer to their pool workers, whose own thread_local copy it is not.
const float* PackTransBSmallKScratch(const float* b, int64_t k, int64_t m) {
  thread_local std::vector<float> bt;
  bt.resize(static_cast<size_t>(k * m));
  PackTransBSmallK(b, k, m, bt.data());
  return bt.data();
}

// Output rows [i_begin, i_end) of AddGemm (Residual false) or
// ProjectResidual (true) in kSmallMRows blocks: E += X, P = E·Q, and for
// ProjectResidual E −= P·Qᵀ, per block. K is r for the small-m/small-k
// paths (bt is then the packed Qᵀ) and 0 for r > kSmallK, which takes
// GemmRows and Dot8 instead. Each step is the chain of its stand-alone
// kernel; only the order in which the rows are visited changes.
template <bool Residual, int64_t K>
void ProjectRows(const float* x, float* e, const float* q, const float* bt,
                 float* p, int64_t i_begin, int64_t i_end, int64_t m,
                 int64_t r) {
  for (int64_t i0 = i_begin; i0 < i_end; i0 += kSmallMRows) {
    const int64_t rows = std::min<int64_t>(kSmallMRows, i_end - i0);
    float* __restrict__ eb = e + i0 * m;
    const float* __restrict__ xb = x + i0 * m;
    for (int64_t t = 0; t < rows * m; ++t) eb[t] += xb[t];
    if constexpr (K == 0) {
      GemmRows<false>(e, q, p, i0, i0 + rows, 0, m, r, 1.0f, 0.0f);
      if constexpr (Residual)
        ReconDot8Rows<Recon::kSubtract>(p, q, nullptr, e, i0, i0 + rows, r, m);
    } else {
      if (rows == kSmallMRows) {
        GemmSmallMTile<K, true>(e, q, p, i0, rows, m, 1.0f, 0.0f);
      } else {
        GemmSmallMTile<K, false>(e, q, p, i0, rows, m, 1.0f, 0.0f);
      }
      if constexpr (Residual)
        ReconSmallKRows<K, Recon::kSubtract>(p, bt, nullptr, e, i0, i0 + rows,
                                             m);
    }
  }
}

using ProjectRowsFn = void (*)(const float*, float*, const float*,
                               const float*, float*, int64_t, int64_t,
                               int64_t, int64_t);
template <bool Residual>
constexpr ProjectRowsFn kProjectRows[kSmallK + 1] = {
    &ProjectRows<Residual, 0>, &ProjectRows<Residual, 1>,
    &ProjectRows<Residual, 2>, &ProjectRows<Residual, 3>,
    &ProjectRows<Residual, 4>, &ProjectRows<Residual, 5>,
    &ProjectRows<Residual, 6>, &ProjectRows<Residual, 7>,
    &ProjectRows<Residual, 8>};

// AddGemm / ProjectResidual: one call, timed once under `gemm`.
template <bool Residual>
void Project(std::span<const float> x, std::span<float> e,
             std::span<const float> q, std::span<float> p, int64_t n,
             int64_t m, int64_t r) {
  CheckGemmSizes(e.size(), q.size(), p.size(), n, m, r);
  ACPS_CHECK_MSG(static_cast<int64_t>(x.size()) == n * m, "X size mismatch");
  if (n == 0) return;
  const uint64_t nm = static_cast<uint64_t>(n) * static_cast<uint64_t>(m);
  const uint64_t flops = GemmFlops(n, m, r);
  par::KernelTimer timer(
      "gemm", (Residual ? 2 : 1) * (flops + nm),
      (3 * nm + static_cast<uint64_t>(n + m) * static_cast<uint64_t>(r)) *
          sizeof(float));
  const bool small = r >= 1 && r <= kSmallK;
  const float* bt = nullptr;
  if (Residual && small) {
    bt = PackTransBSmallKScratch(q.data(), r, m);
    timer.AddPanel(static_cast<uint64_t>(r * m) * sizeof(float),
                   static_cast<uint64_t>(n));
  }
  const ProjectRowsFn rows = kProjectRows<Residual>[small ? r : 0];
  if (flops < kSerialInlineFlops) {
    rows(x.data(), e.data(), q.data(), bt, p.data(), 0, n, m, r);
    return;
  }
  // Blocks split on kSmallMRows boundaries, as Gemm's small-m path does.
  par::ParallelForBlocks(GemmRowGrain(m, r), n, kSmallMRows,
                         [&](int64_t, int64_t begin, int64_t end) {
                           rows(x.data(), e.data(), q.data(), bt, p.data(),
                                begin, end, m, r);
                         });
}

// SubtractLowRank / SplitLowRank: x is null for kSubtract.
template <Recon Ep>
void ReconLowRank(std::span<const float> p, std::span<const float> q,
                  float* x, std::span<float> e, int64_t n, int64_t r,
                  int64_t m) {
  CheckGemmSizes(p.size(), q.size(), e.size(), n, r, m);
  if (n == 0 || m == 0) return;
  const uint64_t nm = static_cast<uint64_t>(n) * static_cast<uint64_t>(m);
  const uint64_t factors =
      static_cast<uint64_t>(n + m) * static_cast<uint64_t>(r);
  const uint64_t flops = GemmFlops(n, r, m);
  par::KernelTimer timer(
      "gemm_tb", flops + nm,
      (factors + nm * (Ep == Recon::kSubtract ? 2 : 3)) * sizeof(float));
  const float* bt = nullptr;
  if (r >= 1 && r <= kSmallK) {
    bt = PackTransBSmallKScratch(q.data(), r, m);
    timer.AddPanel(static_cast<uint64_t>(r * m) * sizeof(float),
                   static_cast<uint64_t>(n));
  }
  const auto rows = [&](int64_t begin, int64_t end) {
    if (bt != nullptr) {
      kReconSmallKRows<Ep>[r](p.data(), bt, x, e.data(), begin, end, m);
    } else {
      ReconDot8Rows<Ep>(p.data(), q.data(), x, e.data(), begin, end, r, m);
    }
  };
  if (flops < kSerialInlineFlops) {
    rows(0, n);
    return;
  }
  par::ParallelFor(GemmRowGrain(r, m), n, rows);
}

using SmallKRowsFn = void (*)(const float*, const float*, float*, int64_t,
                              int64_t, int64_t, float, float);
constexpr SmallKRowsFn kSmallKRows[kSmallK + 1] = {
    nullptr,
    &GemmTransBSmallKRows<1>,
    &GemmTransBSmallKRows<2>,
    &GemmTransBSmallKRows<3>,
    &GemmTransBSmallKRows<4>,
    &GemmTransBSmallKRows<5>,
    &GemmTransBSmallKRows<6>,
    &GemmTransBSmallKRows<7>,
    &GemmTransBSmallKRows<8>};

// Shape routing under kAuto and kNever (the small-k path packs only to
// reorder B, not to block for L2); kAlways keeps forcing the packed path.
bool UseSmallKTransB(int64_t k) {
  return k >= 1 && k <= kSmallK &&
         g_pack_mode.load(std::memory_order_relaxed) != GemmPackMode::kAlways;
}

}  // namespace

void SetGemmPackMode(GemmPackMode mode) {
  g_pack_mode.store(mode, std::memory_order_relaxed);
}

GemmPackMode GetGemmPackMode() {
  return g_pack_mode.load(std::memory_order_relaxed);
}

void Gemm(std::span<const float> a, std::span<const float> b,
          std::span<float> c, int64_t n, int64_t k, int64_t m, float alpha,
          float beta) {
  GemmImpl<false>(a, b, c, n, k, m, alpha, beta, "gemm");
}

void GemmTransA(std::span<const float> a, std::span<const float> b,
                std::span<float> c, int64_t n, int64_t k, int64_t m,
                float alpha, float beta) {
  GemmImpl<true>(a, b, c, n, k, m, alpha, beta, "gemm_ta");
}

void GemmTransB(std::span<const float> a, std::span<const float> b,
                std::span<float> c, int64_t n, int64_t k, int64_t m,
                float alpha, float beta) {
  CheckGemmSizes(a.size(), b.size(), c.size(), n, k, m);
  if (n == 0 || m == 0) return;
  const uint64_t flops = GemmFlops(n, k, m);
  par::KernelTimer timer("gemm_tb", flops, GemmBytes(n, k, m, beta));
  if (UseSmallKTransB(k)) {
    const float* packed_b = PackTransBSmallKScratch(b.data(), k, m);
    timer.AddPanel(static_cast<uint64_t>(k * m) * sizeof(float),
                   static_cast<uint64_t>(n));
    const SmallKRowsFn rows = kSmallKRows[k];
    if (flops < kSerialInlineFlops) {
      rows(a.data(), packed_b, c.data(), 0, n, m, alpha, beta);
      return;
    }
    par::ParallelFor(GemmRowGrain(k, m), n, [&](int64_t begin, int64_t end) {
      rows(a.data(), packed_b, c.data(), begin, end, m, alpha, beta);
    });
    return;
  }
  const bool packed = UsePackedTransB(n, k, m);
  if (flops < kSerialInlineFlops) {
    if (packed) {
      GemmTransBPackedRows(a.data(), b.data(), c.data(), 0, n, k, m, alpha,
                           beta, &timer);
    } else {
      GemmTransBRows(a.data(), b.data(), c.data(), 0, n, 0, m, k, m, alpha,
                     beta);
    }
    return;
  }
  par::ParallelFor(GemmRowGrain(k, m), n, [&](int64_t begin, int64_t end) {
    if (packed) {
      GemmTransBPackedRows(a.data(), b.data(), c.data(), begin, end, k, m,
                           alpha, beta, &timer);
    } else {
      GemmTransBRows(a.data(), b.data(), c.data(), begin, end, 0, m, k, m,
                     alpha, beta);
    }
  });
}

void SubtractLowRank(std::span<const float> p, std::span<const float> q,
                     std::span<float> e, int64_t n, int64_t r, int64_t m) {
  ReconLowRank<Recon::kSubtract>(p, q, nullptr, e, n, r, m);
}

void SplitLowRank(std::span<const float> p, std::span<const float> q,
                  std::span<float> x, std::span<float> e, int64_t n, int64_t r,
                  int64_t m) {
  ACPS_CHECK_MSG(static_cast<int64_t>(x.size()) == n * m, "X size mismatch");
  ReconLowRank<Recon::kSplit>(p, q, x.data(), e, n, r, m);
}

void ProjectResidual(std::span<const float> x, std::span<float> e,
                     std::span<const float> q, std::span<float> p, int64_t n,
                     int64_t m, int64_t r) {
  Project<true>(x, e, q, p, n, m, r);
}

void AddGemm(std::span<const float> x, std::span<float> e,
             std::span<const float> q, std::span<float> p, int64_t n,
             int64_t m, int64_t r) {
  Project<false>(x, e, q, p, n, m, r);
}

void AddGemmTransA(std::span<const float> x, std::span<float> e,
                   std::span<const float> p, std::span<float> q, int64_t n,
                   int64_t m, int64_t r) {
  // Q = Eᵀ·P is GemmTransA with A = E stored [n×m]: m output rows, depth n.
  CheckGemmSizes(e.size(), p.size(), q.size(), m, n, r);
  ACPS_CHECK_MSG(static_cast<int64_t>(x.size()) == n * m, "X size mismatch");
  if (n == 0 || m == 0) return;
  const uint64_t nm = static_cast<uint64_t>(n) * static_cast<uint64_t>(m);
  par::KernelTimer timer(
      "gemm_ta", GemmFlops(m, n, r) + nm,
      (3 * nm + static_cast<uint64_t>(n + m) * static_cast<uint64_t>(r)) *
          sizeof(float));
  GemmRouted<true>(x.data(), e.data(), e.data(), p.data(), q.data(), m, n, r,
                   1.0f, 0.0f, &timer);
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  ACPS_CHECK_MSG(a.ndim() == 2 && b.ndim() == 2 && a.cols() == b.rows(),
                 "MatMul shape mismatch: " << ShapeToString(a.shape()) << " x "
                                           << ShapeToString(b.shape()));
  Tensor c({a.rows(), b.cols()});
  Gemm(a.data(), b.data(), c.data(), a.rows(), a.cols(), b.cols());
  return c;
}

Tensor MatMulTA(const Tensor& a, const Tensor& b) {
  ACPS_CHECK_MSG(a.ndim() == 2 && b.ndim() == 2 && a.rows() == b.rows(),
                 "MatMulTA shape mismatch: " << ShapeToString(a.shape())
                                             << "ᵀ x "
                                             << ShapeToString(b.shape()));
  Tensor c({a.cols(), b.cols()});
  GemmTransA(a.data(), b.data(), c.data(), a.cols(), a.rows(), b.cols());
  return c;
}

Tensor MatMulTB(const Tensor& a, const Tensor& b) {
  ACPS_CHECK_MSG(a.ndim() == 2 && b.ndim() == 2 && a.cols() == b.cols(),
                 "MatMulTB shape mismatch: " << ShapeToString(a.shape())
                                             << " x "
                                             << ShapeToString(b.shape())
                                             << "ᵀ");
  Tensor c({a.rows(), b.rows()});
  GemmTransB(a.data(), b.data(), c.data(), a.rows(), a.cols(), b.rows());
  return c;
}

void Scal(float alpha, std::span<float> x) {
  const int64_t n = static_cast<int64_t>(x.size());
  par::KernelTimer timer("scal", static_cast<uint64_t>(n),
                         2ull * static_cast<uint64_t>(n) * sizeof(float));
  par::ParallelFor(par::kDefaultGrain, n, [&](int64_t begin, int64_t end) {
    float* __restrict__ xs = x.data();
    for (int64_t i = begin; i < end; ++i) xs[i] *= alpha;
  });
}

// ---------------------------------------------------------------------------
// Naive references. The definitional loop nest — one output element at a
// time, its accumulator walked in ascending k with the same explicit
// std::fmaf as production — single-threaded, no blocking or reuse. The
// saxpy-form pair is additionally pinned to scalar code
// (`no-tree-vectorize`): GCC's -O3 loop interchange otherwise rewrites the
// nest into a blocked vector kernel, which both defeats the point of a
// reference baseline and (observed) splits the fma into a separate
// mul + add, breaking bitwise parity with production.
// ---------------------------------------------------------------------------

__attribute__((optimize("no-tree-vectorize"))) void GemmNaive(
    std::span<const float> a, std::span<const float> b, std::span<float> c,
    int64_t n, int64_t k, int64_t m, float alpha, float beta) {
  CheckGemmSizes(a.size(), b.size(), c.size(), n, k, m);
  for (int64_t i = 0; i < n; ++i) {
    const float* ai = a.data() + i * k;
    float* ci = c.data() + i * m;
    for (int64_t j = 0; j < m; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        const float aik = alpha * ai[kk];
        acc = std::fmaf(aik, b[kk * m + j], acc);
      }
      ci[j] = beta == 0.0f ? acc : BetaBlend(acc, beta, ci[j]);
    }
  }
}

__attribute__((optimize("no-tree-vectorize"))) void GemmTransANaive(
    std::span<const float> a, std::span<const float> b, std::span<float> c,
    int64_t n, int64_t k, int64_t m, float alpha, float beta) {
  CheckGemmSizes(a.size(), b.size(), c.size(), n, k, m);
  for (int64_t i = 0; i < n; ++i) {
    float* ci = c.data() + i * m;
    for (int64_t j = 0; j < m; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        const float aik = alpha * a[kk * n + i];
        acc = std::fmaf(aik, b[kk * m + j], acc);
      }
      ci[j] = beta == 0.0f ? acc : BetaBlend(acc, beta, ci[j]);
    }
  }
}

void GemmTransBNaive(std::span<const float> a, std::span<const float> b,
                     std::span<float> c, int64_t n, int64_t k, int64_t m,
                     float alpha, float beta) {
  CheckGemmSizes(a.size(), b.size(), c.size(), n, k, m);
  for (int64_t i = 0; i < n; ++i) {
    const float* ai = a.data() + i * k;
    float* ci = c.data() + i * m;
    for (int64_t j = 0; j < m; ++j) {
      const float* bj = b.data() + j * k;
      float lane[8] = {};
      for (int64_t kk = 0; kk < k; ++kk) lane[kk % 8] += ai[kk] * bj[kk];
      const float s0 = (lane[0] + lane[1]) + (lane[2] + lane[3]);
      const float s1 = (lane[4] + lane[5]) + (lane[6] + lane[7]);
      const float dot = s0 + s1;
      if (beta == 0.0f) {
        ci[j] = alpha * dot;
      } else {
        ci[j] = BetaBlend(alpha * dot, beta, ci[j]);
      }
    }
  }
}

}  // namespace acps
