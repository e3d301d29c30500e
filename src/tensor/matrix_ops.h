// Row-major BLAS-like matrix kernels on raw spans and Tensors.
//
// These are the compute primitives behind Power-SGD / ACP-SGD compression
// (M·Q, Mᵀ·P), the DNN substrate (linear layers), and the linalg module.
// The production kernels are tiled, register-blocked, and multi-threaded on
// the deterministic pool (par/parallel.h); each also has a `*Naive`
// reference — a plain loop nest implementing the identical accumulation
// policy — retained for the bitwise parity tests (tests/kernel_parity_test)
// and as the speedup baseline of bench/bench_kernels.
//
// ACCUMULATION POLICY (uniform across the GEMM family, DESIGN.md §6e):
//  * All accumulation is fp32. Every output element is produced by exactly
//    one task, so results are bitwise identical for any thread count.
//  * beta handling: the result is written as `beta_term + alpha_term`,
//    where beta_term is 0 when beta == 0 (the old C contents — even NaN or
//    garbage — are overwritten) and beta * c_old otherwise. The beta != 0
//    blend goes through one shared non-inlined helper (BetaBlend in the
//    .cc) so FMA contraction cannot split the expression differently in
//    the production vs naive bodies.
//  * saxpy-form kernels (Gemm, GemmTransA) accumulate contributions
//    (alpha * a_ik) * b_kj into a single per-element fp32 accumulator that
//    starts at 0, in ascending k order, each contribution folded in with an
//    explicit std::fmaf (single rounding). The fma is spelled out rather
//    than left to -ffp-contract because GCC contracts the production tile
//    but not the interchanged naive nest, which silently breaks parity.
//    For 1 <= m <= 8 (the rank-r factor products M·Q and Mᵀ·P) both take a
//    small-m path that vectorizes across output rows: Gemm blocks 32 rows
//    and copies their tile k-major first, alpha folded — the same single
//    multiply; GemmTransA streams A's rows in blocks and walks 16-column
//    strips, parking each strip's accumulators in scratch between blocks.
//    This is bitwise safe because each element's chain above is untouched,
//    only computed beside other rows instead of other columns.
//  * the dot-form kernel (GemmTransB) accumulates a_ik * b_jk into 8
//    fixed interleaved fp32 lanes (lane l takes k ≡ l mod 8), combine the
//    lanes in a fixed pairwise tree, and apply alpha once to the combined
//    dot product. For 1 <= k <= 8 (the rank-r reconstruction P·Qᵀ)
//    GemmTransB copies B once into k-major order and vectorizes across
//    output columns; this is bitwise safe because each lane then gets at
//    most one product, so an element's chain is just `0 + a_il * b_jl` per
//    lane plus the fixed tree, whatever columns it is computed beside.
//    The low-rank reconstruction kernels below (SubtractLowRank,
//    SplitLowRank, ProjectResidual) compute each value with the same
//    functions and consume it in an epilogue, so it is never stored.
// Tiling and row-partitioning never reorder any element's accumulation
// chain, which is what makes kernel == naive bitwise at every thread count.
//
// Above the register tiles sits an L2-blocked packed-panel layer (DESIGN.md
// §6e): macro-panels of A and B are copied into contiguous per-thread
// scratch (kMr-row / kNj-column interleaved) and reused across the j/i
// loops. Packing is a pure data-layout change and k-splitting only spills /
// reloads the fp32 accumulator (exact), so the packed paths stay bitwise
// identical to the unpacked ones and to the naive references.
#pragma once

#include <span>

#include "tensor/tensor.h"

namespace acps {

// Routing policy for the L2-blocked packed-panel GEMM layer. kAuto (the
// default) picks packed vs direct per call from the problem shape; kAlways
// forces every GEMM through the packed path (parity tests use this to pin
// the packed kernels against the naive references at boundary shapes);
// kNever forces the pre-packing register-blocked path. Under kAuto and
// kNever a GemmTransB with k <= 8 takes the small-k path, and a Gemm or
// GemmTransA with m <= 8 the small-m path. All three produce
// bitwise-identical results — the mode only moves data layout and
// scheduling, never an accumulation chain.
enum class GemmPackMode { kAuto, kAlways, kNever };
void SetGemmPackMode(GemmPackMode mode);
[[nodiscard]] GemmPackMode GetGemmPackMode();

// C[n×m] = alpha * A[n×k] · B[k×m] + beta * C. Row-major, no aliasing.
void Gemm(std::span<const float> a, std::span<const float> b,
          std::span<float> c, int64_t n, int64_t k, int64_t m,
          float alpha = 1.0f, float beta = 0.0f);

// C[n×m] = alpha * Aᵀ[n×k] · B[k×m] + beta * C, where A is stored as [k×n].
void GemmTransA(std::span<const float> a, std::span<const float> b,
                std::span<float> c, int64_t n, int64_t k, int64_t m,
                float alpha = 1.0f, float beta = 0.0f);

// C[n×m] = alpha * A[n×k] · Bᵀ[k×m] + beta * C, where B is stored as [m×k].
void GemmTransB(std::span<const float> a, std::span<const float> b,
                std::span<float> c, int64_t n, int64_t k, int64_t m,
                float alpha = 1.0f, float beta = 0.0f);

// Tensor conveniences (shapes checked). Result is freshly allocated.
[[nodiscard]] Tensor MatMul(const Tensor& a, const Tensor& b);      // A·B
[[nodiscard]] Tensor MatMulTA(const Tensor& a, const Tensor& b);    // Aᵀ·B
[[nodiscard]] Tensor MatMulTB(const Tensor& a, const Tensor& b);    // A·Bᵀ

// x *= alpha.
void Scal(float alpha, std::span<float> x);

// ---------------------------------------------------------------------------
// Rank-r reconstruction with a fused epilogue. The low-rank compressors only
// consume M̂ = P·Qᵀ (P [n×r], Q [m×r]) elementwise against an n×m buffer, so
// these kernels stream it one row at a time into a fixed epilogue instead
// of storing it. For r <= 8, Qᵀ is packed k-major once per call. Every M̂
// value is GemmTransB's (alpha 1, beta 0) bit for bit: the small-k chain
// for r <= 8 and Dot8 beyond. Rows are partitioned on the pool, and each
// call is timed once under the `gemm_tb` kernel stat. No aliasing.
// ---------------------------------------------------------------------------

// E −= P·Qᵀ (ACP-SGD's residual update).
void SubtractLowRank(std::span<const float> p, std::span<const float> q,
                     std::span<float> e, int64_t n, int64_t r, int64_t m);

// E = X − P·Qᵀ, then X = P·Qᵀ (Power-SGD's residual and M̂ in one pass).
void SplitLowRank(std::span<const float> p, std::span<const float> q,
                  std::span<float> x, std::span<float> e, int64_t n, int64_t r,
                  int64_t m);

// One sweep over E [n×m] in blocks of 32 rows: E += X, then P = E·Q on the
// small-m Gemm path (Q [m×r], P [n×r]), then E −= P·Qᵀ while the block is
// still in cache. Bitwise equal to the three passes `E += X` elementwise,
// Gemm, SubtractLowRank, at any thread count; timed once under `gemm`.
void ProjectResidual(std::span<const float> x, std::span<float> e,
                     std::span<const float> q, std::span<float> p, int64_t n,
                     int64_t m, int64_t r);

// ---------------------------------------------------------------------------
// Error-feedback adds folded into the factor product that reads their
// result. Bitwise equal to `E += X` elementwise followed by the plain
// product, at any thread count. No aliasing between X, E and the factors.
// ---------------------------------------------------------------------------

// ProjectResidual without its residual stage: E += X, then P = E·Q, per
// 32-row block (Power-SGD's P step, where E is the gradient M and X the
// residual). Timed once under `gemm`.
void AddGemm(std::span<const float> x, std::span<float> e,
             std::span<const float> q, std::span<float> p, int64_t n,
             int64_t m, int64_t r);

// E += X, then Q = Eᵀ·P (P [n×r], Q [m×r]; ACP-SGD's error-feedback Q
// step). For r <= 8 each row block of E takes the add just before the
// small-m GemmTransA kernel reads it. Timed once under `gemm_ta`.
void AddGemmTransA(std::span<const float> x, std::span<float> e,
                   std::span<const float> p, std::span<float> q, int64_t n,
                   int64_t m, int64_t r);

// ---------------------------------------------------------------------------
// Naive references: single-threaded definitional loop nests (one output
// element at a time, pinned to scalar code — see the .cc) implementing the
// exact accumulation policy above. The production kernels must match them
// bitwise (enforced by tests/kernel_parity_test at thread counts 1/2/4/8);
// the bench harness reports production/naive speedups against them.
// ---------------------------------------------------------------------------
void GemmNaive(std::span<const float> a, std::span<const float> b,
               std::span<float> c, int64_t n, int64_t k, int64_t m,
               float alpha = 1.0f, float beta = 0.0f);
void GemmTransANaive(std::span<const float> a, std::span<const float> b,
                     std::span<float> c, int64_t n, int64_t k, int64_t m,
                     float alpha = 1.0f, float beta = 0.0f);
void GemmTransBNaive(std::span<const float> a, std::span<const float> b,
                     std::span<float> c, int64_t n, int64_t k, int64_t m,
                     float alpha = 1.0f, float beta = 0.0f);

}  // namespace acps
