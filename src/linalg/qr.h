// Reduced QR decomposition via Householder reflections, and the column
// orthogonalization the Power-SGD family runs on it.
//
// Power-SGD and ACP-SGD orthogonalize their low-rank factor with a reduced QR
// (the paper uses torch.linalg.qr). For an input A[n×r] with n >= r we return
// Q[n×r] with orthonormal columns and R[r×r] upper triangular, A = Q·R.
#pragma once

#include "tensor/tensor.h"

namespace acps {

struct QrResult {
  Tensor q;  // [n×r], orthonormal columns
  Tensor r;  // [r×r], upper triangular
};

// Reduced QR of a[n×r], n >= r >= 1. Throws acps::Error on bad shapes.
[[nodiscard]] QrResult ReducedQr(const Tensor& a);

// In-place orthogonalization of the columns of a[n×r] (n >= r): a = Q of
// ReducedQr(a). Q = H_0…H_{r-1}·[I_r; 0] is a product of reflectors (a zero
// column gives tau = 0, H = I), so its columns are orthonormal for every
// finite input, rank-deficient ones included, and identical on every worker.
void Orthogonalize(Tensor& a);

// Returns max |QᵀQ - I| — used by tests and as a debugging aid.
[[nodiscard]] float OrthonormalityError(const Tensor& q);

}  // namespace acps
