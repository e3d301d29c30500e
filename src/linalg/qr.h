// Column orthogonalization via Householder reduced QR, the one the
// Power-SGD family runs.
//
// Power-SGD and ACP-SGD orthogonalize their low-rank factor with a reduced QR
// (the paper uses torch.linalg.qr) and keep only Q: for A[n×r] with n >= r,
// A = Q·R with Q[n×r] orthonormal columns and R[r×r] upper triangular.
#pragma once

#include "tensor/tensor.h"

namespace acps {

// In-place orthogonalization of the columns of a[n×r], n >= r >= 1: a = Q
// (throws acps::Error on other shapes). The factorization runs in a's own
// storage and only Q is allocated. Q = H_0…H_{r-1}·[I_r; 0] is a product of
// reflectors (a zero column gives tau = 0, H = I), so its columns are
// orthonormal for every finite input, rank-deficient ones included, and
// identical on every worker.
void Orthogonalize(Tensor& a);

// Returns max |QᵀQ - I| — used by tests and as a debugging aid.
[[nodiscard]] float OrthonormalityError(const Tensor& q);

}  // namespace acps
