#include "linalg/qr.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "par/accum_policy.h"
#include "par/kernel_stats.h"
#include "par/parallel.h"
#include "tensor/matrix_ops.h"

namespace acps {
namespace {

// Column-panel parallelism: the trailing-update and back-accumulation loops
// apply one reflector to many independent columns. Each column is processed
// serially by exactly one task, so any column partition is bitwise equal to
// the serial loop. The grain keeps small panels (short columns or few of
// them) inline on the caller.
int64_t ColumnGrain(int64_t col_len) {
  return std::max<int64_t>(1, par::kDefaultGrain /
                                  std::max<int64_t>(1, col_len));
}

}  // namespace

void Orthogonalize(Tensor& a) {
  ACPS_CHECK_MSG(a.ndim() == 2 && a.rows() >= a.cols() && a.cols() >= 1,
                 "Orthogonalize needs n >= r >= 1, got "
                     << ShapeToString(a.shape()));
  const int64_t n = a.rows(), r = a.cols();
  par::KernelTimer timer(
      "qr", static_cast<uint64_t>(4 * n * r * r));  // ~2nr² factor + 2nr² Q

  // Householder QR is inherently sequential in k; the column norms and
  // reflector dot products inside each step run over ascending row index on
  // every rank (the ParallelFor below partitions columns, never a single
  // reduction), so the factorization is bitwise reproducible.
  ACPS_ACCUM_POLICY(serial_index_order);

  // Factor in a's own storage: Householder vectors below the diagonal, R on
  // and above it (the Q formation never reads R). Then form Q explicitly by
  // back-accumulation and move it into a.
  float* w = a.data().data();
  std::vector<float> tau(static_cast<size_t>(r), 0.0f);

  for (int64_t k = 0; k < r; ++k) {
    // Compute the Householder reflector for column k, rows k..n-1.
    double norm_sq = 0.0;
    for (int64_t i = k; i < n; ++i) {
      const double v = w[i * r + k];
      norm_sq += v * v;
    }
    const double norm = std::sqrt(norm_sq);
    const double akk = w[k * r + k];
    if (norm < 1e-30) {
      tau[static_cast<size_t>(k)] = 0.0f;  // zero column: skip reflection
      continue;
    }
    const double alpha = (akk >= 0.0) ? -norm : norm;
    // v = x - alpha*e1, normalized so v[k] = 1.
    const double vkk = akk - alpha;
    for (int64_t i = k + 1; i < n; ++i)
      w[i * r + k] = static_cast<float>(w[i * r + k] / vkk);
    tau[static_cast<size_t>(k)] =
        static_cast<float>((alpha - akk) / alpha);  // = -vkk/alpha
    w[k * r + k] = static_cast<float>(alpha);

    // Apply the reflector to remaining columns: A <- (I - tau v vᵀ) A.
    // Columns are independent; each runs serially on one task.
    const double tau_k = tau[static_cast<size_t>(k)];
    par::ParallelFor(ColumnGrain(n - k), r - (k + 1), [&](int64_t b, int64_t e) {
      for (int64_t j = k + 1 + b; j < k + 1 + e; ++j) {
        double dot = w[k * r + j];
        for (int64_t i = k + 1; i < n; ++i)
          dot += double(w[i * r + k]) * w[i * r + j];
        const double t = tau_k * dot;
        w[k * r + j] = static_cast<float>(w[k * r + j] - t);
        for (int64_t i = k + 1; i < n; ++i)
          w[i * r + j] = static_cast<float>(w[i * r + j] - t * w[i * r + k]);
      }
    });
  }

  // Form Q = H_0 H_1 ... H_{r-1} · [I_r; 0] by applying reflectors backwards.
  Tensor q({n, r});
  float* qd = q.data().data();
  for (int64_t j = 0; j < r; ++j) qd[j * r + j] = 1.0f;
  for (int64_t k = r - 1; k >= 0; --k) {
    const float tk = tau[static_cast<size_t>(k)];
    if (tk == 0.0f) continue;
    par::ParallelFor(ColumnGrain(n - k), r, [&](int64_t b, int64_t e) {
      for (int64_t j = b; j < e; ++j) {
        double dot = qd[k * r + j];
        for (int64_t i = k + 1; i < n; ++i)
          dot += double(w[i * r + k]) * qd[i * r + j];
        const double t = tk * dot;
        qd[k * r + j] = static_cast<float>(qd[k * r + j] - t);
        for (int64_t i = k + 1; i < n; ++i)
          qd[i * r + j] = static_cast<float>(qd[i * r + j] - t * w[i * r + k]);
      }
    });
  }

  a = std::move(q);
}

float OrthonormalityError(const Tensor& q) {
  ACPS_CHECK(q.ndim() == 2);
  const Tensor gram = MatMulTA(q, q);
  float err = 0.0f;
  for (int64_t i = 0; i < gram.rows(); ++i)
    for (int64_t j = 0; j < gram.cols(); ++j) {
      const float target = (i == j) ? 1.0f : 0.0f;
      err = std::max(err, std::abs(gram.at(i, j) - target));
    }
  return err;
}

}  // namespace acps
