// ACP-SGD — Alternate Compressed Power-SGD, the paper's contribution
// (Algorithms 1 and 2).
//
// Instead of computing and aggregating *both* low-rank factors every step
// (Power-SGD), ACP-SGD alternates:
//
//   odd step t:   Q_t ← Orthogonalize(Q_{t-1})
//                 P_t ← (M_t + E_{t-1}) · Q_t          (compute P)
//                 E_t ← (M_t + E_{t-1}) − P_t · Q_tᵀ   (update E, local P)
//                 P_t ← AllReduce-mean(P_t)            (aggregate P)
//                 M̂_t = P_t · Q_tᵀ
//
//   even step t:  P_t ← Orthogonalize(P_{t-1})
//                 Q_t ← (M_t + E_{t-1})ᵀ · P_t         (compute Q)
//                 E_t ← (M_t + E_{t-1}) − P_t · Q_tᵀ   (update E, local Q)
//                 Q_t ← AllReduce-mean(Q_t)            (aggregate Q)
//                 M̂_t = P_t · Q_tᵀ
//
// Two consequences (paper §IV-A):
//  * the single all-reduce per step is issued after all local compute for
//    the tensor has finished — communication is NON-BLOCKING, so WFBP and
//    tensor fusion apply exactly as in S-SGD;
//  * compression and communication costs are roughly halved versus
//    Power-SGD (one matmul + one orthogonalization + one all-reduce).
//
// Query reuse (orthogonalizing the previous step's factor rather than a
// fresh random one) and error feedback are both needed for accuracy —
// the Fig. 7 ablations; both are toggleable here for exactly that study.
//
// To expose the non-blocking structure to the runtime, the step is split
// into LocalStep (all compute; returns a view of the factor to communicate)
// and Finish (called after the factor was aggregated; produces M̂). The
// convenience Step() runs both around a callback.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "compress/powersgd.h"  // AllReduceMeanFn, EffectiveRank, ...
#include "linalg/qr.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace acps::compress {

struct AcpSgdConfig {
  int64_t rank = 4;
  bool error_feedback = true;  // Fig. 7 ablation: "w/o EF"
  bool reuse = true;           // Fig. 7 ablation: "w/o reuse"
  uint64_t seed = 0xAC9ull;    // must be identical on all workers

  // Returns "" when the config is usable, otherwise one descriptive message
  // naming every violated constraint. Checked at AcpSgd construction, so
  // every runtime built on it fails with the same diagnostics.
  [[nodiscard]] std::string Validate() const;
};

class AcpSgd {
 public:
  explicit AcpSgd(AcpSgdConfig config);

  // --- Non-blocking API ------------------------------------------------
  // Runs all local compute for this step of `tensor_id` on gradient matrix
  // `m` and returns the factor (P on odd steps, Q on even steps) that must
  // now be mean-all-reduced. The returned span aliases internal state and
  // stays valid until Finish(). With error feedback the residual is
  // updated in place here, before any communication: E += M, the factor
  // is computed from E, then E −= P·Qᵀ, streamed row by row (no n×m
  // temporary). A P step does all three in one sweep over 32-row blocks of
  // E (ProjectResidual); a Q step needs all of M + E for Mᵀ·P first, so it
  // takes two: E += M folded into Mᵀ·P (AddGemmTransA), then one residual
  // pass (SubtractLowRank).
  [[nodiscard]] std::span<float> LocalStep(int64_t tensor_id, const Tensor& m);

  // After the factor returned by LocalStep was aggregated in place,
  // reconstructs the aggregated gradient M̂ = P·Qᵀ straight into `out`,
  // which must be [n×m] like m (checked before any state changes).
  void Finish(int64_t tensor_id, Tensor& out);

  // --- Blocking convenience --------------------------------------------
  // LocalStep + allreduce + Finish; replaces `m` with M̂. E is already this
  // step's residual when `allreduce` runs, so a throwing callback leaves
  // it updated (and the step pending), exactly as LocalStep left it.
  void Step(int64_t tensor_id, Tensor& m, const AllReduceMeanFn& allreduce);

  [[nodiscard]] const AcpSgdConfig& config() const noexcept { return config_; }

  // Elements communicated per step for an n×m matrix — r·n or r·m
  // depending on parity; the average is r(n+m)/2, half of Power-SGD.
  [[nodiscard]] int64_t CommElements(int64_t n, int64_t m,
                                     uint64_t step) const;

  // Step counter of a tensor (starts at 0; the first LocalStep runs step 1,
  // an odd/P step).
  [[nodiscard]] uint64_t step_of(int64_t tensor_id) const;

 private:
  struct State {
    Tensor p;       // [n×r]
    Tensor q;       // [m×r]
    Tensor e;       // [n×m] residual (if EF)
    uint64_t t = 0; // completed steps
    bool pending = false;  // LocalStep issued, Finish outstanding
  };

  State& state_for(int64_t tensor_id, int64_t n, int64_t m, int64_t r);

  AcpSgdConfig config_;
  std::unordered_map<int64_t, State> states_;
};

}  // namespace acps::compress
