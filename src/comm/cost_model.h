// Analytical α-β communication cost model (Thakur et al. / Table II).
//
// Used by the discrete-event simulator to price collectives on networks we
// do not have (1GbE, 10GbE, 100Gb InfiniBand). Ring all-reduce on p workers
// over B bytes costs
//     T = 2(p−1)·α + 2(p−1)/p · B/β
// — the startup term is linear in p (why tensor fusion matters) and the
// bandwidth term is ~constant in p (why ring all-reduce scales, Fig. 12).
// All-gather carries an efficiency discount (calibration in DESIGN.md §5).
#pragma once

#include <string>

namespace acps::comm {

struct NetworkSpec {
  std::string name;
  double alpha_s = 10e-6;          // per-hop startup latency (seconds)
  double beta_bytes_per_s = 1.25e9;  // per-link bandwidth (bytes/second)
  // Relative efficiency of all-gather vs ring all-reduce (<1): models the
  // less-optimized collective plus pack/unpack passes the paper observes
  // ("Sign-SGD comm 24% higher than S-SGD despite 32x compression").
  double allgather_efficiency = 0.45;

  // Paper testbed presets.
  static NetworkSpec Ethernet1G();
  static NetworkSpec Ethernet10G();   // the main testbed
  static NetworkSpec Infiniband100G();
};

class CostModel {
 public:
  CostModel(NetworkSpec net, int world_size);

  [[nodiscard]] const NetworkSpec& net() const noexcept { return net_; }
  [[nodiscard]] int world_size() const noexcept { return p_; }

  // Ring all-reduce over `bytes` (every worker sends/receives
  // 2(p-1)/p·bytes).
  [[nodiscard]] double AllReduce(double bytes) const;

  // Ring all-gather where each worker contributes `bytes_per_worker`.
  [[nodiscard]] double AllGather(double bytes_per_worker) const;

  // The startup-only cost of one all-reduce — what tensor fusion amortizes.
  [[nodiscard]] double AllReduceStartup() const;

 private:
  NetworkSpec net_;
  int p_;
};

}  // namespace acps::comm
