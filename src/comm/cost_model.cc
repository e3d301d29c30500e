#include "comm/cost_model.h"

#include "tensor/check.h"

namespace acps::comm {

NetworkSpec NetworkSpec::Ethernet1G() {
  // Commodity 1Gb/s Ethernet: ~125 MB/s, higher software latency.
  return NetworkSpec{"1GbE", 30e-6, 0.125e9, 0.45};
}

NetworkSpec NetworkSpec::Ethernet10G() {
  // The paper's main testbed: 10Gb/s Ethernet. α calibrated from the
  // "two 32KB all-reduces ≈ 2.0ms vs one 64KB ≈ 1.2ms (p=32)" anchor.
  return NetworkSpec{"10GbE", 10e-6, 1.25e9, 0.45};
}

NetworkSpec NetworkSpec::Infiniband100G() {
  return NetworkSpec{"100GbIB", 2e-6, 12.5e9, 0.55};
}

CostModel::CostModel(NetworkSpec net, int world_size)
    : net_(std::move(net)), p_(world_size) {
  ACPS_CHECK_MSG(p_ >= 1, "world_size must be >= 1");
  ACPS_CHECK_MSG(net_.beta_bytes_per_s > 0 && net_.alpha_s >= 0,
                 "invalid network spec");
}

double CostModel::AllReduce(double bytes) const {
  if (p_ == 1 || bytes <= 0) return 0.0;
  const double p = p_;
  return 2.0 * (p - 1.0) * net_.alpha_s +
         2.0 * (p - 1.0) / p * bytes / net_.beta_bytes_per_s;
}

double CostModel::AllGather(double bytes_per_worker) const {
  if (p_ == 1 || bytes_per_worker <= 0) return 0.0;
  const double p = p_;
  return (p - 1.0) * net_.alpha_s +
         (p - 1.0) * bytes_per_worker /
             (net_.beta_bytes_per_s * net_.allgather_efficiency);
}

double CostModel::AllReduceStartup() const {
  return p_ == 1 ? 0.0 : 2.0 * (p_ - 1.0) * net_.alpha_s;
}

}  // namespace acps::comm
