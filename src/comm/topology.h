// Cluster topology description and the hierarchical (node-aware)
// all-reduce cost model.
//
// The paper's testbed is 8 nodes x 4 GPUs: intra-node PCIe is an order of
// magnitude faster than the 10GbE inter-node links. Flat rings treat all
// links equally; hierarchical all-reduce (BlueConnect, NCCL trees —
// paper ref [40]) splits the collective into
//     intra-node reduce-scatter -> inter-node all-reduce (leaders only)
//     -> intra-node all-gather,
// paying the slow network only 1/gpus_per_node of the flat volume per NIC.
// This module provides the analytic model.
#pragma once

#include "comm/cost_model.h"

namespace acps::comm {

struct ClusterTopology {
  int nodes = 8;
  int gpus_per_node = 4;
  NetworkSpec inter_node = NetworkSpec::Ethernet10G();
  // PCIe3 x16-ish effective: ~10 GB/s, microsecond-scale latency.
  NetworkSpec intra_node{"pcie3", 2e-6, 10e9, 0.8};

  [[nodiscard]] int world_size() const { return nodes * gpus_per_node; }

  // Paper testbed: 8 x 4 RTX 2080 Ti over 10GbE.
  static ClusterTopology Paper32();
};

class HierarchicalCostModel {
 public:
  explicit HierarchicalCostModel(ClusterTopology topo);

  // Flat ring all-reduce over all world_size workers, where the ring's
  // bottleneck link is the inter-node network (the standard deployment).
  [[nodiscard]] double FlatAllReduce(double bytes) const;

  // Two-level all-reduce: intra-node reduce-scatter + inter-node ring
  // all-reduce of 1/gpus_per_node of the data + intra-node all-gather.
  [[nodiscard]] double HierarchicalAllReduce(double bytes) const;

  // Speedup of hierarchical over flat for this payload.
  [[nodiscard]] double Speedup(double bytes) const;

  [[nodiscard]] const ClusterTopology& topology() const { return topo_; }

 private:
  ClusterTopology topo_;
  CostModel flat_;
  CostModel intra_;
  CostModel inter_;
};

}  // namespace acps::comm
