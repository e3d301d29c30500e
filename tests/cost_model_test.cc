#include "comm/cost_model.h"

#include <gtest/gtest.h>

#include "tensor/check.h"

namespace acps::comm {
namespace {

TEST(CostModel, SingleWorkerIsFree) {
  CostModel cm(NetworkSpec::Ethernet10G(), 1);
  EXPECT_EQ(cm.AllReduce(1e6), 0.0);
  EXPECT_EQ(cm.AllGather(1e6), 0.0);
  EXPECT_EQ(cm.AllReduceStartup(), 0.0);
}

TEST(CostModel, AllReduceFormula) {
  const NetworkSpec net = NetworkSpec::Ethernet10G();
  const int p = 32;
  CostModel cm(net, p);
  const double bytes = 1e6;
  const double expect = 2.0 * 31 * net.alpha_s +
                        2.0 * 31 / 32.0 * bytes / net.beta_bytes_per_s;
  EXPECT_DOUBLE_EQ(cm.AllReduce(bytes), expect);
}

TEST(CostModel, StartupLinearInWorkers) {
  const NetworkSpec net = NetworkSpec::Ethernet10G();
  const double s8 = CostModel(net, 8).AllReduceStartup();
  const double s64 = CostModel(net, 64).AllReduceStartup();
  EXPECT_NEAR(s64 / s8, 63.0 / 7.0, 1e-9);
}

TEST(CostModel, BandwidthTermNearlyConstantInWorkers) {
  // The ring all-reduce byte term 2(p-1)/p·B/β saturates: this is why the
  // methods scale in Fig 12.
  const NetworkSpec net = NetworkSpec::Ethernet10G();
  const double big = 1e9;
  const double t8 =
      CostModel(net, 8).AllReduce(big) - CostModel(net, 8).AllReduceStartup();
  const double t64 = CostModel(net, 64).AllReduce(big) -
                     CostModel(net, 64).AllReduceStartup();
  EXPECT_LT(t64 / t8, 1.15);
}

TEST(CostModel, AllGatherLinearInWorkers) {
  // (p-1)·B/β per worker — Table II's Sign/Top-k scalability problem.
  const NetworkSpec net = NetworkSpec::Ethernet10G();
  const double big = 1e8;
  const double t8 = CostModel(net, 8).AllGather(big);
  const double t64 = CostModel(net, 64).AllGather(big);
  EXPECT_NEAR(t64 / t8, 63.0 / 7.0, 0.01);
}

TEST(CostModel, FusionAmortizesStartup) {
  // Paper anchor: two 32KB all-reduces cost more than one 64KB all-reduce.
  CostModel cm(NetworkSpec::Ethernet10G(), 32);
  const double two_small = 2.0 * cm.AllReduce(32.0 * 1024);
  const double one_big = cm.AllReduce(64.0 * 1024);
  EXPECT_GT(two_small, one_big * 1.5);
}

TEST(CostModel, PaperAnchor10GbE) {
  // ~1.2ms for a 64KB all-reduce on 32 workers, ~2.0ms for two 32KB ones.
  CostModel cm(NetworkSpec::Ethernet10G(), 32);
  const double one = cm.AllReduce(64.0 * 1024) * 1e3;
  const double two = 2.0 * cm.AllReduce(32.0 * 1024) * 1e3;
  EXPECT_GT(one, 0.4);
  EXPECT_LT(one, 2.0);
  EXPECT_GT(two, 1.0);
  EXPECT_LT(two, 3.0);
}

TEST(CostModel, NetworksOrdered) {
  const double bytes = 1e8;
  const double t1 = CostModel(NetworkSpec::Ethernet1G(), 32).AllReduce(bytes);
  const double t10 = CostModel(NetworkSpec::Ethernet10G(), 32).AllReduce(bytes);
  const double t100 =
      CostModel(NetworkSpec::Infiniband100G(), 32).AllReduce(bytes);
  EXPECT_GT(t1, t10 * 5);
  EXPECT_GT(t10, t100 * 5);
}

TEST(CostModel, MonotoneInBytes) {
  CostModel cm(NetworkSpec::Ethernet10G(), 16);
  double prev = -1.0;
  for (double b : {0.0, 1e3, 1e5, 1e7, 1e9}) {
    const double t = cm.AllReduce(b);
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(CostModel, RejectsBadConfig) {
  EXPECT_THROW(CostModel(NetworkSpec::Ethernet10G(), 0), Error);
  NetworkSpec bad = NetworkSpec::Ethernet10G();
  bad.beta_bytes_per_s = 0;
  EXPECT_THROW(CostModel(bad, 4), Error);
}

}  // namespace
}  // namespace acps::comm
