// Tests for the per-tensor compression policy (ByteComp-lite).
#include <gtest/gtest.h>

#include "core/policy.h"
#include "models/model_zoo.h"

namespace acps {
namespace {

// ------------------------------------------------------------- policy -----

sim::GpuModel PaperGpu() { return sim::GpuModel(sim::GpuSpec{}, 32); }

TEST(Policy, SlowNetworkCompressesEverythingEligible) {
  const auto model = models::BertBase();
  comm::CostModel net(comm::NetworkSpec::Ethernet1G(), 32);
  core::PolicyConfig cfg;
  cfg.rank = 32;
  cfg.exposure = 1.0;
  const auto policy = core::DecidePolicy(model, net, PaperGpu(), cfg);
  const auto all = core::AllLowRank(model, 32);
  EXPECT_EQ(policy.num_lowrank(), all.num_lowrank());
  EXPECT_GT(policy.num_lowrank(), 50u);
}

TEST(Policy, FastHiddenNetworkStaysDense) {
  const auto model = models::ResNet50();
  comm::CostModel net(comm::NetworkSpec::Infiniband100G(), 32);
  core::PolicyConfig cfg;
  cfg.rank = 4;
  cfg.exposure = 0.05;  // WFBP hides almost everything on 100Gb
  const auto policy = core::DecidePolicy(model, net, PaperGpu(), cfg);
  EXPECT_EQ(policy.num_lowrank(), 0u);
}

TEST(Policy, LowRankFractionMonotoneInBandwidth) {
  const auto model = models::BertLarge();
  core::PolicyConfig cfg;
  cfg.rank = 32;
  size_t prev = SIZE_MAX;
  for (const auto& spec :
       {comm::NetworkSpec::Ethernet1G(), comm::NetworkSpec::Ethernet10G(),
        comm::NetworkSpec::Infiniband100G()}) {
    comm::CostModel net(spec, 32);
    const auto policy = core::DecidePolicy(model, net, PaperGpu(), cfg);
    EXPECT_LE(policy.num_lowrank(), prev) << spec.name;
    prev = policy.num_lowrank();
  }
}

TEST(Policy, DecisionNeverWorseThanUniformPolicies) {
  core::PolicyConfig cfg;
  cfg.rank = 32;
  for (const auto& spec :
       {comm::NetworkSpec::Ethernet1G(), comm::NetworkSpec::Ethernet10G(),
        comm::NetworkSpec::Infiniband100G()}) {
    for (double exposure : {0.05, 0.5, 1.0}) {
      cfg.exposure = exposure;
      const auto model = models::BertBase();
      comm::CostModel net(spec, 32);
      const auto gpu = PaperGpu();
      const auto decided = core::DecidePolicy(model, net, gpu, cfg);
      const double d =
          core::EvaluatePolicy(model, decided, net, gpu, cfg).exposed_s;
      const double dense = core::EvaluatePolicy(
          model, core::AllDense(model, 32), net, gpu, cfg).exposed_s;
      const double lowrank = core::EvaluatePolicy(
          model, core::AllLowRank(model, 32), net, gpu, cfg).exposed_s;
      EXPECT_LE(d, dense + 1e-9) << spec.name << " e=" << exposure;
      EXPECT_LE(d, lowrank + 1e-9) << spec.name << " e=" << exposure;
    }
  }
}

TEST(Policy, EvaluateRejectsIllegalAssignments) {
  const auto model = models::ResNet18();
  comm::CostModel net(comm::NetworkSpec::Ethernet10G(), 32);
  core::PolicyConfig cfg;
  auto bad = core::AllDense(model, 4);
  // Mark a bias (vector param) low-rank: must throw.
  for (size_t i = 0; i < model.layers.size(); ++i) {
    if (!model.layers[i].compressible) {
      bad.per_tensor[i] = core::TensorMethod::kLowRank;
      break;
    }
  }
  EXPECT_THROW(
      (void)core::EvaluatePolicy(model, bad, net, PaperGpu(), cfg), Error);
  auto wrong_size = core::AllDense(model, 4);
  wrong_size.per_tensor.pop_back();
  EXPECT_THROW(
      (void)core::EvaluatePolicy(model, wrong_size, net, PaperGpu(), cfg),
      Error);
}

}  // namespace
}  // namespace acps
