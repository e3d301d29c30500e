// Tests for the extension modules: hierarchical topology cost model,
// buffer auto-tuning, trace export, CSV output.
#include <gtest/gtest.h>

#include "comm/topology.h"
#include "models/model_zoo.h"
#include "sim/buffer_tuner.h"
#include "sim/trace_export.h"

namespace acps {
namespace {

TEST(TopologyModel, HierarchicalBeatsFlatForLargePayloads) {
  // With 4 GPUs sharing one slow NIC per node, the two-level algorithm
  // moves 1/4 the bytes over the bottleneck.
  comm::HierarchicalCostModel model(comm::ClusterTopology::Paper32());
  EXPECT_GT(model.Speedup(100e6), 2.0);
  EXPECT_LT(model.Speedup(100e6), 4.5);
}

TEST(TopologyModel, TinyPayloadSpeedupComesFromFewerSlowHops) {
  // For latency-bound payloads the two-level scheme crosses the slow
  // network with a ring of `nodes` members instead of `nodes*gpus`:
  // speedup ≈ (p-1)/(nodes-1) = 31/7 ≈ 4.4 on the paper topology.
  comm::HierarchicalCostModel model(comm::ClusterTopology::Paper32());
  EXPECT_GT(model.Speedup(1024), 3.0);
  EXPECT_LT(model.Speedup(1024), 31.0 / 7.0 + 0.5);
}

TEST(TopologyModel, WorldSize) {
  EXPECT_EQ(comm::ClusterTopology::Paper32().world_size(), 32);
}

// ------------------------------------------------------- buffer tuning ----

TEST(BufferTuner, NeverWorseThanDefault) {
  const auto model = models::BertLarge();
  for (int64_t rank : {32, 256}) {
    sim::SimConfig cfg;
    cfg.method = sim::Method::kACPSGD;
    cfg.rank = rank;
    const sim::TuneResult r = sim::TuneBufferSize(model, cfg);
    EXPECT_LE(r.best_iter_s, r.default_iter_s + 1e-9) << rank;
    EXPECT_GE(r.gain(), 1.0) << rank;
    EXPECT_GT(r.best_buffer_bytes, 0) << rank;
  }
}

TEST(BufferTuner, DefaultIsNearOptimalForAcp) {
  // The paper's Fig 10 claim, quantified: tuning buys < 15% over the 25MB
  // default for ACP-SGD because the scaled budget already adapts.
  const auto model = models::BertLarge();
  sim::SimConfig cfg;
  cfg.method = sim::Method::kACPSGD;
  cfg.rank = 256;
  const sim::TuneResult r = sim::TuneBufferSize(model, cfg);
  EXPECT_LT(r.gain(), 1.15);
}

TEST(BufferTuner, RejectsBadRange) {
  sim::SimConfig cfg;
  EXPECT_THROW(
      (void)sim::TuneBufferSize(models::ResNet18(), cfg, 1000, 100), Error);
}

// -------------------------------------------------------- trace export ----

TEST(TraceExport, ProducesChromeTracingJson) {
  std::vector<sim::TraceEvent> trace;
  sim::SimConfig cfg;
  cfg.method = sim::Method::kACPSGD;
  cfg.trace = &trace;
  (void)sim::SimulateIteration(models::ResNet18(), cfg);
  const std::string json = sim::ToChromeTracingJson(trace);
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"comm\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"compute\""), std::string::npos);
  // Event count matches ("X" complete events; row-label metadata events
  // from the shared obs writer are "M" and don't count).
  size_t count = 0;
  for (size_t pos = 0;
       (pos = json.find("\"ph\": \"X\"", pos)) != std::string::npos; ++pos)
    ++count;
  EXPECT_EQ(count, trace.size());
}

TEST(TraceExport, EscapesSpecials) {
  std::vector<sim::TraceEvent> trace{{"a\"b", "compute", 0.0, 1.0}};
  const std::string json = sim::ToChromeTracingJson(trace);
  EXPECT_NE(json.find("a\\\"b"), std::string::npos);
}

}  // namespace
}  // namespace acps
