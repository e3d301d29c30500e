// Tests for the extension modules: buffer auto-tuning and trace export.
#include <gtest/gtest.h>

#include "models/model_zoo.h"
#include "sim/buffer_tuner.h"
#include "sim/trace_export.h"

namespace acps {
namespace {

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
