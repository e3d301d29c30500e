// Fig 4: schedule illustration — how Power-SGD's blocking structure wastes
// the WFBP opportunity while ACP-SGD overlaps its single all-reduce, shown
// as an actual simulated task trace on a small model.
//
// With --trace-out=PATH the bench additionally runs a REAL 8-worker ACP-SGD
// GradReducer step (obs::Tracer attached to the Transport) and writes the
// recorded spans as Chrome-trace JSON — open it in Perfetto to see a fast
// worker's bucket all-reduce overlapping slower workers' later grad-ready
// hooks, i.e. WFBP on actual threads rather than in the simulator.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "bench_common.h"
#include "core/grad_reducer.h"
#include "obs/tracer.h"
#include "tensor/rng.h"

using namespace acps;

namespace {

void PrintTrace(const std::vector<sim::TraceEvent>& trace, int max_rows) {
  auto sorted = trace;
  std::sort(sorted.begin(), sorted.end(),
            [](const sim::TraceEvent& a, const sim::TraceEvent& b) {
              return a.start_s < b.start_s;
            });
  const double t_end = sorted.empty() ? 1.0 : sorted.back().end_s;
  int shown = 0;
  for (const auto& e : sorted) {
    if (shown++ >= max_rows) break;
    const int width = 56;
    const int b = static_cast<int>(e.start_s / t_end * width);
    const int len = std::max(
        1, static_cast<int>((e.end_s - e.start_s) / t_end * width));
    std::printf("  %-7s |%*s%s%*s| %-14s %.2f-%.2f ms\n", e.resource.c_str(),
                b, "", std::string(static_cast<size_t>(len), '#').c_str(),
                std::max(0, width - b - len), "", e.name.c_str(),
                e.start_s * 1e3, e.end_s * 1e3);
  }
}

// Real 8-worker ACP-SGD GradReducer run with per-rank delays between the
// gradient hooks: worker 0 reaches the fused low-rank bucket's all-reduce
// first and waits at the rendezvous while higher ranks are still producing
// gradients, so the exported timeline shows the overlap Fig 4 describes.
void WriteRealTrace(const std::string& path) {
  const int p = 8;
  obs::Tracer tracer;
  tracer.Enable();
  comm::Transport transport;
  transport.set_tracer(&tracer);
  comm::Session group(transport, "fig4", p);

  compress::AcpSgdConfig cfg;
  cfg.rank = 2;
  group.Run([&](comm::Communicator& comm) {
    dnn::Param w1, w2, bias;
    w1.value = Tensor({16, 24});
    w1.grad = Tensor({16, 24});
    w1.matrix_rows = 16;
    w1.matrix_cols = 24;
    w2.value = Tensor({8, 40});
    w2.grad = Tensor({8, 40});
    w2.matrix_rows = 8;
    w2.matrix_cols = 40;
    bias.value = Tensor({24});
    bias.grad = Tensor({24});
    Rng rng(1000 + static_cast<uint64_t>(comm.rank()));
    rng.fill_normal(w1.grad);
    rng.fill_normal(w2.grad);
    rng.fill_normal(bias.grad);

    core::GradReducer reducer(cfg);
    for (int step = 0; step < 2; ++step) {
      reducer.BeginStep({&w1, &w2, &bias}, comm);
      reducer.OnGradReady(2);  // bias (dense) — hooks fire in backward order
      std::this_thread::sleep_for(  // lint:allow(raw-sleep): shapes the trace
          std::chrono::milliseconds(comm.rank()));
      reducer.OnGradReady(1);  // w2
      std::this_thread::sleep_for(  // lint:allow(raw-sleep): shapes the trace
          std::chrono::milliseconds(comm.rank()));
      reducer.OnGradReady(0);  // w1 completes the fused low-rank bucket
      reducer.FinishStep();
    }
  });

  if (tracer.WriteChromeTrace(path)) {
    std::printf("\nWrote real 8-worker ACP-SGD trace (%zu spans) to %s\n"
                "Open in Perfetto (ui.perfetto.dev) — one row per worker.\n",
                tracer.size(), path.c_str());
  } else {
    std::printf("\nFailed to write trace to %s\n", path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace-out=", 12) == 0) trace_out = argv[i] + 12;
  }

  bench::Header("Fig 4", "WFBP schedule trace: ACP-SGD overlaps compute and "
                         "communication");
  bench::Note("Paper shape: ACP-SGD's per-layer all-reduce (AP_i) runs on "
              "the comm stream while later layers' backward (M_j) and "
              "compression (P_j) proceed on the compute stream.");

  const auto model = models::ResNet18();
  sim::SimConfig cfg = bench::PaperConfig(sim::Method::kACPSGD, 32, 4);
  std::vector<sim::TraceEvent> trace;
  cfg.trace = &trace;
  const sim::Breakdown acp = sim::SimulateIteration(model, cfg);
  std::printf("\nACP-SGD on ResNet-18 (first 40 scheduled intervals):\n");
  PrintTrace(trace, 40);
  std::printf("  ... total %.1f ms, exposed comm %.1f ms\n", acp.total_ms(),
              acp.comm_exposed_s * 1e3);

  // Contrast with the blocking alternatives (totals only).
  for (sim::Method m :
       {sim::Method::kPowerSGD, sim::Method::kPowerSGDStar}) {
    const sim::Breakdown b =
        sim::SimulateIteration(model, bench::PaperConfig(m, 32, 4));
    std::printf("%-12s total %.1f ms, exposed comm %.1f ms\n",
                sim::MethodName(m).c_str(), b.total_ms(),
                b.comm_exposed_s * 1e3);
  }

  if (!trace_out.empty()) WriteRealTrace(trace_out);
  return 0;
}
