// Scenario: compare the convergence AND the communication bill of S-SGD,
// Power-SGD and ACP-SGD on the same data-parallel job — the trade-off the
// paper's introduction motivates.
//
// Each method runs as one job of a multi-tenant core::TrainingService: the
// session-level compressor_spec picks the aggregation method, and the
// per-job registry record reports bytes-on-the-wire per method (no shared
// counters to reset between runs).
//
// With --trace-out=PATH the ACP-SGD run records every collective, hook and
// step as obs::Tracer spans and writes Chrome-trace JSON there (open in
// Perfetto, one row per worker); a metrics dump (step/bucket counters and
// latency quantiles) is printed after the table.
//
// Exits 1 when any method ends below kMinTestAcc: a run that did not learn
// must not print the comparison's conclusion.
#include <cstdio>
#include <cstring>
#include <string>

#include "core/training_service.h"
#include "metrics/table.h"
#include "obs/metrics_registry.h"
#include "obs/tracer.h"

using namespace acps;

constexpr double kMinTestAcc = 0.5;  // chance is 0.1 on the 10-class task

int main(int argc, char** argv) {
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace-out=", 12) == 0) trace_out = argv[i] + 12;
  }

  core::TrainConfig cfg;
  cfg.model = "res-mini";
  cfg.train_samples = 1024;
  cfg.test_samples = 256;
  cfg.epochs = 10;
  cfg.batch_per_worker = 32;
  // The Fig 6 res-mini schedule: a gentle base LR with a 4-epoch warm-up.
  cfg.lr = dnn::LrSchedule{0.02f, 4, {6, 8}, 0.1f};

  std::printf("Distributed training comparison: res-mini, 4 workers, "
              "%d epochs\n\n", cfg.epochs);

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;

  core::TrainingService service;

  metrics::Table table({"Method", "final acc", "final loss",
                        "wire MB/worker", "vs S-SGD"});
  const std::pair<const char*, const char*> methods[] = {
      {"S-SGD", "ssgd"},
      {"Power-SGD r4", "powersgd:4"},
      {"ACP-SGD r4", "acpsgd:4"},
  };
  double ssgd_mb = 0.0;
  bool all_learned = true;
  for (const auto& [name, spec_str] : methods) {
    core::JobSpec spec;
    spec.name = spec_str;
    spec.world_size = 4;
    spec.session.compressor_spec = spec_str;

    // Observe only the ACP-SGD run (spans from all methods in one file
    // would overlap on the same worker rows).
    const bool observe =
        !trace_out.empty() && std::strncmp(name, "ACP", 3) == 0;
    if (observe) {
      tracer.Clear();
      tracer.Enable();
      metrics.Enable();
      service.transport().set_tracer(&tracer);
      cfg.metrics = &metrics;
    }
    const core::TrainResult r = service.Train(spec, cfg);
    if (observe) {
      tracer.Disable();
      metrics.Disable();
      service.transport().set_tracer(nullptr);
      cfg.metrics = nullptr;
      if (tracer.WriteChromeTrace(trace_out))
        std::printf("[trace] wrote %zu ACP-SGD spans to %s\n", tracer.size(),
                    trace_out.c_str());
      else
        std::printf("[trace] failed to write %s\n", trace_out.c_str());
    }
    // The job registry keeps each run's traffic totals under its own key.
    const core::JobRecord record = service.job(service.submitted());
    const double mb =
        static_cast<double>(record.traffic.bytes_sent) / 4.0 / 1e6;
    if (ssgd_mb == 0.0) ssgd_mb = mb;
    all_learned = all_learned && r.final_test_acc >= kMinTestAcc;
    table.AddRow({name, metrics::Table::Num(r.final_test_acc, 3),
                  metrics::Table::Num(r.history.back().train_loss, 3),
                  metrics::Table::Num(mb, 1),
                  metrics::Table::Num(ssgd_mb / mb, 1) + "x less"});
  }
  std::printf("%s", table.Render().c_str());
  if (!trace_out.empty()) {
    std::printf("\nACP-SGD run metrics:\n%s", metrics.DumpText().c_str());
  }
  if (!all_learned) {
    std::fprintf(stderr,
                 "\nFAIL: a method ended below %.2f test accuracy; the run "
                 "did not learn.\n",
                 kMinTestAcc);
    return 1;
  }
  std::printf("\nSame accuracy, a fraction of the traffic — the ACP-SGD "
              "pitch in one table.\n");
  return 0;
}
