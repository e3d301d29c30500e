// Fig 7: ablation — ACP-SGD without error feedback / without query reuse.
//
// Paper shape: both mechanisms are essential; disabling either degrades
// convergence. In our miniaturized setting the no-reuse ablation fails
// catastrophically; the no-EF ablation converges in accuracy on the easy
// synthetic task but plateaus at a ~25x higher training-loss floor — the
// bias EF exists to remove (EXPERIMENTS.md discusses the difference).
#include "bench_common.h"

#include "core/grad_reducer.h"
#include "core/trainer.h"
#include "par/thread_pool.h"

using namespace acps;

int main() {
  bench::Header("Fig 7", "ACP-SGD ablation: error feedback and query reuse");

  core::TrainConfig cfg;
  cfg.train_samples = 1024;
  cfg.test_samples = 512;
  cfg.epochs = 18;
  cfg.batch_per_worker = 32;

  for (const char* model : {"vgg-mini", "res-mini"}) {
    cfg.model = model;
    // Same per-model schedules as the Fig 6 bench.
    cfg.lr = std::string(model) == "vgg-mini"
                 ? dnn::LrSchedule{0.05f, 2, {11, 15}, 0.1f}
                 : dnn::LrSchedule{0.02f, 4, {11, 15}, 0.1f};
    std::printf("\n%s:\n", model);
    metrics::Table table({"Variant", "final acc", "best acc", "final loss"});
    const std::tuple<const char*, bool, bool> variants[] = {
        {"ACP-SGD", true, true},
        {"ACP-SGD w/o EF", false, true},
        {"ACP-SGD w/o reuse", true, false},
    };
    for (const auto& [name, ef, reuse] : variants) {
      comm::Transport transport;
      comm::Session session(transport, "fig7", 4);
      par::SetNumThreads(par::WorkerThreadBudget(0, 4));
      compress::AcpSgdConfig acp;
      acp.error_feedback = ef;
      acp.reuse = reuse;
      const core::TrainResult r =
          core::TrainDistributed(session, cfg, [acp](int, int) {
            return std::make_unique<core::GradReducer>(acp);
          });
      table.AddRow({name, metrics::Table::Num(r.final_test_acc, 3),
                    metrics::Table::Num(r.best_test_acc, 3),
                    metrics::Table::Num(r.history.back().train_loss, 4)});
    }
    std::printf("%s", table.Render().c_str());
  }
  return 0;
}
