// Fig 6: convergence of S-SGD vs Power-SGD vs ACP-SGD.
//
// Substitution (DESIGN.md §2): VGG-mini / ResMini on the synthetic
// 10-class image task stand in for VGG-16 / ResNet-18 on CIFAR-10, trained
// data-parallel on 4 workers with real collectives, momentum 0.9,
// warmup + step-decay LR, rank 4.
#include "bench_common.h"

#include "core/trainer.h"
#include "par/thread_pool.h"

using namespace acps;

int main() {
  bench::Header("Fig 6", "Convergence: S-SGD vs Power-SGD vs ACP-SGD "
                         "(4 workers, rank 4)");
  bench::Note("Paper shape: all three reach the same final accuracy "
              "(94.1% VGG-16 / 94.6% ResNet-18 on CIFAR-10); compression "
              "methods converge slightly slower in the early stage.");

  core::TrainConfig cfg;
  cfg.train_samples = 1024;
  cfg.test_samples = 512;
  cfg.epochs = 18;
  cfg.batch_per_worker = 32;

  for (const char* model : {"vgg-mini", "res-mini"}) {
    cfg.model = model;
    // Per-model schedules (as in the paper, which tunes per model): the
    // residual net needs a gentler LR for the compressed methods' EF
    // transient at this miniature scale.
    cfg.lr = std::string(model) == "vgg-mini"
                 ? dnn::LrSchedule{0.05f, 2, {11, 15}, 0.1f}
                 : dnn::LrSchedule{0.02f, 4, {11, 15}, 0.1f};
    std::printf("\n%s:\n", model);
    metrics::Table table({"Method", "final acc", "best acc", "final loss",
                          "acc@epoch4 (early)"});
    const std::pair<const char*, core::AggregatorFactory> methods[] = {
        {"S-SGD", core::MakeAggregatorFactory("ssgd")},
        {"Power-SGD", core::MakeAggregatorFactory("powersgd:4")},
        {"ACP-SGD", core::MakeAggregatorFactory("acpsgd:4")},
    };
    for (const auto& [name, factory] : methods) {
      comm::Transport transport;
      comm::Session session(transport, "fig6", 4);
      par::SetNumThreads(par::WorkerThreadBudget(0, 4));
      const core::TrainResult r = core::TrainDistributed(session, cfg, factory);
      table.AddRow({name, metrics::Table::Num(r.final_test_acc, 3),
                    metrics::Table::Num(r.best_test_acc, 3),
                    metrics::Table::Num(r.history.back().train_loss, 3),
                    metrics::Table::Num(r.history[4].test_acc, 3)});
      std::printf("  %-10s acc/epoch:", name);
      for (size_t i = 0; i < r.history.size(); i += 3)
        std::printf(" %.2f", r.history[i].test_acc);
      std::printf("\n");
    }
    std::printf("%s", table.Render().c_str());
  }
  return 0;
}
