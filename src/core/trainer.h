// Data-parallel trainer: the Fig 6/7 convergence harness.
//
// Each worker thread builds an identical model replica (same seed), streams
// its shard of the synthetic dataset, computes gradients, and steps a
// DistributedOptimizer: the chosen GradientAggregator (real collectives),
// then momentum SGD with the paper's warmup + step-decay schedule. After
// every epoch each rank evaluates its shard of the test set and one
// all-reduce sums the correct counts; rank 0 records the accuracy.
#pragma once

#include <string>
#include <vector>

#include "comm/communicator.h"
#include "core/aggregators.h"
#include "dnn/dataset.h"
#include "dnn/optimizer.h"
#include "obs/metrics_registry.h"

namespace acps::core {

struct TrainConfig {
  std::string model = "vgg-mini";  // "vgg-mini" | "res-mini"
  dnn::SyntheticSpec data;
  int64_t train_samples = 2048;  // must be divisible by world*batch
  int64_t test_samples = 512;
  int epochs = 30;
  int batch_per_worker = 32;
  dnn::LrSchedule lr{0.1f, /*warmup_epochs=*/3, /*decay_epochs=*/{15, 23},
                     /*decay_factor=*/0.1f};
  float momentum = 0.9f;
  float weight_decay = 0.0f;
  uint64_t model_seed = 42;
  uint64_t shuffle_seed = 7;
  // Optional metrics sink (not owned; may be null). When set and enabled,
  // rank 0 records step_us / eval_us / epoch_us histograms and a steps
  // counter. Span tracing is configured separately, on the Transport's
  // Tracer.
  obs::MetricsRegistry* metrics = nullptr;

  // Returns "" when the config is trainable on `world_size` workers,
  // otherwise one descriptive message naming every violated constraint.
  // Called at TrainDistributed entry.
  [[nodiscard]] std::string Validate(int world_size) const;
};

struct EpochStat {
  int epoch = 0;
  double train_loss = 0.0;  // rank-0 mean loss over the epoch
  double test_acc = 0.0;    // full-test accuracy, summed over the ranks'
                            // shards; bitwise the full-batch value
};

struct TrainResult {
  std::vector<EpochStat> history;
  double final_test_acc = 0.0;
  double best_test_acc = 0.0;
};

// Runs the experiment as one tenant of a shared transport (one worker per
// communicator rank; the factory is called once per worker, inside that
// worker's thread). Single-tenant callers open a named Session on a
// private Transport and, if they care about oversubscription, size the
// kernel pool themselves via par::WorkerThreadBudget.
// Does NOT resize the global kernel pool — concurrent jobs share it and
// busy-pool callers fall back to inline execution (the thread-budget
// donation rule, DESIGN.md §7), so results stay bitwise identical at any
// tenant count and any pool size. Rank 0 also records per-step latency
// into the session's `job/<id>/step_ms` histogram.
[[nodiscard]] TrainResult TrainDistributed(comm::Session& session,
                                           const TrainConfig& config,
                                           const AggregatorFactory& factory);

}  // namespace acps::core
