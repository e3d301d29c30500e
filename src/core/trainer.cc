#include "core/trainer.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <mutex>
#include <numeric>

#include "core/distributed_optimizer.h"
#include "dnn/loss.h"
#include "dnn/mini_models.h"
#include "obs/kernel_metrics.h"
#include "obs/tracer.h"
#include "par/kernel_stats.h"
#include "par/lock_level.h"

namespace acps::core {

std::string TrainConfig::Validate(int world_size) const {
  std::string err;
  const auto add = [&err](const std::string& msg) {
    if (!err.empty()) err += "; ";
    err += msg;
  };
  if (world_size < 1)
    add("world_size must be >= 1, got " + std::to_string(world_size));
  if (model != "vgg-mini" && model != "res-mini")
    add("unknown model '" + model + "' (expected vgg-mini or res-mini)");
  if (train_samples <= 0)
    add("train_samples must be > 0, got " + std::to_string(train_samples));
  if (test_samples <= 0)
    add("test_samples must be > 0, got " + std::to_string(test_samples));
  // The synthetic train and test sets each draw one sample per class first.
  if (train_samples > 0 && test_samples > 0 &&
      std::min(train_samples, test_samples) < data.num_classes) {
    add("train_samples (" + std::to_string(train_samples) +
        ") and test_samples (" + std::to_string(test_samples) +
        ") must each be >= data.num_classes (" +
        std::to_string(data.num_classes) + ")");
  }
  // Eval sums per-rank correct counts in a float all-reduce, which is exact
  // for integers up to 2^24.
  if (test_samples > (int64_t{1} << 24))
    add("test_samples must be <= 2^24, got " + std::to_string(test_samples));
  if (epochs <= 0) add("epochs must be > 0, got " + std::to_string(epochs));
  if (batch_per_worker <= 0)
    add("batch_per_worker must be > 0, got " +
        std::to_string(batch_per_worker));
  if (world_size >= 1 && train_samples > 0 && batch_per_worker > 0 &&
      train_samples % (static_cast<int64_t>(world_size) * batch_per_worker) !=
          0) {
    add("train_samples (" + std::to_string(train_samples) +
        ") must divide evenly into world_size*batch_per_worker (" +
        std::to_string(world_size) + "*" + std::to_string(batch_per_worker) +
        ")");
  }
  // Every comparison below is false for NaN, hence the isfinite guards.
  if (!std::isfinite(lr.base_lr) || lr.base_lr <= 0.0f)
    add("lr.base_lr must be finite and > 0, got " +
        std::to_string(lr.base_lr));
  if (!std::isfinite(lr.decay_factor) || lr.decay_factor <= 0.0f ||
      lr.decay_factor > 1.0f)
    add("lr.decay_factor must be in (0, 1], got " +
        std::to_string(lr.decay_factor));
  if (!std::isfinite(momentum) || momentum < 0.0f || momentum >= 1.0f)
    add("momentum must be in [0, 1), got " + std::to_string(momentum));
  if (!std::isfinite(weight_decay) || weight_decay < 0.0f)
    add("weight_decay must be finite and >= 0, got " +
        std::to_string(weight_decay));
  return err;
}

TrainResult TrainDistributed(comm::Session& session, const TrainConfig& config,
                             const AggregatorFactory& factory) {
  const std::string err = config.Validate(session.world_size());
  ACPS_CHECK_MSG(err.empty(), "invalid TrainConfig for job '"
                                  << session.job_id() << "': " << err);
  // Never resize the shared pool: tenants donate their own worker threads
  // via the pool's inline fallback instead (DESIGN.md §7), which keeps
  // results bitwise independent of the tenant count.
  TrainResult result;
  ACPS_LOCK_LEVEL(95) result_mu;

  session.Run([&](comm::Communicator& comm) {
    const int rank = comm.rank();
    const int world = comm.world_size();
    obs::Tracer* tracer = comm.tracer();
    obs::MetricsRegistry* metrics = config.metrics;

    // Identical replicas + deterministic data on every worker.
    dnn::MiniModelSpec mspec;
    mspec.channels = config.data.channels;
    mspec.height = config.data.height;
    mspec.width = config.data.width;
    mspec.num_classes = config.data.num_classes;
    dnn::Network net = dnn::MiniByName(config.model, mspec);
    net.Init(config.model_seed);

    const dnn::Dataset train =
        dnn::MakeSynthetic(config.data, config.train_samples, /*salt=*/1);
    const dnn::Dataset test =
        dnn::MakeSynthetic(config.data, config.test_samples, /*salt=*/2);
    const dnn::Shard shard = dnn::ShardFor(train, rank, world);
    // This rank's slice of the test set, evaluated after every epoch. A
    // rank whose shard is empty (test_samples < world) forwards nothing but
    // still joins the count all-reduce.
    const dnn::Shard test_shard = dnn::ShardFor(test, rank, world);
    Tensor test_x;
    std::vector<int> test_y;
    test.Slice(test_shard.begin, test_shard.count, test_x, test_y);

    DistributedOptimizer opt(net.params(), factory(rank, world), config.lr,
                             config.momentum, config.weight_decay);

    const int64_t iters_per_epoch = shard.count / config.batch_per_worker;
    std::vector<int64_t> order(static_cast<size_t>(shard.count));
    std::iota(order.begin(), order.end(), shard.begin);

    Tensor batch_x;
    std::vector<int> batch_y;
    Tensor one_x({1, train.features});
    // Rank 0's end of the epoch's last step, where its eval time starts.
    std::chrono::steady_clock::time_point step_end;

    for (int epoch = 0; epoch < config.epochs; ++epoch) {
      obs::ScopedSpan epoch_span(tracer, "epoch", obs::kCatStep, rank,
                                 /*bytes=*/0, /*arg=*/epoch);
      // lint:allow(wall-clock) epoch timing feeds metrics only, never control
      const auto epoch_t0 = std::chrono::steady_clock::now();
      // Epoch-local shuffle of this worker's shard (deterministic).
      Rng shuffle = Rng(config.shuffle_seed)
                        .split(static_cast<uint64_t>(epoch) * 131 +
                               static_cast<uint64_t>(rank));
      for (size_t i = order.size(); i > 1; --i) {
        const size_t j = static_cast<size_t>(shuffle.next_below(i));
        std::swap(order[i - 1], order[j]);
      }

      double loss_acc = 0.0;
      for (int64_t it = 0; it < iters_per_epoch; ++it) {
        obs::ScopedSpan step_span(tracer, "step", obs::kCatStep, rank,
                                  /*bytes=*/0, /*arg=*/it);
        // lint:allow(wall-clock) step timing feeds metrics only, never control
        const auto step_t0 = std::chrono::steady_clock::now();
        // Assemble the batch from the shuffled shard.
        batch_x = Tensor({config.batch_per_worker, train.features});
        batch_y.assign(static_cast<size_t>(config.batch_per_worker), 0);
        for (int64_t b = 0; b < config.batch_per_worker; ++b) {
          const int64_t src = order[static_cast<size_t>(
              it * config.batch_per_worker + b)];
          std::vector<int> one_y;
          train.Slice(src, 1, one_x, one_y);
          std::copy(one_x.data().begin(), one_x.data().end(),
                    batch_x.data().begin() + b * train.features);
          batch_y[static_cast<size_t>(b)] = one_y[0];
        }

        net.ZeroGrads();
        const Tensor logits = net.Forward(batch_x);
        const dnn::LossResult loss = dnn::SoftmaxCrossEntropy(logits, batch_y);
        loss_acc += loss.loss;
        (void)net.Backward(loss.grad_logits);

        const double frac_epoch =
            epoch + static_cast<double>(it) / std::max<int64_t>(1, iters_per_epoch);
        opt.Step(comm, frac_epoch);

        if (rank == 0) {
          // lint:allow(wall-clock) step timing feeds metrics only, never control
          step_end = std::chrono::steady_clock::now();
          const double step_us =
              std::chrono::duration<double, std::micro>(step_end - step_t0)
                  .count();
          if (metrics) {
            metrics->counter("train.steps").Add();
            metrics->histogram("train.step_us").Observe(step_us);
            // Per-iteration kernel breakdown (calls/ms/gflops plus the
            // packed-panel traffic counters); the export is idempotent so
            // re-running it each step only refreshes the cumulative gauges.
            if (par::KernelStatsEnabled()) obs::ExportKernelStats(*metrics);
          }
          session.ObserveStepMs(step_us / 1000.0);
        }
      }

      // Every rank forwards its test shard and one all-reduce sums the
      // {correct, evaluated} counts; that all-reduce is also the epoch's
      // synchronization point. A sample's logits do not depend on its batch
      // mates, and the counts are integers of at most 2^24 (Validate), so
      // the float sum is exact and the accuracy is bitwise the full-batch
      // one. A degraded all-reduce that lost a shard fails the job instead
      // of reporting a deflated accuracy.
      {
        obs::ScopedSpan eval_span(tracer, "eval", obs::kCatStep, rank,
                                  /*bytes=*/0, /*arg=*/epoch);
        std::array<float, 2> counts = {0.0f,
                                       static_cast<float>(test_shard.count)};
        if (test_shard.count > 0)
          counts[0] = static_cast<float>(
              dnn::CountCorrect(net.Forward(test_x), test_y));
        comm.all_reduce(counts);
        ACPS_CHECK_MSG(static_cast<int64_t>(counts[1]) == test.size(),
                       "job '" << session.job_id() << "' epoch " << epoch
                               << ": eval covered " << counts[1] << " of "
                               << test.size() << " test samples");
        if (rank == 0) {
          EpochStat stat;
          stat.epoch = epoch;
          stat.train_loss = loss_acc / std::max<int64_t>(1, iters_per_epoch);
          stat.test_acc = counts[0] / static_cast<float>(test.size());
          std::lock_guard lock(result_mu);
          result.history.push_back(stat);
        }
      }
      if (metrics && rank == 0) {
        // lint:allow(wall-clock) epoch timing feeds metrics only, never control
        const auto epoch_end = std::chrono::steady_clock::now();
        const auto us = [](std::chrono::steady_clock::duration d) {
          return std::chrono::duration<double, std::micro>(d).count();
        };
        metrics->histogram("train.eval_us").Observe(us(epoch_end - step_end));
        metrics->histogram("train.epoch_us").Observe(us(epoch_end - epoch_t0));
      }
    }
  });

  if (!result.history.empty()) {
    result.final_test_acc = result.history.back().test_acc;
    for (const auto& s : result.history)
      result.best_test_acc = std::max(result.best_test_acc, s.test_acc);
  }
  return result;
}

}  // namespace acps::core
