// Quickstart: train a small model data-parallel on 4 in-process workers
// with ACP-SGD gradient compression, submitted as a job to the
// multi-tenant TrainingService.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
// The walkthrough:
//   1. stand up a TrainingService (shared transport + admission control),
//   2. submit a job: the service opens a per-job comm::Session and hands it
//      to the body on a runner thread,
//   3. inside the job, each worker builds an identical model replica and
//      wraps its parameters in a DistributedOptimizer whose aggregator is
//      the ACP-SGD runtime (alternating low-rank compression + fused
//      all-reduce),
//   4. run a normal forward/backward/step loop.
#include <cstdio>

#include "core/distributed_optimizer.h"
#include "core/training_service.h"
#include "dnn/dataset.h"
#include "dnn/loss.h"
#include "dnn/mini_models.h"

using namespace acps;

int main() {
  constexpr int kWorkers = 4;
  constexpr int kEpochs = 6;
  constexpr int kBatch = 32;

  std::printf("ACP-SGD quickstart: %d workers, rank-4 compression\n",
              kWorkers);

  // The service owns the shared transport; every submitted job gets its own
  // session (private barrier/mailboxes, `job/<key>/` metric namespace).
  core::TrainingService service;

  core::JobSpec spec;
  spec.name = "quickstart";
  spec.world_size = kWorkers;
  spec.session.compressor_spec = "acpsgd:4";

  const core::JobRecord record =
      service.RunJob(spec, [&](comm::Session& session) {
        session.Run([&](comm::Communicator& comm) {
          // Every worker builds the same replica (same seed) and its own
          // slice of the dataset.
          dnn::Network net = dnn::VggMini();
          net.Init(/*seed=*/42);

          const dnn::Dataset train = dnn::MakeSynthetic({}, 1024, /*salt=*/1);
          const dnn::Dataset test = dnn::MakeSynthetic({}, 256, /*salt=*/2);
          const dnn::Shard shard = dnn::ShardFor(train, comm.rank(), kWorkers);

          // The job's compressor spec picks the method. For "acpsgd:4" the
          // GradReducer compresses each weight matrix into ONE low-rank
          // factor per step (P on odd steps, Q on even), fuses factors into
          // scaled buckets, and aggregates each bucket with one all-reduce.
          core::DistributedOptimizer opt(
              net.params(),
              core::MakeAggregatorFactory(session.options().compressor_spec)(
                  comm.rank(), kWorkers),
              dnn::LrSchedule{0.05f, /*warmup_epochs=*/1, {4}, 0.1f});

          Tensor x;
          std::vector<int> y;
          for (int epoch = 0; epoch < kEpochs; ++epoch) {
            const int64_t iters = shard.count / kBatch;
            double loss_sum = 0.0;
            for (int64_t it = 0; it < iters; ++it) {
              train.Slice(shard.begin + it * kBatch, kBatch, x, y);
              net.ZeroGrads();
              const Tensor logits = net.Forward(x);
              const dnn::LossResult loss = dnn::SoftmaxCrossEntropy(logits, y);
              loss_sum += loss.loss;
              (void)net.Backward(loss.grad_logits);
              opt.Step(comm, epoch);  // aggregate (compressed) + SGD update
            }
            if (comm.rank() == 0) {
              Tensor tx;
              std::vector<int> ty;
              test.Slice(0, test.size(), tx, ty);
              std::printf(
                  "epoch %d: train loss %.3f, test acc %.3f (lr %.4f)\n",
                  epoch, loss_sum / static_cast<double>(iters),
                  dnn::Accuracy(net.Forward(tx), ty), opt.last_lr());
            }
            comm.barrier();
          }
        });
      });

  std::printf("job %s: %s, %.1f MB on the wire\n", record.job_key.c_str(),
              ToString(record.state),
              static_cast<double>(record.traffic.bytes_sent) / 1e6);
  return record.state == core::JobState::kSucceeded ? 0 : 1;
}
