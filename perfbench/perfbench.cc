// End-to-end and per-layer benchmark of the thread-cluster training stack.
//
// One invocation runs one workload for a time budget and prints one JSON
// object on stdout: the environment, the correctness-check tally and every
// metric with its unit. perfbench/run.py builds this binary, runs it and
// validates the metric names against BENCHMARK.json; see perfbench/README.md
// for what each workload and metric is for.
//
//   --trace 0  production entry points only (core::TrainingService::Train,
//              MakeAggregatorFactory(spec)(rank, world)->Aggregate inside a
//              comm::Session), no tracer, no kernel stats: the end-to-end
//              metrics.
//   --trace 1  the same workload once untraced, then once through replicas
//              of the trainer loop and the aggregators written here, which
//              time each call into a module's public functions. The replica
//              must reproduce the production output bitwise (the check
//              proves it timed the same computation): the per-layer metrics.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "comm/communicator.h"
#include "compress/acpsgd.h"
#include "compress/powersgd.h"
#include "core/aggregators.h"
#include "core/trainer.h"
#include "core/training_service.h"
#include "dnn/dataset.h"
#include "dnn/loss.h"
#include "dnn/mini_models.h"
#include "dnn/optimizer.h"
#include "fusion/bucket_assigner.h"
#include "fusion/fusion_buffer.h"
#include "models/model_zoo.h"
#include "obs/metrics_registry.h"
#include "par/kernel_stats.h"
#include "par/thread_pool.h"
#include "tensor/matrix_ops.h"
#include "tensor/rng.h"

#ifndef ACPS_BENCH_BUILD_TYPE
#define ACPS_BENCH_BUILD_TYPE ""
#endif
#ifndef ACPS_BENCH_KERNEL_SIMD
#define ACPS_BENCH_KERNEL_SIMD ""
#endif

namespace {

using namespace acps;
using Clock = std::chrono::steady_clock;

constexpr int kWorld = 4;
constexpr int kTrainBatch = 32;          // res-mini samples per rank per step
constexpr int kTrainEpochs = 8;          // length of the reference job
constexpr double kTargetTestAcc = 0.98;  // time_to_acc_s target
constexpr int kBarrierIters = 300;
constexpr int kSetupJobs = 7;           // set-ups per run; setup_s is their median
constexpr double kProbeShare = 0.25;    // of an aggregation run, for the probe
constexpr size_t kJobWindow = 4;        // training jobs per step-time window
constexpr const char* kTrainWorkload = "train-res-acp";
// Kernels that fire on some workload; ones idle on a workload read 0.
constexpr std::array<const char*, 5> kKernels = {"gemm", "gemm_ta", "gemm_tb",
                                                 "qr", "scal"};
// res-mini backward groups: the top-level layers whose params fire the
// GradReadyHook (a group's time includes the parameter-free layers after it).
constexpr std::array<const char*, 4> kBackwardGroups = {"fc", "block2",
                                                        "block1", "stem"};

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// Other work on a shared host only ever adds time to a job, so a timing is
// summarized by a low quantile over the run's jobs (or windows of steps):
// the fastest of them are nearest the cost of the code itself.
constexpr double kBestQuantile = 0.1;
double BestTime(const std::vector<double>& v) { return Quantile(v, kBestQuantile); }
double BestRate(const std::vector<double>& v) { return Quantile(v, 1.0 - kBestQuantile); }

double Sum(const std::vector<double>& v) { return std::accumulate(v.begin(), v.end(), 0.0); }

// q-quantiles of consecutive windows of kWindow samples (a short last
// window joins the one before it).
constexpr size_t kWindow = 3;
std::vector<double> WindowQuantiles(const std::vector<double>& v, double q) {
  std::vector<double> out;
  for (size_t i = 0; i < v.size(); i += kWindow) {
    const size_t end = v.size() - i < 2 * kWindow ? v.size() : i + kWindow;
    out.push_back(Quantile({v.begin() + static_cast<ptrdiff_t>(i),
                            v.begin() + static_cast<ptrdiff_t>(end)}, q));
    if (end == v.size()) break;
  }
  return out;
}

void LogSamples(const char* what, const std::vector<double>& v) {
  std::fprintf(stderr, "perfbench: %s:", what);
  for (const double x : v) std::fprintf(stderr, " %.4g", x);
  std::fprintf(stderr, "\n");
}

// Independent stream `stream` of the workload seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return Rng(seed).split(stream).next_u64();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// 64-bit digest of a float buffer's bits (word-wise FNV-1a variant).
uint64_t Digest(std::span<const float> v, uint64_t h) {
  for (const float f : v) {
    uint32_t bits = 0;
    std::memcpy(&bits, &f, sizeof bits);
    h = (h ^ bits) * 0x100000001b3ull;
  }
  return h;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// Correctness tally and metrics of one run. Checks may come from any
// worker thread.
class Result {
 public:
  void Check(bool ok, const std::string& what) {
    std::lock_guard lock(mu_);
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
  }
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_.emplace_back(name, value, unit);
  }
  [[nodiscard]] uint64_t attempted() const { return attempted_; }
  [[nodiscard]] uint64_t failed() const { return failed_; }

  [[nodiscard]] std::string Json(const std::string& env) const {
    std::ostringstream os;
    os.precision(17);
    os << "{\"env\": " << env << ", \"correct\": "
       << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const auto& [name, value, unit] = metrics_[i];
      os << (i ? ", " : "") << JsonString(name) << ": {\"value\": ";
      if (std::isfinite(value)) {
        os << value;
      } else {
        os << "null";  // run.py rejects it
      }
      os << ", \"unit\": " << JsonString(unit) << "}";
    }
    os << "}}";
    return os.str();
  }

 private:
  std::mutex mu_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::tuple<std::string, double, std::string>> metrics_;
};

// --- Per-layer accumulators (one per rank) ---------------------------------

struct AggTrace {
  uint64_t calls = 0;
  double aggregate_ms = 0, pack_ms = 0, unpack_ms = 0, all_reduce_ms = 0;
  double local_step_ms = 0, finish_ms = 0, powersgd_ms = 0;
  uint64_t buckets = 0, all_reduces = 0, all_reduce_bytes = 0;
};

struct TrainTrace {
  uint64_t steps = 0, epochs = 0;
  double setup_ms = 0, batch_ms = 0, forward_ms = 0, loss_ms = 0;
  double backward_ms = 0, sgd_ms = 0, eval_ms = 0, eval_wait_ms = 0;
  std::map<std::string, double> backward_group_ms;
};

// Replica of core's AllReduce/PowerSgd/AcpSgd aggregators, call for call,
// timing each call into compress, fusion and comm.
class TracedAggregator final : public core::GradientAggregator {
 public:
  TracedAggregator(const std::string& spec, AggTrace* trace) : trace_(trace) {
    const size_t colon = spec.find(':');
    method_ = spec.substr(0, colon);
    const int64_t rank =
        colon == std::string::npos ? 4 : std::stoll(spec.substr(colon + 1));
    if (method_ == "acpsgd") {
      compress::AcpSgdConfig cfg;
      cfg.rank = rank;
      acp_.emplace(cfg);
    } else if (method_ == "powersgd") {
      compress::PowerSgdConfig cfg;
      cfg.rank = rank;
      powersgd_.emplace(cfg);
    } else {
      ACPS_CHECK_MSG(method_ == "ssgd", "no traced replica for '" << spec << "'");
    }
  }
  [[nodiscard]] std::string name() const override { return method_; }

  void Aggregate(const std::vector<dnn::Param*>& params,
                 comm::Communicator& comm) override {
    const auto t0 = Clock::now();
    const std::vector<dnn::Param*> rev(params.rbegin(), params.rend());
    if (acp_) {
      AcpSgd(rev, comm);
    } else if (powersgd_) {
      PowerSgd(rev, comm);
    } else {
      std::vector<std::span<float>> spans;
      for (auto* p : rev) spans.push_back(p->grad.data());
      BucketedMean(spans, comm);
    }
    trace_->aggregate_ms += MsSince(t0);
    ++trace_->calls;
  }

 private:
  void AllReduceMean(std::span<float> v, comm::Communicator& comm) {
    const auto t0 = Clock::now();
    comm.all_reduce(v);
    trace_->all_reduce_ms += MsSince(t0);
    ++trace_->all_reduces;
    trace_->all_reduce_bytes += v.size() * sizeof(float);
    Scal(1.0f / static_cast<float>(comm.alive_world_size()), v);
  }

  void BucketedMean(const std::vector<std::span<float>>& spans,
                    comm::Communicator& comm) {
    std::vector<int64_t> bytes;
    for (const auto& s : spans)
      bytes.push_back(static_cast<int64_t>(s.size() * sizeof(float)));
    const auto buckets = fusion::AssignBuckets(bytes, fusion::kDefaultBufferBytes);
    fusion::FusionBuffer buf;
    for (const auto& bucket : buckets) {
      auto t = Clock::now();
      buf.Reset();
      for (int i : bucket)
        (void)buf.AddSlot(static_cast<int64_t>(spans[static_cast<size_t>(i)].size()));
      for (size_t j = 0; j < bucket.size(); ++j)
        buf.Pack(static_cast<int>(j), spans[static_cast<size_t>(bucket[j])]);
      trace_->pack_ms += MsSince(t);
      AllReduceMean(buf.flat(), comm);
      t = Clock::now();
      for (size_t j = 0; j < bucket.size(); ++j)
        buf.Unpack(static_cast<int>(j), spans[static_cast<size_t>(bucket[j])]);
      trace_->unpack_ms += MsSince(t);
      ++trace_->buckets;
    }
  }

  void PowerSgd(const std::vector<dnn::Param*>& rev, comm::Communicator& comm) {
    double in_collective_ms = 0;
    const compress::AllReduceMeanFn mean = [&](std::span<float> v) {
      const auto t = Clock::now();
      AllReduceMean(v, comm);
      in_collective_ms += MsSince(t);
    };
    std::vector<std::span<float>> dense;
    for (size_t i = 0; i < rev.size(); ++i) {
      dnn::Param* p = rev[i];
      if (p->is_matrix() &&
          compress::LowRankWorthwhile({p->matrix_rows, p->matrix_cols},
                                      powersgd_->config().rank)) {
        const auto t = Clock::now();
        in_collective_ms = 0;
        powersgd_->Step(static_cast<int64_t>(rev.size() - 1 - i), p->grad, mean);
        trace_->powersgd_ms += MsSince(t) - in_collective_ms;
      } else {
        dense.push_back(p->grad.data());
      }
    }
    BucketedMean(dense, comm);
  }

  void AcpSgd(const std::vector<dnn::Param*>& rev, comm::Communicator& comm) {
    std::vector<int> lowrank_ids;
    std::vector<std::span<float>> factors;
    std::vector<int64_t> factor_bytes;
    std::vector<std::span<float>> dense;
    int64_t factor_total = 0, grad_total = 0;
    for (size_t i = 0; i < rev.size(); ++i) {
      dnn::Param* p = rev[i];
      grad_total += p->grad.numel() * static_cast<int64_t>(sizeof(float));
      if (p->is_matrix() &&
          compress::LowRankWorthwhile({p->matrix_rows, p->matrix_cols},
                                      acp_->config().rank)) {
        const auto t = Clock::now();
        auto factor =
            acp_->LocalStep(static_cast<int64_t>(rev.size() - 1 - i), p->grad);
        trace_->local_step_ms += MsSince(t);
        lowrank_ids.push_back(static_cast<int>(i));
        factors.push_back(factor);
        factor_bytes.push_back(static_cast<int64_t>(factor.size() * sizeof(float)));
        factor_total += factor_bytes.back();
      } else {
        dense.push_back(p->grad.data());
      }
    }
    const int64_t factor_budget = fusion::ScaledBufferBytes(
        fusion::kDefaultBufferBytes, factor_total, grad_total);
    fusion::FusionBuffer buf;
    for (const auto& bucket : fusion::AssignBuckets(factor_bytes, factor_budget)) {
      auto t = Clock::now();
      buf.Reset();
      for (int j : bucket)
        (void)buf.AddSlot(static_cast<int64_t>(factors[static_cast<size_t>(j)].size()));
      for (size_t s = 0; s < bucket.size(); ++s)
        buf.Pack(static_cast<int>(s), factors[static_cast<size_t>(bucket[s])]);
      trace_->pack_ms += MsSince(t);
      AllReduceMean(buf.flat(), comm);
      t = Clock::now();
      for (size_t s = 0; s < bucket.size(); ++s)
        buf.Unpack(static_cast<int>(s), factors[static_cast<size_t>(bucket[s])]);
      trace_->unpack_ms += MsSince(t);
      ++trace_->buckets;
      t = Clock::now();
      for (int j : bucket) {
        const size_t rev_idx = static_cast<size_t>(lowrank_ids[static_cast<size_t>(j)]);
        acp_->Finish(static_cast<int64_t>(rev.size() - 1 - rev_idx),
                     rev[rev_idx]->grad);
      }
      trace_->finish_ms += MsSince(t);
    }
    BucketedMean(dense, comm);
  }

  std::string method_;
  std::optional<compress::AcpSgd> acp_;
  std::optional<compress::PowerSgd> powersgd_;
  AggTrace* trace_;
};

// --- Shared service plumbing -------------------------------------------------

struct Bench {
  explicit Bench(const std::string& workload, const std::string& spec)
      : service([this] {
          core::ServiceConfig cfg;
          cfg.max_concurrent_jobs = 1;
          cfg.max_ranks_per_job = kWorld;
          cfg.metrics = &registry;
          return cfg;
        }()) {
    registry.Enable();
    job.name = workload;
    job.world_size = kWorld;
    job.session.compressor_spec = spec;
  }

  // Runs `body` as one job of the service; a failed job is a failed check.
  core::JobRecord Run(const std::function<void(comm::Session&)>& body,
                      Result& result) {
    core::JobRecord record = service.RunJob(job, body);
    result.Check(record.state == core::JobState::kSucceeded,
                 "job " + record.job_key + " failed: " + record.error);
    return record;
  }

  // Wire-level retries of every job so far (the fault.retry.attempts
  // counters); a healthy run has none.
  uint64_t Retries() {
    uint64_t total = 0;
    for (const auto& rec : service.jobs())
      total += registry.counter("job/" + rec.job_key + "/fault.retry.attempts").value();
    return total;
  }

  obs::MetricsRegistry registry;  // declared before the service that uses it
  core::TrainingService service;
  core::JobSpec job;
};

// Median barrier latency of the job's session, in microseconds.
double BarrierUs(Bench& bench, Result& result) {
  std::vector<double> samples;
  bench.Run(
      [&](comm::Session& session) {
        session.Run([&](comm::Communicator& comm) {
          for (int i = 0; i < kBarrierIters; ++i) {
            const auto t0 = Clock::now();
            comm.barrier();
            if (comm.rank() == 0) samples.push_back(MsSince(t0) * 1000.0);
          }
        });
      },
      result);
  return Median(samples);
}

void KernelMetrics(double per_steps, Result& result) {
  const auto snapshot = par::KernelStatsSnapshot();
  for (const char* name : kKernels) {
    par::KernelStat stat;
    for (const auto& [n, s] : snapshot)
      if (n == name) stat = s;
    const std::string pre = std::string("kernel.") + name;
    result.Metric(pre + ".ms_per_step", static_cast<double>(stat.ns) / 1e6 / per_steps, "ms");
    result.Metric(pre + ".calls_per_step", static_cast<double>(stat.calls) / per_steps, "count");
    result.Metric(pre + ".gflops", stat.gflops(), "GFLOP/s");
    result.Metric(pre + ".gbps", stat.gbps(), "GB/s");
  }
}

void AggMetrics(const AggTrace& t, Result& result) {
  const double n = std::max<double>(1.0, static_cast<double>(t.calls));
  result.Metric("core.aggregate_ms", t.aggregate_ms / n, "ms");
  result.Metric("compress.local_step_ms", t.local_step_ms / n, "ms");
  result.Metric("compress.finish_ms", t.finish_ms / n, "ms");
  result.Metric("compress.powersgd_ms", t.powersgd_ms / n, "ms");
  result.Metric("fusion.pack_ms", t.pack_ms / n, "ms");
  result.Metric("fusion.unpack_ms", t.unpack_ms / n, "ms");
  result.Metric("fusion.buckets_per_step", static_cast<double>(t.buckets) / n, "count");
  result.Metric("comm.all_reduce_ms", t.all_reduce_ms / n, "ms");
  result.Metric("comm.all_reduce_gbps",
                t.all_reduce_ms > 0 ? static_cast<double>(t.all_reduce_bytes) /
                                          (t.all_reduce_ms * 1e6)
                                    : 0.0,
                "GB/s");
  result.Metric("comm.collectives_per_step", static_cast<double>(t.all_reduces) / n, "count");
}

// --- res-mini training (train-res-acp, and the convergence probe) -----------

core::TrainConfig ResMiniConfig(uint64_t seed, int epochs,
                                obs::MetricsRegistry* metrics) {
  core::TrainConfig cfg;
  cfg.model = "res-mini";
  cfg.train_samples = 1024;
  cfg.test_samples = 512;
  cfg.epochs = epochs;
  cfg.batch_per_worker = kTrainBatch;
  cfg.lr = dnn::LrSchedule{0.02f, 4, {11, 15}, 0.1f};  // fig6 res-mini
  // The task (dataset, initial weights) is fixed, as a real benchmark
  // dataset is; the seed picks the data order. Across dataset seeds the
  // epoch that reaches the target moves by +-1 of 4, too wide a spread.
  cfg.shuffle_seed = SubSeed(seed, 2);
  cfg.metrics = metrics;
  return cfg;
}

bool SameHistory(const std::vector<core::EpochStat>& a,
                 const std::vector<core::EpochStat>& b, size_t epochs) {
  if (a.size() < epochs || b.size() < epochs) return false;
  for (size_t e = 0; e < epochs; ++e) {
    if (a[e].epoch != b[e].epoch ||
        std::memcmp(&a[e].train_loss, &b[e].train_loss, sizeof(double)) != 0 ||
        std::memcmp(&a[e].test_acc, &b[e].test_acc, sizeof(double)) != 0)
      return false;
  }
  return true;
}

// Timings of the jobs that stop at the target accuracy.
struct Convergence {
  core::TrainResult reference;  // the kTrainEpochs-long job
  int target_epochs = 0;        // epochs until the target accuracy
  // One entry per job: its wall time, and rank-0 steps over that time.
  std::vector<double> time_to_acc_s, steps_per_s;
  // One entry per window of kJobWindow consecutive jobs: quantiles of rank
  // 0's train.step_us over the window's steps, in ms.
  std::vector<double> step_p50_ms, step_p90_ms;
  uint64_t steps = 0;  // rank-0 steps of every training job
};

// Trains res-mini through TrainingService::Train: one reference job of
// kTrainEpochs, then jobs that stop at the first epoch reaching the target
// accuracy, each timed from outside, until `budget_s` is spent (at least
// `min_jobs`). Every job must repeat the reference history bitwise.
Convergence TrainToTarget(Bench& bench, uint64_t seed, double budget_s,
                          int min_jobs, Result& result) {
  Convergence conv;
  const auto t0 = Clock::now();
  auto train = [&](int epochs, obs::MetricsRegistry* metrics) {
    return bench.service.Train(bench.job, ResMiniConfig(seed, epochs, metrics));
  };
  auto window = std::make_unique<obs::MetricsRegistry>();
  window->Enable();
  conv.reference = train(kTrainEpochs, window.get());
  conv.steps = window->counter("train.steps").value();
  const auto& hist = conv.reference.history;
  const auto hit = std::find_if(hist.begin(), hist.end(), [](const auto& s) {
    return s.test_acc >= kTargetTestAcc;
  });
  result.Check(hit != hist.end(), "res-mini never reached test accuracy " +
                                      std::to_string(kTargetTestAcc));
  conv.target_epochs = hit == hist.end() ? kTrainEpochs
                                         : static_cast<int>(hit - hist.begin()) + 1;
  std::fprintf(stderr, "perfbench: %s res-mini test acc / train loss per epoch:",
               bench.job.session.compressor_spec.c_str());
  for (const auto& s : hist) std::fprintf(stderr, " %.3f/%.4f", s.test_acc, s.train_loss);
  std::fprintf(stderr, "\n");

  double job_s = 0;  // the last job's wall time, to stop within the budget
  while (static_cast<int>(conv.time_to_acc_s.size()) < min_jobs ||
         MsSince(t0) / 1000.0 + job_s < budget_s) {
    if (conv.time_to_acc_s.size() % kJobWindow == 0) {
      window = std::make_unique<obs::MetricsRegistry>();
      window->Enable();
    }
    const uint64_t steps_before = window->counter("train.steps").value();
    const auto t = Clock::now();
    const core::TrainResult r = train(conv.target_epochs, window.get());
    job_s = MsSince(t) / 1000.0;
    result.Check(SameHistory(r.history, hist, static_cast<size_t>(conv.target_epochs)),
                 "training job did not repeat the reference history bitwise");
    const uint64_t steps = window->counter("train.steps").value() - steps_before;
    conv.time_to_acc_s.push_back(job_s);
    conv.steps_per_s.push_back(static_cast<double>(steps) / job_s);
    conv.steps += steps;
    if (conv.time_to_acc_s.size() % kJobWindow == 0) {
      const auto& step_us = window->histogram("train.step_us");
      conv.step_p50_ms.push_back(step_us.Quantile(0.5) / 1000.0);
      conv.step_p90_ms.push_back(step_us.Quantile(0.9) / 1000.0);
    }
  }
  LogSamples("time to accuracy per job, s", conv.time_to_acc_s);
  LogSamples("step p50 per window, ms", conv.step_p50_ms);
  LogSamples("step p90 per window, ms", conv.step_p90_ms);
  return conv;
}

// What TrainDistributed builds on each rank before its first step.
struct Replica {
  dnn::Network net;
  dnn::Dataset train, test;
  dnn::Shard shard;
  std::unique_ptr<core::GradientAggregator> aggregator;
  std::unique_ptr<dnn::SgdOptimizer> opt;
};

Replica BuildReplica(const core::TrainConfig& config,
                     const core::AggregatorFactory& factory, int rank, int world) {
  Replica r;
  dnn::MiniModelSpec mspec;
  mspec.channels = config.data.channels;
  mspec.height = config.data.height;
  mspec.width = config.data.width;
  mspec.num_classes = config.data.num_classes;
  r.net = dnn::MiniByName(config.model, mspec);
  r.net.Init(config.model_seed);
  r.train = dnn::MakeSynthetic(config.data, config.train_samples, /*salt=*/1);
  r.test = dnn::MakeSynthetic(config.data, config.test_samples, /*salt=*/2);
  r.shard = dnn::ShardFor(r.train, rank, world);
  r.aggregator = factory(rank, world);
  r.opt = std::make_unique<dnn::SgdOptimizer>(r.net.params(), config.lr,
                                              config.momentum, config.weight_decay);
  return r;
}

// The trainer loop of core::TrainDistributed, call for call, timing each
// call into dnn, core and the aggregator.
core::TrainResult TracedTrain(comm::Session& session, const core::TrainConfig& config,
                              const core::AggregatorFactory& factory,
                              std::vector<TrainTrace>& traces) {
  core::TrainResult result;
  std::mutex result_mu;
  session.Run([&](comm::Communicator& comm) {
    const int rank = comm.rank();
    TrainTrace& tt = traces[static_cast<size_t>(rank)];
    auto t = Clock::now();
    Replica rep = BuildReplica(config, factory, rank, comm.world_size());
    tt.setup_ms += MsSince(t);
    dnn::Network& net = rep.net;

    const int64_t iters_per_epoch = rep.shard.count / config.batch_per_worker;
    std::vector<int64_t> order(static_cast<size_t>(rep.shard.count));
    std::iota(order.begin(), order.end(), rep.shard.begin);
    Tensor batch_x;
    std::vector<int> batch_y;
    Tensor one_x({1, rep.train.features});

    std::vector<std::string> groups;
    for (auto* p : net.params()) groups.push_back(p->name.substr(0, p->name.find('.')));
    Clock::time_point last_ready;
    const dnn::GradReadyHook hook = [&](size_t idx) {
      const auto now = Clock::now();
      tt.backward_group_ms[groups[idx]] +=
          std::chrono::duration<double, std::milli>(now - last_ready).count();
      last_ready = now;
    };

    for (int epoch = 0; epoch < config.epochs; ++epoch) {
      Rng shuffle = Rng(config.shuffle_seed)
                        .split(static_cast<uint64_t>(epoch) * 131 +
                               static_cast<uint64_t>(rank));
      for (size_t i = order.size(); i > 1; --i) {
        const size_t j = static_cast<size_t>(shuffle.next_below(i));
        std::swap(order[i - 1], order[j]);
      }
      double loss_acc = 0.0;
      for (int64_t it = 0; it < iters_per_epoch; ++it) {
        t = Clock::now();
        batch_x = Tensor({config.batch_per_worker, rep.train.features});
        batch_y.assign(static_cast<size_t>(config.batch_per_worker), 0);
        for (int64_t b = 0; b < config.batch_per_worker; ++b) {
          const int64_t src =
              order[static_cast<size_t>(it * config.batch_per_worker + b)];
          std::vector<int> one_y;
          rep.train.Slice(src, 1, one_x, one_y);
          std::copy(one_x.data().begin(), one_x.data().end(),
                    batch_x.data().begin() + b * rep.train.features);
          batch_y[static_cast<size_t>(b)] = one_y[0];
        }
        tt.batch_ms += MsSince(t);

        t = Clock::now();
        net.ZeroGrads();
        const Tensor logits = net.Forward(batch_x);
        tt.forward_ms += MsSince(t);
        t = Clock::now();
        const dnn::LossResult loss = dnn::SoftmaxCrossEntropy(logits, batch_y);
        loss_acc += loss.loss;
        tt.loss_ms += MsSince(t);
        t = Clock::now();
        last_ready = t;
        (void)net.Backward(loss.grad_logits, hook);
        tt.backward_ms += MsSince(t);

        auto params = net.params();
        rep.aggregator->Aggregate(params, comm);

        t = Clock::now();
        const double frac_epoch =
            epoch + static_cast<double>(it) / std::max<int64_t>(1, iters_per_epoch);
        rep.opt->Step(frac_epoch);
        tt.sgd_ms += MsSince(t);
        ++tt.steps;
      }
      if (rank == 0) {
        t = Clock::now();
        Tensor test_x;
        std::vector<int> test_y;
        rep.test.Slice(0, rep.test.size(), test_x, test_y);
        const Tensor logits = net.Forward(test_x);
        core::EpochStat stat;
        stat.epoch = epoch;
        stat.train_loss = loss_acc / std::max<int64_t>(1, iters_per_epoch);
        stat.test_acc = dnn::Accuracy(logits, test_y);
        tt.eval_ms += MsSince(t);
        std::lock_guard lock(result_mu);
        result.history.push_back(stat);
      }
      t = Clock::now();
      comm.barrier();
      tt.eval_wait_ms += MsSince(t);
      ++tt.epochs;
    }
  });
  return result;
}

// End-to-end metrics of res-mini training with the job's method. On the
// training workload it is the whole measurement; the aggregation workloads
// run it as their convergence probe (time to accuracy and quality).
void TrainEndToEnd(Bench& bench, uint64_t seed, double seconds,
                   bool is_train_workload, Result& result) {
  const Convergence conv =
      TrainToTarget(bench, seed, seconds, static_cast<int>(kJobWindow), result);
  const auto& hist = conv.reference.history;
  double loss_sum = 0;
  for (const auto& s : hist) loss_sum += s.train_loss;
  result.Metric("time_to_acc_s", BestTime(conv.time_to_acc_s), "s");
  result.Metric("final_test_acc", hist.back().test_acc, "ratio");
  result.Metric("mean_train_loss", loss_sum / static_cast<double>(hist.size()), "nats");
  if (!is_train_workload) return;

  const double steps_per_s = BestRate(conv.steps_per_s);
  result.Metric("steps_per_s", steps_per_s, "1/s");
  result.Metric("samples_per_s", steps_per_s * kWorld * kTrainBatch, "1/s");
  result.Metric("step_ms_p50", BestTime(conv.step_p50_ms), "ms");
  result.Metric("step_ms_p90", BestTime(conv.step_p90_ms), "ms");
  uint64_t bytes = 0;
  for (const auto& rec : bench.service.jobs()) bytes += rec.traffic.bytes_sent;
  result.Metric("wire_mb_per_step",
                static_cast<double>(bytes) / kWorld / static_cast<double>(conv.steps) / 1e6,
                "MB");
  result.Check(bench.Retries() == 0, "collectives retried");
}

void RunTrainWorkload(uint64_t seed, double seconds, bool trace, Result& result) {
  Bench bench(kTrainWorkload, "acpsgd:4");
  if (!trace) {
    // Set-up: what Train builds on each rank before its first step.
    const core::TrainConfig cfg = ResMiniConfig(seed, kTrainEpochs, nullptr);
    const auto factory = core::MakeAggregatorFactory(bench.job.session.compressor_spec);
    std::vector<double> setup_s;
    for (int i = 0; i < kSetupJobs; ++i) {
      const auto t0 = Clock::now();
      bench.Run(
          [&](comm::Session& session) {
            session.Run([&](comm::Communicator& comm) {
              (void)BuildReplica(cfg, factory, comm.rank(), comm.world_size());
            });
          },
          result);
      setup_s.push_back(MsSince(t0) / 1000.0);
    }
    result.Metric("setup_s", Median(setup_s), "s");
    TrainEndToEnd(bench, seed, seconds - Sum(setup_s), true, result);
    return;
  }

  // Pairs of an untraced production job and the traced replica of the same
  // job, until the time budget is spent.
  std::vector<TrainTrace> tt(kWorld);
  std::vector<AggTrace> at(kWorld);
  const core::AggregatorFactory traced_factory = [&](int rank, int) {
    return std::make_unique<TracedAggregator>(bench.job.session.compressor_spec,
                                              &at[static_cast<size_t>(rank)]);
  };
  const core::TrainConfig cfg = ResMiniConfig(seed, kTrainEpochs, nullptr);
  double prod_ms = 0, traced_ms = 0;
  int jobs = 0;
  par::ResetKernelStats();
  const auto start = Clock::now();
  do {
    auto t = Clock::now();
    const core::TrainResult prod = bench.service.Train(bench.job, cfg);
    prod_ms += MsSince(t);
    core::TrainResult traced;
    par::SetKernelStatsEnabled(true);
    t = Clock::now();
    bench.Run(
        [&](comm::Session& session) {
          traced = TracedTrain(session, cfg, traced_factory, tt);
        },
        result);
    traced_ms += MsSince(t);
    par::SetKernelStatsEnabled(false);
    result.Check(SameHistory(traced.history, prod.history, kTrainEpochs),
                 "traced trainer replica diverged from TrainingService::Train");
    ++jobs;
  } while (MsSince(start) < seconds * 1000.0);

  const TrainTrace& r0 = tt[0];
  const double steps = std::max<double>(1.0, static_cast<double>(r0.steps));
  const double epochs = std::max<double>(1.0, static_cast<double>(r0.epochs));
  result.Metric("dnn.forward_ms", r0.forward_ms / steps, "ms");
  result.Metric("dnn.backward_ms", r0.backward_ms / steps, "ms");
  for (const char* g : kBackwardGroups) {
    const auto it = r0.backward_group_ms.find(g);
    result.Metric(std::string("dnn.backward_ms.") + g,
                  it == r0.backward_group_ms.end() ? 0.0 : it->second / steps, "ms");
  }
  result.Check(r0.backward_group_ms.size() == kBackwardGroups.size(),
               "res-mini backward groups changed; update kBackwardGroups");
  result.Metric("dnn.loss_ms", r0.loss_ms / steps, "ms");
  result.Metric("dnn.sgd_ms", r0.sgd_ms / steps, "ms");
  result.Metric("dnn.eval_ms", r0.eval_ms / epochs, "ms");
  double wait_ms = 0;
  for (int r = 1; r < kWorld; ++r) wait_ms += tt[static_cast<size_t>(r)].eval_wait_ms;
  result.Metric("core.eval_wait_ms", wait_ms / (kWorld - 1) / epochs, "ms");
  result.Metric("core.batch_ms", r0.batch_ms / steps, "ms");
  result.Metric("core.replica_setup_ms", r0.setup_ms / jobs, "ms");
  AggMetrics(at[0], result);
  KernelMetrics(steps * kWorld, result);
  const uint64_t retries = bench.Retries();
  result.Check(retries == 0, "collectives retried");
  result.Metric("comm.retries", static_cast<double>(retries), "count");
  result.Metric("comm.barrier_us", BarrierUs(bench, result), "us");
  result.Metric("trace.overhead_pct", (traced_ms / prod_ms - 1.0) * 100.0, "%");
}

// --- ResNet-50 gradient aggregation -------------------------------------------

// Seeded synthetic ResNet-50 gradients, one flat buffer per rank in forward
// parameter order, and their exact mean.
struct GradInputs {
  models::ModelSpec model;
  std::vector<std::vector<float>> per_rank;
  std::vector<float> mean;
};

GradInputs MakeGradInputs(uint64_t seed) {
  GradInputs in;
  in.model = models::ResNet50();
  const size_t n = static_cast<size_t>(in.model.total_params());
  in.per_rank.resize(kWorld);
  {
    std::vector<std::jthread> fill;
    for (int r = 0; r < kWorld; ++r) {
      fill.emplace_back([&, r] {
        auto& v = in.per_rank[static_cast<size_t>(r)];
        v.resize(n);
        Rng rng = Rng(SubSeed(seed, 4)).split(static_cast<uint64_t>(r));
        for (auto& x : v) x = rng.uniform(-1.0f, 1.0f);
      });
    }
  }
  in.mean.resize(n);
  for (size_t i = 0; i < n; ++i) {
    double s = 0;
    for (const auto& v : in.per_rank) s += v[i];
    in.mean[i] = static_cast<float>(s / kWorld);
  }
  return in;
}

std::vector<dnn::Param> MakeParams(const models::ModelSpec& model) {
  std::vector<dnn::Param> params(model.layers.size());
  for (size_t i = 0; i < params.size(); ++i) {
    const auto& l = model.layers[i];
    dnn::Param& p = params[i];
    p.name = l.name;
    p.matrix_rows = l.matrix_rows;
    p.matrix_cols = l.matrix_cols;
    const bool matrix = l.matrix_rows > 0 && l.matrix_cols > 0;
    ACPS_CHECK(!matrix || l.matrix_rows * l.matrix_cols == l.numel());
    p.grad = matrix ? Tensor({l.matrix_rows, l.matrix_cols}) : Tensor({l.numel()});
  }
  return params;
}

void LoadGrads(std::vector<dnn::Param>& params, const std::vector<float>& flat) {
  size_t off = 0;
  for (auto& p : params) {
    auto dst = p.grad.data();
    std::copy(flat.begin() + static_cast<ptrdiff_t>(off),
              flat.begin() + static_cast<ptrdiff_t>(off + dst.size()), dst.begin());
    off += dst.size();
  }
}

struct AggJob {
  double setup_s = 0;  // until every rank holds its aggregator and buffers
  std::vector<double> step_ms;    // rank 0 Aggregate time of every step
  std::vector<uint64_t> digests;  // rank 0 output after every step
  double wire_mb_per_step = 0;    // rank 0, from its TrafficStats
  int steps = 0;
};

// Rank-0 step times after the warm-up step, as means of consecutive pairs:
// ACP-SGD alternates a P step and a cheaper Q step, so a pair is its unit of
// work. The warm-up step builds the aggregator's lazy state and first
// touches its buffers.
std::vector<double> PairMs(const std::vector<double>& step_ms) {
  std::vector<double> pairs;
  for (size_t s = 1; s + 1 < step_ms.size(); s += 2)
    pairs.push_back(0.5 * (step_ms[s] + step_ms[s + 1]));
  return pairs;
}

// One aggregation job: every rank builds its aggregator and gradient
// buffers (the set-up), then runs `steps` steps, or, when budget_s > 0, a
// warm-up step and pairs of steps until `budget_s` is spent. After every
// step the ranks' gradients must be bitwise identical and finite, and
// S-SGD's must equal the exact mean.
AggJob RunAggJob(Bench& bench, const GradInputs& in,
                 const core::AggregatorFactory& factory, int steps, double budget_s,
                 Result& result) {
  AggJob job;
  const bool exact = bench.job.session.compressor_spec == "ssgd";
  std::vector<std::vector<dnn::Param>*> rank_params(kWorld);
  std::vector<char> same(kWorld, 1), finite(kWorld, 1);
  // In budget mode rank 0 extends this after the first pair, before the
  // barrier every rank crosses before reading it again.
  std::atomic<int> planned{budget_s > 0 ? 3 : steps};
  bench.Run(
      [&](comm::Session& session) {
        const auto t0 = Clock::now();
        session.Run([&](comm::Communicator& comm) {
          const int rank = comm.rank();
          const size_t r = static_cast<size_t>(rank);
          auto aggregator = factory(rank, comm.world_size());
          std::vector<dnn::Param> params = MakeParams(in.model);
          std::vector<dnn::Param*> ptrs;
          for (auto& p : params) ptrs.push_back(&p);
          rank_params[r] = &params;
          comm.barrier();
          if (rank == 0) job.setup_s = MsSince(t0) / 1000.0;
          Clock::time_point pair_t0;
          for (int s = 0; s < planned.load(); ++s) {
            if (s == 1) pair_t0 = Clock::now();
            LoadGrads(params, in.per_rank[r]);
            const auto ts = Clock::now();
            aggregator->Aggregate(ptrs, comm);
            if (rank == 0) job.step_ms.push_back(MsSince(ts));
            if (rank == 0 && budget_s > 0 && s == 2) {
              // Whole pairs that still fit, each taking as long as the first.
              const double pair_wall_ms = MsSince(pair_t0);
              const double left_ms = budget_s * 1000.0 - MsSince(t0);
              planned.store(3 + 2 * std::max(0, static_cast<int>(left_ms / pair_wall_ms)));
            }
            comm.barrier();
            bool eq = true, fin = true;
            for (size_t i = 0; i < params.size(); ++i) {
              const auto mine = params[i].grad.data();
              const auto ref = (*rank_params[0])[i].grad.data();
              eq = eq && std::memcmp(mine.data(), ref.data(), mine.size_bytes()) == 0;
              for (const float x : mine) fin = fin && std::isfinite(x);
            }
            same[r] = eq;
            finite[r] = fin;
            comm.barrier();
            if (rank != 0) continue;
            result.Check(std::all_of(same.begin(), same.end(), [](char c) { return c; }),
                         "ranks disagree after aggregation");
            result.Check(std::all_of(finite.begin(), finite.end(), [](char c) { return c; }),
                         "non-finite aggregated gradient");
            uint64_t h = 0xcbf29ce484222325ull;
            size_t off = 0;
            double worst = 0;
            for (const auto& p : params) {
              const auto g = p.grad.data();
              h = Digest(g, h);
              if (exact) {
                for (size_t i = 0; i < g.size(); ++i)
                  worst = std::max<double>(worst, std::fabs(g[i] - in.mean[off + i]));
              }
              off += g.size();
            }
            if (exact) result.Check(worst <= 1e-5, "S-SGD result differs from the exact mean");
            job.digests.push_back(h);
          }
          if (rank == 0) {
            job.steps = planned.load();
            job.wire_mb_per_step = static_cast<double>(comm.stats().bytes_sent) /
                                   std::max(1, job.steps) / 1e6;
          }
          comm.barrier();  // rank 0's buffers outlive every reader
        });
      },
      result);
  return job;
}

void RunAggWorkload(const std::string& workload, const std::string& spec,
                    uint64_t seed, double seconds, bool trace, Result& result) {
  Bench bench(workload, spec);
  const auto start = Clock::now();
  // The convergence probe runs before the large inputs exist.
  if (!trace) TrainEndToEnd(bench, seed, seconds * kProbeShare, false, result);
  const double probe_s = MsSince(start) / 1000.0;
  const GradInputs in = MakeGradInputs(seed);
  const auto factory = core::MakeAggregatorFactory(spec);

  if (!trace) {
    // Set-up-only jobs, then one job with the rest of the budget (at least
    // the warm-up step and one pair).
    std::vector<double> setup_s;
    for (int j = 0; j < kSetupJobs; ++j)
      setup_s.push_back(RunAggJob(bench, in, factory, 0, 0.0, result).setup_s);
    const AggJob job = RunAggJob(bench, in, factory, 0,
                                 std::max(1e-3, seconds - probe_s - Sum(setup_s)), result);
    LogSamples("rank-0 Aggregate per step, ms", job.step_ms);
    const std::vector<double> pairs = PairMs(job.step_ms);
    const double step_ms = BestTime(WindowQuantiles(pairs, 0.5));
    result.Metric("setup_s", Median(setup_s), "s");
    result.Metric("steps_per_s", 1000.0 / step_ms, "1/s");
    result.Metric("samples_per_s",
                  1000.0 / step_ms * in.model.default_batch_size * kWorld, "1/s");
    result.Metric("step_ms_p50", step_ms, "ms");
    result.Metric("step_ms_p90", BestTime(WindowQuantiles(pairs, 0.9)), "ms");
    result.Metric("wire_mb_per_step", job.wire_mb_per_step, "MB");
    result.Check(bench.Retries() == 0, "collectives retried");
    return;
  }

  // Untraced production job, then the traced replica on the same inputs.
  const AggJob prod = RunAggJob(bench, in, factory, 0, seconds * 0.45, result);
  std::vector<AggTrace> at(kWorld);
  const core::AggregatorFactory traced_factory = [&](int rank, int) {
    return std::make_unique<TracedAggregator>(spec, &at[static_cast<size_t>(rank)]);
  };
  par::ResetKernelStats();
  par::SetKernelStatsEnabled(true);
  const AggJob traced = RunAggJob(bench, in, traced_factory, prod.steps, 0.0, result);
  par::SetKernelStatsEnabled(false);
  result.Check(traced.digests == prod.digests,
               "traced aggregator replica diverged from the production aggregator");

  for (const char* name : {"dnn.forward_ms", "dnn.backward_ms"})
    result.Metric(name, 0.0, "ms");
  for (const char* g : kBackwardGroups)
    result.Metric(std::string("dnn.backward_ms.") + g, 0.0, "ms");
  for (const char* name : {"dnn.loss_ms", "dnn.sgd_ms", "dnn.eval_ms",
                           "core.eval_wait_ms", "core.batch_ms"})
    result.Metric(name, 0.0, "ms");
  result.Metric("core.replica_setup_ms", traced.setup_s * 1000.0, "ms");
  AggMetrics(at[0], result);
  KernelMetrics(static_cast<double>(traced.steps) * kWorld, result);
  const uint64_t retries = bench.Retries();
  result.Check(retries == 0, "collectives retried");
  result.Metric("comm.retries", static_cast<double>(retries), "count");
  result.Metric("comm.barrier_us", BarrierUs(bench, result), "us");
  result.Metric("trace.overhead_pct",
                (Median(PairMs(traced.step_ms)) / Median(PairMs(prod.step_ms)) - 1.0) * 100.0,
                "%");
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    if (!ParseArgs(argc, argv, args)) {
      std::fprintf(stderr, "usage: perfbench --workload NAME --seed N "
                           "--seconds S --trace 0|1\n");
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: bad argument: %s\n", e.what());
    return 2;
  }
  const std::string build_type = ACPS_BENCH_BUILD_TYPE;
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    std::fprintf(stderr,
                 "perfbench: refusing to time an unoptimized build "
                 "(CMAKE_BUILD_TYPE='%s'; want Release or RelWithDebInfo)\n",
                 build_type.c_str());
    return 3;
  }
  par::SetNumThreads(par::WorkerThreadBudget(0, kWorld));

  Result result;
  try {
    if (args.workload == kTrainWorkload) {
      RunTrainWorkload(args.seed, args.seconds, args.trace, result);
    } else if (args.workload == "agg-r50-acp") {
      RunAggWorkload(args.workload, "acpsgd:4", args.seed, args.seconds, args.trace, result);
    } else if (args.workload == "agg-r50-ssgd") {
      RunAggWorkload(args.workload, "ssgd", args.seed, args.seconds, args.trace, result);
    } else if (args.workload == "agg-r50-powersgd") {
      RunAggWorkload(args.workload, "powersgd:4", args.seed, args.seconds, args.trace, result);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (!args.trace) {
    result.Metric("peak_rss_mb", PeakRssMb(), "MB");
    result.Metric("pass_ratio",
                  static_cast<double>(result.attempted() - result.failed()) /
                      static_cast<double>(std::max<uint64_t>(1, result.attempted())),
                  "ratio");
  }
  std::ostringstream env;
  env << "{\"build_type\": " << JsonString(build_type)
      << ", \"kernel_simd\": " << JsonString(ACPS_BENCH_KERNEL_SIMD)
      << ", \"world_size\": " << kWorld
      << ", \"pool_threads\": " << par::NumThreads()
      << ", \"hardware_threads\": " << par::HardwareThreads() << "}";
  std::printf("%s\n", result.Json(env.str()).c_str());
  return 0;
}
