#include "core/training_service.h"

#include <algorithm>
#include <utility>

#include "obs/metrics_registry.h"

namespace acps::core {

std::string ServiceConfig::Validate() const {
  std::string err;
  const auto add = [&err](const std::string& msg) {
    if (!err.empty()) err += "; ";
    err += msg;
  };
  if (max_concurrent_jobs < 1)
    add("max_concurrent_jobs must be >= 1, got " +
        std::to_string(max_concurrent_jobs));
  if (max_ranks_per_job < 1)
    add("max_ranks_per_job must be >= 1, got " +
        std::to_string(max_ranks_per_job));
  if (max_total_ranks < 0)
    add("max_total_ranks must be >= 0 (0 = jobs * ranks), got " +
        std::to_string(max_total_ranks));
  return err;
}

const char* ToString(JobState state) noexcept {
  switch (state) {
    case JobState::kPending: return "pending";
    case JobState::kRunning: return "running";
    case JobState::kSucceeded: return "succeeded";
    case JobState::kFailed: return "failed";
  }
  return "unknown";
}

namespace {

comm::TransportOptions TransportOptionsFor(const ServiceConfig& config,
                                           int total_rank_cap) {
  comm::TransportOptions opts;
  opts.barrier_timeout_ms = config.barrier_timeout_ms;
  // The transport's hard limits mirror the service budgets, so a bug in the
  // admission bookkeeping surfaces as a loud capacity error instead of a
  // silent over-subscription.
  opts.max_sessions = config.max_concurrent_jobs;
  opts.max_total_ranks = total_rank_cap;
  return opts;
}

// Ranks a job holds on the transport while it runs: its session's channel
// capacity, which an elastic job sizes to max_world_size.
int ChargedRanks(const JobSpec& spec) {
  return std::max(spec.world_size, spec.session.max_world_size);
}

}  // namespace

TrainingService::TrainingService(ServiceConfig config)
    : config_([&] {
        const std::string err = config.Validate();
        ACPS_CHECK_MSG(err.empty(), "invalid ServiceConfig: " << err);
        return config;
      }()),
      transport_(TransportOptionsFor(config_, TotalRankCap())) {
  transport_.set_tracer(config_.tracer);
  transport_.set_metrics(config_.metrics);
}

TrainingService::~TrainingService() {
  for (auto& t : runners_) {
    if (t.joinable()) t.join();
  }
}

int TrainingService::TotalRankCap() const noexcept {
  return config_.max_total_ranks > 0
             ? config_.max_total_ranks
             : config_.max_concurrent_jobs * config_.max_ranks_per_job;
}

JobHandle TrainingService::Submit(const JobSpec& spec,
                                  std::function<void(comm::Session&)> body) {
  ACPS_CHECK_MSG(body != nullptr, "job body must be non-null");
  ACPS_CHECK_MSG(spec.world_size >= 1 &&
                     spec.world_size <= config_.max_ranks_per_job,
                 "job world_size must be in [1, "
                     << config_.max_ranks_per_job << "], got "
                     << spec.world_size << " (job '" << spec.name << "')");
  ACPS_CHECK_MSG(ChargedRanks(spec) <= TotalRankCap(),
                 "job capacity " << ChargedRanks(spec)
                                 << " (max of world_size and max_world_size)"
                                 << " exceeds the service rank budget "
                                 << TotalRankCap() << " (job '" << spec.name
                                 << "')");
  const std::string opt_err = spec.session.Validate();
  ACPS_CHECK_MSG(opt_err.empty(), "invalid SessionOptions for job '"
                                      << spec.name << "': " << opt_err);

  std::lock_guard lock(service_mu_);
  JobRecord record;
  record.id = records_.size() + 1;
  record.name = spec.name;
  record.job_key = (spec.name.empty() ? std::string("job") : spec.name) + "-" +
                   std::to_string(record.id);
  record.world_size = spec.world_size;
  records_.push_back(record);
  // One dedicated runner per job: a job is a long-lived blocking tenant
  // (it spawns its own Session::Run workers), so running it on the shared
  // deterministic pool would deadlock the pool. The runners_ declaration
  // carries the raw-thread exemption.
  runners_.emplace_back(&TrainingService::RunnerLoop, this, record.id, spec,
                        std::move(body));
  return record.id;
}

void TrainingService::RunnerLoop(uint64_t id, JobSpec spec,
                                 std::function<void(comm::Session&)> body) {
  std::string job_key;
  {
    // Admission: wait until both budgets have room. Capacity is re-checked
    // on every release, so queued jobs drain as running ones finish.
    std::unique_lock lock(service_mu_);
    admission_cv_.wait(lock, [&] {
      return active_jobs_ < config_.max_concurrent_jobs &&
             active_ranks_ + ChargedRanks(spec) <= TotalRankCap();
    });
    ++active_jobs_;
    active_ranks_ += ChargedRanks(spec);
    // Copy the key out: records_ may reallocate under concurrent Submits,
    // so no pointer into it survives past this lock.
    records_[id - 1].state = JobState::kRunning;
    job_key = records_[id - 1].job_key;
  }

  std::string error;
  comm::TrafficStats traffic;
  std::vector<int> crashed;
  try {
    comm::Session session(transport_, job_key, spec.world_size, spec.session);
    if (spec.fault_injector != nullptr)
      session.set_fault_injector(spec.fault_injector);
    body(session);
    traffic = session.total_stats();
    crashed = session.crashed_ranks();
  } catch (const std::exception& e) {
    error = e.what();
  } catch (...) {
    error = "job body threw a non-standard exception";
  }

  if (config_.metrics != nullptr) {
    // Export the session totals into the job's metric namespace so traffic
    // is inspectable after the session (and its counters) are gone.
    const std::string prefix = "job/" + job_key + "/";
    config_.metrics->counter(prefix + "traffic.bytes_sent")
        .Add(traffic.bytes_sent);
    config_.metrics->counter(prefix + "traffic.messages_sent")
        .Add(traffic.messages_sent);
    config_.metrics->counter(prefix + "traffic.collectives")
        .Add(traffic.collectives);
  }

  {
    std::lock_guard lock(service_mu_);
    JobRecord& record = records_[id - 1];
    record.state = error.empty() ? JobState::kSucceeded : JobState::kFailed;
    record.error = std::move(error);
    record.traffic = traffic;
    record.crashed_ranks = std::move(crashed);
    --active_jobs_;
    active_ranks_ -= ChargedRanks(spec);
    ++completed_;
  }
  admission_cv_.notify_all();
  done_cv_.notify_all();
}

JobRecord TrainingService::Wait(JobHandle handle) {
  std::unique_lock lock(service_mu_);
  ACPS_CHECK_MSG(handle >= 1 && handle <= records_.size(),
                 "unknown job handle " << handle);
  done_cv_.wait(lock, [&] {
    const JobState s = records_[handle - 1].state;
    return s == JobState::kSucceeded || s == JobState::kFailed;
  });
  return records_[handle - 1];
}

JobRecord TrainingService::RunJob(const JobSpec& spec,
                                  std::function<void(comm::Session&)> body) {
  return Wait(Submit(spec, std::move(body)));
}

TrainResult TrainingService::Train(const JobSpec& spec,
                                   const TrainConfig& train_config) {
  const AggregatorFactory factory = MakeAggregatorFactory(
      spec.session.compressor_spec, spec.session.fusion_bytes);
  TrainResult result;
  const JobRecord record = RunJob(spec, [&](comm::Session& session) {
    result = TrainDistributed(session, train_config, factory);
  });
  ACPS_CHECK_MSG(record.state == JobState::kSucceeded,
                 "training job '" << record.job_key
                                  << "' failed: " << record.error);
  return result;
}

JobRecord TrainingService::job(JobHandle handle) const {
  std::lock_guard lock(service_mu_);
  ACPS_CHECK_MSG(handle >= 1 && handle <= records_.size(),
                 "unknown job handle " << handle);
  return records_[handle - 1];
}

std::vector<JobRecord> TrainingService::jobs() const {
  std::lock_guard lock(service_mu_);
  return records_;
}

int TrainingService::active_jobs() const {
  std::lock_guard lock(service_mu_);
  return active_jobs_;
}

uint64_t TrainingService::submitted() const {
  std::lock_guard lock(service_mu_);
  return records_.size();
}

uint64_t TrainingService::completed() const {
  std::lock_guard lock(service_mu_);
  return completed_;
}

}  // namespace acps::core
