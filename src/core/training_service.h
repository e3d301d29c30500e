// Multi-tenant training service (DESIGN.md §7): the front door through
// which independent training jobs share one process.
//
// The service owns the shared substrate — one comm::Transport and the
// process-wide kernel pool — and hands each submitted job its own
// comm::Session: a private channel block, envelope salt, obs namespace
// (`job/<key>/...`) and, optionally, a tenant-scoped fault injector. Jobs
// are admitted against two budgets (max concurrent jobs, max total ranks);
// a submission beyond the per-job rank budget is rejected at Submit, one
// beyond the concurrency budget queues until capacity frees up. Every
// completed job leaves a JobRecord in the registry: terminal state, error,
// traffic, crashed ranks.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>  // job runner threads, see Submit
#include <vector>

#include "comm/session.h"
#include "comm/transport.h"
#include "core/trainer.h"
#include "par/lock_level.h"

namespace acps::core {

// Capacity and attachments for one TrainingService.
struct ServiceConfig {
  // Jobs running (not queued) at once. Admission is FIFO-fair only in the
  // sense that a queued job re-checks capacity on every release; tests that
  // need a strict order should submit within capacity.
  int max_concurrent_jobs = 8;
  // Largest world_size a single job may request; bigger submissions are
  // rejected at Submit (they could never be admitted).
  int max_ranks_per_job = 16;
  // Cap on the ranks held by running jobs: each job is charged its session
  // capacity, max(world_size, session.max_world_size), exactly what the
  // transport charges. 0 resolves to max_concurrent_jobs *
  // max_ranks_per_job.
  int max_total_ranks = 0;
  // Barrier watchdog for every job's session (see TransportOptions).
  int64_t barrier_timeout_ms = comm::kCollectiveTimeoutFromEnv;
  // Observability attachments (not owned; may be null; must outlive the
  // service). Each job records under its own `job/<key>/` namespace.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;

  // Returns "" when valid, otherwise one message naming every violation.
  [[nodiscard]] std::string Validate() const;
};

// What a tenant submits.
struct JobSpec {
  // Human-readable name; the registry key becomes "<name>-<id>"
  // ("job-<id>" when empty), so two submissions of the same name never
  // collide in metrics or envelopes.
  std::string name;
  int world_size = 2;
  // Session-level collective configuration (algorithm, fusion budget,
  // compressor spec) — validated at admission, not per call.
  comm::SessionOptions session;
  // Tenant-scoped fault injector (not owned; may be null; must outlive the
  // job). Installed on this job's session only — it never observes or
  // perturbs another tenant.
  fault::FaultInjector* fault_injector = nullptr;
};

enum class JobState { kPending, kRunning, kSucceeded, kFailed };
[[nodiscard]] const char* ToString(JobState state) noexcept;

// Registry entry for one submission; snapshots returned by jobs()/job()/
// Wait are copies, safe to read without holding the service lock.
struct JobRecord {
  uint64_t id = 0;        // 1-based submission index
  std::string job_key;    // "<name>-<id>", the session's job id
  std::string name;
  int world_size = 0;
  JobState state = JobState::kPending;
  std::string error;      // non-empty iff state == kFailed
  comm::TrafficStats traffic;      // session total from the job's last Run
  std::vector<int> crashed_ranks;  // fail-stopped ranks, in crash order
};

using JobHandle = uint64_t;

// The service. Thread-safe: jobs may be submitted and awaited from any
// thread; the destructor joins every job runner.
class TrainingService {
 public:
  explicit TrainingService(ServiceConfig config = {});
  ~TrainingService();

  TrainingService(const TrainingService&) = delete;
  TrainingService& operator=(const TrainingService&) = delete;

  [[nodiscard]] const ServiceConfig& config() const noexcept {
    return config_;
  }
  // The shared substrate (exposed for capacity introspection and for
  // adjacent harnesses that open bare sessions on the service's transport).
  [[nodiscard]] comm::Transport& transport() noexcept { return transport_; }

  // Validates the spec and enqueues the job; returns its handle. The body
  // runs on a dedicated runner thread once admission grants capacity; it is
  // handed the job's Session and drives it (typically one or more
  // Session::Run calls, or core::TrainDistributed). Throws acps::Error on an
  // invalid spec, a world_size beyond max_ranks_per_job, or a capacity
  // (max of world_size and session.max_world_size) beyond the rank budget.
  // A body exception fails the job (JobRecord::error) instead of
  // propagating.
  JobHandle Submit(const JobSpec& spec,
                   std::function<void(comm::Session&)> body);

  // Blocks until the job reaches a terminal state; returns its record.
  JobRecord Wait(JobHandle handle);

  // Submit + Wait. Job failure is reported in the record, not thrown.
  JobRecord RunJob(const JobSpec& spec,
                   std::function<void(comm::Session&)> body);

  // Runs a full training job (core::TrainDistributed with an aggregator
  // built from spec.session.compressor_spec / fusion_bytes) as one tenant.
  // Throws acps::Error if the job failed.
  TrainResult Train(const JobSpec& spec, const TrainConfig& train_config);

  // --- Registry ------------------------------------------------------------
  [[nodiscard]] JobRecord job(JobHandle handle) const;
  [[nodiscard]] std::vector<JobRecord> jobs() const;
  [[nodiscard]] int active_jobs() const;
  [[nodiscard]] uint64_t submitted() const;
  [[nodiscard]] uint64_t completed() const;

 private:
  // Resolved max_total_ranks (never 0 after construction).
  [[nodiscard]] int TotalRankCap() const noexcept;
  void RunnerLoop(uint64_t id, JobSpec spec,
                  std::function<void(comm::Session&)> body);

  ServiceConfig config_;
  comm::Transport transport_;

  // Level 10: the outermost lock in the hierarchy — held across admission
  // waits and registry reads, never while calling into the transport.
  mutable ACPS_LOCK_LEVEL(10) service_mu_;
  par::ConditionVariable admission_cv_;  // capacity freed
  par::ConditionVariable done_cv_;       // some job reached a terminal state
  std::vector<JobRecord> records_;        // index = id - 1
  // One runner per job: jobs are long-lived, blocking tenants (each owns
  // worker threads of its own via Session::Run), not parallel-for work
  // items — the deterministic pool is the wrong tool.
  std::vector<std::thread> runners_;  // lint:allow(raw-thread)
  int active_jobs_ = 0;
  int active_ranks_ = 0;
  uint64_t completed_ = 0;
};

}  // namespace acps::core
