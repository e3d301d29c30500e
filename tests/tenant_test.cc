// Multi-tenant training service tests (ISSUE: per-job comm sessions over a
// shared transport).
//
// The two gates that matter:
//   * SoloParityStress — >= 64 concurrent jobs on ONE transport, every job
//     bitwise identical to the same job run solo, with per-job p50/p99
//     step-latency metrics exported under `job/<key>/`.
//   * TenantScopedChaos — for every fault kind, a chaos plan scoped to
//     tenant A never changes a single byte of tenant B (nor B's fault
//     counters).
#include "core/training_service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "comm/communicator.h"
#include "fault/plan.h"
#include "obs/metrics_registry.h"

namespace acps {
namespace {

// Smaller fleet under sanitizers: tsan multiplies the cost of the barrier
// traffic and the gate is about isolation, not throughput.
#ifdef ACPS_SANITIZE_BUILD
constexpr int kStressJobs = 16;
#else
constexpr int kStressJobs = 64;
#endif
constexpr int kJobKinds = 8;
constexpr int kRounds = 6;
constexpr size_t kElems = 96;

float PatternValue(uint64_t seed, int rank, int round, size_t i) {
  const uint64_t h = fault::Mix64(
      seed ^ (static_cast<uint64_t>(rank) * 1000003ull) ^
      (static_cast<uint64_t>(round) * 10007ull) ^ static_cast<uint64_t>(i));
  return static_cast<float>(h % 1024) / 32.0f;
}

// Deterministic multi-collective workload: per round one all_reduce
// (session-default algorithm), one all_gather_bytes, one broadcast, all
// folded into a per-rank accumulator. Returns rank 0's final buffer —
// the bytes the solo-parity and chaos gates compare bitwise. Optionally
// records per-round latency through Session::ObserveStepMs.
std::vector<float> RunWorkload(comm::Session& session, uint64_t seed,
                               bool observe_steps = false) {
  const int world = session.world_size();
  std::vector<float> out;
  std::mutex out_mu;
  session.Run([&](comm::Communicator& comm) {
    const int rank = comm.rank();
    std::vector<float> acc(kElems, 0.0f);
    for (int round = 0; round < kRounds; ++round) {
      const auto t0 = std::chrono::steady_clock::now();
      std::vector<float> data(kElems);
      for (size_t i = 0; i < kElems; ++i)
        data[i] = PatternValue(seed, rank, round, i);
      comm.all_reduce(data);
      for (size_t i = 0; i < kElems; ++i)
        acc[i] = 0.25f * acc[i] + data[i];

      std::vector<std::byte> send(kElems * sizeof(float));
      std::memcpy(send.data(), acc.data(), send.size());
      std::vector<std::byte> recv(send.size() * static_cast<size_t>(world));
      comm.all_gather_bytes(send, recv);
      std::vector<float> gathered(kElems * static_cast<size_t>(world));
      std::memcpy(gathered.data(), recv.data(), recv.size());
      for (int r = 0; r < world; ++r) {
        if (!comm.is_alive(r)) continue;  // dead blocks are zero anyway
        for (size_t i = 0; i < kElems; ++i)
          acc[i] += 0.125f * gathered[static_cast<size_t>(r) * kElems + i];
      }

      std::vector<float> bcast(acc);
      comm.broadcast(bcast, /*root=*/0);
      for (size_t i = 0; i < kElems; ++i)
        acc[i] = 0.5f * acc[i] + 0.5f * bcast[i];

      if (observe_steps && rank == 0) {
        session.ObserveStepMs(std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count());
      }
    }
    if (rank == 0) {
      std::lock_guard lock(out_mu);
      out = acc;
    }
  });
  return out;
}

// Solo reference: the same workload as the only tenant of a fresh transport.
std::vector<float> SoloResult(uint64_t seed, int world,
                              comm::SessionOptions options = {}) {
  comm::Transport transport;
  comm::Session session(transport, "solo", world, options);
  return RunWorkload(session, seed);
}

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(Transport, EnvelopeSaltScopesJobs) {
  // Jobs get distinct, deterministic salts.
  const uint64_t a = comm::Transport::EnvelopeSalt("job-a");
  const uint64_t b = comm::Transport::EnvelopeSalt("job-b");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, comm::Transport::EnvelopeSalt("job-a"));
}

TEST(Transport, CapacityLimitsSessionsAndRanks) {
  comm::TransportOptions opts;
  opts.max_sessions = 2;
  opts.max_total_ranks = 6;
  comm::Transport transport(opts);

  auto s1 = std::make_unique<comm::Session>(transport, "a", 4);
  EXPECT_EQ(transport.active_sessions(), 1);
  EXPECT_EQ(transport.active_ranks(), 4);

  auto s2 = std::make_unique<comm::Session>(transport, "b", 2);
  EXPECT_EQ(transport.active_sessions(), 2);
  EXPECT_EQ(transport.active_ranks(), 6);

  // Session budget exhausted.
  EXPECT_THROW(comm::Session(transport, "c", 1), Error);

  // Closing a session frees its capacity...
  s2.reset();
  EXPECT_EQ(transport.active_sessions(), 1);
  EXPECT_EQ(transport.active_ranks(), 4);

  // ...but the rank budget still binds.
  EXPECT_THROW(comm::Session(transport, "d", 3), Error);
  comm::Session s3(transport, "e", 2);
  EXPECT_EQ(transport.active_ranks(), 6);
  EXPECT_EQ(transport.sessions_opened(), 3u);
}

TEST(Transport, OptionsValidate) {
  comm::TransportOptions opts;
  opts.max_sessions = -1;
  EXPECT_THROW(comm::Transport{opts}, Error);
}

TEST(SessionOptions, ValidateRejectsBadConfigsAtConstruction) {
  comm::Transport transport;

  comm::SessionOptions bad_fusion;
  bad_fusion.fusion_bytes = -1;
  EXPECT_THROW(comm::Session(transport, "j", 2, bad_fusion), Error);

  comm::SessionOptions tiny_fusion;
  tiny_fusion.fusion_bytes = 100;  // 0 < bytes < 1 KiB: surely a typo
  EXPECT_THROW(comm::Session(transport, "j", 2, tiny_fusion), Error);

  comm::SessionOptions no_spec;
  no_spec.compressor_spec = "";
  EXPECT_THROW(comm::Session(transport, "j", 2, no_spec), Error);

  // Nothing leaked capacity.
  EXPECT_EQ(transport.active_sessions(), 0);
  EXPECT_EQ(transport.active_ranks(), 0);
}

TEST(TrainingService, RegistryTracksJobLifecycles) {
  core::ServiceConfig config;
  config.max_concurrent_jobs = 2;
  config.max_ranks_per_job = 4;
  core::TrainingService service(config);

  // Oversized submissions are rejected immediately, not queued forever.
  core::JobSpec big;
  big.world_size = 8;
  EXPECT_THROW(service.Submit(big, [](comm::Session&) {}), Error);
  core::JobSpec bad_opts;
  bad_opts.session.compressor_spec = "";
  EXPECT_THROW(service.Submit(bad_opts, [](comm::Session&) {}), Error);

  core::JobSpec ok;
  ok.name = "good";
  ok.world_size = 2;
  const core::JobRecord good = service.RunJob(ok, [](comm::Session& session) {
    session.Run([](comm::Communicator& comm) {
      std::vector<float> v(8, 1.0f);
      comm.all_reduce(v);
    });
  });
  EXPECT_EQ(good.state, core::JobState::kSucceeded);
  EXPECT_EQ(good.job_key, "good-1");
  EXPECT_TRUE(good.error.empty());
  EXPECT_GT(good.traffic.bytes_sent, 0u);
  EXPECT_TRUE(good.crashed_ranks.empty());

  core::JobSpec failing;
  failing.name = "boom";
  const core::JobRecord failed =
      service.RunJob(failing, [](comm::Session&) {
        throw Error("tenant body exploded");
      });
  EXPECT_EQ(failed.state, core::JobState::kFailed);
  EXPECT_NE(failed.error.find("tenant body exploded"), std::string::npos);

  EXPECT_EQ(service.submitted(), 2u);
  EXPECT_EQ(service.completed(), 2u);
  EXPECT_EQ(service.active_jobs(), 0);
  EXPECT_EQ(service.transport().active_sessions(), 0);
  EXPECT_EQ(service.jobs().size(), 2u);
  EXPECT_EQ(ToString(service.job(2).state), std::string("failed"));
}

// An elastic job holds its whole capacity (max_world_size) on the
// transport, so admission must charge that, not the initial world_size:
// otherwise a second job is admitted into ranks the first already holds and
// fails at session open instead of queueing.
TEST(TrainingService, ElasticCapacityCountsAgainstBudgets) {
  core::ServiceConfig config;
  config.max_concurrent_jobs = 2;
  config.max_ranks_per_job = 4;  // rank budget: 2 * 4 = 8
  core::TrainingService service(config);

  core::JobSpec elastic;
  elastic.name = "elastic";
  elastic.world_size = 2;
  elastic.session.max_world_size = 8;

  // A capacity beyond the whole budget is rejected up front.
  core::JobSpec too_big = elastic;
  too_big.session.max_world_size = 9;
  EXPECT_THROW(service.Submit(too_big, [](comm::Session&) {}), Error);

  std::promise<void> first_running;
  std::promise<void> release_first;
  std::shared_future<void> release = release_first.get_future().share();
  const auto body = [](comm::Session& session) {
    session.Run([](comm::Communicator& comm) {
      std::vector<float> v(8, 1.0f);
      comm.all_reduce(v);
    });
  };
  const core::JobHandle first =
      service.Submit(elastic, [&](comm::Session& session) {
        first_running.set_value();
        release.wait();
        body(session);
      });
  first_running.get_future().wait();
  const core::JobHandle second = service.Submit(elastic, body);
  // The first job holds all 8 ranks, so the second must stay queued (give a
  // wrongly admitted one time to fail at session open).
  for (int i = 0;
       i < 50 && service.job(second).state == core::JobState::kPending; ++i)
    std::this_thread::sleep_for(  // lint:allow(raw-sleep): admission grace
        std::chrono::milliseconds(2));
  EXPECT_EQ(service.job(second).state, core::JobState::kPending)
      << service.job(second).error;
  release_first.set_value();

  const core::JobRecord a = service.Wait(first);
  const core::JobRecord b = service.Wait(second);
  EXPECT_EQ(a.state, core::JobState::kSucceeded) << a.error;
  EXPECT_EQ(b.state, core::JobState::kSucceeded) << b.error;
  EXPECT_EQ(service.transport().active_ranks(), 0);
}

// THE multi-tenant gate: kStressJobs concurrent jobs over ONE transport,
// each bitwise identical to its solo run, with per-job latency quantiles.
TEST(TrainingService, SoloParityStress) {
  // Solo references, one per job kind.
  std::vector<std::vector<float>> reference(kJobKinds);
  for (int k = 0; k < kJobKinds; ++k)
    reference[static_cast<size_t>(k)] = SoloResult(/*seed=*/1000 + k,
                                                   /*world=*/2);

  obs::MetricsRegistry metrics;
  metrics.Enable();
  core::ServiceConfig config;
  config.max_concurrent_jobs = kStressJobs;
  config.max_ranks_per_job = 2;
  config.metrics = &metrics;
  core::TrainingService service(config);

  std::vector<std::vector<float>> results(kStressJobs);
  std::vector<core::JobHandle> handles;
  handles.reserve(kStressJobs);
  for (int j = 0; j < kStressJobs; ++j) {
    const int kind = j % kJobKinds;
    core::JobSpec spec;
    spec.name = "stress";
    spec.world_size = 2;
    handles.push_back(service.Submit(spec, [&results, j, kind](
                                               comm::Session& session) {
      results[static_cast<size_t>(j)] =
          RunWorkload(session, /*seed=*/1000 + kind, /*observe_steps=*/true);
    }));
  }

  for (int j = 0; j < kStressJobs; ++j) {
    const core::JobRecord record = service.Wait(handles[static_cast<size_t>(j)]);
    ASSERT_EQ(record.state, core::JobState::kSucceeded)
        << record.job_key << ": " << record.error;
    // Bitwise solo parity: sharing the transport and kernel pool with
    // kStressJobs-1 other tenants changed nothing.
    EXPECT_TRUE(BitwiseEqual(results[static_cast<size_t>(j)],
                             reference[static_cast<size_t>(j % kJobKinds)]))
        << "job " << record.job_key << " diverged from its solo run";

    // Per-job observability: step-latency histogram with sane quantiles,
    // and the exported traffic counters.
    const auto& hist = metrics.histogram("job/" + record.job_key + "/step_ms");
    EXPECT_EQ(hist.count(), static_cast<size_t>(kRounds));
    const double p50 = hist.Quantile(0.5);
    const double p99 = hist.Quantile(0.99);
    EXPECT_GE(p50, 0.0);
    EXPECT_GE(p99, p50);
    EXPECT_EQ(
        metrics.counter("job/" + record.job_key + "/traffic.bytes_sent")
            .value(),
        record.traffic.bytes_sent);
    EXPECT_GT(record.traffic.bytes_sent, 0u);
  }
  EXPECT_EQ(service.completed(), static_cast<uint64_t>(kStressJobs));
  EXPECT_EQ(service.active_jobs(), 0);
}

struct ChaosCase {
  const char* label;
  fault::FaultKind kind;
};

class TenantChaosTest : public ::testing::TestWithParam<ChaosCase> {};

// Fault plans scoped to tenant A must not change one byte of tenant B:
// B's results stay bitwise equal to its solo run and B's fault counters
// stay at zero, for every fault kind.
TEST_P(TenantChaosTest, FaultsNeverCrossTenants) {
  const ChaosCase chaos = GetParam();
  constexpr int kChaosWorld = 4;
  constexpr uint64_t kSeedA = 77;
  constexpr uint64_t kSeedB = 88;

  const std::vector<float> b_solo = SoloResult(kSeedB, kChaosWorld);

  fault::FaultPlanConfig plan_config;
  plan_config.seed = 0xC0FFEEull;
  if (chaos.kind == fault::FaultKind::kCrash) {
    // Rank p-1 dies at its 5th collective; broadcast root 0 stays alive.
    plan_config.membership = {
        {fault::MembershipEvent::Kind::kCrash, kChaosWorld - 1, 5}};
  } else {
    plan_config.kind = chaos.kind;
    plan_config.rate = 0.2;
  }
  fault::FaultPlan plan(plan_config);

  obs::MetricsRegistry metrics;
  metrics.Enable();
  core::ServiceConfig config;
  config.max_concurrent_jobs = 2;
  config.max_ranks_per_job = kChaosWorld;
  config.metrics = &metrics;
  core::TrainingService service(config);

  core::JobSpec spec_a;
  spec_a.name = "chaos";
  spec_a.world_size = kChaosWorld;
  spec_a.fault_injector = &plan;
  core::JobSpec spec_b;
  spec_b.name = "clean";
  spec_b.world_size = kChaosWorld;

  std::vector<float> result_b;
  const core::JobHandle ha =
      service.Submit(spec_a, [&](comm::Session& session) {
        (void)RunWorkload(session, kSeedA);
      });
  const core::JobHandle hb =
      service.Submit(spec_b, [&](comm::Session& session) {
        result_b = RunWorkload(session, kSeedB);
      });

  const core::JobRecord record_a = service.Wait(ha);
  const core::JobRecord record_b = service.Wait(hb);

  // The chaos plan really fired, inside tenant A only.
  EXPECT_GT(plan.injected(), 0) << plan.Describe();
  ASSERT_EQ(record_a.state, core::JobState::kSucceeded)
      << chaos.label << ": " << record_a.error;
  if (chaos.kind == fault::FaultKind::kCrash) {
    ASSERT_EQ(record_a.crashed_ranks.size(), 1u);
    EXPECT_EQ(record_a.crashed_ranks[0], kChaosWorld - 1);
    EXPECT_EQ(metrics.counter("job/" + record_a.job_key + "/fault.crash.ranks")
                  .value(),
              1u);
  } else if (chaos.kind == fault::FaultKind::kStraggler) {
    EXPECT_GT(
        metrics
            .counter("job/" + record_a.job_key + "/fault.straggler.events")
            .value(),
        0u);
  } else {
    EXPECT_GT(
        metrics.counter("job/" + record_a.job_key + "/fault.retry.attempts")
            .value(),
        0u);
  }

  // Tenant B: bitwise solo parity and untouched fault counters.
  ASSERT_EQ(record_b.state, core::JobState::kSucceeded) << record_b.error;
  EXPECT_TRUE(record_b.crashed_ranks.empty());
  EXPECT_TRUE(BitwiseEqual(result_b, b_solo))
      << chaos.label << " in tenant A changed tenant B's bytes";
  for (const char* counter :
       {"fault.retry.attempts", "fault.detected", "fault.crash.ranks",
        "fault.straggler.events", "fault.straggler.ticks"}) {
    EXPECT_EQ(
        metrics.counter("job/" + record_b.job_key + "/" + counter).value(), 0u)
        << counter << " leaked into tenant B under " << chaos.label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFaultKinds, TenantChaosTest,
    ::testing::Values(ChaosCase{"drop", fault::FaultKind::kDrop},
                      ChaosCase{"duplicate", fault::FaultKind::kDuplicate},
                      ChaosCase{"stale_read", fault::FaultKind::kStaleRead},
                      ChaosCase{"corrupt", fault::FaultKind::kCorrupt},
                      ChaosCase{"straggler", fault::FaultKind::kStraggler},
                      ChaosCase{"crash", fault::FaultKind::kCrash}),
    [](const ::testing::TestParamInfo<ChaosCase>& info) {
      return std::string(info.param.label);
    });

// A session's injector sees that session's transport events and no other:
// two sessions run concurrently on one transport with a drop-everything
// plan attached to one of them. The other session must match a clean run
// in result and wire cost, and the plan must count only its own session's
// publishes.
TEST(Session, InjectorFiresOnlyForItsOwnSession) {
  const auto workload = [](std::vector<float>& out) {
    return [&out](comm::Communicator& comm) {
      std::vector<float> v(16, static_cast<float>(comm.rank() + 1));
      comm.all_reduce(v);
      if (comm.rank() == 0) out = v;
    };
  };
  std::vector<float> clean_out;
  comm::Transport clean_transport;
  comm::Session clean(clean_transport, "clean", 2);
  clean.Run(workload(clean_out));
  const comm::TrafficStats want = clean.total_stats();

  fault::FaultPlanConfig drop_all;
  drop_all.kind = fault::FaultKind::kDrop;
  drop_all.rate = 1.0;  // every first-attempt publish dropped, then retried
  fault::FaultPlan plan(drop_all);

  comm::Transport transport;
  comm::Session faulted(transport, "faulted", 2);
  comm::Session bystander(transport, "bystander", 2);
  faulted.set_fault_injector(&plan);
  std::vector<float> faulted_out;
  std::vector<float> bystander_out;
  auto a = std::async(std::launch::async,
                      [&] { faulted.Run(workload(faulted_out)); });
  auto b = std::async(std::launch::async,
                      [&] { bystander.Run(workload(bystander_out)); });
  a.get();
  b.get();

  EXPECT_EQ(bystander_out, clean_out);
  const comm::TrafficStats got = bystander.total_stats();
  EXPECT_EQ(got.bytes_sent, want.bytes_sent);
  EXPECT_EQ(got.messages_sent, want.messages_sent);
  EXPECT_EQ(got.collectives, want.collectives);
  // The faulted session recovered bitwise, paid for its retries, and the
  // plan fired once per first-attempt publish of that session alone.
  EXPECT_EQ(faulted_out, clean_out);
  EXPECT_GT(faulted.total_stats().messages_sent, want.messages_sent);
  EXPECT_EQ(plan.injected(), static_cast<int64_t>(want.messages_sent));
}

// Legacy service entry point: a full training job per tenant, through the
// spec-string aggregator factory.
TEST(TrainingService, TrainRunsTenantTrainingJobs) {
  core::ServiceConfig config;
  config.max_concurrent_jobs = 2;
  config.max_ranks_per_job = 2;
  core::TrainingService service(config);

  core::JobSpec spec;
  spec.name = "train";
  spec.world_size = 2;
  spec.session.compressor_spec = "acpsgd:2";

  core::TrainConfig cfg;
  cfg.train_samples = 128;
  cfg.test_samples = 32;
  cfg.epochs = 1;
  cfg.batch_per_worker = 16;

  const core::TrainResult result = service.Train(spec, cfg);
  EXPECT_EQ(result.history.size(), 1u);

  EXPECT_THROW(
      (void)service.Train(
          [&] {
            core::JobSpec bad = spec;
            bad.session.compressor_spec = "no-such-method";
            return bad;
          }(),
          cfg),
      Error);
}

}  // namespace
}  // namespace acps
