// Chaos matrix (DESIGN.md §6f): every injectable fault kind crossed with
// every collective and every compression method must end RECOVERED (bitwise
// identical to the fault-free run, or consistently degraded after a crash)
// or DETECTED (structured, seed-replayable fault::DetectedError). Any silent
// corruption — a run that "succeeds" with different bits — fails the test,
// and so does a plan that never fired (it proves nothing).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>

#include "check/explorer.h"
#include "check/schedule.h"
#include "comm/communicator.h"
#include "fault/chaos.h"
#include "fault/churn.h"
#include "fault/clock.h"
#include "fault/plan.h"
#include "obs/metrics_registry.h"
#include "obs/tracer.h"

namespace acps {
namespace {

// Sanitizer builds run a reduced matrix (one method instead of four) —
// the transport paths under test are method-independent; the full matrix
// re-runs the same code 4x, which dominates tsan wall-clock.
std::vector<fault::ChaosMethod> MatrixMethods() {
#ifdef ACPS_SANITIZE_BUILD
  return {fault::ChaosMethod::kSign};
#else
  return fault::AllChaosMethods();
#endif
}

bool IsWireFault(fault::FaultKind kind) {
  return kind == fault::FaultKind::kDrop ||
         kind == fault::FaultKind::kDuplicate ||
         kind == fault::FaultKind::kStaleRead ||
         kind == fault::FaultKind::kCorrupt ||
         kind == fault::FaultKind::kStraggler;
}

TEST(ChaosMatrixTest, EveryFaultByCollectiveByMethodRecoversOrDetects) {
  fault::ChaosOptions opt;
  for (const fault::FaultKind kind : fault::AllInjectableFaultKinds()) {
    for (const fault::ChaosCollective c : fault::AllChaosCollectives()) {
      for (const fault::ChaosMethod m : MatrixMethods()) {
        const fault::ChaosCaseResult res =
            fault::RunCollectiveChaos(kind, c, m, opt);
        ASSERT_TRUE(res.ok()) << res.Summary();
        EXPECT_GT(res.injected, 0) << res.Summary();
        if (IsWireFault(kind)) {
          // Recoverable kinds must be absorbed bitwise, not merely detected.
          EXPECT_EQ(res.outcome, fault::ChaosOutcome::kRecovered)
              << res.Summary();
        }
      }
    }
  }
}

TEST(ChaosMatrixTest, TrainingRunsAbsorbWireFaultsBitwise) {
  fault::ChaosOptions opt;
  opt.steps = 4;
  for (const fault::ChaosMethod m : MatrixMethods()) {
    for (const fault::FaultKind kind :
         {fault::FaultKind::kDrop, fault::FaultKind::kDuplicate,
          fault::FaultKind::kStaleRead, fault::FaultKind::kCorrupt,
          fault::FaultKind::kStraggler}) {
      const fault::ChaosCaseResult res =
          fault::RunTrainingChaos(kind, m, opt);
      EXPECT_EQ(res.outcome, fault::ChaosOutcome::kRecovered)
          << res.Summary();
      EXPECT_GT(res.injected, 0) << res.Summary();
    }
  }
}

TEST(ChaosMatrixTest, TrainingSurvivesRankCrashWithConservedErrorFeedback) {
  fault::ChaosOptions opt;
  opt.steps = 4;
  for (const fault::ChaosMethod m : fault::AllChaosMethods()) {
    const fault::ChaosCaseResult res =
        fault::RunTrainingChaos(fault::FaultKind::kCrash, m, opt);
    // kRecovered here certifies: the run completed with p-1 ranks and the
    // survivors' final models are mutually bitwise identical. Each rank's
    // EF residual comes from its own blob before any collective runs, so
    // the crash cannot move it (the ef-conservation oracle pins it).
    EXPECT_EQ(res.outcome, fault::ChaosOutcome::kRecovered) << res.Summary();
    EXPECT_EQ(res.injected, 1) << res.Summary();
  }
}

TEST(ChaosDetectionTest, BroadcastFromDeadRootRaisesStructuredReport) {
  fault::ChaosOptions opt;
  const fault::ChaosCaseResult res = fault::RunDeadRootBroadcast(opt);
  EXPECT_EQ(res.outcome, fault::ChaosOutcome::kDetected) << res.Summary();
  EXPECT_NE(res.detail.find("fault detected"), std::string::npos)
      << res.detail;
  EXPECT_NE(res.detail.find("root rank 0"), std::string::npos) << res.detail;
  // The report carries the replay handle (the identity of the plan attached
  // to the run's session).
  EXPECT_NE(res.detail.find("FaultPlan{"), std::string::npos) << res.detail;
  // The one-line summary leads with the case, its outcome and replay seed.
  const std::string head =
      "crash x broadcast[dead-root]: DETECTED (injected=1, seed=" +
      std::to_string(opt.seed) + ")";
  EXPECT_EQ(res.Summary().substr(0, head.size()), head) << res.Summary();
}

TEST(ChaosDetectionTest, ExhaustedRetryBudgetRaisesStructuredReport) {
  fault::ChaosOptions opt;
  const fault::ChaosCaseResult res = fault::RunRetryExhaustion(opt);
  EXPECT_EQ(res.outcome, fault::ChaosOutcome::kDetected) << res.Summary();
  EXPECT_GT(res.injected, 0);
  EXPECT_NE(res.detail.find("attempts"), std::string::npos) << res.detail;
  EXPECT_NE(res.detail.find("always-drop"), std::string::npos) << res.detail;
}

// The silent-corruption canary: a mutation the envelope CANNOT catch (the
// schedule controller's hand-off fault rotates the payload before the
// checksum is sealed) must show up as divergent bits against the fault-free
// baseline — proving the chaos oracle actually bites. If this test fails,
// the matrix above is vacuously green.
TEST(ChaosOracleTest, PreSealCorruptionDivergesFromBaseline) {
  fault::ChaosOptions opt;
  const fault::ChaosRun baseline = fault::RunCollectiveWorkload(
      fault::ChaosCollective::kAllReduceRing, fault::ChaosMethod::kSign, opt,
      nullptr);
  ASSERT_TRUE(baseline.error.empty()) << baseline.error;

  check::ScheduleConfig cfg;
  cfg.seed = 11;
  cfg.world_size = opt.world_size;
  cfg.perturb_prob = 0.0;
  cfg.fault = check::FaultSpec{/*window=*/0, /*rank=*/1};
  check::ScheduleController controller(cfg);
  check::ScopedSchedListener install(&controller);
  const fault::ChaosRun mutated = fault::RunCollectiveWorkload(
      fault::ChaosCollective::kAllReduceRing, fault::ChaosMethod::kSign, opt,
      nullptr);

  ASSERT_EQ(controller.stats().faults_injected, 1);
  ASSERT_TRUE(mutated.error.empty()) << mutated.error;
  EXPECT_NE(mutated.outputs, baseline.outputs)
      << "pre-seal payload mutation was not visible in the result bits — "
         "the bitwise oracle is not actually comparing anything";
}

TEST(ChaosReplayTest, SameOptionsReproduceTheSameClassification) {
  fault::ChaosOptions opt;
  const fault::ChaosCaseResult a = fault::RunCollectiveChaos(
      fault::FaultKind::kDrop, fault::ChaosCollective::kAllReduceRing,
      fault::ChaosMethod::kTopk, opt);
  const fault::ChaosCaseResult b = fault::RunCollectiveChaos(
      fault::FaultKind::kDrop, fault::ChaosCollective::kAllReduceRing,
      fault::ChaosMethod::kTopk, opt);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.seed_used, b.seed_used) << "seed-bump path is nondeterministic";
  EXPECT_EQ(a.injected, b.injected)
      << "the plan fired a different fault sequence on replay";
}

TEST(FaultPlanTest, DecisionsArePureFunctionsOfSeedAndCoordinates) {
  fault::FaultPlanConfig cfg;
  cfg.seed = 99;
  cfg.kind = fault::FaultKind::kDrop;
  cfg.rate = 0.5;
  fault::FaultPlan a(cfg);
  fault::FaultPlan b(cfg);
  for (uint64_t seq = 0; seq < 64; ++seq) {
    for (int rank = 0; rank < 4; ++rank) {
      EXPECT_EQ(a.OnPublish(rank, seq, 0), b.OnPublish(rank, seq, 0));
      // Never fires on retries, whatever the seed says.
      EXPECT_EQ(a.OnPublish(rank, seq, 1), fault::FaultKind::kNone);
    }
  }
  EXPECT_EQ(a.injected(), b.injected());
}

TEST(FaultClockTest, BackoffIsVirtualNotWallClock) {
  fault::VirtualClock::Reset();
  const int64_t before = fault::VirtualClock::Now();
  fault::ConsumeBackoff(0);
  fault::ConsumeBackoff(3);
  EXPECT_EQ(fault::VirtualClock::Now() - before,
            fault::BackoffTicks(0) + fault::BackoffTicks(3));
}

// Injected faults must be visible to the observability layer: the
// transport records fault.* counters and kCatFault spans so a production
// trace shows exactly where retries/stragglers/crashes happened.
TEST(FaultObservabilityTest, InjectedFaultsEmitCountersAndSpans) {
  constexpr int kWorld = 3;
  obs::Tracer tracer;
  tracer.Enable();
  obs::MetricsRegistry metrics;
  metrics.Enable();
  comm::Transport group_transport;
  comm::Session group(group_transport, "fault", kWorld);
  group_transport.set_tracer(&tracer);
  group_transport.set_metrics(&metrics);

  const auto run_collectives = [](comm::Communicator& comm) {
    std::vector<float> data(6, 1.0f);
    comm.all_reduce(data);
    comm.all_reduce(data);
  };

  {  // Straggler on every entry decision: events + virtual ticks counted.
    fault::FaultPlanConfig cfg;
    cfg.seed = 21;
    cfg.kind = fault::FaultKind::kStraggler;
    cfg.rate = 1.0;
    fault::FaultPlan plan(cfg);
    group.set_fault_injector(&plan);
    group.Run(run_collectives);
    group.set_fault_injector(nullptr);
    EXPECT_GT(plan.injected(), 0);
  }
  {  // Dropped chunks force retries.
    fault::FaultPlanConfig cfg;
    cfg.seed = 22;
    cfg.kind = fault::FaultKind::kDrop;
    cfg.rate = 1.0;
    fault::FaultPlan plan(cfg);
    group.set_fault_injector(&plan);
    group.Run(run_collectives);
    group.set_fault_injector(nullptr);
    EXPECT_GT(plan.injected(), 0);
  }
  {  // Fail-stop crash of rank 1.
    fault::FaultPlanConfig cfg;
    cfg.seed = 23;
    cfg.membership = {{fault::MembershipEvent::Kind::kCrash, /*rank=*/1,
                       /*at=*/2}};
    fault::FaultPlan plan(cfg);
    group.set_fault_injector(&plan);
    group.Run(run_collectives);
    group.set_fault_injector(nullptr);
    EXPECT_EQ(group.crashed_ranks(), std::vector<int>{1});
  }

  const std::string& pre = group.metric_prefix();
  EXPECT_GT(metrics.counter(pre + "fault.straggler.events").value(), 0u);
  EXPECT_GT(metrics.counter(pre + "fault.straggler.ticks").value(), 0u);
  EXPECT_GT(metrics.counter(pre + "fault.retry.attempts").value(), 0u);
  EXPECT_EQ(metrics.counter(pre + "fault.crash.ranks").value(), 1u);

  std::set<std::string> span_names;
  for (const obs::SpanEvent& ev : tracer.Snapshot())
    if (ev.category == obs::kCatFault) span_names.insert(ev.name);
  EXPECT_TRUE(span_names.count("fault_straggler")) << span_names.size();
  EXPECT_TRUE(span_names.count("fault_retry")) << span_names.size();
  EXPECT_TRUE(span_names.count("fault_crash")) << span_names.size();
}

// The contract checker's rendezvous (fingerprint agreement per collective)
// must coexist with the retry envelope: with contract checking forced ON,
// every collective kind still absorbs dropped chunks bitwise. This is the
// straggler-watchdog path the chaos matrix relies on, exercised explicitly.
TEST(FaultObservabilityTest, ContractCheckingCoexistsWithRetries) {
  constexpr int kWorld = 3;
  const auto workload = [](comm::Communicator& comm,
                           std::vector<std::byte>& out) {
    std::vector<float> data(6, static_cast<float>(comm.rank() + 1));
    comm.all_reduce(data);
    comm.broadcast(data, /*root=*/0);
    std::vector<float> gathered(6 * static_cast<size_t>(comm.world_size()));
    comm.all_gather_bytes(std::as_bytes(std::span<const float>(data)),
                          std::as_writable_bytes(std::span<float>(gathered)));

    std::vector<std::byte> packed(8, std::byte{static_cast<uint8_t>(comm.rank())});
    std::vector<std::byte> packed_all(packed.size() *
                                      static_cast<size_t>(comm.world_size()));
    comm.all_gather_bytes(packed, packed_all);

    out.clear();
    const auto append = [&out](std::span<const std::byte> b) {
      out.insert(out.end(), b.begin(), b.end());
    };
    append(std::as_bytes(std::span<const float>(gathered)));
    append(packed_all);
  };

  const auto run_once = [&](bool inject) {
    std::vector<std::vector<std::byte>> outs(kWorld);
    comm::Transport group_transport;
    comm::Session group(group_transport, "fault", kWorld);
    group.set_contract_checking(true);
    fault::FaultPlanConfig cfg;
    cfg.seed = 31;
    cfg.kind = fault::FaultKind::kDrop;
    cfg.rate = 0.5;
    fault::FaultPlan plan(cfg);
    if (inject) group.set_fault_injector(&plan);
    group.Run([&](comm::Communicator& comm) {
      workload(comm, outs[static_cast<size_t>(comm.rank())]);
    });
    if (inject) {
      EXPECT_GT(plan.injected(), 0);
    }
    return outs;
  };

  const auto baseline = run_once(/*inject=*/false);
  const auto faulted = run_once(/*inject=*/true);
  EXPECT_EQ(baseline, faulted)
      << "drops under contract checking changed the result bits";
}

// A publisher whose chunks are persistently undeliverable must not strand
// the OTHER ranks: peers that read fine still observe the retry flags and
// throw the same DetectedError in lockstep, reporting the failure as
// peer-originated.
TEST(ChaosDetectionTest, HealthyRanksReportPeerDeliveryFailure) {
  // Drops every publish from rank 0, on every attempt — hostile, so the
  // retry budget must exhaust. Ranks 1 and 2 read each other fine.
  class DropRankZeroPublishes final : public fault::FaultInjector {
   public:
    fault::FaultKind OnPublish(int rank, uint64_t, int) override {
      return rank == 0 ? fault::FaultKind::kDrop : fault::FaultKind::kNone;
    }
    fault::FaultKind OnRead(int, uint64_t, int) override {
      return fault::FaultKind::kNone;
    }
    fault::EntryDecision OnCollectiveEntry(int, uint64_t) override {
      return {};
    }
    [[nodiscard]] std::string Describe() const override {
      return "drop-rank-0-publishes (hostile, fires on every attempt)";
    }
  };
  DropRankZeroPublishes injector;

  std::vector<std::string> errors(3);
  comm::Transport group_transport;
  comm::Session group(group_transport, "fault", 3);
  group.set_fault_injector(&injector);
  group.Run([&](comm::Communicator& comm) {
    std::vector<float> data(6, 1.0f);
    try {
      comm.all_reduce(data);
    } catch (const fault::DetectedError& e) {
      errors[static_cast<size_t>(comm.rank())] = e.what();
    }
  });
  for (int r = 0; r < 3; ++r) {
    ASSERT_NE(errors[static_cast<size_t>(r)].find("fault detected"),
              std::string::npos)
        << "rank " << r << " did not detect: " << errors[static_cast<size_t>(r)];
  }
  // Rank 2 reads from rank 0 on the 3-ring and names it; rank 0's own reads
  // all succeeded, so its report is the peer-originated form.
  EXPECT_NE(errors[0].find("a peer reported undeliverable chunks"),
            std::string::npos)
      << errors[0];
}

// Degradation floor: with every other rank fail-stopped, the all-gather
// degenerates to a local copy plus zero-filled dead blocks and the run still
// completes.
TEST(CrashRecoveryTest, SoleSurvivorAllGatherBytes) {
  fault::FaultPlanConfig cfg;
  cfg.seed = 41;
  cfg.membership = {
      {fault::MembershipEvent::Kind::kCrash, /*rank=*/1, /*at=*/1}};
  fault::FaultPlan plan(cfg);

  std::vector<std::byte> out;
  comm::Transport group_transport;
  comm::Session group(group_transport, "fault", 2);
  group.set_fault_injector(&plan);
  group.Run([&](comm::Communicator& comm) {
    const std::vector<std::byte> send(4, std::byte{9});
    std::vector<std::byte> recv(8, std::byte{1});
    comm.all_gather_bytes(send, recv);
    if (comm.rank() == 0) out = recv;
  });
  ASSERT_EQ(group.crashed_ranks(), std::vector<int>{1});
  // Rank 0's bytes survive intact; the crashed rank's block reads zero.
  ASSERT_EQ(out.size(), 8u);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(out[i], std::byte{9});
  for (size_t i = 4; i < 8; ++i) EXPECT_EQ(out[i], std::byte{0});
}

// Crash recovery at the transport level: after a rank fail-stops, later
// collectives in the SAME run keep working over the survivors, and the
// membership view agrees on every rank.
TEST(CrashRecoveryTest, LaterCollectivesRunOverSurvivors) {
  constexpr int kWorld = 4;
  fault::FaultPlanConfig cfg;
  cfg.seed = 5;
  cfg.membership = {
      {fault::MembershipEvent::Kind::kCrash, /*rank=*/2, /*at=*/2}};
  fault::FaultPlan plan(cfg);

  std::vector<std::vector<float>> results(kWorld);
  std::vector<int> alive_seen(kWorld, -1);
  comm::Transport group_transport;
  comm::Session group(group_transport, "fault", kWorld);
  group.set_fault_injector(&plan);
  group.Run([&](comm::Communicator& comm) {
    std::vector<float> data(8, static_cast<float>(comm.rank() + 1));
    comm.all_reduce(data);  // collective #1: all four ranks participate
    comm.all_reduce(data);  // collective #2: rank 2 dies at entry
    results[static_cast<size_t>(comm.rank())] = data;
    alive_seen[static_cast<size_t>(comm.rank())] = comm.alive_world_size();
  });
  ASSERT_EQ(group.crashed_ranks(), std::vector<int>{2});
  // First all-reduce: 1+2+3+4 = 10 on every rank. Second: rank 2's copy of
  // 10 is lost with it, survivors sum 10+10+10 = 30.
  for (int r = 0; r < kWorld; ++r) {
    if (r == 2) continue;
    EXPECT_EQ(alive_seen[static_cast<size_t>(r)], kWorld - 1);
    for (float v : results[static_cast<size_t>(r)]) EXPECT_EQ(v, 30.0f);
  }
}

// ---------------------------------------------------------------------------
// Elastic membership: churn chaos gates (DESIGN.md "Elastic membership").
// ---------------------------------------------------------------------------

// Sanitizer builds run the protocol-shape subset; the remaining scenarios
// re-drive the same commit/resync machinery with longer horizons, which
// dominates tsan wall-clock without adding interleaving coverage.
std::vector<fault::ChurnScenario> ChurnMatrixScenarios() {
#ifdef ACPS_SANITIZE_BUILD
  return {fault::ChurnScenario::kCrashRejoin, fault::ChurnScenario::kFreshJoin,
          fault::ChurnScenario::kGracefulLeave};
#else
  return fault::AllChurnScenarios();
#endif
}

TEST(ChurnMatrixTest, EveryScenarioRecoversOrDetects) {
  fault::ChurnOptions opt;
  for (const fault::ChurnScenario s : ChurnMatrixScenarios()) {
    const fault::ChurnCaseResult res = fault::RunChurnScenario(s, opt);
    EXPECT_TRUE(res.ok()) << res.Summary();
    EXPECT_NE(res.outcome, fault::ChaosOutcome::kNoInjection) << res.Summary();
  }
}

// ISSUE acceptance: a seeded crash→rejoin run is bitwise-deterministic
// under replay. (RunChurnScenario re-checks this internally for every cell;
// this test pins the raw-run contract directly.)
TEST(ChurnReplayTest, SeededCrashRejoinRunsAreByteIdentical) {
  fault::ChurnOptions opt;
  const fault::ChurnRun a =
      fault::RunChurnWorkload(fault::ChurnScenario::kCrashRejoin, opt);
  const fault::ChurnRun b =
      fault::RunChurnWorkload(fault::ChurnScenario::kCrashRejoin, opt);
  EXPECT_EQ(a.outputs, b.outputs);
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(a.generation, b.generation);
  EXPECT_EQ(a.crashed, b.crashed);
  EXPECT_EQ(a.departed, b.departed);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.error, b.error);
}

// ISSUE acceptance: total EF mass is conserved across the crash→rejoin
// handoff — each finishing rank's telescoping ledger gap
// |sum(grad) - (sum(reconstruction) + residual)| stays at rounding noise,
// with the victim's escrowed residual rolled back to its last commit.
TEST(ChurnLedgerTest, ErrorFeedbackMassConservedAcrossRejoin) {
  fault::ChurnOptions opt;
  const fault::ChurnRun run =
      fault::RunChurnWorkload(fault::ChurnScenario::kCrashRejoin, opt);
  ASSERT_TRUE(run.error.empty()) << run.error;
  const int victim = opt.world_size - 1;
  ASSERT_EQ(run.crashed, std::vector<int>{victim});
  for (size_t r = 0; r < run.finished.size(); ++r) {
    if (run.finished[r] == 0) continue;
    EXPECT_LT(run.ef_gap[r], 1e-3)
        << "rank " << r << " telescoping ledger gap " << run.ef_gap[r];
  }
  // The victim resumed as generation 1 and one commit ran per step.
  EXPECT_EQ(run.generation[static_cast<size_t>(victim)], 1);
  EXPECT_EQ(run.epoch, static_cast<uint64_t>(opt.steps));
}

TEST(FaultPlanTest, MembershipScheduleDrivesCrashRejoinAndLeave) {
  fault::FaultPlanConfig cfg;
  cfg.seed = 7;
  cfg.membership = {
      {fault::MembershipEvent::Kind::kCrash, /*rank=*/2, /*at=*/4},
      {fault::MembershipEvent::Kind::kRejoin, /*rank=*/2, /*at=*/1},
      {fault::MembershipEvent::Kind::kLeave, /*rank=*/1, /*at=*/3},
  };
  ASSERT_TRUE(fault::HasAdmissions(cfg));
  fault::FaultPlan plan(cfg);
  // The crash fires exactly at the victim's 4th collective entry.
  EXPECT_EQ(plan.OnCollectiveEntry(2, 3).kind, fault::FaultKind::kNone);
  EXPECT_EQ(plan.OnCollectiveEntry(2, 4).kind, fault::FaultKind::kCrash);
  EXPECT_EQ(plan.OnCollectiveEntry(0, 4).kind, fault::FaultKind::kNone);
  // The graceful leave targets its commit index and no other.
  EXPECT_FALSE(plan.LeavesAtCommit(1, 2));
  EXPECT_TRUE(plan.LeavesAtCommit(1, 3));
  EXPECT_FALSE(plan.LeavesAtCommit(0, 3));
  // The admission schedule carries exactly the rejoin intent.
  const std::vector<fault::AdmissionIntent> intents = plan.AdmissionSchedule();
  ASSERT_EQ(intents.size(), 1u);
  EXPECT_EQ(intents[0].rank, 2);
  EXPECT_EQ(intents[0].at_commit, 1u);
}

// The elastic rejoin path is observable: the admitting commit emits the
// fault.rejoin.admitted counter and the comm.epoch gauge, and the session
// records the membership epoch and the victim's crash.
TEST(ElasticSessionTest, RejoinEmitsAdmissionMetricsAndEpochGauge) {
  obs::MetricsRegistry metrics;
  metrics.Enable();
  fault::FaultPlanConfig cfg;
  cfg.seed = 51;
  cfg.membership = {{fault::MembershipEvent::Kind::kCrash, /*rank=*/2,
                     /*at=*/3},
                    {fault::MembershipEvent::Kind::kRejoin, /*rank=*/2,
                     /*at=*/1}};
  fault::FaultPlan plan(cfg);

  comm::Transport transport;
  transport.set_metrics(&metrics);
  comm::Session session(transport, "fault", 3);
  session.set_fault_injector(&plan);
  session.Run([](comm::Communicator& comm) {
    std::vector<float> data(6, static_cast<float>(comm.rank() + 1));
    uint64_t step = 0;
    const std::vector<std::span<float>> state = {data};
    if (comm.join_generation() > 0)
      comm::ResyncJoiners(comm, comm.last_transition(), state, step);
    while (step < 3) {
      comm.all_reduce(data);
      ++step;
      comm::ResyncJoiners(comm, comm.commit_view(), state, step);
    }
  });

  EXPECT_EQ(session.crashed_ranks(), std::vector<int>{2});
  EXPECT_TRUE(session.departed_ranks().empty());
  EXPECT_EQ(session.membership_epoch(), 3u);
  const std::string& pre = session.metric_prefix();
  EXPECT_EQ(metrics.counter(pre + "fault.rejoin.admitted").value(), 1u);
  EXPECT_EQ(metrics.counter(pre + "fault.join.ranks").value(), 0u);
  EXPECT_EQ(metrics.gauge(pre + "comm.epoch").value(), 3.0);
}

// A parked victim whose admission is never serviced (the workload stops
// committing) must abandon when the survivors drain — never hang the Run.
TEST(ElasticSessionTest, UnservicedAdmissionAbandonsWhenWorkersDrain) {
  obs::MetricsRegistry metrics;
  metrics.Enable();
  fault::FaultPlanConfig cfg;
  cfg.seed = 52;
  cfg.membership = {{fault::MembershipEvent::Kind::kCrash, /*rank=*/1,
                     /*at=*/2},
                    {fault::MembershipEvent::Kind::kRejoin, /*rank=*/1,
                     /*at=*/1}};
  fault::FaultPlan plan(cfg);

  comm::Transport transport;
  transport.set_metrics(&metrics);
  comm::Session session(transport, "fault", 2);
  session.set_fault_injector(&plan);
  session.Run([](comm::Communicator& comm) {
    std::vector<float> data(4, 1.0f);
    comm.all_reduce(data);
    comm.all_reduce(data);  // rank 1 dies here; no commit_view ever runs
  });
  EXPECT_EQ(session.crashed_ranks(), std::vector<int>{1});
  EXPECT_EQ(session.membership_epoch(), 0u);
  EXPECT_EQ(
      metrics.counter(session.metric_prefix() + "fault.rejoin.abandoned")
          .value(),
      1u);
}

// ISSUE acceptance: the model checker explores the rejoin handshake —
// crash at a collective entry, admission at the next commit, donor resync —
// under random perturbation and exhaustively at p=3, with zero oracle
// violations (completion, baseline bits, rank invariance).
TEST(RejoinModelCheckTest, PerturbedSchedulesHoldOracles) {
  check::ExploreOptions opt;
  opt.world_size = 3;
  opt.numel = 8;
#ifdef ACPS_SANITIZE_BUILD
  opt.runs = 12;
#else
  opt.runs = 60;
#endif
  const check::ExploreReport rep =
      check::ExplorePerturbed(check::Workload::kRejoin, opt);
  EXPECT_TRUE(rep.ok()) << rep.Summary();
  EXPECT_EQ(rep.schedules_run, opt.runs);
}

TEST(RejoinModelCheckTest, ExhaustiveHandoffOrdersAtP3AreClean) {
  check::ExploreOptions opt;
  opt.world_size = 3;
  opt.numel = 8;
  const check::ExploreReport rep =
      check::ExploreExhaustive(check::Workload::kRejoin, opt, 4096);
  EXPECT_TRUE(rep.ok()) << rep.Summary();
  EXPECT_TRUE(rep.exhaustive_complete) << rep.Summary();
  EXPECT_EQ(rep.enforcement_misses, 0) << rep.Summary();
  // One hand-off window per naive all-reduce step; membership-aware window
  // accounting keeps the count at 3 even though the middle window has only
  // two live publishers. 3 windows x 3! orders each = 216 schedules.
  EXPECT_EQ(rep.windows, 3) << rep.Summary();
  EXPECT_EQ(rep.schedules_run, 216) << rep.Summary();
}

}  // namespace
}  // namespace acps
