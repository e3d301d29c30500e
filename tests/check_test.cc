// Model-checker suite (label: modelcheck).
//
// Covers the acps::check subsystem end to end: permutation math, the
// schedule controller's perturbed and order-enforced modes over every
// collective kind, bounded-exhaustive enumeration for small groups, the
// fault-injection mutation test (the checker must catch a deliberately
// mis-ordered hand-off and the violating seed must replay), and the four
// codec invariant oracles for every packed codec.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "check/explorer.h"
#include "check/oracles.h"
#include "check/schedule.h"
#include "check/sched_point.h"
#include "comm/communicator.h"

namespace acps::check {
namespace {

// Sanitizer builds run every schedule 10-20x slower; scale counts so the
// tsan/asan-ubsan presets still sweep every workload in reasonable time.
// The release modelcheck leg keeps the full >= 200 schedules per kind.
#ifdef ACPS_SANITIZE_BUILD
constexpr int kRunsPerKind = 25;
constexpr int kOraclePerturbedRuns = 3;
#else
constexpr int kRunsPerKind = 200;
constexpr int kOraclePerturbedRuns = 10;
#endif

TEST(PermutationTest, FactorialSmallValues) {
  EXPECT_EQ(Factorial(0), 1);
  EXPECT_EQ(Factorial(1), 1);
  EXPECT_EQ(Factorial(2), 2);
  EXPECT_EQ(Factorial(3), 6);
  EXPECT_EQ(Factorial(4), 24);
}

TEST(PermutationTest, NthPermutationEnumeratesAllOrders) {
  const int p = 3;
  std::set<std::vector<int>> seen;
  for (int d = 0; d < Factorial(p); ++d) {
    std::vector<int> perm = NthPermutation(p, d);
    ASSERT_EQ(perm.size(), static_cast<size_t>(p));
    std::vector<int> sorted = perm;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2}));
    seen.insert(perm);
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(Factorial(p)));
  EXPECT_EQ(NthPermutation(p, 0), (std::vector<int>{0, 1, 2}));  // identity
}

TEST(SchedPointTest, HookIsInertWithoutListener) {
  // Must be safe to hit from any code path with no listener installed.
  SchedPoint(PointKind::kBarrierEnter, -1);
  SchedPoint(PointKind::kHandoffSend, 0);
}

TEST(SchedPointTest, ScopedInstallRestoresPrevious) {
  ScheduleConfig cfg;
  cfg.world_size = 2;
  ScheduleController outer(cfg);
  ScheduleController inner(cfg);
  ScopedSchedListener a(&outer);
  {
    ScopedSchedListener b(&inner);
    SchedPoint(PointKind::kBarrierEnter, -1);
    EXPECT_EQ(inner.stats().points, 1);
    EXPECT_EQ(outer.stats().points, 0);
  }
  SchedPoint(PointKind::kBarrierEnter, -1);
  EXPECT_EQ(outer.stats().points, 1);
}

// --- Random perturbation sweep over every collective kind. -----------------

class PerturbedCollectives : public ::testing::TestWithParam<Workload> {};

TEST_P(PerturbedCollectives, NoViolationsAcrossSchedules) {
  ExploreOptions opt;
  opt.world_size = 3;
  opt.runs = kRunsPerKind;
  const ExploreReport report = ExplorePerturbed(GetParam(), opt);
  EXPECT_EQ(report.schedules_run, kRunsPerKind);
  EXPECT_TRUE(report.ok()) << report.Summary();
  // Uniform-hand-off workloads must show windows; broadcast publishes from
  // the root only, so its window count is legitimately zero.
  if (GetParam() != Workload::kBroadcast)
    EXPECT_GT(report.windows, 0) << report.Summary();
  else
    EXPECT_EQ(report.windows, 0) << report.Summary();
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, PerturbedCollectives,
    ::testing::ValuesIn(AllCollectiveWorkloads()),
    [](const ::testing::TestParamInfo<Workload>& info) {
      std::string name = ToString(info.param);
      for (char& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return name;
    });

TEST(ExplorerTest, WfbpStepSurvivesPerturbation) {
  // The GradReducer WFBP pipeline (hooks -> buckets -> fused all-reduce,
  // low-rank and dense paths) under the same schedule sweep.
  ExploreOptions opt;
  opt.world_size = 3;
  opt.runs = std::max(kRunsPerKind / 4, 10);
  const ExploreReport report = ExplorePerturbed(Workload::kWfbpStep, opt);
  EXPECT_EQ(report.schedules_run, opt.runs);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.windows, 0);
}

TEST(ExplorerTest, OptimizerStepSurvivesPerturbation) {
  // Two full DistributedOptimizer steps (kOptStep boundary + WFBP hooks +
  // bucketed all-reduces + SGD) under the schedule sweep: params must stay
  // bitwise rank-invariant whatever the interleaving.
  ExploreOptions opt;
  opt.world_size = 3;
  opt.runs = std::max(kRunsPerKind / 16, 5);
  const ExploreReport report =
      ExplorePerturbed(Workload::kOptimizerStep, opt);
  EXPECT_EQ(report.schedules_run, opt.runs);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// --- Bounded exhaustive exploration. ---------------------------------------

TEST(ExplorerTest, ExhaustiveTwoRankAllReduceCompletes) {
  ExploreOptions opt;
  opt.world_size = 2;
  const ExploreReport report = ExploreExhaustive(Workload::kAllReduceRing, opt);
  // p = 2: one reduce-scatter step + one all-gather step = 2 hand-off
  // windows, 2! orders each -> 4 schedules enumerate the whole space.
  EXPECT_EQ(report.windows, 2) << report.Summary();
  EXPECT_EQ(report.schedules_run, 4) << report.Summary();
  EXPECT_TRUE(report.exhaustive_complete) << report.Summary();
  EXPECT_EQ(report.enforcement_misses, 0) << report.Summary();
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(ExplorerTest, ExhaustiveThreeRankAllGatherBytesCompletes) {
  ExploreOptions opt;
  opt.world_size = 3;
  const ExploreReport report =
      ExploreExhaustive(Workload::kAllGatherBytes, opt);
  // p = 3: 2 ring steps = 2 windows, 3! orders each -> 36 schedules.
  EXPECT_EQ(report.windows, 2) << report.Summary();
  EXPECT_EQ(report.schedules_run, 36) << report.Summary();
  EXPECT_TRUE(report.exhaustive_complete) << report.Summary();
  EXPECT_EQ(report.enforcement_misses, 0) << report.Summary();
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(ExplorerTest, ExhaustiveRespectsScheduleBudget) {
  ExploreOptions opt;
  opt.world_size = 3;
  // Ring all-reduce at p = 3 has 4 windows -> 6^4 = 1296 total orders;
  // a budget of 50 must stop early and say so.
  const ExploreReport report =
      ExploreExhaustive(Workload::kAllReduceRing, opt, /*max_schedules=*/50);
  EXPECT_EQ(report.schedules_run, 50) << report.Summary();
  EXPECT_FALSE(report.exhaustive_complete);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// --- Fault injection: the mutation test for the checker itself. ------------

TEST(FaultInjectionTest, MisorderedHandoffIsDetectedAndReplayable) {
  ExploreOptions opt;
  opt.world_size = 3;
  opt.runs = 3;
  opt.fault = FaultSpec{.window = 0, .rank = 0};
  const ExploreReport report = ExplorePerturbed(Workload::kAllReduceRing, opt);
  ASSERT_FALSE(report.ok())
      << "fault-injected hand-off was NOT detected — the checker is blind";
  const Violation& v = report.violations.front();
  EXPECT_EQ(v.seed, opt.base_seed);
  EXPECT_NE(v.schedule.find("FAULT"), std::string::npos)
      << "violation trace should pinpoint the injected fault:\n" << v.schedule;
  EXPECT_NE(report.Summary().find("seed="), std::string::npos);

  // Replay from the reported seed: same seed + same fault spec must
  // reproduce a violation with the identical divergence description.
  const ExploreReport replay =
      ReplaySeed(Workload::kAllReduceRing, opt, v.seed);
  ASSERT_FALSE(replay.ok()) << "seed replay lost the violation";
  EXPECT_EQ(replay.violations.front().what, v.what);
}

TEST(FaultInjectionTest, DetectedUnderEnforcedOrdersToo) {
  ExploreOptions opt;
  opt.world_size = 2;
  opt.fault = FaultSpec{.window = 0, .rank = 1};
  const ExploreReport report =
      ExploreExhaustive(Workload::kAllReduceRing, opt);
  EXPECT_FALSE(report.ok())
      << "fault-injected hand-off survived exhaustive mode undetected";
}

TEST(FaultInjectionTest, CleanRunStaysClean) {
  // Sanity inverse: without a fault the same tiny configuration passes.
  ExploreOptions opt;
  opt.world_size = 3;
  opt.runs = 3;
  const ExploreReport report = ExplorePerturbed(Workload::kAllReduceRing, opt);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(FaultInjectionTest, ReusedControllerInjectsIdenticallyAcrossRuns) {
  // Regression: window_ kept counting up across Session runs, so a
  // FaultSpec aimed at window 0 only ever fired on the FIRST run through a
  // reused controller — later runs silently stopped injecting.
  // ResetRunState() (called by the explorer before every run) rearms it.
  ScheduleConfig cfg;
  cfg.world_size = 3;
  cfg.seed = 21;
  cfg.perturb_prob = 0.0;
  cfg.fault = FaultSpec{.window = 0, .rank = 0};
  ScheduleController controller(cfg);

  const auto run_once = [&controller] {
    std::vector<std::vector<float>> out(3);
    comm::Transport group_transport;
    comm::Session group(group_transport, "check", 3);
    ScopedSchedListener install(&controller);
    controller.ResetRunState();
    group.Run([&out](comm::Communicator& comm) {
      std::vector<float> data(12, static_cast<float>(comm.rank() + 1));
      comm.all_reduce(data);
      out[static_cast<size_t>(comm.rank())] = data;
    });
    return out;
  };
  const auto first = run_once();
  ASSERT_EQ(controller.stats().faults_injected, 1);
  const auto second = run_once();
  EXPECT_EQ(controller.stats().faults_injected, 2)
      << "reused controller stopped injecting — run state was not rearmed";
  EXPECT_EQ(first, second)
      << "same seed + same fault spec must corrupt identically on replay";
}

TEST(FaultInjectionTest, ConsecutiveExploreCallsWithSameSeedAgree) {
  // Two back-to-back Explore calls over the same seeded fault must report
  // the identical violation (same divergence text), proving the injection
  // state carries nothing over from the previous exploration.
  ExploreOptions opt;
  opt.world_size = 3;
  opt.runs = 2;
  opt.fault = FaultSpec{.window = 0, .rank = 0};
  const ExploreReport a = ExplorePerturbed(Workload::kAllReduceRing, opt);
  const ExploreReport b = ExplorePerturbed(Workload::kAllReduceRing, opt);
  ASSERT_FALSE(a.ok());
  ASSERT_FALSE(b.ok());
  ASSERT_EQ(a.violations.size(), b.violations.size());
  EXPECT_EQ(a.violations.front().seed, b.violations.front().seed);
  EXPECT_EQ(a.violations.front().what, b.violations.front().what);
}

// --- Compressor invariant oracles. -----------------------------------------

class CodecOracleTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CodecOracleTest, SatisfiesInvariants) {
  OracleOptions opt;
  opt.perturbed_runs = kOraclePerturbedRuns;
  const OracleReport report = CheckCompressorInvariants(GetParam(), opt);
  EXPECT_GT(report.checks_run, 0);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// The paper's element-wise codecs, as core::MakeCodec parses them.
INSTANTIATE_TEST_SUITE_P(Codecs, CodecOracleTest,
                         ::testing::Values("sign", "topk:0.001",
                                           "randomk:0.01"));

TEST(OracleTest, KernelsAreThreadCountInvariant) {
  // DESIGN.md §6e: the acps::par kernels produce bitwise identical results
  // at 1/2/4/8 threads and match their naive references at 1 thread.
  const OracleReport report = CheckKernelThreadInvariance(OracleOptions{});
  EXPECT_GT(report.checks_run, 0);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(OracleTest, SparsifiersConserveExactlyQuantizersToRounding) {
  EXPECT_EQ(EfTolerance("topk:0.001"), 0.0);
  EXPECT_EQ(EfTolerance("randomk:0.01"), 0.0);
  EXPECT_GT(EfTolerance("sign"), 0.0);
}

TEST(OracleTest, FailureReportNamesCompressorShapeSeedAndProperty) {
  const OracleFailure f{.compressor = "topk:0.001",
                        .property = "ef-conservation",
                        .numel = 1000,
                        .seed = 0xBEEF,
                        .detail = "example"};
  const std::string msg = f.Describe();
  EXPECT_NE(msg.find("topk:0.001"), std::string::npos);
  EXPECT_NE(msg.find("ef-conservation"), std::string::npos);
  EXPECT_NE(msg.find("[1000]"), std::string::npos);
  EXPECT_NE(msg.find("48879"), std::string::npos);  // 0xBEEF in decimal
}

}  // namespace
}  // namespace acps::check
