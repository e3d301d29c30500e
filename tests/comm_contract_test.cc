// Collective-contract checker + deadlock-watchdog coverage (contract.h).
//
// Every scenario here is a usage-contract violation that on a real NCCL
// cluster deadlocks or silently corrupts the reduction; the checker must
// turn each into a fast, named failure instead.
#include "comm/contract.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

#include "comm/communicator.h"

namespace acps::comm {
namespace {

// Runs `fn` on `group`, expecting an Error whose message contains all of
// `needles`; returns the message for extra assertions.
template <typename Fn>
std::string ExpectErrorContaining(Session& group, Fn fn,
                                  const std::vector<std::string>& needles) {
  std::string message;
  try {
    group.Run(fn);
    ADD_FAILURE() << "expected the run to throw acps::Error";
  } catch (const Error& e) {
    message = e.what();
  }
  for (const auto& needle : needles) {
    EXPECT_NE(message.find(needle), std::string::npos)
        << "missing \"" << needle << "\" in:\n" << message;
  }
  return message;
}

TEST(CollectiveFingerprint, DescribeAndMatches) {
  const CollectiveFingerprint ring{.kind = CollectiveKind::kAllReduce,
                                   .bytes = 4096,
                                   .algo = 0};
  EXPECT_EQ(ring.Describe(), "all_reduce[ring, 4096 B]");
  EXPECT_TRUE(ring.Matches(ring));

  CollectiveFingerprint other = ring;
  other.bytes = 1024;
  EXPECT_FALSE(ring.Matches(other));
  other = ring;
  other.algo = 1;
  EXPECT_FALSE(ring.Matches(other));

  // Gathers are fixed-size too: the byte count must match.
  const CollectiveFingerprint g1{.kind = CollectiveKind::kAllGatherBytes,
                                 .bytes = 10};
  const CollectiveFingerprint g2{.kind = CollectiveKind::kAllGatherBytes,
                                 .bytes = 99};
  EXPECT_FALSE(g1.Matches(g2));
  EXPECT_EQ(g2.Describe(), "all_gather_bytes[99 B]");

  const CollectiveFingerprint b{.kind = CollectiveKind::kBarrier};
  EXPECT_EQ(b.Describe(), "barrier[]");
  EXPECT_FALSE(b.Matches(g1));
}

TEST(ContractChecker, HealthyCollectivesPassWithCheckingOn) {
  Transport transport;
  Session group(transport, "contract", 4);
  group.set_contract_checking(true);
  ASSERT_TRUE(group.contract_checking());
  std::atomic<int> ok{0};
  group.Run([&](Communicator& comm) {
    std::vector<float> v(64, static_cast<float>(comm.rank()));
    comm.all_reduce(v);
    comm.barrier();
    std::vector<std::byte> mine(5, static_cast<std::byte>(comm.rank()));
    std::vector<std::byte> recv(5 * 4);
    comm.all_gather_bytes(mine, recv);
    comm.broadcast(v, 2);
    ++ok;
  });
  EXPECT_EQ(ok.load(), 4);
}

// Scenario (a): a size-mismatched all_reduce must produce the per-rank
// diagnostic, not a hang or a garbage reduction.
TEST(ContractChecker, SizeMismatchedAllReduceDiagnosed) {
  Transport transport({.barrier_timeout_ms = 30000});
  Session group(transport, "contract", 3);
  group.set_contract_checking(true);
  const auto msg = ExpectErrorContaining(
      group,
      [&](Communicator& comm) {
        // Rank 1 brings a differently-sized tensor to the same collective.
        std::vector<float> v(comm.rank() == 1 ? 8 : 16, 1.0f);
        comm.all_reduce(v);
      },
      {"collective contract violation", "rank 0: all_reduce[ring, 64 B]",
       "rank 1: all_reduce[ring, 32 B]", "differs from rank 0"});
  // Rank 2 agrees with rank 0 and must not be flagged.
  EXPECT_EQ(msg.find("rank 2: all_reduce[ring, 64 B]   <--"),
            std::string::npos)
      << msg;
}

// Scenario (b): a divergent collective *sequence* — one rank calls barrier
// while the others call all_gather_bytes — is detected at the rendezvous.
TEST(ContractChecker, DivergentSequenceDetected) {
  Transport transport({.barrier_timeout_ms = 30000});
  Session group(transport, "contract", 3);
  group.set_contract_checking(true);
  ExpectErrorContaining(
      group,
      [&](Communicator& comm) {
        if (comm.rank() == 0) {
          comm.barrier();
        } else {
          std::vector<std::byte> mine(16, std::byte{1});
          std::vector<std::byte> all(48);
          comm.all_gather_bytes(mine, all);
        }
      },
      {"collective contract violation", "rank 0: barrier[]",
       "rank 1: all_gather_bytes[16 B]"});
}

TEST(ContractChecker, MismatchedAlgoDetected) {
  Transport transport({.barrier_timeout_ms = 30000});
  Session group(transport, "contract", 2);
  group.set_contract_checking(true);
  ExpectErrorContaining(
      group,
      [&](Communicator& comm) {
        std::vector<float> v(4, 1.0f);
        comm.all_reduce(v, comm.rank() == 0 ? AllReduceAlgo::kRing
                                            : AllReduceAlgo::kNaive);
      },
      {"collective contract violation", "ring", "naive"});
}

// Scenario (c): the watchdog fires on a rank that never shows up and the
// error names which ranks are blocked in which collective.
TEST(CollectiveWatchdog, FiresAndNamesBlockedRanks) {
  Transport transport({.barrier_timeout_ms = 300});
  Session group(transport, "contract", 3);
  const auto start = std::chrono::steady_clock::now();
  const auto msg = ExpectErrorContaining(
      group,
      [&](Communicator& comm) {
        if (comm.rank() == 1) return;  // never joins the collective
        std::vector<float> v(16, 1.0f);
        comm.all_reduce(v);
      },
      {"collective watchdog", "per-rank collective status",
       "rank 0: blocked in all_reduce", "rank 1: idle",
       "rank 2: blocked in all_reduce"});
  // Fast-fail, not the 60 s default.
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(30)) << msg;
}

TEST(CollectiveWatchdog, TimeoutConfigurableViaEnvironment) {
  // kCollectiveTimeoutFromEnv (the default ctor argument) must pick up
  // ACPS_COLLECTIVE_TIMEOUT_MS; the run would otherwise stall for the
  // 60-second fallback, so this test passing quickly is itself the check.
  ASSERT_EQ(setenv("ACPS_COLLECTIVE_TIMEOUT_MS", "300", /*overwrite=*/1), 0);
  Transport transport;
  Session group(transport, "contract", 2);
  unsetenv("ACPS_COLLECTIVE_TIMEOUT_MS");
  const auto start = std::chrono::steady_clock::now();
  ExpectErrorContaining(
      group,
      [&](Communicator& comm) {
        if (comm.rank() == 0) comm.barrier();
      },
      {"collective watchdog", "rank 0: blocked in barrier", "rank 1: idle"});
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(30));
}

TEST(CollectiveWatchdog, GroupReusableAfterContractViolation) {
  Transport transport({.barrier_timeout_ms = 30000});
  Session group(transport, "contract", 2);
  group.set_contract_checking(true);
  ExpectErrorContaining(
      group,
      [&](Communicator& comm) {
        std::vector<float> v(comm.rank() == 0 ? 2 : 4, 1.0f);
        comm.all_reduce(v);
      },
      {"collective contract violation"});
  // The checker is re-armed by the next Run; healthy collectives pass.
  std::atomic<int> ok{0};
  group.Run([&](Communicator& comm) {
    std::vector<float> v(8, static_cast<float>(comm.rank()));
    comm.all_reduce(v);
    ++ok;
  });
  EXPECT_EQ(ok.load(), 2);
}

TEST(CollectiveKindTest, EveryKindHasAName) {
  for (const CollectiveKind k :
       {CollectiveKind::kNone, CollectiveKind::kBarrier,
        CollectiveKind::kAllReduce, CollectiveKind::kAllGatherBytes,
        CollectiveKind::kBroadcast, CollectiveKind::kViewCommit}) {
    EXPECT_STRNE(ToString(k), "unknown");
  }
  EXPECT_STREQ(ToString(static_cast<CollectiveKind>(250)), "unknown");
}

// Fault-tolerance bookkeeping (DESIGN.md §6f): crashed ranks are excluded
// from fingerprint validation but annotated in both report forms, and
// straggler delay accumulates per rank so a watchdog report can tell
// "slow" from "gone".
TEST(ContractCheckerTest, CrashAndStragglerAnnotationsInReports) {
  ContractChecker checker;
  checker.Reset(3);

  checker.NoteStraggler(1, 64);
  checker.NoteStraggler(1, 32);
  EXPECT_EQ(checker.straggler_ticks(1), 96);
  EXPECT_EQ(checker.straggler_ticks(0), 0);

  // Rank 2 fail-stops; ranks 0 and 1 then disagree — the diff must list
  // rank 2 as CRASHED-and-excluded, not as a divergence.
  checker.SetDead(2);
  checker.Deposit(0, CollectiveFingerprint{.kind = CollectiveKind::kAllReduce,
                                           .bytes = 64});
  checker.Deposit(1, CollectiveFingerprint{.kind = CollectiveKind::kBarrier});
  const auto diff = checker.Validate();
  ASSERT_TRUE(diff.has_value());
  EXPECT_NE(diff->find("CRASHED (fail-stop, excluded)"), std::string::npos)
      << *diff;

  checker.Enter(0, CollectiveFingerprint{.kind = CollectiveKind::kAllReduce});
  const std::string report = checker.BlockedReport();
  EXPECT_NE(report.find("rank 0: blocked in all_reduce"), std::string::npos)
      << report;
  EXPECT_NE(report.find("straggler delay 96 ticks"), std::string::npos)
      << report;
  EXPECT_NE(report.find("rank 2: CRASHED (fail-stop after"), std::string::npos)
      << report;
}

}  // namespace
}  // namespace acps::comm
