#include "comm/communicator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>

#include "comm/transport.h"
#include "fault/plan.h"

namespace acps::comm {
namespace {

// Fills a per-rank test vector with a deterministic pattern.
std::vector<float> PatternFor(int rank, size_t n) {
  std::vector<float> v(n);
  for (size_t i = 0; i < n; ++i)
    v[i] = static_cast<float>((rank + 1) * 100 + static_cast<int>(i % 17));
  return v;
}

std::vector<float> ExpectedSum(int world, size_t n) {
  std::vector<float> sum(n, 0.0f);
  for (int r = 0; r < world; ++r) {
    const auto v = PatternFor(r, n);
    for (size_t i = 0; i < n; ++i) sum[i] += v[i];
  }
  return sum;
}

TEST(ChunkRange, PartitionsExactly) {
  for (int64_t n : {0, 1, 5, 7, 32, 100, 101}) {
    for (int p : {1, 2, 3, 4, 7, 8}) {
      int64_t covered = 0;
      int64_t prev_end = 0;
      for (int c = 0; c < p; ++c) {
        const ChunkRange r = GetChunkRange(n, p, c);
        EXPECT_EQ(r.begin, prev_end);
        EXPECT_GE(r.size(), 0);
        covered += r.size();
        prev_end = r.end;
      }
      EXPECT_EQ(covered, n);
    }
  }
  EXPECT_THROW((void)GetChunkRange(10, 2, 2), Error);
}

struct WorldSize {
  int p;
  size_t n;
};

class AllReduceTest
    : public ::testing::TestWithParam<std::tuple<int, size_t>> {};

TEST_P(AllReduceTest, RingSumsAcrossWorkers) {
  const auto [p, n] = GetParam();
  Transport transport;
  Session group(transport, "comm-test", p);
  std::atomic<int> failures{0};
  group.Run([&](Communicator& comm) {
    auto data = PatternFor(comm.rank(), n);
    comm.all_reduce(data);
    const auto expected = ExpectedSum(comm.world_size(), n);
    for (size_t i = 0; i < n; ++i) {
      if (std::abs(data[i] - expected[i]) > 1e-2f) {
        ++failures;
        break;
      }
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST_P(AllReduceTest, NaiveMatchesRing) {
  const auto [p, n] = GetParam();
  Transport transport;
  Session group(transport, "comm-test", p);
  std::atomic<int> failures{0};
  group.Run([&](Communicator& comm) {
    auto ring = PatternFor(comm.rank(), n);
    auto naive = PatternFor(comm.rank(), n);
    comm.all_reduce(ring);
    comm.all_reduce(naive, AllReduceAlgo::kNaive);
    for (size_t i = 0; i < n; ++i) {
      if (std::abs(ring[i] - naive[i]) > 1e-2f) {
        ++failures;
        break;
      }
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllReduceTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 8),
                       ::testing::Values<size_t>(0, 1, 3, 16, 257, 1024)));

TEST(AllGatherBytes, CollectsInRankOrder) {
  const int p = 4;
  const size_t n = 10;
  Transport transport;
  Session group(transport, "comm-test", p);
  std::atomic<int> failures{0};
  group.Run([&](Communicator& comm) {
    const auto mine = PatternFor(comm.rank(), n);
    std::vector<float> all(n * p);
    comm.all_gather_bytes(std::as_bytes(std::span<const float>(mine)),
                          std::as_writable_bytes(std::span<float>(all)));
    for (int r = 0; r < p; ++r) {
      const auto expect = PatternFor(r, n);
      for (size_t i = 0; i < n; ++i) {
        if (all[static_cast<size_t>(r) * n + i] != expect[i]) ++failures;
      }
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(AllGatherBytes, SizeMismatchThrows) {
  Transport transport;
  Session group(transport, "comm-test", 2);
  EXPECT_THROW(group.Run([&](Communicator& comm) {
    std::vector<std::byte> send(4), recv(7);  // 7 != 2*4
    comm.all_gather_bytes(send, recv);
  }),
               Error);
}

TEST(AllGatherBytes, RoundTrips) {
  const int p = 3;
  Transport transport;
  Session group(transport, "comm-test", p);
  std::atomic<int> failures{0};
  group.Run([&](Communicator& comm) {
    std::vector<std::byte> mine(5, static_cast<std::byte>(comm.rank() + 65));
    std::vector<std::byte> all(15);
    comm.all_gather_bytes(mine, all);
    for (int r = 0; r < p; ++r)
      for (int i = 0; i < 5; ++i)
        if (all[static_cast<size_t>(r * 5 + i)] !=
            static_cast<std::byte>(r + 65))
          ++failures;
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(Broadcast, FromEachRoot) {
  const int p = 4;
  for (int root = 0; root < p; ++root) {
    Transport transport;
    Session group(transport, "comm-test", p);
    std::atomic<int> failures{0};
    group.Run([&](Communicator& comm) {
      std::vector<float> v(8, comm.rank() == root ? 42.0f : -1.0f);
      comm.broadcast(v, root);
      for (float x : v)
        if (x != 42.0f) ++failures;
    });
    EXPECT_EQ(failures.load(), 0) << "root=" << root;
  }
}

TEST(Broadcast, BadRootThrows) {
  Transport transport;
  Session group(transport, "comm-test", 2);
  EXPECT_THROW(group.Run([&](Communicator& comm) {
    std::vector<float> v(1);
    comm.broadcast(v, 5);
  }),
               Error);
}

// Elastic-membership resync: every rank calls ResyncJoiners with the same
// transition; each starts with buffers and a step tagged by its rank, and
// records what it ends with.
struct ResyncResult {
  std::vector<std::vector<float>> a, b;
  std::vector<uint64_t> steps;
  std::vector<TrafficStats> traffic;  // stats() change across the call
};

constexpr uint64_t kBaseStep = (7ull << 32) | 0xC0FFEEull;  // both halves

ResyncResult RunResync(std::vector<int> joined) {
  constexpr int kWorld = 3;
  ResyncResult res;
  res.a.resize(kWorld);
  res.b.resize(kWorld);
  res.steps.resize(kWorld);
  res.traffic.resize(kWorld);
  detail::ViewTransition transition;
  transition.joined = std::move(joined);
  Transport transport;
  Session group(transport, "comm-test", kWorld);
  group.Run([&](Communicator& comm) {
    const auto r = static_cast<size_t>(comm.rank());
    const float tag = static_cast<float>(comm.rank() + 1);
    std::vector<float> a(5, tag), b(3, -tag);
    uint64_t step = kBaseStep + r;
    const TrafficStats before = comm.stats();
    ResyncJoiners(comm, transition, {std::span<float>(a), std::span<float>(b)},
                  step);
    const TrafficStats& after = comm.stats();
    res.traffic[r] = {after.bytes_sent - before.bytes_sent,
                      after.messages_sent - before.messages_sent,
                      after.collectives - before.collectives};
    res.a[r] = a;
    res.b[r] = b;
    res.steps[r] = step;
  });
  return res;
}

// Rank 2 rejoins: the donor, rank 0, moves its concatenated state onto
// every rank in one broadcast, and the 64-bit step counter crosses the
// float wire bit-exactly.
TEST(Resync, JoinersAdoptDonorStateAndStep) {
  const ResyncResult res = RunResync({2});
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(res.a[r], std::vector<float>(5, 1.0f));
    EXPECT_EQ(res.b[r], std::vector<float>(3, -1.0f));
    EXPECT_EQ(res.steps[r], kBaseStep);
    EXPECT_EQ(res.traffic[r].collectives, 1u);
  }
}

// When rank 0 rejoins, the donor is the lowest-ranked rank not admitted at
// this commit: rank 1.
TEST(Resync, RankZeroRejoinTakesRankOneAsDonor) {
  const ResyncResult res = RunResync({0});
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(res.a[r], std::vector<float>(5, 2.0f)) << "rank " << r;
    EXPECT_EQ(res.steps[r], kBaseStep + 1) << "rank " << r;
  }
}

// A commit that admitted no one moves nothing and issues no collective.
TEST(Resync, CommitAdmittingNoOneIsNoOp) {
  const ResyncResult res = RunResync({});
  for (size_t r = 0; r < 3; ++r) {
    const float tag = static_cast<float>(r + 1);
    EXPECT_EQ(res.a[r], std::vector<float>(5, tag));
    EXPECT_EQ(res.b[r], std::vector<float>(3, -tag));
    EXPECT_EQ(res.steps[r], kBaseStep + r);
    EXPECT_EQ(res.traffic[r].bytes_sent, 0u);
    EXPECT_EQ(res.traffic[r].messages_sent, 0u);
    EXPECT_EQ(res.traffic[r].collectives, 0u);
  }
}

// Communication-volume properties from Table II: ring all-reduce moves
// 2(p-1)/p * N elements per worker; ring all-gather (p-1) * N_send.
TEST(TrafficStats, RingAllReduceVolumeMatchesTableII) {
  const int p = 4;
  const size_t n = 64;  // divisible by p so chunking is exact
  Transport transport;
  Session group(transport, "comm-test", p);
  group.Run([&](Communicator& comm) {
    auto data = PatternFor(comm.rank(), n);
    comm.all_reduce(data);
    const uint64_t expect_bytes =
        2ull * (p - 1) * (n / p) * sizeof(float);
    EXPECT_EQ(comm.stats().bytes_sent, expect_bytes);
    EXPECT_EQ(comm.stats().messages_sent, 2ull * (p - 1));
    EXPECT_EQ(comm.stats().collectives, 1u);
  });
}

TEST(TrafficStats, AllGatherTrafficMatchesTableII) {
  const int p = 4;
  const size_t n = 32;
  Transport transport;
  Session group(transport, "comm-test", p);
  group.Run([&](Communicator& comm) {
    const auto mine = PatternFor(comm.rank(), n);
    std::vector<float> all(n * p);
    comm.all_gather_bytes(std::as_bytes(std::span<const float>(mine)),
                          std::as_writable_bytes(std::span<float>(all)));
    EXPECT_EQ(comm.stats().bytes_sent, (p - 1) * n * sizeof(float));
    EXPECT_EQ(comm.stats().messages_sent, static_cast<uint64_t>(p - 1));
  });
}

TEST(TrafficStats, NaiveAllReduceIsLinearInP) {
  const int p = 4;
  const size_t n = 16;
  Transport transport;
  Session group(transport, "comm-test", p);
  group.Run([&](Communicator& comm) {
    auto data = PatternFor(comm.rank(), n);
    comm.all_reduce(data, AllReduceAlgo::kNaive);
  });
  // Total traffic: p workers send N floats + root broadcasts N.
  const TrafficStats total = group.total_stats();
  EXPECT_EQ(total.bytes_sent, (p + 1) * n * sizeof(float));
}

TEST(SessionRun, WorkerExceptionPropagates) {
  Transport transport;
  Session group(transport, "comm-test", 3);
  EXPECT_THROW(group.Run([&](Communicator& comm) {
    if (comm.rank() == 1) throw Error("boom");
    // Other workers block on a barrier; the abort must release them.
    comm.barrier();
    comm.barrier();
  }),
               Error);
  // The group is reusable after an aborted run.
  std::atomic<int> ok{0};
  group.Run([&](Communicator& comm) {
    comm.barrier();
    ++ok;
  });
  EXPECT_EQ(ok.load(), 3);
}

TEST(SessionRun, SequentialCollectivesStayConsistent) {
  // A chain of different collectives: any rendezvous skew would corrupt
  // results or deadlock.
  Transport transport;
  Session group(transport, "comm-test", 4);
  std::atomic<int> failures{0};
  group.Run([&](Communicator& comm) {
    for (int round = 0; round < 20; ++round) {
      auto v = PatternFor(comm.rank() + round, 33);
      comm.all_reduce(v);
      comm.barrier();
      std::vector<float> g(33 * 4);
      comm.all_gather_bytes(std::as_bytes(std::span<const float>(v)),
                            std::as_writable_bytes(std::span<float>(g)));
      std::vector<float> b(5, comm.rank() == round % 4 ? 1.0f : 0.0f);
      comm.broadcast(b, round % 4);
      if (b[0] != 1.0f) ++failures;
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(SessionRun, WorldSizeOne) {
  Transport transport;
  Session group(transport, "comm-test", 1);
  group.Run([&](Communicator& comm) {
    auto v = PatternFor(0, 7);
    const auto before = v;
    comm.all_reduce(v);
    EXPECT_EQ(v, before);  // no-op with p=1
    std::vector<float> g(7);
    comm.all_gather_bytes(std::as_bytes(std::span<const float>(v)),
                          std::as_writable_bytes(std::span<float>(g)));
    EXPECT_EQ(g, before);
  });
}

TEST(SessionRun, RejectsBadWorldSize) {
  Transport transport;
  EXPECT_THROW(Session(transport, "comm-test", 0), Error);
}

TEST(SessionRun, BarrierTimeoutDetectsMismatchedCollectives) {
  // Worker 1 skips the collective entirely: without the watchdog the
  // others would deadlock; with it the group aborts with an error.
  Transport transport(TransportOptions{.barrier_timeout_ms = 200});
  Session group(transport, "comm-test", 3);
  EXPECT_THROW(group.Run([&](Communicator& comm) {
    if (comm.rank() == 1) return;  // never reaches the barrier
    std::vector<float> v(8, 1.0f);
    comm.all_reduce(v);
  }),
               Error);
}

TEST(SessionRun, TimeoutDoesNotFireOnHealthyRuns) {
  Transport transport(TransportOptions{.barrier_timeout_ms = 5000});
  Session group(transport, "comm-test", 4);
  std::atomic<int> ok{0};
  group.Run([&](Communicator& comm) {
    std::vector<float> v(128, static_cast<float>(comm.rank()));
    for (int i = 0; i < 10; ++i) comm.all_reduce(v);
    ++ok;
  });
  EXPECT_EQ(ok.load(), 4);
}

// --- Named sessions ---------------------------------------------------------
// The same collectives through named (salted, metric-prefixed) sessions.

TEST(Session, RingAllReduceSumsAcrossWorkers) {
  constexpr int kWorld = 4;
  constexpr size_t kN = 64;
  Transport transport;
  Session session(transport, "comm-test", kWorld);
  const auto expected = ExpectedSum(kWorld, kN);
  session.Run([&](Communicator& comm) {
    auto v = PatternFor(comm.rank(), kN);
    comm.all_reduce(v);
    for (size_t i = 0; i < kN; ++i) EXPECT_FLOAT_EQ(v[i], expected[i]);
  });
}

TEST(Session, SequentialCollectivesStayConsistent) {
  Transport transport;
  Session session(transport, "comm-test", 3);
  session.Run([&](Communicator& comm) {
    for (int iter = 0; iter < 5; ++iter) {
      auto v = PatternFor(comm.rank(), 32);
      comm.all_reduce(v);
      const auto expected = ExpectedSum(3, 32);
      for (size_t i = 0; i < v.size(); ++i) EXPECT_FLOAT_EQ(v[i], expected[i]);

      std::vector<float> b(16, comm.rank() == 1 ? 7.5f : 0.0f);
      comm.broadcast(b, /*root=*/1);
      for (const float x : b) EXPECT_FLOAT_EQ(x, 7.5f);
    }
  });
}

TEST(Session, ReusableAcrossRuns) {
  Transport transport;
  Session session(transport, "comm-test", 2);
  for (int run = 0; run < 3; ++run) {
    session.Run([&](Communicator& comm) {
      std::vector<float> v(8, static_cast<float>(comm.rank() + run));
      comm.all_reduce(v);
      for (const float x : v)
        EXPECT_FLOAT_EQ(x, static_cast<float>(2 * run + 1));
    });
    // Traffic is per-Run, not cumulative across Runs: ring all-reduce of 8
    // floats at p=2 costs each worker 2*(p-1)*(n/p) = 8 floats on the wire.
    EXPECT_EQ(session.total_stats().bytes_sent, 2u * 8u * sizeof(float));
  }
}

TEST(Session, ConcurrentSessionsShareOneTransport) {
  // Two independent jobs on one transport, driven from two plain threads
  // (what TrainingService does with runner threads). Each must see only its
  // own ranks' contributions.
  Transport transport;
  Session a(transport, "job-a", 2);
  Session b(transport, "job-b", 3);
  EXPECT_EQ(transport.active_sessions(), 2);
  EXPECT_EQ(transport.active_ranks(), 5);

  std::atomic<int> ok{0};
  std::thread ta([&] {
    a.Run([&](Communicator& comm) {
      for (int i = 0; i < 20; ++i) {
        std::vector<float> v(64, 1.0f);
        comm.all_reduce(v);
        for (const float x : v) ASSERT_FLOAT_EQ(x, 2.0f);
      }
      ++ok;
    });
  });
  std::thread tb([&] {
    b.Run([&](Communicator& comm) {
      for (int i = 0; i < 20; ++i) {
        std::vector<float> v(64, 1.0f);
        comm.all_reduce(v);
        for (const float x : v) ASSERT_FLOAT_EQ(x, 3.0f);
      }
      ++ok;
    });
  });
  ta.join();
  tb.join();
  EXPECT_EQ(ok.load(), 5);
}

TEST(Session, RejectsEmptyJobId) {
  // Every session is named: the id salts its envelopes and prefixes its
  // metrics, so an empty one is refused and leaks no capacity.
  Transport transport;
  EXPECT_THROW(Session(transport, "", 2), Error);
  EXPECT_EQ(transport.active_sessions(), 0);
  Session named(transport, "comm-test", 2);
  EXPECT_EQ(named.metric_prefix(), "job/comm-test/");
  EXPECT_EQ(named.envelope_salt(), Transport::EnvelopeSalt("comm-test"));
}

// --- Envelope seal ----------------------------------------------------------
// detail::EnvelopeChecksum must catch every fault the injector's corruption
// can cause and every forged sequence number or foreign salt, at the sizes
// that exercise each path: empty, tail-only, exactly one and just over one
// 32-byte block, and multi-block payloads with ragged tails.
constexpr size_t kSealSizes[] = {0, 1, 7, 8, 31, 32, 33, 4099, (1u << 20) + 5};
constexpr uint64_t kSealSeq = 0x0003000200010007ull;
constexpr uint64_t kSealSalt = 0x5a17c0ffee15beefull;

std::vector<std::byte> SealPayload(size_t n) {
  std::vector<std::byte> b(n);
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (auto& v : b) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v = static_cast<std::byte>(x >> 56);
  }
  return b;
}

uint64_t Seal(std::span<const std::byte> b, uint64_t seq = kSealSeq,
              uint64_t salt = kSealSalt) {
  return detail::EnvelopeChecksum(b, seq, salt);
}

TEST(EnvelopeChecksum, EverySingleBitFlipChangesTheSeal) {
  for (const size_t n : kSealSizes) {
    auto b = SealPayload(n);
    const uint64_t sealed = Seal(b);
    // Exhaustive up to 4099 bytes; above, a stride through the blocks plus
    // every bit of the last 40 bytes (the tail and the last block).
    const size_t bits = n * 8;
    const size_t stride = n <= 4099 ? 1 : 8191;
    std::vector<size_t> flips;
    for (size_t bit = 0; bit < bits; bit += stride) flips.push_back(bit);
    if (stride > 1)
      for (size_t bit = bits - std::min<size_t>(bits, 320); bit < bits; ++bit)
        flips.push_back(bit);
    for (const size_t bit : flips) {
      const auto mask = static_cast<std::byte>(1u << (bit % 8));
      b[bit / 8] ^= mask;
      ASSERT_NE(Seal(b), sealed) << "n=" << n << " bit=" << bit;
      b[bit / 8] ^= mask;
    }
  }
}

TEST(EnvelopeChecksum, InjectorByteRotationChangesTheSeal) {
  for (const size_t n : kSealSizes) {
    auto b = SealPayload(n);
    const uint64_t sealed = Seal(b);
    bool changed = false;
    for (std::byte& v : b) {  // the kCorrupt wire fault, byte for byte
      const auto u = static_cast<uint8_t>(v);
      v = static_cast<std::byte>(static_cast<uint8_t>((u << 1) | (u >> 7)));
      changed = changed || u != static_cast<uint8_t>(v);
    }
    if (changed) {
      EXPECT_NE(Seal(b), sealed) << "n=" << n;
    } else {
      EXPECT_EQ(n, 0u);
    }
  }
}

TEST(EnvelopeChecksum, SeqAndSaltAreSealedIn) {
  for (const size_t n : kSealSizes) {
    const auto b = SealPayload(n);
    const uint64_t sealed = Seal(b);
    for (int bit = 0; bit < 64; ++bit) {
      const uint64_t m = uint64_t{1} << bit;
      EXPECT_NE(Seal(b, kSealSeq ^ m), sealed)
          << "n=" << n << " seq bit " << bit;
      EXPECT_NE(Seal(b, kSealSeq, kSealSalt ^ m), sealed)
          << "n=" << n << " salt bit " << bit;
    }
    EXPECT_NE(Seal(b, kSealSeq + 1), sealed) << "n=" << n;
    EXPECT_NE(Seal(b, kSealSeq, Transport::EnvelopeSalt("other-job")), sealed)
        << "n=" << n;
  }
}

TEST(EnvelopeChecksum, OneByteLengthChangeChangesTheSeal) {
  for (const size_t n : kSealSizes) {
    const auto b = SealPayload(n + 1);
    const std::span<const std::byte> all(b);
    const uint64_t sealed = Seal(all.first(n));
    EXPECT_NE(Seal(all), sealed) << "grown from n=" << n;
    if (n > 0) {
      EXPECT_NE(Seal(all.first(n - 1)), sealed) << "shrunk from n=" << n;
    }
  }
}

TEST(EnvelopeChecksum, SealDependsOnBytesNotAlignment) {
  for (const size_t n : kSealSizes) {
    const auto b = SealPayload(n);
    std::vector<std::byte> shifted(n + 3);
    std::copy(b.begin(), b.end(), shifted.begin() + 3);
    EXPECT_EQ(Seal(std::span<const std::byte>(shifted).subspan(3)), Seal(b))
        << "n=" << n;
  }
}

// --- Golden collective digests ----------------------------------------------
// FNV-1a over every rank's output bytes and TrafficStats after each of two
// calls of one collective, for p = 1..5 at n = 37 (uneven chunking), fault
// free and with rank p-1 crashed at its second collective entry. The
// constants pin the exact bytes and wire cost of every collective, so a
// change to chunking, ring order, reduction order or traffic accounting
// fails here first.
enum class GoldenOp {
  kRingSum,
  kNaiveSum,
  kAllGatherBytes,
  kBroadcast,
};

uint64_t Fnv1a(std::span<const std::byte> bytes, uint64_t h) {
  for (const std::byte b : bytes)
    h = (h ^ static_cast<uint64_t>(b)) * 0x100000001b3ull;
  return h;
}

// Non-integral values, so any change in reduction order changes the bits.
std::vector<float> GoldenInput(int rank, int call, size_t n) {
  std::vector<float> v(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t h = ((i + 1) * 2654435761ull) ^
                       (static_cast<uint64_t>(rank + 1) * 40503ull) ^
                       (static_cast<uint64_t>(call + 1) * 9973ull);
    v[i] = static_cast<float>(h % 100003) / 977.0f - 51.3f;
  }
  return v;
}

uint64_t GoldenCollectiveDigest(GoldenOp which, bool crash) {
  constexpr size_t kN = 37;
  uint64_t h = 0xcbf29ce484222325ull;
  for (int p = 1; p <= 5; ++p) {
    std::vector<std::vector<std::byte>> out(static_cast<size_t>(p));
    fault::FaultPlanConfig cfg;
    cfg.membership = {{fault::MembershipEvent::Kind::kCrash, p - 1, 2}};
    fault::FaultPlan plan(cfg);
    Transport transport;
    Session session(transport, "golden", p);
    if (crash) session.set_fault_injector(&plan);
    session.Run([&](Communicator& comm) {
      auto& bytes = out[static_cast<size_t>(comm.rank())];
      const auto append = [&bytes](std::span<const std::byte> b) {
        bytes.insert(bytes.end(), b.begin(), b.end());
      };
      for (int call = 0; call < 2; ++call) {
        std::vector<float> data = GoldenInput(comm.rank(), call, kN);
        // Always zero now that no op gathers floats; still appended so
        // the digest constants below keep the bytes they were pinned on.
        const std::vector<float> gathered(kN * static_cast<size_t>(p));
        const auto packed = std::as_bytes(std::span<const float>(data));
        std::vector<std::byte> packed_all(packed.size() *
                                          static_cast<size_t>(p));
        switch (which) {
          case GoldenOp::kRingSum:
            comm.all_reduce(data, AllReduceAlgo::kRing);
            break;
          case GoldenOp::kNaiveSum:
            comm.all_reduce(data, AllReduceAlgo::kNaive);
            break;
          case GoldenOp::kAllGatherBytes:
            comm.all_gather_bytes(packed, packed_all);
            break;
          case GoldenOp::kBroadcast:
            comm.broadcast(data, /*root=*/0);
            break;
        }
        append(std::as_bytes(std::span<const float>(data)));
        append(std::as_bytes(std::span<const float>(gathered)));
        append(packed_all);
        const TrafficStats& s = comm.stats();
        const uint64_t stats[] = {s.bytes_sent, s.messages_sent,
                                  s.collectives};
        append(std::as_bytes(std::span<const uint64_t>(stats)));
      }
    });
    for (const auto& bytes : out) h = Fnv1a(bytes, h);
    const TrafficStats t = session.total_stats();
    const uint64_t totals[] = {t.bytes_sent, t.messages_sent, t.collectives,
                               session.crashed_ranks().size()};
    h = Fnv1a(std::as_bytes(std::span<const uint64_t>(totals)), h);
  }
  return h;
}

TEST(CollectiveGolden, DigestsReproduce) {
  struct Case {
    const char* what;
    GoldenOp op;
    uint64_t fault_free;
    uint64_t crashed;
  };
  const Case cases[] = {
      {"all_reduce ring sum", GoldenOp::kRingSum, 0xa8aba964b8ed9f44ull,
       0x3c576259cb4f7abfull},
      {"all_reduce naive sum", GoldenOp::kNaiveSum, 0xb5244a72c2bbf61bull,
       0xf7beaa93b7d3490dull},
      {"all_gather_bytes", GoldenOp::kAllGatherBytes, 0xb1afb571fa7facd6ull,
       0xfb919a5c9451d553ull},
      {"broadcast", GoldenOp::kBroadcast, 0xb9e4e41f0bbec217ull,
       0x4651dacbc52ae633ull},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(GoldenCollectiveDigest(c.op, false), c.fault_free) << c.what;
    EXPECT_EQ(GoldenCollectiveDigest(c.op, true), c.crashed)
        << c.what << " (rank p-1 crashed)";
  }
}

}  // namespace
}  // namespace acps::comm
