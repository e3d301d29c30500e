// Microbenchmarks of the real in-process collectives (google-benchmark).
#include <benchmark/benchmark.h>

#include "comm/communicator.h"

using namespace acps;

// Every case runs its ranks on Session worker threads while the main thread
// only waits, so each one times the wall clock (UseRealTime): that is the
// collective's time, where the main thread's CPU time is near zero.

namespace {

void BM_RingAllReduce(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const auto n = static_cast<size_t>(state.range(1));
  comm::Transport transport;
  comm::Session group(transport, "micro", p);
  for (auto _ : state) {
    group.Run([&](comm::Communicator& c) {
      std::vector<float> v(n, static_cast<float>(c.rank()));
      c.all_reduce(v);
      benchmark::DoNotOptimize(v.data());
    });
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n) * p * 4);
}
BENCHMARK(BM_RingAllReduce)
    ->Args({2, 1 << 12})
    ->Args({4, 1 << 12})
    ->Args({4, 1 << 16})
    ->Args({8, 1 << 12})
    // One fusion bucket at fusion::kDefaultBufferBytes (25 MiB): the size
    // the ring moves per S-SGD bucket.
    ->Args({4, 6553600})
    ->UseRealTime();

void BM_NaiveAllReduce(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const auto n = static_cast<size_t>(state.range(1));
  comm::Transport transport;
  comm::Session group(transport, "micro", p);
  for (auto _ : state) {
    group.Run([&](comm::Communicator& c) {
      std::vector<float> v(n, static_cast<float>(c.rank()));
      c.all_reduce(v, comm::AllReduceAlgo::kNaive);
      benchmark::DoNotOptimize(v.data());
    });
  }
}
BENCHMARK(BM_NaiveAllReduce)
    ->Args({4, 1 << 12})
    ->Args({4, 1 << 16})
    ->UseRealTime();

// The Sign/Top-k wire: each rank contributes `n` packed bytes.
void BM_AllGatherBytes(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const auto n = static_cast<size_t>(state.range(1));
  comm::Transport transport;
  comm::Session group(transport, "micro", p);
  for (auto _ : state) {
    group.Run([&](comm::Communicator& c) {
      std::vector<std::byte> send(n, std::byte{1}),
          recv(n * static_cast<size_t>(p));
      c.all_gather_bytes(send, recv);
      benchmark::DoNotOptimize(recv.data());
    });
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n) * p);
}
BENCHMARK(BM_AllGatherBytes)
    ->Args({4, 1 << 14})
    ->Args({8, 1 << 14})
    ->UseRealTime();

void BM_Broadcast(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const auto n = static_cast<size_t>(state.range(1));
  comm::Transport transport;
  comm::Session group(transport, "micro", p);
  for (auto _ : state) {
    group.Run([&](comm::Communicator& c) {
      std::vector<float> v(n, static_cast<float>(c.rank()));
      c.broadcast(v, 0);
      benchmark::DoNotOptimize(v.data());
    });
  }
}
BENCHMARK(BM_Broadcast)->Args({4, 1 << 14})->UseRealTime();

}  // namespace
