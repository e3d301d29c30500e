// Randomized (but deterministic-seeded) stress tests: random shapes,
// worker counts, and collective sequences, cross-checked against local
// reference computations. These catch rendezvous-ordering and chunking
// bugs that fixed-size unit tests miss.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "comm/communicator.h"
#include "core/grad_reducer.h"
#include "tensor/rng.h"

namespace acps {
namespace {

TEST(Stress, RandomizedAllReduceSequences) {
  Rng meta(0xABCDE);
  for (int round = 0; round < 6; ++round) {
    const int p = 2 + static_cast<int>(meta.next_below(5));  // 2..6
    const int ops = 5 + static_cast<int>(meta.next_below(10));
    std::vector<size_t> sizes;
    for (int i = 0; i < ops; ++i)
      sizes.push_back(1 + static_cast<size_t>(meta.next_below(3000)));

    comm::Transport group_transport;

    comm::Session group(group_transport, "stress", p);
    std::atomic<int> failures{0};
    group.Run([&](comm::Communicator& comm) {
      for (int op = 0; op < ops; ++op) {
        const size_t n = sizes[static_cast<size_t>(op)];
        // Deterministic per-(round, op, rank) payload.
        auto fill = [&](int rank) {
          Rng rng(static_cast<uint64_t>(round) * 1000003 +
                  static_cast<uint64_t>(op) * 131 +
                  static_cast<uint64_t>(rank));
          std::vector<float> v(n);
          for (auto& x : v) x = rng.uniform(-2.0f, 2.0f);
          return v;
        };
        auto mine = fill(comm.rank());
        comm.all_reduce(mine);
        // Reference: sum of all workers' payloads.
        std::vector<double> expect(n, 0.0);
        for (int r = 0; r < p; ++r) {
          const auto w = fill(r);
          for (size_t i = 0; i < n; ++i) expect[i] += w[i];
        }
        for (size_t i = 0; i < n; ++i) {
          if (std::abs(mine[i] - expect[i]) > 1e-3) {
            ++failures;
            break;
          }
        }
      }
    });
    EXPECT_EQ(failures.load(), 0) << "round " << round;
  }
}

TEST(Stress, MixedCollectivesInterleaved) {
  const int p = 4;
  comm::Transport group_transport;
  comm::Session group(group_transport, "stress", p);
  std::atomic<int> failures{0};
  group.Run([&](comm::Communicator& comm) {
    Rng rng(42);  // same on all workers: same op sequence
    for (int op = 0; op < 30; ++op) {
      const size_t n = 1 + static_cast<size_t>(rng.next_below(500));
      const int kind = static_cast<int>(rng.next_below(4));
      std::vector<float> v(n, static_cast<float>(comm.rank() + 1));
      switch (kind) {
        case 0: {
          comm.all_reduce(v);
          if (v[0] != 1.0f + 2 + 3 + 4) ++failures;
          break;
        }
        case 1: {
          std::vector<float> g(n * p);
          comm.all_gather_bytes(std::as_bytes(std::span<const float>(v)),
                                std::as_writable_bytes(std::span<float>(g)));
          for (int r = 0; r < p; ++r)
            if (g[static_cast<size_t>(r) * n] != static_cast<float>(r + 1))
              ++failures;
          break;
        }
        case 2: {
          const int root = static_cast<int>(rng.next_below(p));
          comm.broadcast(v, root);
          if (v[0] != static_cast<float>(root + 1)) ++failures;
          break;
        }
        case 3: {
          comm.barrier();
          break;
        }
      }
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(Stress, RandomkReducerAdditiveAllReducePath) {
  // The additive property end to end: workers hold different gradients,
  // the result must equal the mean restricted to the shared coordinates.
  const int p = 4;
  comm::Transport group_transport;
  comm::Session group(group_transport, "stress", p);
  std::atomic<int> failures{0};
  group.Run([&](comm::Communicator& comm) {
    dnn::Param w;
    w.name = "w";
    w.value = Tensor({30, 10});
    w.grad = Tensor({30, 10});
    w.matrix_rows = 30;
    w.matrix_cols = 10;
    Rng rng(900 + static_cast<uint64_t>(comm.rank()));
    rng.fill_normal(w.grad);

    // Expected mean over all workers.
    Tensor mean({30, 10});
    for (int r = 0; r < p; ++r) {
      Tensor g({30, 10});
      Rng wr(900 + static_cast<uint64_t>(r));
      wr.fill_normal(g);
      mean.add_(g);
    }
    mean.scale_(1.0f / p);

    // Error feedback is on, but its residual is still zero at this first
    // step, so the output is the plain sparsified mean.
    core::GradReducer agg(compress::RandomkCompressor(/*ratio=*/0.3));
    std::vector<dnn::Param*> params{&w};
    agg.Aggregate(params, comm);

    // Every nonzero output coordinate must equal the mean gradient there;
    // roughly 30% of coordinates are kept.
    int64_t kept = 0;
    for (int64_t i = 0; i < w.grad.numel(); ++i) {
      const float v = w.grad.at(i);
      if (v != 0.0f) {
        ++kept;
        if (std::abs(v - mean.at(i)) > 1e-4f) ++failures;
      }
    }
    if (kept != 90) ++failures;  // 0.3 * 300
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(Stress, RandomkReducerWithErrorFeedbackConverges) {
  // With EF, repeated aggregation of the same gradients averages to the
  // true mean even though each step keeps only 20% of coordinates.
  const int p = 2;
  comm::Transport group_transport;
  comm::Session group(group_transport, "stress", p);
  std::atomic<int> failures{0};
  group.Run([&](comm::Communicator& comm) {
    core::GradReducer agg(compress::RandomkCompressor(0.2));
    Tensor mean({8, 8});
    for (int r = 0; r < p; ++r) {
      Tensor g({8, 8});
      Rng wr(70 + static_cast<uint64_t>(r));
      wr.fill_normal(g);
      mean.add_(g);
    }
    mean.scale_(1.0f / p);

    Tensor sum({8, 8});
    const int steps = 100;
    for (int t = 0; t < steps; ++t) {
      dnn::Param w;
      w.name = "w";
      w.value = Tensor({8, 8});
      w.grad = Tensor({8, 8});
      w.matrix_rows = w.matrix_cols = 8;
      Rng wr(70 + static_cast<uint64_t>(comm.rank()));
      wr.fill_normal(w.grad);
      std::vector<dnn::Param*> params{&w};
      agg.Aggregate(params, comm);
      sum.add_(w.grad);
    }
    sum.scale_(1.0f / steps);
    Tensor diff = sum.clone();
    diff.sub_(mean);
    if (diff.norm2() / mean.norm2() > 0.25f) ++failures;
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(Stress, AggregatorsSurviveManyTinyParams) {
  // 100 params of 1-5 elements each: exercises bucket edge cases hard.
  const int p = 3;
  comm::Transport group_transport;
  comm::Session group(group_transport, "stress", p);
  std::atomic<int> failures{0};
  group.Run([&](comm::Communicator& comm) {
    std::vector<dnn::Param> params(100);
    std::vector<dnn::Param*> ptrs;
    Rng rng(50 + static_cast<uint64_t>(comm.rank()));
    Rng shapes(7);  // same shapes everywhere
    for (size_t i = 0; i < params.size(); ++i) {
      const int64_t n = 1 + static_cast<int64_t>(shapes.next_below(5));
      std::string name("p");  // not "p" + to_string: GCC 12 -Wrestrict
      name += std::to_string(i);
      params[i].name = std::move(name);
      params[i].value = Tensor({n});
      params[i].grad = Tensor({n});
      rng.fill_normal(params[i].grad);
      ptrs.push_back(&params[i]);
    }
    core::GradReducer agg(/*buffer_bytes=*/16);
    agg.Aggregate(ptrs, comm);
    // Sanity: results are finite and identical across calls from the same
    // inputs (determinism is covered elsewhere; check finiteness here).
    for (auto& prm : params)
      for (float v : prm.grad.data())
        if (!std::isfinite(v)) ++failures;
  });
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace acps
