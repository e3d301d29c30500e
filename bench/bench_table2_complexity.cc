// Table II: compress and communicate complexity of each algorithm, with
// the analytic α-β cost model evaluated on the paper's testbed, plus the
// per-worker traffic of the REAL collectives (which must match the
// formulas exactly).
#include "bench_common.h"

#include <atomic>

#include "comm/communicator.h"
#include "comm/cost_model.h"

using namespace acps;

int main() {
  bench::Header("Table II", "Compress / communicate complexity");
  bench::Note("p = workers, N = gradient elements, k = kept elements, "
              "Nc = compressed elements (rank r).");

  metrics::Table table({"Algorithm", "Compress", "Communicate (elements)"});
  table.AddRow({"S-SGD", "-", "2(p-1)/p * N   (ring all-reduce)"});
  table.AddRow({"Sign-SGD", "O(N)", "(p-1) * N/32   (all-gather)"});
  table.AddRow({"Top-k SGD", "O(k log N)", "(p-1) * 2k   (all-gather)"});
  table.AddRow({"Power-SGD", "O(Nr)", "2(p-1)/p * Nc  (ring all-reduce)"});
  table.AddRow({"ACP-SGD", "O(Nr/2)", "2(p-1)/p * Nc/2 (ring all-reduce)"});
  std::printf("%s", table.Render().c_str());

  // Measure each collective's traffic on the real thread-cluster
  // collectives, from every rank's stats() delta around the call, and hold
  // it to its formula. The all-gather carries Sign-SGD's packed payload:
  // N/32 32-bit words per worker.
  const int p = 8;
  const size_t n = 4096;
  comm::Transport transport;
  comm::Session group(transport, "table2", p);
  std::atomic<uint64_t> ar_bytes{0};
  std::atomic<uint64_t> ag_bytes{0};
  group.Run([&](comm::Communicator& comm) {
    std::vector<float> v(n, 1.0f);
    const uint64_t before = comm.stats().bytes_sent;
    comm.all_reduce(v);
    const uint64_t mid = comm.stats().bytes_sent;
    const std::vector<std::byte> signs(n / 8, std::byte{0x5a});
    std::vector<std::byte> gathered(signs.size() * p);
    comm.all_gather_bytes(signs, gathered);
    ar_bytes += mid - before;
    ag_bytes += comm.stats().bytes_sent - mid;
  });
  const uint64_t expect_ar = static_cast<uint64_t>(p) * 2ull * (p - 1) *
                             (n / p) * sizeof(float);
  const uint64_t expect_ag =
      static_cast<uint64_t>(p) * (p - 1) * (n / 32) * sizeof(uint32_t);
  std::printf("\nReal collectives, p=%d, N=%zu elements (totals over ranks):\n",
              p, n);
  std::printf("  ring all-reduce traffic (S-SGD):   %llu bytes (formula: %llu)\n",
              static_cast<unsigned long long>(ar_bytes.load()),
              static_cast<unsigned long long>(expect_ar));
  std::printf("  ring all-gather traffic (Sign-SGD): %llu bytes (formula: %llu)\n",
              static_cast<unsigned long long>(ag_bytes.load()),
              static_cast<unsigned long long>(expect_ag));
  if (ar_bytes.load() != expect_ar || ag_bytes.load() != expect_ag) {
    std::printf("MISMATCH: measured traffic differs from Table II\n");
    return 1;
  }

  // Analytic collective costs at the paper's scale.
  comm::CostModel cm(comm::NetworkSpec::Ethernet10G(), 32);
  std::printf("\nAnalytic cost on 32 workers / 10GbE:\n");
  for (double mb : {1.0, 25.0, 100.0, 440.0}) {
    std::printf("  all-reduce %6.1f MB: %8.2f ms   all-gather %6.1f MB/worker:"
                " %8.2f ms\n",
                mb, cm.AllReduce(mb * 1e6) * 1e3, mb,
                cm.AllGather(mb * 1e6) * 1e3);
  }
  return 0;
}
