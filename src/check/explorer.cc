#include "check/explorer.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <sstream>

#include "comm/communicator.h"
#include "core/distributed_optimizer.h"
#include "core/grad_reducer.h"
#include "dnn/layer.h"
#include "fault/injector.h"
#include "tensor/check.h"

namespace acps::check {
namespace {

// ---------------------------------------------------------------------------
// Deterministic inputs. Values are small integers so that sums across any
// association order stay exactly representable in fp32 — the arithmetic
// reference is then exact, not approximate.
// ---------------------------------------------------------------------------

float IntInput(int rank, int64_t i) {
  return static_cast<float>(((i * 7 + rank * 13) % 21) - 10);
}

std::vector<float> IntInputs(int rank, int64_t numel) {
  std::vector<float> v(static_cast<size_t>(numel));
  for (int64_t i = 0; i < numel; ++i) v[static_cast<size_t>(i)] = IntInput(rank, i);
  return v;
}

std::vector<std::byte> BytePattern(int rank, size_t n) {
  std::vector<std::byte> v(n);
  for (size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::byte>((i * 31 + static_cast<size_t>(rank) * 7) & 0xFF);
  return v;
}

std::vector<std::byte> FloatsToBytes(std::span<const float> v) {
  std::vector<std::byte> out(v.size() * sizeof(float));
  std::memcpy(out.data(), v.data(), out.size());
  return out;
}

// ---------------------------------------------------------------------------
// One run of a workload: per-rank output bytes + traffic stats, or an error.
// ---------------------------------------------------------------------------

struct RunOutcome {
  std::vector<std::vector<std::byte>> outputs;  // per rank
  std::vector<comm::TrafficStats> traffic;      // per rank
  std::string error;  // non-empty when any worker threw
};

// The GradReducer workload's parameter set: one low-rank-worthy matrix, one
// smaller matrix, one dense bias — covers both bucket classes.
struct WfbpFixture {
  dnn::Param w1, w2, bias;

  explicit WfbpFixture(int rank) {
    w1.name = "w1";
    w1.value = Tensor({12, 16});
    w1.grad = Tensor({12, 16});
    w1.matrix_rows = 12;
    w1.matrix_cols = 16;
    w2.name = "w2";
    w2.value = Tensor({8, 10});
    w2.grad = Tensor({8, 10});
    w2.matrix_rows = 8;
    w2.matrix_cols = 10;
    bias.name = "bias";
    bias.value = Tensor({16});
    bias.grad = Tensor({16});
    int64_t i = 0;
    for (auto* p : list())
      for (float& g : p->grad.data()) g = IntInput(rank, i++);
  }

  std::vector<dnn::Param*> list() { return {&w1, &w2, &bias}; }
};

// Deterministic membership injector for Workload::kRejoin, built on the
// fault.points interface alone (the check layer must not depend on seeded
// fault plans): the victim fail-stops at its `crash_at`-th collective entry
// and holds a standing readmission intent for the next commit.
class RejoinInjector final : public fault::FaultInjector {
 public:
  RejoinInjector(int victim, uint64_t crash_at)
      : victim_(victim), crash_at_(crash_at) {}

  fault::FaultKind OnPublish(int, uint64_t, int) override {
    return fault::FaultKind::kNone;
  }
  fault::FaultKind OnRead(int, uint64_t, int) override {
    return fault::FaultKind::kNone;
  }
  fault::EntryDecision OnCollectiveEntry(int rank,
                                         uint64_t collective_index) override {
    if (rank == victim_ && collective_index == crash_at_)
      return {fault::FaultKind::kCrash, 0};
    return {};
  }
  std::vector<fault::AdmissionIntent> AdmissionSchedule() override {
    return {{victim_, 1}};
  }
  [[nodiscard]] std::string Describe() const override {
    return "rejoin-injector{victim=" + std::to_string(victim_) +
           ", crash_at=" + std::to_string(crash_at_) + "}";
  }

 private:
  int victim_;
  uint64_t crash_at_;
};

RunOutcome RunWorkload(Workload w, const ExploreOptions& opt,
                       ScheduleController* controller) {
  const int p = opt.world_size;
  const int64_t n = opt.numel;
  RunOutcome out;
  out.outputs.assign(static_cast<size_t>(p), {});
  out.traffic.assign(static_cast<size_t>(p), {});

  // kRejoin runs under its membership injector in every mode — baseline
  // included, so the baseline is the unperturbed run of the SAME
  // crash→rejoin history and the oracle isolates pure schedule effects.
  // Entry 3 is the victim's step-2 all-reduce (2 entries per step: the
  // all-reduce and the commit), so the crash lands mid-run and the
  // readmission at commit 2 still leaves a step to run after resync.
  RejoinInjector rejoin(/*victim=*/p - 1, /*crash_at=*/3);

  comm::Transport transport;
  comm::Session group(transport, "explore", p);
  group.set_contract_checking(opt.contract_checking);
  if (w == Workload::kRejoin && p >= 2) group.set_fault_injector(&rejoin);
  ScopedSchedListener install(controller);
  // A reused controller must re-enforce / re-inject from window 0, not from
  // wherever the previous run left its window counter.
  if (controller != nullptr) controller->ResetRunState();
  try {
    group.Run([&](comm::Communicator& comm) {
      const int r = comm.rank();
      auto& slot = out.outputs[static_cast<size_t>(r)];
      switch (w) {
        case Workload::kAllReduceRing:
        case Workload::kAllReduceNaive: {
          auto data = IntInputs(r, n);
          comm.all_reduce(data, w == Workload::kAllReduceRing
                                    ? comm::AllReduceAlgo::kRing
                                    : comm::AllReduceAlgo::kNaive);
          slot = FloatsToBytes(data);
          break;
        }
        case Workload::kAllGatherBytes: {
          const auto send = BytePattern(r, static_cast<size_t>(n));
          std::vector<std::byte> recv(send.size() * static_cast<size_t>(p));
          comm.all_gather_bytes(send, recv);
          slot = recv;
          break;
        }
        case Workload::kBroadcast: {
          const int root = p > 1 ? 1 : 0;
          auto data = r == root ? IntInputs(root, n)
                                : std::vector<float>(static_cast<size_t>(n));
          comm.broadcast(data, root);
          slot = FloatsToBytes(data);
          break;
        }
        case Workload::kBarrier: {
          comm.barrier();
          auto data = IntInputs(r, std::min<int64_t>(n, 8));
          comm.barrier();
          comm.all_reduce(data);
          comm.barrier();
          slot = FloatsToBytes(data);
          break;
        }
        case Workload::kWfbpStep: {
          WfbpFixture fix(r);
          compress::AcpSgdConfig cfg;
          cfg.rank = 2;
          core::GradReducer reducer(cfg);
          reducer.BeginStep(fix.list(), comm);
          // Hooks fire in backward order, identically on every rank (the
          // data-parallel contract); the explorer perturbs their timing.
          reducer.OnGradReady(2);
          reducer.OnGradReady(1);
          reducer.OnGradReady(0);
          reducer.FinishStep();
          for (auto* prm : fix.list()) {
            const auto bytes = FloatsToBytes(prm->grad.data());
            slot.insert(slot.end(), bytes.begin(), bytes.end());
          }
          break;
        }
        case Workload::kOptimizerStep: {
          WfbpFixture fix(r);
          // Values start identical on every rank (data-parallel invariant);
          // per-rank gradients are averaged by the aggregator, so values
          // must stay rank-invariant after each step.
          int64_t i = 0;
          for (auto* prm : fix.list())
            for (float& v : prm->value.data()) v = IntInput(0, i++) * 0.125f;
          core::DistributedOptimizer dopt(
              fix.list(), core::MakeAggregatorFactory("acpsgd:2")(r, p),
              dnn::LrSchedule{.base_lr = 0.125f, .warmup_epochs = 1},
              /*momentum=*/0.5f);
          for (int step = 0; step < 2; ++step) {
            int64_t j = 0;
            for (auto* prm : fix.list())
              for (float& gr : prm->grad.data())
                gr = IntInput(r, j++ + step * 131);
            dopt.Step(comm, /*epoch=*/static_cast<double>(step));
          }
          for (auto* prm : fix.list()) {
            const auto bytes = FloatsToBytes(prm->value.data());
            slot.insert(slot.end(), bytes.begin(), bytes.end());
          }
          break;
        }
        case Workload::kRejoin: {
          // Three all-reduce steps with a membership commit after each;
          // the victim dies at its step-2 all-reduce and is readmitted at
          // the next commit, where comm::ResyncJoiners has the lowest-
          // ranked survivor broadcast the running sums and the step
          // counter. Any explored schedule
          // must reproduce the same final bits on every rank. Naive
          // all-reduce keeps the workload at one hand-off window per step
          // (the gather publish; the root re-publish is kRootPublish), so
          // exhaustive mode can enumerate every publish order at p=3.
          auto data = IntInputs(r, n);
          uint64_t step = 0;
          const std::vector<std::span<float>> state = {data};
          // A readmitted generation starts mid-commit: its first
          // collective is the resync broadcast the survivors are issuing.
          if (comm.join_generation() > 0)
            comm::ResyncJoiners(comm, comm.last_transition(), state, step);
          while (step < 3) {
            comm.all_reduce(data, comm::AllReduceAlgo::kNaive);
            ++step;
            comm::ResyncJoiners(comm, comm.commit_view(), state, step);
          }
          slot = FloatsToBytes(data);
          break;
        }
      }
      out.traffic[static_cast<size_t>(r)] = comm.stats();
    });
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

// Arithmetic reference outputs (exact — integer inputs), or empty when the
// workload has no closed-form reference (kWfbpStep).
std::vector<std::vector<std::byte>> ReferenceOutputs(Workload w,
                                                     const ExploreOptions& opt) {
  const int p = opt.world_size;
  const int64_t n = opt.numel;
  std::vector<std::vector<std::byte>> ref(static_cast<size_t>(p));
  switch (w) {
    case Workload::kAllReduceRing:
    case Workload::kAllReduceNaive: {
      std::vector<float> sum(static_cast<size_t>(n), 0.0f);
      for (int r = 0; r < p; ++r)
        for (int64_t i = 0; i < n; ++i)
          sum[static_cast<size_t>(i)] += IntInput(r, i);
      for (int r = 0; r < p; ++r) ref[static_cast<size_t>(r)] = FloatsToBytes(sum);
      break;
    }
    case Workload::kAllGatherBytes: {
      std::vector<std::byte> cat;
      for (int r = 0; r < p; ++r) {
        const auto v = BytePattern(r, static_cast<size_t>(n));
        cat.insert(cat.end(), v.begin(), v.end());
      }
      for (int r = 0; r < p; ++r) ref[static_cast<size_t>(r)] = cat;
      break;
    }
    case Workload::kBroadcast: {
      const int root = p > 1 ? 1 : 0;
      const auto v = IntInputs(root, n);
      for (int r = 0; r < p; ++r) ref[static_cast<size_t>(r)] = FloatsToBytes(v);
      break;
    }
    case Workload::kBarrier: {
      const int64_t m = std::min<int64_t>(n, 8);
      std::vector<float> sum(static_cast<size_t>(m), 0.0f);
      for (int r = 0; r < p; ++r)
        for (int64_t i = 0; i < m; ++i)
          sum[static_cast<size_t>(i)] += IntInput(r, i);
      for (int r = 0; r < p; ++r) ref[static_cast<size_t>(r)] = FloatsToBytes(sum);
      break;
    }
    case Workload::kWfbpStep:
    case Workload::kOptimizerStep:
    case Workload::kRejoin:
      ref.clear();  // no closed form; baseline comparison covers it
      break;
  }
  return ref;
}

std::string DescribeByteDiff(const std::vector<std::byte>& want,
                             const std::vector<std::byte>& got) {
  std::ostringstream oss;
  if (want.size() != got.size()) {
    oss << "size " << got.size() << " != expected " << want.size();
    return oss.str();
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (want[i] != got[i]) {
      oss << "first diff at byte " << i << " (expected 0x" << std::hex
          << static_cast<int>(want[i]) << ", got 0x" << static_cast<int>(got[i])
          << std::dec << ")";
      // Decode the enclosing float for float-sized payloads — far more
      // readable in reports than raw bytes.
      const size_t fi = i / sizeof(float);
      if ((want.size() % sizeof(float)) == 0 &&
          (fi + 1) * sizeof(float) <= want.size()) {
        float fw = 0.0f;
        float fg = 0.0f;
        std::memcpy(&fw, want.data() + fi * sizeof(float), sizeof(float));
        std::memcpy(&fg, got.data() + fi * sizeof(float), sizeof(float));
        oss << "; element " << fi << ": expected " << fw << ", got " << fg;
      }
      return oss.str();
    }
  }
  return "";
}

// Applies every oracle to `run`; returns the first failure description.
std::string CheckRun(const RunOutcome& baseline,
                     const std::vector<std::vector<std::byte>>& reference,
                     const RunOutcome& run) {
  if (!run.error.empty()) return "worker threw: " + run.error;
  const size_t p = run.outputs.size();
  for (size_t r = 0; r < p; ++r) {
    if (run.outputs[r] != baseline.outputs[r]) {
      return "rank " + std::to_string(r) + " diverged from baseline bits: " +
             DescribeByteDiff(baseline.outputs[r], run.outputs[r]);
    }
  }
  if (!reference.empty()) {
    for (size_t r = 0; r < p; ++r) {
      if (run.outputs[r] != reference[r]) {
        return "rank " + std::to_string(r) +
               " diverged from arithmetic reference: " +
               DescribeByteDiff(reference[r], run.outputs[r]);
      }
    }
  }
  // Every workload's contract ends with identical bytes on every rank.
  for (size_t r = 1; r < p; ++r) {
    if (run.outputs[r] != run.outputs[0]) {
      return "rank-invariance broken: rank " + std::to_string(r) +
             " != rank 0: " + DescribeByteDiff(run.outputs[0], run.outputs[r]);
    }
  }
  for (size_t r = 0; r < p; ++r) {
    const auto& a = run.traffic[r];
    const auto& b = baseline.traffic[r];
    if (a.bytes_sent != b.bytes_sent || a.messages_sent != b.messages_sent ||
        a.collectives != b.collectives) {
      return "rank " + std::to_string(r) + " traffic drifted: sent " +
             std::to_string(a.bytes_sent) + " B / " +
             std::to_string(a.messages_sent) + " msgs vs baseline " +
             std::to_string(b.bytes_sent) + " B / " +
             std::to_string(b.messages_sent) + " msgs";
    }
  }
  return "";
}

// Baseline + its self-check; a broken baseline is itself a violation (the
// clean tree must satisfy the arithmetic reference with no controller at all).
struct Prepared {
  RunOutcome baseline;
  std::vector<std::vector<std::byte>> reference;
  std::optional<Violation> baseline_violation;
};

Prepared Prepare(Workload w, const ExploreOptions& opt) {
  Prepared prep;
  prep.baseline = RunWorkload(w, opt, nullptr);
  prep.reference = ReferenceOutputs(w, opt);
  if (!prep.baseline.error.empty()) {
    prep.baseline_violation =
        Violation{0, "baseline (unperturbed) run threw: " + prep.baseline.error, ""};
    return prep;
  }
  if (!prep.reference.empty()) {
    for (size_t r = 0; r < prep.reference.size(); ++r) {
      if (prep.baseline.outputs[r] != prep.reference[r]) {
        prep.baseline_violation = Violation{
            0,
            "baseline run diverged from arithmetic reference at rank " +
                std::to_string(r) + ": " +
                DescribeByteDiff(prep.reference[r], prep.baseline.outputs[r]),
            ""};
        return prep;
      }
    }
  }
  return prep;
}

}  // namespace

const char* ToString(Workload w) noexcept {
  switch (w) {
    case Workload::kAllReduceRing: return "all_reduce[ring]";
    case Workload::kAllReduceNaive: return "all_reduce[naive]";
    case Workload::kAllGatherBytes: return "all_gather_bytes";
    case Workload::kBroadcast: return "broadcast";
    case Workload::kBarrier: return "barrier";
    case Workload::kWfbpStep: return "wfbp_step";
    case Workload::kOptimizerStep: return "optimizer_step";
    case Workload::kRejoin: return "rejoin";
  }
  return "unknown";
}

std::vector<Workload> AllCollectiveWorkloads() {
  return {Workload::kAllReduceRing, Workload::kAllReduceNaive,
          Workload::kAllGatherBytes, Workload::kBroadcast, Workload::kBarrier};
}

std::string ExploreReport::Summary() const {
  std::ostringstream oss;
  oss << ToString(workload) << ": " << schedules_run << " schedules, "
      << windows << " hand-off windows";
  if (enforcement_misses > 0)
    oss << ", " << enforcement_misses << " enforcement misses";
  if (violations.empty()) {
    oss << ", no violations";
  } else {
    oss << ", " << violations.size() << " VIOLATION(S):";
    for (const auto& v : violations) {
      oss << "\n  seed=" << v.seed << ": " << v.what;
      if (!v.schedule.empty()) oss << "\n  schedule tail:\n" << v.schedule;
    }
  }
  return oss.str();
}

ExploreReport ExplorePerturbed(Workload w, const ExploreOptions& opt) {
  ExploreReport report;
  report.workload = w;
  Prepared prep = Prepare(w, opt);
  if (prep.baseline_violation) {
    report.violations.push_back(*prep.baseline_violation);
    return report;
  }
  for (int i = 0; i < opt.runs; ++i) {
    const uint64_t seed = opt.base_seed + static_cast<uint64_t>(i);
    ScheduleConfig cfg;
    cfg.seed = seed;
    cfg.world_size = opt.world_size;
    cfg.perturb_prob = opt.perturb_prob;
    cfg.fault = opt.fault;
    ScheduleController controller(cfg);
    const RunOutcome run = RunWorkload(w, opt, &controller);
    ++report.schedules_run;
    if (i == 0) report.windows = controller.stats().windows;
    if (std::string what = CheckRun(prep.baseline, prep.reference, run);
        !what.empty()) {
      report.violations.push_back(Violation{seed, what, controller.Trace()});
      if (static_cast<int>(report.violations.size()) >=
          opt.max_reported_violations)
        break;
    }
  }
  return report;
}

ExploreReport ExploreExhaustive(Workload w, const ExploreOptions& opt,
                                int max_schedules) {
  ExploreReport report;
  report.workload = w;
  Prepared prep = Prepare(w, opt);
  if (prep.baseline_violation) {
    report.violations.push_back(*prep.baseline_violation);
    return report;
  }
  const int fact = Factorial(opt.world_size);
  std::vector<int> digits;  // grown to the window count after the first run
  bool first = true;
  while (report.schedules_run < max_schedules) {
    ScheduleConfig cfg;
    cfg.seed = opt.base_seed;
    cfg.world_size = opt.world_size;
    cfg.perturb_prob = 0.0;  // pure ordering — decisions are the digits
    cfg.enforce_order = true;
    cfg.order_digits = digits;
    cfg.fault = opt.fault;
    ScheduleController controller(cfg);
    const RunOutcome run = RunWorkload(w, opt, &controller);
    ++report.schedules_run;
    report.enforcement_misses += controller.stats().enforcement_misses;
    if (std::string what = CheckRun(prep.baseline, prep.reference, run);
        !what.empty()) {
      // The schedule IS the digit vector here; render it as the seed-free
      // replay handle.
      std::ostringstream sched;
      sched << "order digits:";
      for (int d : digits) sched << ' ' << d;
      sched << '\n' << controller.Trace();
      report.violations.push_back(
          Violation{opt.base_seed, what, sched.str()});
      if (static_cast<int>(report.violations.size()) >=
          opt.max_reported_violations)
        break;
    }
    if (first) {
      report.windows = controller.stats().windows;
      digits.assign(static_cast<size_t>(report.windows), 0);
      first = false;
      if (report.windows == 0) {
        report.exhaustive_complete = true;  // nothing to enumerate
        break;
      }
    }
    // Odometer step over [0, fact)^windows; wrap-around = full enumeration.
    size_t i = 0;
    while (i < digits.size() && ++digits[i] == fact) {
      digits[i] = 0;
      ++i;
    }
    if (i == digits.size()) {
      report.exhaustive_complete = true;
      break;
    }
  }
  return report;
}

ExploreReport ReplaySeed(Workload w, const ExploreOptions& opt,
                         uint64_t seed) {
  ExploreOptions single = opt;
  single.runs = 1;
  single.base_seed = seed;
  ExploreReport report = ExplorePerturbed(w, single);
  return report;
}

}  // namespace acps::check
