#include "fault/churn.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "comm/communicator.h"
#include "core/distributed_optimizer.h"
#include "core/grad_reducer.h"
#include "tensor/check.h"

namespace acps::fault {
namespace {

// Deterministic gradients, same scheme as the chaos trainer: multiples of
// 0.25 keep exact-arithmetic parts exactly representable.
float GradValue(int rank, int64_t i, uint64_t step) {
  return static_cast<float>(
             ((i * 7 + rank * 13 + static_cast<int64_t>(step) * 29) % 19) -
             9) *
         0.25f;
}

// Model geometry shared by every scenario.
constexpr int64_t kRowsW = 8;
constexpr int64_t kColsW = 12;
constexpr int64_t kNumelB = 10;

// kLowRank is Power-SGD, the low-rank method with persistent shared state.
enum class ChurnMethod : uint8_t { kTopkEf, kLowRank };

// The production aggregator spec of each method, indexed by ChurnMethod.
constexpr const char* kSpecs[] = {"topk:0.25", "powersgd:2"};

// One rank's commit-boundary snapshot on the harness-owned escrow board:
// the reducer's own state (the mass this rank still owes the group) and the
// conservation ledgers, rolled forward only at step boundaries so a
// mid-step crash rolls back to the last committed state.
struct EscrowSlot {
  bool valid = false;
  std::vector<std::vector<float>> own;
  std::vector<double> grad_mass;
  std::vector<double> recon_mass;
};

struct ScenarioSpec {
  ChurnMethod method = ChurnMethod::kTopkEf;
  int world_size = 3;
  int capacity = 3;
  int steps = 6;
  std::vector<MembershipEvent> events;
  // Expectations for classification.
  std::vector<int> expect_crashed;     // crash order, repeats allowed
  std::vector<int> expect_departed;    // commit order
  std::vector<int> expect_finished;    // slots alive at the end (sorted)
  std::vector<int> expect_generation;  // per finished slot, join count
  bool join_only = false;  // no crash/leave events (injected() stays 0)
  bool envelope = false;   // kSoak: compare vs fault-free baseline
};

void AppendFloats(std::vector<std::byte>& slot, std::span<const float> v) {
  const size_t old = slot.size();
  slot.resize(old + v.size() * sizeof(float));
  std::memcpy(slot.data() + old, v.data(), v.size() * sizeof(float));
}

// The elastic training body run by every rank (and every readmitted
// generation of a rank). One membership commit per training step; resync
// after every commit that admitted ranks (see churn.h file comment).
void ElasticBody(const ScenarioSpec& spec, std::vector<EscrowSlot>& board,
                 ChurnRun& run, comm::Communicator& comm) {
  const int r = comm.rank();
  const auto steps_total = static_cast<uint64_t>(spec.steps);
  EscrowSlot& escrow = board[static_cast<size_t>(r)];

  // Identical deterministic init on every rank (and every generation — a
  // joiner's replica is overwritten by the donor broadcast before use).
  dnn::Param w{"w", Tensor({kRowsW, kColsW}), Tensor({kRowsW, kColsW}),
               kRowsW, kColsW};
  dnn::Param b{"b", Tensor({kNumelB}), Tensor({kNumelB})};
  const std::vector<dnn::Param*> params = {&w, &b};
  {
    int64_t i = 0;
    for (dnn::Param* p : params)
      for (float& v : p->value.data())
        v = static_cast<float>(((i++ * 3 + 5) % 11) - 5) * 0.5f;
  }

  std::unique_ptr<core::GradientAggregator> aggregator =
      core::MakeAggregatorFactory(kSpecs[static_cast<size_t>(spec.method)])(
          r, comm.world_size());
  auto& reducer = dynamic_cast<core::GradReducer&>(*aggregator);
  const core::GradReducer::State view = reducer.state(params);
  // The 8x12 weight is the one low-rank tensor, as in the chaos trainer.
  const bool lowrank = spec.method == ChurnMethod::kLowRank;
  ACPS_CHECK_MSG(reducer.num_lowrank() == (lowrank ? 1u : 0u),
                 reducer.name() << " compressed " << reducer.num_lowrank()
                                << " tensors low-rank");
  core::DistributedOptimizer optimizer(
      params, std::move(aggregator),
      dnn::LrSchedule{0.1f, /*warmup_epochs=*/0, {}, 1.0f},
      /*momentum=*/0.0f);

  // Top-k's packed EF residual is the one own buffer; its ledgers track
  // per element the mass fed in and the mass this rank's blob carried out.
  const bool ledger = spec.method == ChurnMethod::kTopkEf;
  std::vector<double> grad_mass;
  std::vector<double> recon_mass;
  if (ledger) {
    grad_mass.assign(view.own[0].size(), 0.0);
    recon_mass.assign(grad_mass.size(), 0.0);
  }

  uint64_t step = 0;

  // Post-commit resync. Runs on EVERY alive rank of the committed view;
  // when the commit admitted ranks, comm::ResyncJoiners moves the donor's
  // model, step counter and the reducer's shared state (Power-SGD's Q) in
  // one broadcast. The shared state is identical on every survivor, so the
  // broadcast only syncs the joiner.
  std::vector<std::span<float>> resync = {w.value.data(), b.value.data()};
  resync.insert(resync.end(), view.shared.begin(), view.shared.end());
  const auto handle_transition = [&](const comm::detail::ViewTransition& t) {
    comm::ResyncJoiners(comm, t, resync, step);
    if (std::find(t.joined.begin(), t.joined.end(), r) == t.joined.end())
      return;
    // Joiner-local state: a REJOINER restores its escrowed own state and
    // ledgers (rolled back to its last committed step — the mass it still
    // owes the group); a FRESH joiner keeps zeros.
    if (!escrow.valid) return;
    for (size_t i = 0; i < view.own.size(); ++i)
      std::copy(escrow.own[i].begin(), escrow.own[i].end(),
                view.own[i].begin());
    grad_mass = escrow.grad_mass;
    recon_mass = escrow.recon_mass;
  };

  // A readmitted (or freshly admitted) generation starts mid-commit: it
  // was brought in at the admitting commit's closing barrier, and its
  // first collectives are the resync broadcasts the survivors are about
  // to issue.
  if (comm.join_generation() > 0) handle_transition(comm.last_transition());

  std::vector<float> packed;
  std::vector<float> before;
  while (step < steps_total) {
    {
      int64_t i = 0;
      for (dnn::Param* p : params)
        for (float& gv : p->grad.data()) gv = GradValue(r, i++, step);
    }
    if (ledger) {
      // This rank's gradient in the packed bucket's layout (gradient-ready,
      // i.e. reverse param, order) and the residual it adds in.
      packed.clear();
      for (auto p = params.rbegin(); p != params.rend(); ++p)
        packed.insert(packed.end(), (*p)->grad.data().begin(),
                      (*p)->grad.data().end());
      before.assign(view.own[0].begin(), view.own[0].end());
    }
    optimizer.Step(comm, /*epoch=*/0.0);
    if (ledger) {
      // EF: own_after = grad + own_before - reconstruction.
      const std::span<const float> after = view.own[0];
      for (size_t j = 0; j < packed.size(); ++j) {
        grad_mass[j] += static_cast<double>(packed[j]);
        recon_mass[j] += static_cast<double>(packed[j]) +
                         static_cast<double>(before[j]) -
                         static_cast<double>(after[j]);
      }
    }
    ++step;

    // Escrow the committed state BEFORE the commit: a crash inside any of
    // the next step's collectives (or the commit entry itself) rolls this
    // rank back exactly here.
    escrow.own.resize(view.own.size());
    for (size_t i = 0; i < view.own.size(); ++i)
      escrow.own[i].assign(view.own[i].begin(), view.own[i].end());
    escrow.grad_mass = grad_mass;
    escrow.recon_mass = recon_mass;
    escrow.valid = true;

    // Barrier-aligned membership commit: the only point where ranks join
    // or leave. Throws RankDeparted on a scheduled graceful departure.
    const auto t = comm.commit_view();
    handle_transition(t);
  }

  auto& out = run.outputs[static_cast<size_t>(r)];
  out.clear();
  AppendFloats(out, w.value.data());
  AppendFloats(out, b.value.data());
  run.finished[static_cast<size_t>(r)] = 1;
  run.generation[static_cast<size_t>(r)] = comm.join_generation();
  if (ledger) {
    // Telescoping invariant across the whole churn history:
    // sum(grad) == sum(reconstruction) + residual, per element.
    double gap = 0.0;
    for (size_t j = 0; j < grad_mass.size(); ++j)
      gap = std::max(gap, std::abs(grad_mass[j] - recon_mass[j] -
                                   static_cast<double>(view.own[0][j])));
    run.ef_gap[static_cast<size_t>(r)] = gap;
  }
}

// Runs `spec` on a fresh elastic session with `injector` attached (nullptr
// runs fault-free).
ChurnRun RunElastic(const ScenarioSpec& spec, FaultInjector* injector) {
  const auto cap = static_cast<size_t>(spec.capacity);
  ChurnRun run;
  run.outputs.assign(cap, {});
  run.finished.assign(cap, 0);
  run.generation.assign(cap, 0);
  run.ef_gap.assign(cap, 0.0);
  // Escrow board: one slot per capacity rank, written only by the owning
  // rank's thread; the main thread reads it after Session::Run joins.
  std::vector<EscrowSlot> board(cap);

  comm::Transport transport;
  comm::SessionOptions sopt;
  sopt.max_world_size = spec.capacity;
  comm::Session session(transport, "churn", spec.world_size, sopt);
  session.set_fault_injector(injector);
  try {
    session.Run([&](comm::Communicator& comm) {
      ElasticBody(spec, board, run, comm);
    });
  } catch (const DetectedError& e) {
    run.error = e.what();
    run.detected = true;
  } catch (const std::exception& e) {
    run.error = e.what();
  }
  run.crashed = session.crashed_ranks();
  run.departed = session.departed_ranks();
  run.epoch = session.membership_epoch();
  return run;
}

// -----------------------------------------------------------------------
// Scenario schedules. Collective-entry indexes below are GLOBAL lockstep
// counts (every alive rank's per-rank index equals the group's, and a
// rejoiner resumes from the group's snapshot). A Top-k step costs 2
// entries (the packed bucket's all-gather + the commit). A Power-SGD step
// costs 4: the reducer's hooks fire in reverse param order, so the bias
// all-reduce comes first, then the P and Q all-reduces, then the commit.
// A resync after a joining commit adds 1 broadcast for every method.
// -----------------------------------------------------------------------
ScenarioSpec SpecFor(ChurnScenario s, const ChurnOptions& opt) {
  using Kind = MembershipEvent::Kind;
  ScenarioSpec spec;
  spec.world_size = opt.world_size;
  spec.capacity = opt.world_size;
  spec.steps = std::max(opt.steps, 6);
  const int last = opt.world_size - 1;  // default victim, like chaos
  const auto everyone = [&spec] {
    std::vector<int> all;
    for (int i = 0; i < spec.capacity; ++i) all.push_back(i);
    return all;
  };
  switch (s) {
    case ChurnScenario::kCrashRejoin:
      // Dies at step 2's all-gather (entry 3), readmitted at the next
      // commit.
      spec.events = {{Kind::kCrash, last, 3}, {Kind::kRejoin, last, 1}};
      spec.expect_crashed = {last};
      spec.expect_finished = everyone();
      spec.expect_generation.assign(static_cast<size_t>(spec.capacity), 0);
      spec.expect_generation[static_cast<size_t>(last)] = 1;
      break;
    case ChurnScenario::kRepeatedCrashRejoin:
      // First crash at step 2's all-gather (entry 3) → readmitted at
      // commit 2 (entry 4), resync 5, step 3 = 6,7, step 4 = 8,9; second
      // crash at step 4's all-gather (entry 8) → readmitted at commit 4.
      spec.events = {{Kind::kCrash, last, 3},
                     {Kind::kRejoin, last, 1},
                     {Kind::kCrash, last, 8},
                     {Kind::kRejoin, last, 1}};
      spec.expect_crashed = {last, last};
      spec.expect_finished = everyone();
      spec.expect_generation.assign(static_cast<size_t>(spec.capacity), 0);
      spec.expect_generation[static_cast<size_t>(last)] = 2;
      break;
    case ChurnScenario::kFreshJoin:
      // A latent capacity slot joins at commit 3, mid-run.
      spec.capacity = opt.world_size + 1;
      spec.events = {{Kind::kJoin, opt.world_size, 3}};
      spec.expect_finished = everyone();
      spec.expect_generation.assign(static_cast<size_t>(spec.capacity), 0);
      spec.expect_generation[static_cast<size_t>(opt.world_size)] = 1;
      spec.join_only = true;
      break;
    case ChurnScenario::kGracefulLeave:
      spec.events = {{Kind::kLeave, 1, 3}};
      spec.expect_departed = {1};
      for (int i = 0; i < spec.capacity; ++i)
        if (i != 1) spec.expect_finished.push_back(i);
      spec.expect_generation.assign(static_cast<size_t>(spec.capacity), 0);
      break;
    case ChurnScenario::kJoinDuringCollective:
      // The intent is eligible from commit 1 and pending the whole time
      // step 1's collectives are in flight; admission must still land at
      // the barrier-aligned commit, never mid-collective.
      spec.capacity = opt.world_size + 1;
      spec.events = {{Kind::kJoin, opt.world_size, 1}};
      spec.expect_finished = everyone();
      spec.expect_generation.assign(static_cast<size_t>(spec.capacity), 0);
      spec.expect_generation[static_cast<size_t>(opt.world_size)] = 1;
      spec.join_only = true;
      break;
    case ChurnScenario::kLowRankRejoin:
      // Dies at step 2's Q all-reduce (entry 7 of the 4-entry Power-SGD
      // steps: bias 5, P 6, Q 7), readmitted at the next commit; the
      // donor's Q rides the resync broadcast.
      spec.method = ChurnMethod::kLowRank;
      spec.events = {{Kind::kCrash, last, 7}, {Kind::kRejoin, last, 1}};
      spec.expect_crashed = {last};
      spec.expect_finished = everyone();
      spec.expect_generation.assign(static_cast<size_t>(spec.capacity), 0);
      spec.expect_generation[static_cast<size_t>(last)] = 1;
      break;
    case ChurnScenario::kSoak:
      // Long horizon, every event kind, including a commit that admits a
      // rejoiner and loses a leaver at once (commit 6): fresh join at
      // commit 2, crash r2 at step 2's all-gather (entry 3, readmitted
      // alongside the joiner at commit 2 = entry 4, resync 5), graceful
      // leave of r1 at commit 6, second crash of r2 at step 6's all-gather
      // (steps 3-5 = entries 6-11, so entry 12; readmitted at commit 6).
      spec.capacity = opt.world_size + 1;
      spec.steps = std::max(opt.steps * 2, 12);
      spec.events = {{Kind::kJoin, opt.world_size, 2},
                     {Kind::kCrash, 2, 3},
                     {Kind::kRejoin, 2, 1},
                     {Kind::kLeave, 1, 6},
                     {Kind::kCrash, 2, 12},
                     {Kind::kRejoin, 2, 1}};
      spec.expect_crashed = {2, 2};
      spec.expect_departed = {1};
      for (int i = 0; i < spec.capacity; ++i)
        if (i != 1) spec.expect_finished.push_back(i);
      spec.expect_generation.assign(static_cast<size_t>(spec.capacity), 0);
      spec.expect_generation[2] = 2;
      spec.expect_generation[static_cast<size_t>(opt.world_size)] = 1;
      spec.envelope = true;
      break;
  }
  return spec;
}

std::string JoinInts(const std::vector<int>& v) {
  std::ostringstream oss;
  for (size_t i = 0; i < v.size(); ++i) oss << (i != 0 ? "," : "") << v[i];
  return oss.str();
}

// Empty when the runs are byte-identical; otherwise names the first field
// that differs (the replay-gate failure message).
std::string DiffRuns(const ChurnRun& a, const ChurnRun& b) {
  if (a.outputs != b.outputs) {
    for (size_t i = 0; i < a.outputs.size(); ++i)
      if (a.outputs[i] != b.outputs[i])
        return "model bytes of rank " + std::to_string(i);
    return "model bytes";
  }
  if (a.finished != b.finished) return "finished set";
  if (a.generation != b.generation) return "join generations";
  if (a.crashed != b.crashed) return "crash record";
  if (a.departed != b.departed) return "departure record";
  if (a.epoch != b.epoch)
    return "epoch (" + std::to_string(a.epoch) + " vs " +
           std::to_string(b.epoch) + ")";
  if (a.error != b.error)
    return "error ('" + a.error + "' vs '" + b.error + "')";
  if (a.detected != b.detected) return "detected flag";
  return {};
}

}  // namespace

const char* ToString(ChurnScenario s) noexcept {
  switch (s) {
    case ChurnScenario::kCrashRejoin: return "crash-rejoin";
    case ChurnScenario::kRepeatedCrashRejoin: return "repeated-crash-rejoin";
    case ChurnScenario::kFreshJoin: return "fresh-join";
    case ChurnScenario::kGracefulLeave: return "graceful-leave";
    case ChurnScenario::kJoinDuringCollective: return "join-during-collective";
    case ChurnScenario::kLowRankRejoin: return "powersgd-rejoin";
    case ChurnScenario::kSoak: return "soak";
  }
  return "unknown";
}

std::vector<ChurnScenario> AllChurnScenarios() {
  return {ChurnScenario::kCrashRejoin,
          ChurnScenario::kRepeatedCrashRejoin,
          ChurnScenario::kFreshJoin,
          ChurnScenario::kGracefulLeave,
          ChurnScenario::kJoinDuringCollective,
          ChurnScenario::kLowRankRejoin,
          ChurnScenario::kSoak};
}

std::string ChurnCaseResult::Summary() const {
  std::ostringstream oss;
  oss << name << ": " << ToString(outcome) << " (seed=" << seed_used << ")";
  if (!detail.empty()) oss << " — " << detail;
  return oss.str();
}

ChurnRun RunChurnWorkload(ChurnScenario scenario, const ChurnOptions& opt) {
  const ScenarioSpec spec = SpecFor(scenario, opt);
  FaultPlanConfig cfg;
  cfg.seed = opt.seed;
  cfg.membership = spec.events;
  FaultPlan plan(cfg);
  return RunElastic(spec, &plan);
}

ChurnCaseResult RunChurnScenario(ChurnScenario scenario,
                                 const ChurnOptions& opt) {
  const ScenarioSpec spec = SpecFor(scenario, opt);
  ChurnCaseResult result;
  result.name = std::string("churn x ") + ToString(scenario);
  result.seed_used = opt.seed;
  const auto fail = [&result](std::string why) {
    result.outcome = ChaosOutcome::kSilentCorruption;
    result.detail = std::move(why);
    return result;
  };

  FaultPlanConfig cfg;
  cfg.seed = opt.seed;
  cfg.membership = spec.events;

  // Replay-determinism gate: the same seeded plan twice must produce
  // byte-identical results before the case may classify at all.
  ChurnRun run;
  int64_t injected = 0;
  {
    FaultPlan plan(cfg);
    run = RunElastic(spec, &plan);
    injected = plan.injected();
  }
  {
    FaultPlan replay(cfg);
    const ChurnRun second = RunElastic(spec, &replay);
    if (const std::string diff = DiffRuns(run, second); !diff.empty())
      return fail("nondeterministic under replay: two runs of seed " +
                  std::to_string(opt.seed) + " differ in " + diff);
  }

  if (run.detected) {
    result.outcome = ChaosOutcome::kDetected;
    result.detail = run.error;
    return result;
  }
  if (!run.error.empty())
    return fail("unstructured failure: " + run.error);

  // The scenario must actually have happened: crash/leave plans must have
  // fired, and join-only plans must show the admitted generation.
  if (!spec.join_only && injected == 0) {
    result.outcome = ChaosOutcome::kNoInjection;
    result.detail = "membership plan never fired";
    return result;
  }

  // Membership records.
  if (run.crashed != spec.expect_crashed)
    return fail("crash record [" + JoinInts(run.crashed) +
                "] != expected [" + JoinInts(spec.expect_crashed) + "]");
  if (run.departed != spec.expect_departed)
    return fail("departure record [" + JoinInts(run.departed) +
                "] != expected [" + JoinInts(spec.expect_departed) + "]");
  if (run.epoch != static_cast<uint64_t>(spec.steps))
    return fail("final membership epoch " + std::to_string(run.epoch) +
                " != expected " + std::to_string(spec.steps) +
                " (one commit per step)");
  std::vector<int> finished;
  for (size_t i = 0; i < run.finished.size(); ++i)
    if (run.finished[i] != 0) finished.push_back(static_cast<int>(i));
  if (finished != spec.expect_finished)
    return fail("finished ranks [" + JoinInts(finished) + "] != expected [" +
                JoinInts(spec.expect_finished) + "]");
  for (const int f : finished) {
    if (run.generation[static_cast<size_t>(f)] !=
        spec.expect_generation[static_cast<size_t>(f)])
      return fail("rank " + std::to_string(f) + " join generation " +
                  std::to_string(run.generation[static_cast<size_t>(f)]) +
                  " != expected " +
                  std::to_string(
                      spec.expect_generation[static_cast<size_t>(f)]));
  }

  // Every finished rank must hold bitwise-identical replicas: resync plus
  // lockstep aggregation leaves no room for divergence.
  for (size_t i = 1; i < finished.size(); ++i) {
    const auto a = static_cast<size_t>(finished[0]);
    const auto bidx = static_cast<size_t>(finished[i]);
    if (run.outputs[bidx] != run.outputs[a])
      return fail("finished ranks diverged: rank " +
                  std::to_string(finished[i]) + " != rank " +
                  std::to_string(finished[0]));
  }

  // Telescoping EF-mass ledger (Top-k scenarios).
  if (spec.method == ChurnMethod::kTopkEf) {
    for (const int f : finished) {
      const double gap = run.ef_gap[static_cast<size_t>(f)];
      if (!(gap < 1e-3))
        return fail("error-feedback mass not conserved on rank " +
                    std::to_string(f) + ": gap = " + std::to_string(gap));
    }
  }

  // Soak: convergence-tolerance envelope against the fault-free
  // fixed-membership baseline — catches divergence and corruption while
  // allowing the legitimate drift churn introduces.
  if (spec.envelope) {
    ScenarioSpec base = spec;
    base.events.clear();
    base.capacity = base.world_size;
    const ChurnRun baseline = RunElastic(base, nullptr);
    if (!baseline.error.empty())
      return fail("baseline failed: " + baseline.error);
    const auto& ref = baseline.outputs[0];
    const auto& got = run.outputs[static_cast<size_t>(finished[0])];
    if (ref.size() != got.size())
      return fail("soak output size mismatch vs baseline");
    double linf = 0.0;
    for (size_t i = 0; i + sizeof(float) <= ref.size(); i += sizeof(float)) {
      float a = 0.0f;
      float g = 0.0f;
      std::memcpy(&a, ref.data() + i, sizeof(float));
      std::memcpy(&g, got.data() + i, sizeof(float));
      if (!std::isfinite(g))
        return fail("soak model contains a non-finite value");
      linf = std::max(linf, std::abs(static_cast<double>(a) -
                                     static_cast<double>(g)));
    }
    if (linf > opt.tolerance)
      return fail("soak model drifted " + std::to_string(linf) +
                  " (L-inf) from the fault-free baseline, tolerance " +
                  std::to_string(opt.tolerance));
    result.detail = "soak L-inf drift " + std::to_string(linf) +
                    " within tolerance " + std::to_string(opt.tolerance) +
                    "; ";
  }

  result.outcome = ChaosOutcome::kRecovered;
  result.detail += "membership records, replicas, epoch and ledgers "
                   "consistent after churn";
  return result;
}

}  // namespace acps::fault
