#include "sim/pipeline.h"

#include <algorithm>
#include <sstream>

#include "compress/powersgd.h"
#include "sim/gpu_model.h"
#include "tensor/check.h"

namespace acps::sim {

std::string MethodName(Method m) {
  switch (m) {
    case Method::kSSGD: return "S-SGD";
    case Method::kSignSGD: return "Sign-SGD";
    case Method::kTopkSGD: return "Top-k SGD";
    case Method::kPowerSGD: return "Power-SGD";
    case Method::kPowerSGDStar: return "Power-SGD*";
    case Method::kACPSGD: return "ACP-SGD";
  }
  return "?";
}

std::string SysOptName(SysOptLevel level) {
  switch (level) {
    case SysOptLevel::kNaive: return "Naive";
    case SysOptLevel::kWfbp: return "WFBP";
    case SysOptLevel::kWfbpTf: return "WFBP+TF";
  }
  return "?";
}

namespace {

using models::LayerSpec;
using models::ModelSpec;

// Trace label `prefix` + decimal `index`, e.g. "M3". Built by appending:
// GCC 12 reports a false -Wrestrict on `"M" + std::to_string(i)` at -O2.
std::string Label(const char* prefix, size_t index) {
  std::string label(prefix);
  label += std::to_string(index);
  return label;
}

// Single-resource FIFO timeline.
class Timeline {
 public:
  double Schedule(double ready, double duration) {
    const double start = std::max(cursor_, ready);
    cursor_ = start + duration;
    busy_ += duration;
    last_start_ = start;
    return cursor_;
  }
  [[nodiscard]] double cursor() const { return cursor_; }
  [[nodiscard]] double busy() const { return busy_; }
  [[nodiscard]] double last_start() const { return last_start_; }

 private:
  double cursor_ = 0.0;
  double busy_ = 0.0;
  double last_start_ = 0.0;
};

// Per-tensor derived info, in backward (gradient-ready) order.
struct TensorInfo {
  const LayerSpec* layer;
  int64_t bytes;        // uncompressed gradient bytes
  bool lowrank;         // goes through P/Q compression at this rank
  int64_t n = 0, m = 0, r = 0;
  int64_t p_bytes = 0;  // factor sizes
  int64_t q_bytes = 0;
};

struct Ctx {
  const ModelSpec& model;
  const SimConfig& cfg;
  GpuModel gpu;
  comm::CostModel net;
  std::vector<TensorInfo> tensors;  // backward order
  std::vector<double> bwd_time;     // per tensor, backward order
  double fwd_time = 0.0;
  double bp_end = 0.0;  // fwd + all backward (pure compute chain)

  void Trace(const std::string& name, const char* resource, double start,
             double end) const {
    if (cfg.trace != nullptr)
      cfg.trace->push_back(TraceEvent{name, resource, start, end});
  }
};

Ctx MakeCtx(const ModelSpec& model, const SimConfig& cfg) {
  const int batch =
      cfg.batch_size > 0 ? cfg.batch_size : model.default_batch_size;
  Ctx ctx{model, cfg, GpuModel(cfg.calib.gpu, batch),
          comm::CostModel(cfg.net, cfg.world_size), {}, {}, 0.0, 0.0};
  ctx.fwd_time = ctx.gpu.ForwardTime(model);

  double t = ctx.fwd_time;
  for (const LayerSpec* l : model.backward_order()) {
    TensorInfo info;
    info.layer = l;
    info.bytes = l->bytes();
    info.lowrank =
        l->compressible &&
        compress::LowRankWorthwhile({l->matrix_rows, l->matrix_cols},
                                    cfg.rank);
    if (info.lowrank) {
      info.n = l->matrix_rows;
      info.m = l->matrix_cols;
      info.r = compress::EffectiveRank(info.n, info.m, cfg.rank);
      info.p_bytes = info.n * info.r * 4;
      info.q_bytes = info.m * info.r * 4;
    }
    ctx.tensors.push_back(info);
    const double bt = ctx.gpu.BackwardTime(*l);
    ctx.bwd_time.push_back(bt);
    t += bt;
  }
  ctx.bp_end = t;
  return ctx;
}

// Gradient-ready times under the pure BP chain (no injected work).
std::vector<double> ReadyTimes(const Ctx& ctx) {
  std::vector<double> ready(ctx.tensors.size());
  double t = ctx.fwd_time;
  for (size_t i = 0; i < ctx.tensors.size(); ++i) {
    t += ctx.bwd_time[i];
    ready[i] = t;
  }
  return ready;
}

std::vector<int64_t> GradBytes(const Ctx& ctx) {
  std::vector<int64_t> bytes;
  bytes.reserve(ctx.tensors.size());
  for (const auto& t : ctx.tensors) bytes.push_back(t.bytes);
  return bytes;
}

Breakdown FinishBreakdown(const Ctx& ctx, double total, double compress_busy) {
  Breakdown b;
  b.fwdbwd_s = ctx.bp_end;
  b.compress_s = compress_busy;
  b.total_s = total;
  b.comm_exposed_s = std::max(0.0, total - ctx.bp_end - compress_busy);
  return b;
}

// ---------------------------------------------------------------------------
// S-SGD
// ---------------------------------------------------------------------------

Breakdown SimulateSSGD(const Ctx& ctx) {
  const auto ready = ReadyTimes(ctx);
  const auto bytes = GradBytes(ctx);
  if (ctx.cfg.trace != nullptr) {
    for (size_t i = 0; i < ctx.tensors.size(); ++i)
      ctx.Trace(Label("M", i), "compute", ready[i] - ctx.bwd_time[i], ready[i]);
  }
  const bool overlap = ctx.cfg.sysopt != SysOptLevel::kNaive;
  const int64_t buffer = ctx.cfg.sysopt == SysOptLevel::kWfbpTf
                             ? ctx.cfg.buffer_bytes
                             : 0;  // 0 => one bucket per tensor
  const auto buckets = fusion::AssignBuckets(bytes, buffer);

  Timeline comm;
  double total = ctx.bp_end;
  for (const auto& bucket : buckets) {
    const double bucket_ready = overlap ? ready[static_cast<size_t>(
                                              bucket.back())]
                                        : ctx.bp_end;
    const int64_t bucket_bytes = fusion::BucketBytes(bucket, bytes);
    const double end = comm.Schedule(
        bucket_ready, ctx.net.AllReduce(static_cast<double>(bucket_bytes)));
    ctx.Trace("A[" + std::to_string(bucket.front()) + ".." +
                  std::to_string(bucket.back()) + "]",
              "comm", comm.last_start(), end);
    total = std::max(total, end);
  }
  return FinishBreakdown(ctx, total, 0.0);
}

// ---------------------------------------------------------------------------
// Sign-SGD / Top-k SGD: pack all gradients after BP, compress once,
// all-gather, decompress (the best-performing published configuration —
// §III-A "gradients are packed together").
// ---------------------------------------------------------------------------

Breakdown SimulateSign(const Ctx& ctx) {
  const auto n = static_cast<double>(ctx.model.total_params());
  const auto& q = ctx.cfg.calib.quant;
  const double num_tensors = static_cast<double>(ctx.tensors.size());
  const double p = ctx.cfg.world_size;

  const double pack = num_tensors * q.sign_per_tensor_s +
                      n * q.sign_pack_ns_per_elem * 1e-9;
  const double gather_bytes = n / 8.0 + 16.0;
  const double comm = ctx.net.AllGather(gather_bytes);
  const double vote = n * p * q.sign_vote_ns_per_elem_per_worker * 1e-9;

  const double total = ctx.bp_end + pack + comm + vote;
  Breakdown b = FinishBreakdown(ctx, total, pack + vote);
  return b;
}

Breakdown SimulateTopk(const Ctx& ctx) {
  const auto n = static_cast<double>(ctx.model.total_params());
  const auto& q = ctx.cfg.calib.quant;
  const double num_tensors = static_cast<double>(ctx.tensors.size());
  const double p = ctx.cfg.world_size;
  const double k = std::max(1.0, n * ctx.cfg.topk_ratio);

  const double select = num_tensors * q.topk_per_tensor_s +
                        n * q.topk_select_ns_per_elem * 1e-9;
  const double gather_bytes = k * 8.0 + 16.0;  // (uint32 idx, fp32 val)
  const double comm = ctx.net.AllGather(gather_bytes);
  const double scatter = p * k * q.topk_scatter_ns_per_record * 1e-9;

  const double total = ctx.bp_end + select + comm + scatter;
  return FinishBreakdown(ctx, total, select + scatter);
}

// ---------------------------------------------------------------------------
// Power-SGD (original implementation): pack gradients after BP, run both
// power-iteration phases with two fused all-reduces, unpack. No overlap.
// ---------------------------------------------------------------------------

Breakdown SimulatePowerSgd(const Ctx& ctx) {
  double compress = 0.0;
  int64_t p_total = 0, q_total = 0, dense_total = 0;
  for (const auto& t : ctx.tensors) {
    if (t.lowrank) {
      compress += ctx.gpu.PowerSgdPhasePCost(t.n, t.m, t.r).total();
      compress += ctx.gpu.PowerSgdPhaseQCost(t.n, t.m, t.r).total();
      compress += ctx.gpu.ReconstructCost(t.n, t.m, t.r).total();
      // The original implementation loops matmul/qr per matrix in Python.
      compress += ctx.cfg.calib.gpu.powersgd_dispatch_s;
      p_total += t.p_bytes;
      q_total += t.q_bytes;
    } else {
      dense_total += t.bytes;
    }
  }
  // Pack/unpack of the full gradient into the compression workspace
  // (vogels' batched implementation): two passes over all bytes.
  compress += ctx.gpu.MemSeconds(
      2.0 * 4.0 * static_cast<double>(ctx.model.total_params()));

  const double comm = ctx.net.AllReduce(static_cast<double>(p_total)) +
                      ctx.net.AllReduce(static_cast<double>(q_total)) +
                      ctx.net.AllReduce(static_cast<double>(dense_total));
  const double total = ctx.bp_end + compress + comm;
  return FinishBreakdown(ctx, total, compress);
}

// ---------------------------------------------------------------------------
// Power-SGD* — Power-SGD on the WFBP(+TF) communication hook. Compression
// runs on a side stream concurrently with BP: the FLOP-bound part of any
// compression kernel executed before BP finishes is inflated by the
// interference factor (and symmetrically delays BP, which the serialized
// compute queue captures).
// ---------------------------------------------------------------------------

struct SideTask {
  double ready;
  double interferable_s;
  double launch_s;
  int bucket;
  enum class Kind { kComputeQ, kReconstruct } kind;
};

Breakdown SimulatePowerSgdStar(const Ctx& ctx) {
  if (ctx.cfg.sysopt == SysOptLevel::kNaive) {
    // Without WFBP/TF the hook degenerates to per-tensor sequential
    // compress→AR(P)→compute-Q→AR(Q)→reconstruct after BP.
    double t = ctx.bp_end;
    double compress = 0.0;
    for (const auto& ti : ctx.tensors) {
      if (ti.lowrank) {
        const double cp = ctx.gpu.PowerSgdPhasePCost(ti.n, ti.m, ti.r).total();
        const double cq = ctx.gpu.PowerSgdPhaseQCost(ti.n, ti.m, ti.r).total();
        const double cr = ctx.gpu.ReconstructCost(ti.n, ti.m, ti.r).total();
        t += cp + ctx.net.AllReduce(static_cast<double>(ti.p_bytes)) + cq +
             ctx.net.AllReduce(static_cast<double>(ti.q_bytes)) + cr;
        compress += cp + cq + cr;
      } else {
        t += ctx.net.AllReduce(static_cast<double>(ti.bytes));
      }
    }
    return FinishBreakdown(ctx, t, compress);
  }

  const auto ready = ReadyTimes(ctx);
  const auto bytes = GradBytes(ctx);
  const int64_t buffer = ctx.cfg.sysopt == SysOptLevel::kWfbpTf
                             ? ctx.cfg.buffer_bytes
                             : 0;
  const auto buckets = fusion::AssignBuckets(bytes, buffer);
  const double gamma = ctx.cfg.calib.gpu.interference_factor;

  // Map: bucket index -> index of its last tensor.
  std::vector<int> bucket_of_tensor(ctx.tensors.size(), -1);
  for (size_t b = 0; b < buckets.size(); ++b)
    for (int i : buckets[b]) bucket_of_tensor[static_cast<size_t>(i)] =
        static_cast<int>(b);

  // Pre-compute per-bucket aggregate costs and factor/dense bytes. The hook
  // batches the per-matrix ops of one bucket (so orth_extra is paid once per
  // bucket phase) but pays a per-bucket buffer-management cost, which is
  // memory-bound and therefore interferable.
  struct BucketCost {
    LowRankKernelCost phase_p, phase_q, recon;
    int64_t p_bytes = 0, q_bytes = 0, dense_bytes = 0;
  };
  const double hook = ctx.cfg.calib.gpu.hook_per_bucket_s;
  std::vector<BucketCost> bc(buckets.size());
  for (size_t b = 0; b < buckets.size(); ++b) {
    bool any_lowrank = false;
    for (int i : buckets[b]) {
      const auto& ti = ctx.tensors[static_cast<size_t>(i)];
      if (ti.lowrank) {
        any_lowrank = true;
        bc[b].phase_p += ctx.gpu.PowerSgdPhasePCost(ti.n, ti.m, ti.r);
        bc[b].phase_q += ctx.gpu.PowerSgdPhaseQCost(ti.n, ti.m, ti.r);
        bc[b].recon += ctx.gpu.ReconstructCost(ti.n, ti.m, ti.r);
        bc[b].p_bytes += ti.p_bytes;
        bc[b].q_bytes += ti.q_bytes;
      } else {
        bc[b].dense_bytes += ti.bytes;
      }
    }
    if (any_lowrank) bc[b].phase_p.interferable_s += hook;
  }

  Timeline comm;
  std::vector<SideTask> side;
  double t_c = ctx.fwd_time;
  double compress_busy = 0.0;
  double total = 0.0;

  auto run_side_task = [&](const SideTask& st, bool before_bp_end) {
    const double inflate = before_bp_end ? gamma : 1.0;
    const double dur = st.interferable_s * inflate + st.launch_s;
    t_c = std::max(t_c, st.ready) + dur;
    compress_busy += dur;
    const auto& cost = bc[static_cast<size_t>(st.bucket)];
    if (st.kind == SideTask::Kind::kComputeQ) {
      const double end = comm.Schedule(
          t_c, ctx.net.AllReduce(static_cast<double>(cost.q_bytes)));
      total = std::max(total, end);
      side.push_back(SideTask{end, cost.recon.interferable_s,
                              cost.recon.launch_s, st.bucket,
                              SideTask::Kind::kReconstruct});
    }
  };

  // --- BP phase: interleave compression with backward layers.
  for (size_t i = 0; i < ctx.tensors.size(); ++i) {
    // Side tasks whose dependency completed run between layers (inflated).
    for (;;) {
      auto it = std::min_element(
          side.begin(), side.end(),
          [](const SideTask& a, const SideTask& b) { return a.ready < b.ready; });
      if (it == side.end() || it->ready > t_c) break;
      SideTask st = *it;
      side.erase(it);
      run_side_task(st, /*before_bp_end=*/true);
    }
    t_c += ctx.bwd_time[i];
    const int b = bucket_of_tensor[i];
    if (b >= 0 && buckets[static_cast<size_t>(b)].back() ==
                      static_cast<int>(i)) {
      const auto& cost = bc[static_cast<size_t>(b)];
      // Compress phase P for the completed bucket (side stream, inflated).
      const double dur =
          cost.phase_p.interferable_s * gamma + cost.phase_p.launch_s;
      t_c += dur;
      compress_busy += dur;
      if (cost.p_bytes > 0) {
        const double end = comm.Schedule(
            t_c, ctx.net.AllReduce(static_cast<double>(cost.p_bytes)));
        total = std::max(total, end);
        side.push_back(SideTask{end, cost.phase_q.interferable_s,
                                cost.phase_q.launch_s, b,
                                SideTask::Kind::kComputeQ});
      }
      if (cost.dense_bytes > 0) {
        const double end = comm.Schedule(
            t_c, ctx.net.AllReduce(static_cast<double>(cost.dense_bytes)));
        total = std::max(total, end);
      }
    }
  }

  // --- Drain: remaining side tasks after BP (no interference).
  while (!side.empty()) {
    auto it = std::min_element(
        side.begin(), side.end(),
        [](const SideTask& a, const SideTask& b) { return a.ready < b.ready; });
    SideTask st = *it;
    side.erase(it);
    run_side_task(st, /*before_bp_end=*/false);
  }

  total = std::max({total, t_c, comm.cursor()});
  return FinishBreakdown(ctx, total, compress_busy);
}

// ---------------------------------------------------------------------------
// ACP-SGD: compression runs inline on the compute stream right after each
// layer's backward (no side-stream interference by construction); the single
// factor all-reduce per bucket is non-blocking; buckets use the scaled
// compressed buffer size (paper §IV-B).
// ---------------------------------------------------------------------------

Breakdown SimulateAcp(const Ctx& ctx) {
  const bool p_step = ctx.cfg.acp_parity % 2 == 1;

  // Per-tensor compression cost and communicated factor bytes.
  std::vector<double> comp_cost(ctx.tensors.size(), 0.0);
  std::vector<double> recon_cost(ctx.tensors.size(), 0.0);
  std::vector<int64_t> factor_bytes(ctx.tensors.size(), 0);
  int64_t factor_total = 0, grad_total = 0;
  for (size_t i = 0; i < ctx.tensors.size(); ++i) {
    const auto& ti = ctx.tensors[i];
    grad_total += ti.bytes;
    if (ti.lowrank) {
      comp_cost[i] = ctx.gpu.AcpCompressCost(ti.n, ti.m, ti.r).total();
      recon_cost[i] = ctx.gpu.ReconstructCost(ti.n, ti.m, ti.r).total();
      factor_bytes[i] = p_step ? ti.p_bytes : ti.q_bytes;
      factor_total += factor_bytes[i];
    }
  }

  double compress_busy = 0.0;

  if (ctx.cfg.sysopt == SysOptLevel::kNaive) {
    double t = ctx.bp_end;
    for (size_t i = 0; i < ctx.tensors.size(); ++i) {
      const auto& ti = ctx.tensors[i];
      if (ti.lowrank) {
        t += comp_cost[i];
        t += ctx.net.AllReduce(static_cast<double>(factor_bytes[i]));
        t += recon_cost[i];
        compress_busy += comp_cost[i] + recon_cost[i];
      } else {
        t += ctx.net.AllReduce(static_cast<double>(ti.bytes));
      }
    }
    return FinishBreakdown(ctx, t, compress_busy);
  }

  // Bucket the compressed factors with the scaled budget, dense tensors
  // with the default budget. Bucketing is in ready order within each class.
  const bool fuse = ctx.cfg.sysopt == SysOptLevel::kWfbpTf;
  const int64_t factor_budget =
      fuse ? fusion::ScaledBufferBytes(ctx.cfg.buffer_bytes, factor_total,
                                       grad_total)
           : 0;
  const int64_t dense_budget = fuse ? ctx.cfg.buffer_bytes : 0;

  std::vector<int> lowrank_ids, dense_ids;  // tensor indices per class
  std::vector<int64_t> lowrank_bytes, dense_bytes;
  for (size_t i = 0; i < ctx.tensors.size(); ++i) {
    if (ctx.tensors[i].lowrank) {
      lowrank_ids.push_back(static_cast<int>(i));
      lowrank_bytes.push_back(factor_bytes[i]);
    } else {
      dense_ids.push_back(static_cast<int>(i));
      dense_bytes.push_back(ctx.tensors[i].bytes);
    }
  }
  const auto factor_buckets = fusion::AssignBuckets(lowrank_bytes, factor_budget);
  const auto dense_buckets = fusion::AssignBuckets(dense_bytes, dense_budget);

  // last tensor index (in global bwd order) per bucket, to know readiness.
  std::vector<int> factor_bucket_of(ctx.tensors.size(), -1);
  for (size_t b = 0; b < factor_buckets.size(); ++b)
    for (int j : factor_buckets[b])
      factor_bucket_of[static_cast<size_t>(lowrank_ids[static_cast<size_t>(j)])] =
          static_cast<int>(b);
  std::vector<int> dense_bucket_of(ctx.tensors.size(), -1);
  for (size_t b = 0; b < dense_buckets.size(); ++b)
    for (int j : dense_buckets[b])
      dense_bucket_of[static_cast<size_t>(dense_ids[static_cast<size_t>(j)])] =
          static_cast<int>(b);

  Timeline comm;
  double t_c = ctx.fwd_time;
  double total = 0.0;
  struct Recon {
    double ready;
    double cost;
  };
  std::vector<Recon> recons;

  for (size_t i = 0; i < ctx.tensors.size(); ++i) {
    t_c += ctx.bwd_time[i];
    ctx.Trace(Label("M", i), "compute", t_c - ctx.bwd_time[i], t_c);
    const auto& ti = ctx.tensors[i];
    if (ti.lowrank) {
      t_c += comp_cost[i];
      compress_busy += comp_cost[i];
      ctx.Trace(Label(p_step ? "P" : "Q", i), "compute",
                t_c - comp_cost[i], t_c);
      const int b = factor_bucket_of[i];
      if (factor_buckets[static_cast<size_t>(b)].back() ==
          static_cast<int>(std::find(lowrank_ids.begin(), lowrank_ids.end(),
                                     static_cast<int>(i)) -
                           lowrank_ids.begin())) {
        const int64_t bb = fusion::BucketBytes(
            factor_buckets[static_cast<size_t>(b)], lowrank_bytes);
        const double end =
            comm.Schedule(t_c, ctx.net.AllReduce(static_cast<double>(bb)));
        ctx.Trace((p_step ? std::string("AP") : std::string("AQ")) +
                      std::to_string(b),
                  "comm", comm.last_start(), end);
        total = std::max(total, end);
        double rc = 0.0;
        for (int j : factor_buckets[static_cast<size_t>(b)])
          rc += recon_cost[static_cast<size_t>(
              lowrank_ids[static_cast<size_t>(j)])];
        recons.push_back(Recon{end, rc});
      }
    } else {
      const int b = dense_bucket_of[i];
      if (dense_buckets[static_cast<size_t>(b)].back() ==
          static_cast<int>(std::find(dense_ids.begin(), dense_ids.end(),
                                     static_cast<int>(i)) -
                           dense_ids.begin())) {
        const int64_t bb = fusion::BucketBytes(
            dense_buckets[static_cast<size_t>(b)], dense_bytes);
        const double end =
            comm.Schedule(t_c, ctx.net.AllReduce(static_cast<double>(bb)));
        total = std::max(total, end);
      }
    }
  }

  // Decompression after each factor bucket's all-reduce.
  std::sort(recons.begin(), recons.end(),
            [](const Recon& a, const Recon& b) { return a.ready < b.ready; });
  for (const auto& r : recons) {
    t_c = std::max(t_c, r.ready) + r.cost;
    compress_busy += r.cost;
  }

  total = std::max({total, t_c, comm.cursor()});
  return FinishBreakdown(ctx, total, compress_busy);
}

}  // namespace

Breakdown SimulateIteration(const ModelSpec& model, const SimConfig& config) {
  ACPS_CHECK_MSG(config.world_size >= 1, "world_size must be >= 1");
  const Ctx ctx = MakeCtx(model, config);
  switch (config.method) {
    case Method::kSSGD: return SimulateSSGD(ctx);
    case Method::kSignSGD: return SimulateSign(ctx);
    case Method::kTopkSGD: return SimulateTopk(ctx);
    case Method::kPowerSGD: return SimulatePowerSgd(ctx);
    case Method::kPowerSGDStar: return SimulatePowerSgdStar(ctx);
    case Method::kACPSGD: return SimulateAcp(ctx);
  }
  ACPS_FAIL_MSG("unknown method");
}

Breakdown SimulateIterationAvg(const ModelSpec& model,
                               const SimConfig& config) {
  if (config.method != Method::kACPSGD) return SimulateIteration(model, config);
  SimConfig odd = config;
  odd.acp_parity = 1;
  SimConfig even = config;
  even.acp_parity = 0;
  const Breakdown a = SimulateIteration(model, odd);
  const Breakdown b = SimulateIteration(model, even);
  Breakdown avg;
  avg.fwdbwd_s = 0.5 * (a.fwdbwd_s + b.fwdbwd_s);
  avg.compress_s = 0.5 * (a.compress_s + b.compress_s);
  avg.comm_exposed_s = 0.5 * (a.comm_exposed_s + b.comm_exposed_s);
  avg.total_s = 0.5 * (a.total_s + b.total_s);
  return avg;
}

}  // namespace acps::sim
