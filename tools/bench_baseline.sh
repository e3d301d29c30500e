#!/usr/bin/env bash
# Generate or check the committed kernel-bench baseline (DESIGN.md §6e).
#
#   tools/bench_baseline.sh                  # full run -> BENCH_kernels.json
#   tools/bench_baseline.sh --check          # quick run, gate vs committed
#   tools/bench_baseline.sh --check --full   # full run, gate vs committed
#
# The baseline file records, for every kernel at the paper's shapes, ns/op
# and speedup-over-naive from the median of three passes over the case list
# (each pass median-of-N samples), and the kernel-pool budget it ran at
# (1 thread). --check measures the same way and compares speedup RATIOS (not
# raw ns) at that same recorded budget, failing on a >25% drop vs the
# committed values or when an acceptance kernel falls below its floor
# (gemm_4096x4096x32 and topk_25m >= 3x, packed gemm_tb_4096x4096x32 >= 10x,
# small-k gemm_tb_recon_r4 >= 5x, small-m gemm_ta_lowrank_r4 >= 10x and
# gemm_lowrank_r4 >= 4x, the streamed reconstruction epilogues
# lowrank_subtract_{1024x4x1024,512x4x4608} >= 9x/6x and
# lowrank_split_{1024x4x1024,512x4x4608} >= 5x/4x); that makes the gate
# portable across machines of different absolute speed. Regenerate (and commit) the baseline whenever a
# kernel change intentionally shifts the ratios.
#
# Env: BUILD_DIR (default: build). ./ci.sh perf-smoke checks with
# BUILD_DIR=build-release, so generate the baseline from that tree too.
#
# Exit status: 0 ok, 1 gate failure, 2 usage/setup error.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-build}"
BASELINE="$ROOT/BENCH_kernels.json"
BIN="$ROOT/$BUILD_DIR/bench/bench_kernels"

CHECK=0
FULL=0
for arg in "$@"; do
  case "$arg" in
    --check) CHECK=1 ;;
    --full) FULL=1 ;;
    *)
      echo "usage: tools/bench_baseline.sh [--check] [--full]" >&2
      exit 2
      ;;
  esac
done

if [ ! -x "$BIN" ]; then
  echo "bench_baseline: $BIN not built — run:" >&2
  echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j --target bench_kernels" >&2
  exit 2
fi

if [ "$CHECK" -eq 1 ]; then
  if [ ! -f "$BASELINE" ]; then
    echo "bench_baseline: no committed baseline at $BASELINE — generate one" \
         "first with tools/bench_baseline.sh" >&2
    exit 2
  fi
  MODE=(--quick)
  [ "$FULL" -eq 1 ] && MODE=()
  exec "$BIN" "${MODE[@]}" --check="$BASELINE"
fi

"$BIN" --out="$BASELINE" --threads=1
echo "bench_baseline: baseline written to $BASELINE — review and commit it."
