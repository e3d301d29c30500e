#!/usr/bin/env bash
# Generate or check the committed kernel-bench baseline (DESIGN.md §6e).
#
#   tools/bench_baseline.sh                  # full run -> BENCH_kernels.json
#   tools/bench_baseline.sh --check          # quick run, gate vs committed
#   tools/bench_baseline.sh --check --full   # full run, gate vs committed
#
# The baseline file records median-of-N ns/op and speedup-over-naive for
# every kernel at the paper's shapes, and the kernel-pool budget it ran at
# (1 thread unless BENCH_ARGS says otherwise). --check compares speedup
# RATIOS (not raw ns) at that same recorded budget, failing on a >25% drop
# vs the committed values or when an acceptance kernel falls below its
# floor (gemm_4096x4096x32 and topk_25m >= 3x, packed gemm_tb_4096x4096x32
# >= 10x, small-k gemm_tb_recon_r4 >= 5x); that makes the gate portable
# across machines of different absolute speed. Regenerate (and commit) the
# baseline whenever a kernel change intentionally shifts the ratios.
#
# Env: BUILD_DIR (default: build), BENCH_ARGS (extra bench_kernels flags;
# a --threads=N here overrides the baseline's 1 thread when generating, and
# must match the baseline's budget under --check).
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
  exec "$BIN" "${MODE[@]}" --check="$BASELINE" ${BENCH_ARGS:-}
fi

THREADS=--threads=1
case " ${BENCH_ARGS:-} " in
  *" --threads="*) THREADS= ;;
esac
"$BIN" --out="$BASELINE" $THREADS ${BENCH_ARGS:-}
echo "bench_baseline: baseline written to $BASELINE — review and commit it."
