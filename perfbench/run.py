#!/usr/bin/env python3
"""Builds and runs one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The first run configures an optimized
(Release) build in .bench_build/perfbench and compiles the benchmark with
the repository's libraries; later runs only rebuild what changed. Build
output and diagnostics go to stderr. The last line of stdout is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {NAME:
     {"value": V, "unit": U}, ...}}

with every end_to_end metric of BENCHMARK.json for --trace 0 and every
per_layer metric for --trace 1. The line before it, starting with "# env",
records the build and machine. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import pathlib
import platform
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
BUILD_TIMEOUT_S = 700  # with RUN_TIMEOUT_S, under 900 s for the first run
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def call(cmd, timeout, env=None):
    """Runs a build step with its output on stderr."""
    print("perfbench: $ " + " ".join(str(c) for c in cmd), file=sys.stderr)
    try:
        proc = subprocess.run([str(c) for c in cmd], stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout, env=env)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"{cmd[0]} failed: {e}") from e
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(str(c) for c in cmd[:3])} ... exited "
                         f"with {proc.returncode}")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no repository sources in {ROOT}; cannot build")
    tmp = BUILD_DIR / "tmp"  # keeps compiler temporaries inside the checkout
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        call(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, env)
    call(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j",
          str(os.cpu_count() or 1)], BUILD_TIMEOUT_S, env)


def git_commit():
    """HEAD of the checkout when it is a git work tree, without a git call
    (which would search directories above the checkout)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the code
    measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", BENCH_DIR):
        files += sorted(p for p in top.rglob("*") if p.is_file()
                        and "__pycache__" not in p.parts)
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run(args):
    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run([str(c) for c in cmd], stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{args.workload} did not finish in "
                         f"{RUN_TIMEOUT_S} s") from e
    if proc.returncode != 0:
        raise BenchError(f"perfbench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("perfbench printed no result")
    result = json.loads(lines[-1])

    want = expected_metrics(args.trace)
    got = result["metrics"]
    missing = sorted(set(want) - set(got))
    unknown = sorted(set(got) - set(want))
    wrong_unit = sorted(n for n in set(want) & set(got)
                        if got[n]["unit"] != want[n])
    bad_value = sorted(n for n, m in got.items()
                       if not isinstance(m["value"], (int, float))
                       or not math.isfinite(m["value"]))
    if missing or unknown or wrong_unit or bad_value:
        raise BenchError(f"metrics do not match BENCHMARK.json: missing "
                         f"{missing}, unknown {unknown}, wrong unit "
                         f"{wrong_unit}, non-finite {bad_value}")

    env = dict(result.pop("env"))
    env.update(commit=git_commit(), source_sha256=source_digest(),
               host=platform.node(), nproc=os.cpu_count(),
               affinity=len(os.sched_getaffinity(0)),
               workload=args.workload, seed=args.seed,
               seconds=args.seconds, trace=args.trace)
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        run(args)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
