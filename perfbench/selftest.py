#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at minimal length in both modes
(--trace 0 and --trace 1) and fails unless each run exits 0, passes its
correctness checks and prints exactly the metrics BENCHMARK.json names for
that mode, each with its unit. It also fails when perfbench/README.md does
not document a metric or a workload. Takes about two minutes after the
first build.
"""

import json
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    readme = (BENCH_DIR / "README.md").read_text()
    problems = []
    for section in ("workloads", "end_to_end", "per_layer"):
        for item in spec[section]:
            if f"`{item['name']}`" not in readme:
                problems.append(f"README.md does not document `{item['name']}`")

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            want = {m["name"]: m["unit"]
                    for m in spec["per_layer" if trace else "end_to_end"]}
            label = f"{workload} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
                 workload, "--seed", "1", "--seconds", "1", "--trace",
                 str(trace)], cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: "
                                f"{proc.stderr.strip().splitlines()[-1:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result.get("correct") or result.get("attempted", 0) < 1:
                problems.append(f"{label}: correctness checks failed")
            got = {n: m.get("unit") for n, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {[n for n in want if got.get(n, want[n]) != want[n]]}")
            print(f"selftest: {label}: {len(got)} metrics, "
                  f"{result['attempted']} checks", file=sys.stderr)

    for p in problems:
        print(f"selftest: FAIL {p}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "ok"), file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
