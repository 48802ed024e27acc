"""Runs the benchmark over ten seeds and summarises each metric.

    python3 perfbench/steadiness.py [--first-seed 1]
    python3 perfbench/steadiness.py --per-layer [--first-seed 1]

The first form runs ``run.py`` on every workload of ``BENCHMARK.json``, once
per seed from ``--first-seed`` on, for ``run_seconds`` each.  It appends
every result line to ``perfbench/.scratch/steadiness.jsonl`` and prints a
Markdown table of the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the quartile spread as a share
of the median, next to the metric's bound.  The failed share of operations
is printed too.

The second form makes one ``--trace 1`` run per workload, at
``--first-seed``, and prints the per-layer metrics as one Markdown table, a
column per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--per-layer", action="store_true")
    args = parser.parse_args()
    names = [w["name"] for w in spec["workloads"]]
    log = BENCH / ".scratch" / "steadiness.jsonl"
    log.parent.mkdir(exist_ok=True)

    def bench(name: str, seed: int, trace: int) -> dict:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        result.update(workload=name, seed=seed, trace=trace,
                      run_s=time.perf_counter() - start)
        with open(log, "a") as fh:
            fh.write(json.dumps(result) + "\n")
        return result

    if args.per_layer:
        traced = [bench(name, args.first_seed, 1) for name in names]
        print("| per-layer metric | unit | " + " | ".join(names) + " |")
        print("|---|---|" + "---|" * len(names))
        for metric in spec["per_layer"]:
            values = [r["metrics"][metric["name"]]["value"] for r in traced]
            print(f"| `{metric['name']}` | {metric['unit']} | "
                  + " | ".join(f"{v:.4g}" for v in values) + " |")
        return 0

    print("| workload | metric | median | Q1 | Q3 | (Q3-Q1)/median | bound |")
    print("|---|---|---|---|---|---|---|")
    for name in names:
        results = [bench(name, seed, 0)
                   for seed in range(args.first_seed, args.first_seed + RUNS)]
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(f"| {name} | {metric['name']} | {median:.4g} | {q1:.4g} | {q3:.4g} "
                  f"| {(q3 - q1) / median:.3f} | {metric['bound']} |")
        shares = sorted({(r["failed"], r["attempted"]) for r in results})
        runs_s = [r["run_s"] for r in results]
        print(f"| {name} | failed/attempted | {shares} | correct: "
              f"{all(r['correct'] for r in results)} | run time {min(runs_s):.0f}-"
              f"{max(runs_s):.0f} s | | |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
