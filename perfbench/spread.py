"""Run-to-run spread of the end-to-end metrics, to check the benchmark's bounds.

    python3 perfbench/spread.py --runs 10 [--workloads alphabet52 ingest]

Runs ``perfbench/run.py`` once per seed (1..runs) for each workload, by
default those of ``BENCHMARK.json``, one process at a time, from the checkout
root. For every end-to-end metric it prints the median and the spread: the
distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to the
metric's bound in ``BENCHMARK.json``. The last line is the largest spread over
its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=names)
    args = parser.parse_args(argv)
    worst = 0.0
    for workload in args.workloads:
        results = []
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            elapsed = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} wall={elapsed:.1f}s", flush=True)
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = m["bound"]
            worst = max(worst, spread / bound)
            print(f"  {workload:12s} {m['name']:20s} median {median:12.5g} {m['unit']:5s}"
                  f" spread {spread:7.4f} bound {bound:.3f}{'  OVER' if spread > bound else ''}", flush=True)
    print(f"largest spread / bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
