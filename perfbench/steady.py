"""Steadiness check: run the benchmark on several seeds and report the spread.

Usage (from the repository root):

    python3 perfbench/steady.py --seeds 1-10

It runs every workload in ``BENCHMARK.json`` once per seed with ``--trace 0``.
For each workload and end-to-end metric it prints the median of the per-run
values and their spread, the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to the
metric's bound from ``BENCHMARK.json``. A spread above a third of the bound is
flagged ``WIDE``, above the bound ``FAIL``. Every run must also report
``correct`` with no failures. The exit code is 1 on any ``FAIL`` or failed run.
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


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="for example 1-10 or 3,7,11")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seeds = parse_seeds(args.seeds)
    runs: dict[str, list[dict]] = {}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in seeds:
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]  # fmt: skip
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            took = time.perf_counter() - start
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            result["run_s"] = took
            runs.setdefault(workload, []).append(result)
            status = "ok" if result["correct"] and not result["failed"] else "INCORRECT"
            ok = ok and status == "ok"
            print(f"{workload} seed {seed}: {status} in {took:.1f}s", flush=True)

    for workload, results in runs.items():
        print(f"\n{workload}: {len(results)} runs, "
              f"{statistics.mean(r['run_s'] for r in results):.1f}s per run")  # fmt: skip
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            median = statistics.median(values)
            line = f"  {metric['name']:40s} median {median:14.6f} {metric['unit']:8s}"
            if len(values) >= 2:
                share = spread(values)
                bound = metric["bound"]
                verdict = "FAIL" if share > bound else "WIDE" if share > bound / 3 else "ok"
                ok = ok and verdict != "FAIL"
                line += f" spread {share:7.4f} bound {bound:5.2f} {verdict}"
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
