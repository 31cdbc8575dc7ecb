"""Self-test of the benchmark at a tiny size (about a minute on 2 cores).

Usage (from the repository root):

    python3 perfbench/selftest.py

Checks, on the code as it is:

- ``BENCHMARK.json`` is well formed;
- every workload, untraced and traced, exits 0 and ends with one result line
  that is correct, has no failures, and carries exactly the metrics named in
  ``BENCHMARK.json`` with their units; end-to-end values are never 0;
- the per-layer predictions the workloads are built on: no echo calls on
  ``rescore-warm`` or ``annotate-fl``, a cache hit ratio of 1.0 on
  ``rescore-warm`` and 0.0 on ``score-cold``, where every one of the two
  prompts per question is looked up and misses, and no facility-location
  call on the score workloads;
- in a directory holding only ``BENCHMARK.json`` and the benchmark's files the
  benchmark exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import SIZES  # noqa: E402

TINY_QUESTIONS = SIZES["tiny"].score_questions
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# (workload, per-layer metric, expected value)
PREDICTIONS = [
    ("rescore-warm", "backends.ngram.echo.calls", 0),
    ("annotate-fl", "backends.ngram.echo.calls", 0),
    ("rescore-warm", "backends.cache.hit_ratio", 1.0),
    ("score-cold", "backends.cache.hit_ratio", 0.0),
    ("score-cold", "backends.cache.misses", 2 * TINY_QUESTIONS),
    ("score-cold", "selectors.select_facility_location.calls", 0),
    ("rescore-warm", "selectors.select_facility_location.calls", 0),
]

failures: list[str] = []


def check(condition: bool, message: str) -> None:
    print(("PASS " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def check_spec(spec: dict) -> None:
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          "BENCHMARK.json has exactly the contract's keys")  # fmt: skip
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"] + spec["per_layer"]
    names += [m["name"] for m in metrics]
    check(all(NAME_RE.match(n) for n in names) and len(names) == len(set(names)),
          "names are valid and unique")  # fmt: skip
    check(all(UNIT_RE.match(m["unit"]) for m in metrics), "units are valid")
    check(all(0 < m["bound"] <= 0.25 and set(m) == {"name", "unit", "better", "bound"}
              for m in spec["end_to_end"]), "end-to-end bounds are in (0, 0.25]")  # fmt: skip
    check(all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"]),
          "per-layer metrics have no bound")  # fmt: skip
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(bool(setup) and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s is present, in s, lower-better, with the largest bound")  # fmt: skip


def run(spec: dict, workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", "12345", "--seconds", "1", "--trace", str(trace),
        "--size", "tiny",
    ]  # fmt: skip
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(spec: dict, workload: str, trace: int) -> dict:
    proc = run(spec, workload, trace)
    label = f"{workload} trace={trace}"
    check(proc.returncode == 0, f"{label}: exit code 0 ({proc.stderr.strip()[-300:]})")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        check(False, f"{label}: last stdout line is a JSON result")
        return {}
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
          f"{label}: correct, {result['attempted']} attempted, {result['failed']} failed")  # fmt: skip
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == wanted, f"{label}: exactly the BENCHMARK.json metrics, with their units")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    check(all(isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
              for v in values.values()), f"{label}: every value is a finite number")  # fmt: skip
    if not trace:
        zero = [name for name, v in values.items() if v == 0]
        check(not zero, f"{label}: no end-to-end metric is 0 {zero}")
    return values


def check_bare_directory(spec: dict) -> None:
    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work_root))
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(spec, spec["workloads"][0]["name"], 0, cwd=bare)
        printed_result = any(line.startswith("{\"correct\"") for line in proc.stdout.splitlines())
        check(proc.returncode != 0 and not printed_result,
              f"bare directory: exit {proc.returncode} without a result")  # fmt: skip
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_spec(spec)
    layers = {}
    for workload in (w["name"] for w in spec["workloads"]):
        check_result(spec, workload, 0)
        layers[workload] = check_result(spec, workload, 1)
    for workload, metric, expected in PREDICTIONS:
        value = layers.get(workload, {}).get(metric)
        check(value == expected, f"prediction {workload}: {metric} == {expected} (got {value})")
    check_bare_directory(spec)
    print(f"\n{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
