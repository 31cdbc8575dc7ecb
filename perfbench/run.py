"""Benchmark of the ge-select score -> select -> annotate loop.

Usage (from the repository root):

    python3 perfbench/run.py --workload score-cold --seed 1 --seconds 20 --trace 0

One driver process builds toyshop inputs from ``--seed``, then runs the
workload's chain of CLI subcommands (``ge_select.cli.run``, one subcommand
per child process, one child at a time: a closed loop) until ``--seconds``
have passed, and reports medians over the chains it ran. Every output is
checked. With ``--trace 0`` the last stdout line carries the end-to-end
metrics named in ``BENCHMARK.json``; with ``--trace 1`` untraced and traced
chains alternate and it carries the per-layer metrics. All files live in a
temporary directory under ``.perfbench-work/`` that is removed on exit.

Workloads (see README.md for why each exists):

- ``score-cold``: score with an empty cache, select ge and entropy, report,
  export. The n-gram echo kernel does most of the work.
- ``rescore-warm``: set-up fills the cache with the same score; the chain
  scores again from the cache and selects ge. No echo calls.
- ``annotate-fl``: facility-location selection over a pool in the thousands,
  annotation of the selection in the toyshop environment, export, stats.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK_ROOT = ROOT / ".perfbench-work"

NGRAM_ORDER = 4
TOP_K = 5
CATALOG_SIZE = 100
INSTRUCTION = "You are shopping for one item.\n"
SETUP_REPEATS = 3  # at least this many set-ups, and at least SETUP_MIN_S of them
SETUP_MIN_S = 1.0
SETUP_GAP_S = 0.5  # set up again for this long between chains, if one set-up is shorter
MIN_CHAINS = 3
CHILD_TIMEOUT_S = 150.0
SKIP_DIAGNOSTICS = {"duplicate trajectory ignored", "no trajectory for question; skipped"}


@dataclass(frozen=True)
class Size:
    score_questions: int  # distinct questions scored by the score workloads
    select_k: int  # k for select ge / entropy
    report_m: int
    fl_pool: int  # pool embedded and searched by facility location
    fl_k: int  # questions selected by facility location and annotated


SIZES = {
    "full": Size(score_questions=60, select_k=15, report_m=10, fl_pool=3000, fl_k=50),
    "tiny": Size(score_questions=6, select_k=3, report_m=3, fl_pool=80, fl_k=4),
}
WORKLOADS = ("score-cold", "rescore-warm", "annotate-fl")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------- inputs


@dataclass
class Inputs:
    dir: Path
    pool: Path
    trajectories: Path | None
    guideline: Path
    instruction: Path
    config: Path
    n_questions: int
    requires_hidden: dict[str, bool]
    cold_scores: Path | None = None
    cache: Path | None = None


def make_inputs(workload: str, seed: int, size: Size, dest: Path) -> Inputs:
    """Write the toyshop pool, trajectories, guideline and config for a seed."""
    from ge_select.envs import ToyShopConfig, toyshop_guideline, toyshop_make, toyshop_rollout
    from ge_select.models import Guideline, write_records

    dest.mkdir(parents=True)
    shop = ToyShopConfig(seed=seed, catalog_size=CATALOG_SIZE)
    guideline_text = toyshop_guideline()  # hidden rule omitted
    guideline = Guideline.from_text(guideline_text)
    paths = {
        "pool": dest / "pool.jsonl",
        "guideline": dest / "guideline.txt",
        "instruction": dest / "instruction.txt",
        "config": dest / "config.json",
    }
    paths["guideline"].write_text(guideline_text, encoding="utf-8")
    paths["instruction"].write_text(INSTRUCTION, encoding="utf-8")
    config = {
        "instruction_path": "instruction.txt",
        "top_k": TOP_K,
        "score_backend": {"kind": "ngram", "order": NGRAM_ORDER},
        "generate_backend": {"kind": "ngram", "order": NGRAM_ORDER},
        "env": {"toyshop": {"seed": seed, "catalog_size": CATALOG_SIZE}},
    }
    paths["config"].write_text(json.dumps(config, sort_keys=True), encoding="utf-8")

    trajectories = None
    if workload == "annotate-fl":
        _, pool, truth = toyshop_make(shop, size.fl_pool)
    else:
        # toyshop_make repeats question texts, and equal texts render equal
        # prompts that a cold cache would serve as hits. Keep the first of
        # each text so every scored prompt is distinct.
        env, drawn, truth = toyshop_make(shop, 10 * size.score_questions)
        distinct: dict[str, object] = {}
        for question in drawn:
            distinct.setdefault(question.text, question)
        pool = list(distinct.values())[: size.score_questions]
        if len(pool) < size.score_questions:
            raise RuntimeError(f"seed {seed} gives only {len(pool)} distinct questions")
        trajectories = dest / "trajectories.jsonl"
        write_records([toyshop_rollout(env, q, guideline.version) for q in pool], trajectories)
    write_records(pool, paths["pool"])
    return Inputs(
        dir=dest,
        trajectories=trajectories,
        n_questions=len(pool),
        requires_hidden={q.id: truth[q.id]["requires_hidden"] for q in pool},
        **paths,
    )


# ---------------------------------------------------------------- children


@dataclass
class StepResult:
    command: str
    wall_s: float
    cpu_s: float
    rss_kb: int
    returncode: int
    stdout: Path
    stderr: Path
    trace: Path | None
    error: str = ""


def run_child(argv: list[str], cwd: Path, tag: str, traced: bool = False) -> StepResult:
    """Run one subcommand and collect its wall time, CPU time and peak RSS."""
    stdout, stderr = cwd / f"{tag}.stdout", cwd / f"{tag}.stderr"
    trace = cwd / f"{tag}.trace.json" if traced else None
    cmd = [sys.executable, str(CHILD)] + (["--trace-out", str(trace)] if traced else []) + argv
    with stdout.open("wb") as out, stderr.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = StepResult(
        command=argv[0],
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_kb=usage.ru_maxrss,
        returncode=proc.returncode,
        stdout=stdout,
        stderr=stderr,
        trace=trace,
    )
    if proc.returncode != 0:
        tail = stderr.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
        result.error = f"{argv[0]} exited {proc.returncode}: {' '.join(tail)}"
    return result


def score_argv(inp: Inputs, out: Path, cache_dir: Path) -> list[str]:
    return [
        "score", "--pool", str(inp.pool), "--trajectories", str(inp.trajectories),
        "--guideline", str(inp.guideline), "--config", str(inp.config), "--out", str(out),
        "--parallel", str(nproc()), "--cache-dir", str(cache_dir),
    ]  # fmt: skip


@dataclass(frozen=True)
class Step:
    """One subcommand of a chain and what its output must hold."""

    argv: list[str]
    kind: str  # scores, selection, trajectories, sft, report or stats
    count: int | None = None  # records the output must have

    @property
    def output(self) -> Path | None:
        return Path(self.argv[self.argv.index("--out") + 1]) if "--out" in self.argv else None


def chain_steps(workload: str, inp: Inputs, size: Size, out: Path) -> list[Step]:
    """The measured chain of a workload, writing its outputs under ``out``."""
    g, cfg = str(inp.guideline), str(inp.config)
    if workload == "annotate-fl":
        sel, annotated = str(out / "sel_fl.jsonl"), str(out / "annotated.jsonl")
        return [
            Step(["select", "--pool", str(inp.pool), "--strategy", "fl", "-k", str(size.fl_k),
                  "--out", sel], "selection", size.fl_k),
            Step(["annotate", "--questions", sel, "--pool", str(inp.pool), "--guideline", g,
                  "--config", cfg, "--env", "toyshop", "--cache-dir", str(out / "cache"),
                  "--out", annotated], "trajectories", size.fl_k),
            Step(["export", "--trajectories", annotated, "--instruction", str(inp.instruction),
                  "--guideline", g, "--out", str(out / "sft.jsonl")], "sft", size.fl_k),
            Step(["stats", "--trajectories", annotated, "--selected", sel,
                  "--pool", str(inp.pool)], "stats"),
        ]  # fmt: skip
    scores = str(out / "scores.jsonl")
    cache_dir = inp.cache.parent if workload == "rescore-warm" else out / "cache"
    k = min(size.select_k, inp.n_questions)
    steps = [
        Step(score_argv(inp, Path(scores), cache_dir), "scores", inp.n_questions),
        Step(["select", "--scores", scores, "--strategy", "ge", "-k", str(size.select_k),
              "--out", str(out / "sel_ge.jsonl")], "selection", k),
    ]  # fmt: skip
    if workload == "score-cold":
        steps += [
            Step(["select", "--scores", scores, "--strategy", "entropy", "-k",
                  str(size.select_k), "--out", str(out / "sel_entropy.jsonl")], "selection", k),
            Step(["report", "--scores", scores, "--trajectories", str(inp.trajectories),
                  "-m", str(size.report_m), "--out", str(out / "report.md")], "report"),
            Step(["export", "--trajectories", str(inp.trajectories), "--instruction",
                  str(inp.instruction), "--guideline", g, "--out", str(out / "sft.jsonl")],
                 "sft", inp.n_questions),
        ]  # fmt: skip
    return steps


# ---------------------------------------------------------------- checks


def check_output(step: Step, result: StepResult) -> str:
    """Return an empty string when the step's output is as required."""
    from ge_select.models import FormatError, load_scores, load_selection, load_trajectories
    from ge_select.pipeline import validate_sft_record

    path = step.output
    try:
        if path is not None:
            diag = Path(f"{path}.diag.jsonl")
            if diag.exists():
                for line in diag.read_text(encoding="utf-8").splitlines():
                    if json.loads(line)["error"] not in SKIP_DIAGNOSTICS:
                        return f"{step.kind}: failure diagnostic {line}"
        if step.kind == "stats":
            payload = json.loads(result.stdout.read_text(encoding="utf-8"))
            if not {"avg_turns", "avg_reward_pct", "difficulty_shift"} <= payload.keys():
                return f"stats printed {sorted(payload)}"
            return ""
        if step.kind == "report":
            if not path.read_text(encoding="utf-8").startswith("# Guideline review report"):
                return f"{path.name} is not a review report"
            return ""
        if step.kind == "scores":
            got = len(load_scores(path))  # re-derives and checks every ge
        elif step.kind == "selection":
            got = len(load_selection(path).items)
        elif step.kind == "trajectories":
            got = len(load_trajectories(path))
        else:  # sft
            records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
            for record in records:
                validate_sft_record(record)
            got = len(records)
    except (FormatError, OSError, ValueError, KeyError) as exc:
        return f"{step.kind}: {type(exc).__name__}: {exc}"
    if got != step.count:
        return f"{path.name} has {got} records, expected {step.count}"
    return ""


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------- metrics


def ge_hidden_lift(selection: Path, requires_hidden: dict[str, bool]) -> float:
    """Share of the ge bottom-k needing the hidden attribute, over the base rate."""
    from ge_select.models import load_selection

    ids = load_selection(selection).question_ids
    base = sum(requires_hidden.values()) / len(requires_hidden)
    share = sum(requires_hidden[q] for q in ids) / len(ids)
    return share / base if base else 0.0


def chain_metrics(
    workload: str, inp: Inputs, size: Size, wall: float, results: list[StepResult], out: Path
) -> dict[str, tuple[float, str]]:
    """End-to-end metrics of one chain, plus the score or annotate phase's figures."""

    def walls(command: str) -> float:
        return sum(r.wall_s for r in results if r.command == command)

    metrics = {
        "chain_wall_s": (wall, "s"),
        "chain_cpu_s": (sum(r.cpu_s for r in results), "s"),
        "select_wall_s": (walls("select"), "s"),
        "select_cpu_s": (sum(r.cpu_s for r in results if r.command == "select"), "s"),
        "peak_rss_mb": (max(r.rss_kb for r in results) / 1024.0, "MB"),
    }
    if workload == "annotate-fl":
        cache, questions = out / "cache" / "cache.jsonl", size.fl_k
        metrics["annotate_wall_s"] = (walls("annotate"), "s")
        metrics["annotate_q_per_s"] = (questions / walls("annotate"), "questions/s")
    else:
        cache = inp.cache if workload == "rescore-warm" else out / "cache" / "cache.jsonl"
        questions = inp.n_questions
        score = next(r for r in results if r.command == "score")
        metrics["score_wall_s"] = (score.wall_s, "s")
        metrics["score_cpu_s"] = (score.cpu_s, "s")
        metrics["score_q_per_s"] = (questions / score.wall_s, "questions/s")
    metrics["cache_bytes_per_q"] = (cache.stat().st_size / questions, "bytes")
    return metrics


def _quantile(values: list[float], q: int) -> float:
    """The q-th decile of ``values`` (q=5 is the median); 0 when empty."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def layer_metrics(results: list[StepResult]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced chain, summed over its child processes."""
    calls, total, self_s, cpu, counters = Counter(), Counter(), Counter(), Counter(), Counter()
    durations: dict[str, list[float]] = defaultdict(list)
    for result in results:
        trace = json.loads(result.trace.read_text(encoding="utf-8"))
        for name, span in trace["spans"].items():
            calls[name] += span["calls"]
            total[name] += span["total_s"]
            self_s[name] += span["self_s"]
            cpu[name] += span["cpu_s"]
            durations[name].extend(span["durations"])
        counters.update(trace["counters"])

    m: dict[str, tuple[float, str]] = {}
    for name in (
        "prompts.build_prompt", "prompts.map_spans_to_tokens", "prompts.build_generation_prompt",
        "backends.ngram.echo", "backends.ngram.generate", "backends.hash_embed.embed",
        "backends.cache.put", "scoring.aggregate_trajectory", "scoring.mean_entropy",
        "envs.toyshop.reset", "envs.toyshop.step",
    ):  # fmt: skip
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.self_s"] = (self_s[name], "s")
    m["selectors.select_facility_location.calls"] = (
        calls["selectors.select_facility_location"], "count"
    )
    for name in ("backends.ngram.echo", "backends.ngram.generate"):
        m[f"{name}.cpu_s"] = (cpu[name], "s")
    for name in ("backends.ngram.echo", "backends.ngram.generate", "pipeline.score_trajectory"):
        m[f"{name}.p50_s"] = (_quantile(durations[name], 5), "s")
        m[f"{name}.p90_s"] = (_quantile(durations[name], 9), "s")
    for name, unit in (
        ("backends.ngram.echo.bytes", "bytes"),
        ("backends.ngram.generate.bytes_out", "bytes"),
        ("backends.cache.entries_loaded", "count"),
        ("backends.cache.bytes_loaded", "bytes"),
        ("backends.cache.hits", "count"),
        ("backends.cache.misses", "count"),
        ("backends.cache.bytes_appended", "bytes"),
        ("selectors.fl.n", "count"),
        ("selectors.fl.k", "count"),
        ("models.load.bytes", "bytes"),
        ("models.write_records.bytes", "bytes"),
    ):
        m[name] = (counters[name], unit)
    lookups = counters["backends.cache.hits"] + counters["backends.cache.misses"]
    m["backends.cache.hit_ratio"] = (
        counters["backends.cache.hits"] / lookups if lookups else 0.0, "ratio"
    )
    m["backends.cache.load_s"] = (total["backends.cache.load"], "s")
    m["backends.cached.echo.self_s"] = (self_s["backends.cached.echo"], "s")
    # score_trajectory runs on the pool's worker threads. Their wall spans
    # include waiting for the GIL, so the pool is compared with their thread
    # CPU time: concurrency near 1.0 means the threads ran one at a time.
    pool_wall, worker_cpu = total["pipeline.score_pool"], cpu["pipeline.score_trajectory"]
    m["pipeline.score_pool.self_s"] = (pool_wall - worker_cpu, "s")
    m["pipeline.score_pool.concurrency"] = (worker_cpu / pool_wall if pool_wall else 0.0, "ratio")
    m["pipeline.annotate.self_s"] = (self_s["pipeline.annotate"], "s")
    for name in (
        "pipeline.review_report", "pipeline.export_sft", "selectors.select_facility_location",
        "selectors.select_ge", "selectors.select_mean_entropy",
    ):  # fmt: skip
        m[f"{name}.s"] = (total[name], "s")
    # Computed, not measured: the n x n float64 similarity matrix FL builds.
    m["selectors.fl.sim_bytes"] = (counters["selectors.fl.n"] ** 2 * 8, "bytes")
    for name in ("models.load", "models.write_records"):
        m[f"{name}.self_s"] = (self_s[name], "s")
    for command in ("score", "select", "report", "annotate", "export", "stats"):
        m[f"cli.{command}.wall_s"] = (sum(r.wall_s for r in results if r.command == command), "s")
    return m


def medians(samples: list[dict[str, tuple[float, str]]]) -> dict[str, tuple[float, str]]:
    return {
        name: (statistics.median(s[name][0] for s in samples), unit)
        for name, (_, unit) in samples[0].items()
    } if samples else {}


# ---------------------------------------------------------------- driver


class Run:
    """One benchmark run: set-up repeats, then measured chains until time is up."""

    def __init__(self, workload: str, seed: int, size: Size, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.size = size
        self.work = work
        self.attempted = 0
        self.errors: list[str] = []
        self.reference: dict[str, str] = {}
        self.plain: list[dict] = []
        self.traced: list[dict] = []
        self.setup_s: list[float] = []
        self.inputs: Inputs | None = None
        self.ge_lift: float | None = None

    def operation(self, errors: list[str]) -> None:
        """Count one subcommand; any error marks it failed."""
        self.attempted += 1
        if errors:
            self.errors.append("; ".join(errors))

    def setup(self) -> None:
        warmup = run_child(["--help"], self.work, "warmup")  # compile and cache imports
        if warmup.returncode != 0:
            raise RuntimeError(warmup.error)
        self.set_up(SETUP_REPEATS, SETUP_MIN_S)
        if self.workload == "rescore-warm":
            # The warm rescore must reproduce the cold scores byte for byte.
            self.reference["scores.jsonl"] = digest(self.inputs.cold_scores)

    def set_up(self, repeats: int, min_s: float) -> None:
        """Set up at least ``repeats`` times and for at least ``min_s`` seconds."""
        began = time.perf_counter()
        done = 0
        while done < repeats or time.perf_counter() - began < min_s:
            i = len(self.setup_s)
            # CPU time, not wall time: steal on a shared host inflates wall
            # time for minutes at a time, and set-up is gated on its median.
            start = time.process_time()
            inp = make_inputs(self.workload, self.seed, self.size, self.work / f"setup{i}")
            cpu = time.process_time() - start
            prefill = None
            if self.workload == "rescore-warm":
                inp.cold_scores = inp.dir / "cold_scores.jsonl"
                inp.cache = inp.dir / "cache" / "cache.jsonl"
                step = Step(score_argv(inp, inp.cold_scores, inp.cache.parent), "scores",
                            inp.n_questions)  # fmt: skip
                prefill = run_child(step.argv, inp.dir, "prefill")
                cpu += prefill.cpu_s
            self.setup_s.append(cpu)
            if prefill is not None:
                error = prefill.error or check_output(step, prefill)
                self.operation([error] if error else [])
            if self.inputs is None:
                self.inputs = inp
            else:
                shutil.rmtree(inp.dir)
            done += 1

    def chain(self, index: int, traced: bool) -> None:
        inp = self.inputs
        out = self.work / f"chain{index}"
        out.mkdir()
        steps = chain_steps(self.workload, inp, self.size, out)
        cache_before = inp.cache.stat().st_size if inp.cache else 0
        results: list[StepResult] = []
        start = time.perf_counter()
        for step in steps:
            result = run_child(step.argv, out, f"step{len(results)}", traced)
            results.append(result)
            if result.returncode != 0:
                break
        wall = time.perf_counter() - start

        ok = len(results) == len(steps)
        for step, result in zip(steps, results):
            error = result.error or check_output(step, result)
            errors = [error] if error else []
            output = step.output or result.stdout
            name = output.name if step.output else f"{step.kind}.stdout"
            if output.exists():
                first = self.reference.setdefault(name, digest(output))
                if digest(output) != first:
                    errors.append(f"{name} differs from the first chain's")
            if step.kind == "scores" and inp.cache and inp.cache.stat().st_size != cache_before:
                errors.append("warm score appended to the cache")
            ok = ok and not errors
            self.operation(errors)
        for _ in steps[len(results):]:
            self.operation(["not run after an earlier failure"])
        if not ok:
            return
        if traced:
            metrics = layer_metrics(results)
            metrics["trace.chain_wall_s"] = (wall, "s")
            self.traced.append(metrics)
        else:
            self.plain.append(chain_metrics(self.workload, inp, self.size, wall, results, out))
        if self.ge_lift is None and self.workload != "annotate-fl":
            self.ge_lift = ge_hidden_lift(out / "sel_ge.jsonl", inp.requires_hidden)

    def measure(self, seconds: float, trace: bool) -> None:
        start = time.perf_counter()
        index = 0
        # A cheap set-up is repeated between chains as well, so that its
        # median spans the whole run, as the chains' medians do, and not
        # only the run's first second.
        interleave = statistics.median(self.setup_s) < SETUP_GAP_S
        while True:
            self.chain(index, traced=trace and index % 2 == 1)
            index += 1
            if interleave:
                self.set_up(1, SETUP_GAP_S)
            elapsed = time.perf_counter() - start
            if trace and index % 2 == 0 and elapsed >= seconds:
                break
            if not trace and index >= MIN_CHAINS and elapsed >= seconds:
                break

    def results(self) -> tuple[dict[str, tuple[float, str]], dict[str, tuple[float, str]]]:
        """Medians of (end-to-end, per-layer) metrics over the chains run."""
        e2e = medians(self.plain)
        if self.setup_s:
            e2e["setup_s"] = (statistics.median(self.setup_s), "s")
        if self.ge_lift is not None:
            e2e["ge_hidden_lift"] = (self.ge_lift, "ratio")
        e2e["failed_share"] = (len(self.errors) / self.attempted, "ratio")
        layers = medians(self.traced)
        if layers and "chain_wall_s" in e2e:
            untraced = e2e["chain_wall_s"][0]
            layers["trace.overhead_s"] = (layers["trace.chain_wall_s"][0] - untraced, "s")
        return e2e, layers


def provenance(args: argparse.Namespace, size: Size) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    src_digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": src_digest.hexdigest()[:16],
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "parallel": nproc(),
        "params": {
            "size": args.size,
            **size.__dict__,
            "ngram_order": NGRAM_ORDER,
            "top_k": TOP_K,
            "catalog_size": CATALOG_SIZE,
            "setup_repeats": SETUP_REPEATS,
            "setup_min_s": SETUP_MIN_S,
            "setup_gap_s": SETUP_GAP_S,
        },
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=sorted(SIZES), default="full", help="tiny is for selftest.py"
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind so that the running child is killed and the work
    # directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "ge_select" / "__init__.py").is_file():
        print(f"error: no ge_select sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ge_select  # noqa: F401 - imported here so that set-up times exclude it

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    size = SIZES[args.size]

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_ROOT))
    run = Run(args.workload, args.seed, size, work)
    try:
        run.setup()
        run.measure(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run's directory is still there
    e2e, layers = run.results()

    print(json.dumps({"provenance": provenance(args, size)}, sort_keys=True))
    print(f"# {args.workload} seed {args.seed}: medians of {len(run.setup_s)} set-ups, "
          f"{len(run.plain)} untraced and {len(run.traced)} traced chains")  # fmt: skip
    for name, (value, unit) in {**e2e, **layers}.items():
        print(f"{name:40s} {value:16.6f} {unit}")
    walls = [f"{m['chain_wall_s'][0]:.3f}" for m in run.plain]
    print(f"# chain_wall_s of each untraced chain: {' '.join(walls)}")
    for error in run.errors:
        print(f"FAILED: {error}")

    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    values = layers if args.trace else e2e
    metrics = {n: {"value": values[n][0], "unit": values[n][1]} for n in names if n in values}
    correct = not run.errors and len(metrics) == len(names)
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.errors),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
