"""Byte-identity contract: every output of the benchmark's three chains.

The chains run in-process through ``cli.run`` on toyshop inputs built from
the public API, on seeds 1-3 at small sizes, plus one facility-location
chain over a 3000-question pool. ``tests/golden/outputs.json`` holds the
sha256 of every output file, and of ``stats`` stdout, as the commit that
introduced each digest wrote them.

A change that means to alter an output byte regenerates the file and says why:

    PYTHONPATH=src python tests/test_golden.py --write

Facility-location selections hold BLAS dot products, so their bytes depend
on numpy's build. The file records numpy's version and BLAS; when a digest
differs under another build, the failure names both builds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden" / "outputs.json"

INSTRUCTION = "You are shopping for one item.\n"
CATALOG_SIZE = 100
NGRAM_ORDER = 4
TOP_K = 5
SEEDS = (1, 2, 3)
SCORE_QUESTIONS, SELECT_K, REPORT_M = 12, 4, 3
SMALL_FL, FULL_FL = (80, 4), (3000, 50)  # (pool size, k)


def numpy_build() -> dict:
    """numpy's version and BLAS, which facility-location bytes depend on."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def _make_inputs(dest: Path, seed: int, n_questions: int, distinct: bool) -> dict[str, str]:
    """Pool, guideline, instruction and config for one seed, as the benchmark
    builds them; ``distinct`` keeps one question per text and writes
    scripted trajectories for scoring."""
    from ge_select.envs import ToyShopConfig, toyshop_guideline, toyshop_make, toyshop_rollout
    from ge_select.models import Guideline, write_records

    dest.mkdir(parents=True)
    shop = ToyShopConfig(seed=seed, catalog_size=CATALOG_SIZE)
    guideline_text = toyshop_guideline()
    paths = {name: str(dest / name) for name in ("pool.jsonl", "guideline.txt", "instruction.txt",
                                                  "config.json", "trajectories.jsonl")}  # fmt: skip
    Path(paths["guideline.txt"]).write_text(guideline_text, encoding="utf-8")
    Path(paths["instruction.txt"]).write_text(INSTRUCTION, encoding="utf-8")
    config = {
        "instruction_path": "instruction.txt",
        "top_k": TOP_K,
        "score_backend": {"kind": "ngram", "order": NGRAM_ORDER},
        "generate_backend": {"kind": "ngram", "order": NGRAM_ORDER},
        "env": {"toyshop": {"seed": seed, "catalog_size": CATALOG_SIZE}},
    }
    Path(paths["config.json"]).write_text(json.dumps(config, sort_keys=True), encoding="utf-8")
    if distinct:
        env, drawn, _ = toyshop_make(shop, 10 * n_questions)
        by_text: dict = {}
        for question in drawn:
            by_text.setdefault(question.text, question)
        pool = list(by_text.values())[:n_questions]
        version = Guideline.from_text(guideline_text).version
        write_records([toyshop_rollout(env, q, version) for q in pool], paths["trajectories.jsonl"])
    else:
        _, pool, _ = toyshop_make(shop, n_questions)
    write_records(pool, paths["pool.jsonl"])
    return paths


def _run(argv: list[str]) -> str:
    """Run one subcommand in-process; return its stdout."""
    from ge_select.cli import run

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code == 0, f"{argv[0]} exited {code}: {err.getvalue()}"
    return out.getvalue()


def _score_chains(root: Path, seed: int) -> dict[str, bytes]:
    """score-cold (score, select ge and entropy, report, export), then
    rescore-warm (score and select ge again from the filled cache)."""
    inp = _make_inputs(root / "inputs", seed, SCORE_QUESTIONS, distinct=True)
    out = root / "out"
    out.mkdir()
    cache = str(out / "cache")

    def score(scores: Path) -> None:
        _run(["score", "--pool", inp["pool.jsonl"], "--trajectories", inp["trajectories.jsonl"],
              "--guideline", inp["guideline.txt"], "--config", inp["config.json"],
              "--out", str(scores), "--cache-dir", cache])  # fmt: skip

    def select(scores: Path, strategy: str, sel: Path) -> None:
        _run(["select", "--scores", str(scores), "--strategy", strategy, "-k", str(SELECT_K),
              "--out", str(sel)])  # fmt: skip

    files = {}
    score(out / "scores.jsonl")
    files["cache.jsonl"] = (out / "cache" / "cache.jsonl").read_bytes()
    for strategy in ("ge", "entropy"):
        select(out / "scores.jsonl", strategy, out / f"sel_{strategy}.jsonl")
    _run(["report", "--scores", str(out / "scores.jsonl"), "--trajectories",
          inp["trajectories.jsonl"], "-m", str(REPORT_M), "--out", str(out / "report.md")])  # fmt: skip
    _run(["export", "--trajectories", inp["trajectories.jsonl"], "--instruction",
          inp["instruction.txt"], "--guideline", inp["guideline.txt"],
          "--out", str(out / "sft.jsonl")])  # fmt: skip
    for name in ("scores.jsonl", "sel_ge.jsonl", "sel_entropy.jsonl", "report.md", "sft.jsonl"):
        files[name] = (out / name).read_bytes()
    score(out / "rescored.jsonl")
    select(out / "rescored.jsonl", "ge", out / "rescored_sel_ge.jsonl")
    files["rescore-warm/scores.jsonl"] = (out / "rescored.jsonl").read_bytes()
    files["rescore-warm/sel_ge.jsonl"] = (out / "rescored_sel_ge.jsonl").read_bytes()
    files["rescore-warm/cache.jsonl"] = (out / "cache" / "cache.jsonl").read_bytes()
    return files


def _fl_chain(root: Path, seed: int, n: int, k: int) -> dict[str, bytes]:
    """annotate-fl: select fl, annotate the selection in toyshop, export, stats."""
    inp = _make_inputs(root / "inputs", seed, n, distinct=False)
    out = root / "out"
    out.mkdir()
    sel, annotated = str(out / "sel_fl.jsonl"), str(out / "annotated.jsonl")
    _run(["select", "--pool", inp["pool.jsonl"], "--strategy", "fl", "-k", str(k), "--out", sel])
    _run(["annotate", "--questions", sel, "--pool", inp["pool.jsonl"], "--guideline",
          inp["guideline.txt"], "--config", inp["config.json"], "--env", "toyshop",
          "--cache-dir", str(out / "cache"), "--out", annotated])  # fmt: skip
    _run(["export", "--trajectories", annotated, "--instruction", inp["instruction.txt"],
          "--guideline", inp["guideline.txt"], "--out", str(out / "sft.jsonl")])  # fmt: skip
    stats = _run(["stats", "--trajectories", annotated, "--selected", sel, "--pool", inp["pool.jsonl"]])
    files = {name: (out / name).read_bytes() for name in ("sel_fl.jsonl", "annotated.jsonl", "sft.jsonl")}
    files["cache.jsonl"] = (out / "cache" / "cache.jsonl").read_bytes()
    files["stats.stdout"] = stats.encode("utf-8")
    return files


def chain_digests(root: Path) -> dict[str, str]:
    """sha256 of every output, keyed ``<chain>/seed<n>/<file>``."""
    runs = []
    for seed in SEEDS:
        runs.append((f"score-cold/seed{seed}", _score_chains(root / f"score{seed}", seed)))
        runs.append((f"annotate-fl/seed{seed}", _fl_chain(root / f"fl{seed}", seed, *SMALL_FL)))
    runs.append((f"annotate-fl-{FULL_FL[0]}/seed1", _fl_chain(root / "fl-full", 1, *FULL_FL)))
    return {
        f"{prefix}/{name}": hashlib.sha256(data).hexdigest()
        for prefix, files in runs
        for name, data in sorted(files.items())
    }


def test_outputs_match_the_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = chain_digests(tmp_path)
    assert sorted(got) == sorted(golden["digests"]), "the set of golden outputs changed"
    differ = sorted(name for name, digest in got.items() if digest != golden["digests"][name])
    build = numpy_build()
    if differ and build != golden["numpy_build"]:
        raise AssertionError(
            f"outputs differ from the golden digests: {differ}; numpy build {build} is not the "
            f"golden's {golden['numpy_build']}, and facility-location bytes depend on it, so "
            "regenerate the golden file under this build at the parent commit to check them"
        )
    assert not differ, f"outputs differ from the golden digests: {differ}"

if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        payload = {"numpy_build": numpy_build(), "digests": chain_digests(Path(tmp))}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(payload['digests'])} digests to {GOLDEN}")
