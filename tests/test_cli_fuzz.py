"""Mutation fuzzing of every file the CLI reads.

Each example takes one well-formed input (the run config with its backend
entries and ``env.toyshop`` object, or a JSONL file), breaks it in one
place and runs a subcommand that reads it, in process. Whatever the damage,
the run must return 0, or print exactly one ``error:<code>:`` line on stderr,
and never raise.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ge_select.cli import run
from ge_select.envs import ToyShopConfig, toyshop_guideline, toyshop_make, toyshop_rollout
from ge_select.models import Guideline, write_records

from conftest import cache_entries, write_cache_entries

# What a mutated field becomes: swapped types, nulls, numbers out of range,
# integers beyond float range and a lone surrogate.
MUTANTS = (None, True, 0, -1, 1.5, 10**400, "x", "", "\ud800", [], [None], {}, {"zz": 1})

CONFIG = {
    "instruction_path": "instruction.txt",
    "exemplars_path": "exemplars.jsonl",
    "score_backend": {"kind": "ngram", "model": "score", "order": 2, "corpus_path": "corpus.txt"},
    "generate_backend": {"kind": "ngram", "order": 2, "corpus": "search[red mug]\n"},
    "score_target": "action",
    "ge_sign": "default",
    "top_k": 2,
    "t_max": 2,
    "env": {
        "toyshop": {"seed": 3, "catalog_size": 8, "hidden_attrs": ["flavor"], "max_results": 3},
    },
}  # fmt: skip


def _argvs(ws: Path) -> dict[str, list[list[str]]]:
    """The subcommands that read each input file of workspace ``ws``."""
    files = {name: str(ws / name) for name in (
        "pool.jsonl", "trajectories.jsonl", "guideline.txt", "config.json", "scores.jsonl",
        "selection.jsonl", "embeddings.jsonl", "instruction.txt")}  # fmt: skip
    out, cache = str(ws / "out"), str(ws)  # each workspace holds its own cache.jsonl
    score = ["score", "--pool", files["pool.jsonl"], "--trajectories", files["trajectories.jsonl"],
             "--guideline", files["guideline.txt"], "--config", files["config.json"],
             "--out", out, "--cache-dir", cache]  # fmt: skip

    def annotate(questions: str) -> list[str]:
        return ["annotate", "--questions", questions, "--pool", files["pool.jsonl"],
                "--guideline", files["guideline.txt"], "--config", files["config.json"],
                "--env", "toyshop", "--out", out, "--cache-dir", cache]  # fmt: skip

    report = ["report", "--scores", files["scores.jsonl"],
              "--trajectories", files["trajectories.jsonl"], "--out", out]  # fmt: skip
    return {
        "config.json": [score, annotate(files["pool.jsonl"])],
        "exemplars.jsonl": [score],
        "pool.jsonl": [score, annotate(files["pool.jsonl"])],
        "trajectories.jsonl": [
            score,
            report,
            ["export", "--trajectories", files["trajectories.jsonl"], "--instruction",
             files["instruction.txt"], "--guideline", files["guideline.txt"], "--out", out],
            ["stats", "--trajectories", files["trajectories.jsonl"]],
            ["select", "--strategy", "highscore", "-k", "2",
             "--trajectories", files["trajectories.jsonl"], "--out", out],
        ],  # fmt: skip
        "scores.jsonl": [
            ["select", "--strategy", "ge", "-k", "2", "--scores", files["scores.jsonl"],
             "--out", out],
            ["select", "--strategy", "entropy", "-k", "2", "--scores", files["scores.jsonl"],
             "--out", out],
            report,
        ],  # fmt: skip
        "selection.jsonl": [
            annotate(files["selection.jsonl"]),
            ["stats", "--trajectories", files["trajectories.jsonl"],
             "--selected", files["selection.jsonl"], "--pool", files["pool.jsonl"]],
        ],  # fmt: skip
        "embeddings.jsonl": [["select", "--strategy", "fl", "-k", "2",
                              "--embeddings", files["embeddings.jsonl"], "--out", out]],
        "cache.jsonl": [score, annotate(files["pool.jsonl"])],
    }  # fmt: skip


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Well-formed inputs for every subcommand, the outputs of score and
    select included, and a cache that score and annotate have warmed."""
    ws = tmp_path_factory.mktemp("fuzz") / "base"
    ws.mkdir()
    env, pool, _ = toyshop_make(ToyShopConfig(seed=3, catalog_size=8), 3)
    guideline_text = toyshop_guideline()
    version = Guideline.from_text(guideline_text).version
    write_records(pool, ws / "pool.jsonl")
    write_records([toyshop_rollout(env, q, version) for q in pool], ws / "trajectories.jsonl")
    (ws / "guideline.txt").write_text(guideline_text, encoding="utf-8")
    (ws / "instruction.txt").write_text("Shop for one item.\n", encoding="utf-8")
    (ws / "corpus.txt").write_text("search[red mug]\nclick[buy]\n", encoding="utf-8")
    write_records([{"text": "Action: search[blue lamp]"}], ws / "exemplars.jsonl")
    write_records(
        [{"question_id": q.id, "embedding": [1.0, float(i), 0.5]} for i, q in enumerate(pool)],
        ws / "embeddings.jsonl",
    )
    (ws / "config.json").write_text(json.dumps(CONFIG), encoding="utf-8")
    argvs = _argvs(ws)
    for argv, produced in ((argvs["exemplars.jsonl"][0], "scores.jsonl"),
                           (argvs["scores.jsonl"][0], "selection.jsonl")):  # fmt: skip
        assert _run(argv)[0] == 0
        (ws / "out").rename(ws / produced)
    assert _run(argvs["cache.jsonl"][1])[0] == 0
    (ws / "out").unlink()
    return ws


def _locations(doc, path: tuple = ()):
    """The path to every value in ``doc``, the root's included."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _locations(value, (*path, key))


def _mutate_document(data, doc):
    """``doc`` with one value replaced or deleted, or an unknown key added."""
    doc = copy.deepcopy(doc)
    path = data.draw(st.sampled_from(list(_locations(doc))))
    parent, target = None, doc
    for key in path:
        parent, target = target, target[key]
    op = data.draw(st.sampled_from(("replace", "delete", "add key")))
    if op == "add key" and isinstance(target, dict):
        target["zz_unknown"] = data.draw(st.sampled_from(MUTANTS))
    elif op == "delete" and parent is not None:
        del parent[path[-1]]
    elif parent is None:
        doc = data.draw(st.sampled_from(MUTANTS))
    else:
        parent[path[-1]] = data.draw(st.sampled_from(MUTANTS))
    return doc


def _mutate_file(data, path: Path) -> None:
    raw = path.read_bytes()
    how = data.draw(st.sampled_from(("document", "document", "non-utf-8", "truncate")))
    if how == "non-utf-8":
        at = data.draw(st.integers(0, len(raw)))
        raw = raw[:at] + b"\xff\xc3" + raw[at:]
    elif how == "truncate":
        raw = raw[: data.draw(st.integers(0, len(raw) - 1))]
    elif path.suffix == ".json":
        raw = json.dumps(_mutate_document(data, json.loads(raw))).encode("utf-8")
    else:
        lines = raw.decode("utf-8").splitlines()
        n = data.draw(st.integers(0, len(lines) - 1))
        lines[n] = json.dumps(_mutate_document(data, json.loads(lines[n])))
        raw = "".join(line + "\n" for line in lines).encode("utf-8")
    path.write_bytes(raw)


def _run_on_a_copy(workspace: Path, name: str, mutate, pick) -> tuple[int, str]:
    """Run the subcommand ``pick`` chooses among those that read ``name``,
    in a copy of ``workspace`` where ``mutate`` has changed that file."""
    with tempfile.TemporaryDirectory(dir=workspace.parent) as tmp:
        ws = Path(tmp)
        for path in workspace.iterdir():
            shutil.copy(path, ws / path.name)
        mutate(ws / name)
        return _run(pick(_argvs(ws)[name]))


def _assert_zero_or_one_error_line(code: int, err: str) -> None:
    assert "Traceback" not in err
    if code == 0:
        assert not any(line.startswith("error:") for line in err.splitlines()), err
    else:
        assert err.startswith(f"error:{code}:") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "name",
    ["config.json", "exemplars.jsonl", "pool.jsonl", "trajectories.jsonl", "scores.jsonl",
     "selection.jsonl", "embeddings.jsonl", "cache.jsonl"],
)  # fmt: skip
@settings(max_examples=40)
@given(data=st.data())
def test_mutated_input_exits_zero_or_with_one_error_line(workspace, name, data):
    code, err = _run_on_a_copy(
        workspace,
        name,
        lambda path: _mutate_file(data, path),
        lambda argvs: data.draw(st.sampled_from(argvs)),
    )
    _assert_zero_or_one_error_line(code, err)


def _strings(steps):
    return [[str(total), count] for total, count in steps]


@pytest.mark.parametrize(
    "command, kind, change",
    [
        (0, dict, lambda response: None),
        (0, dict, lambda response: {**response, "steps": _strings(response["steps"])}),
        (1, str, lambda response: None),
        (1, str, lambda response: 5),
        (1, str, lambda response: ["x"]),
    ],
    ids=["score-null", "score-string-logprobs", "annotate-null", "annotate-5", "annotate-list"],
)
def test_malformed_cache_entry_exits_zero_or_with_one_error_line(workspace, command, kind, change):
    # ``command`` 0 is score, which reads the scoring entries (objects); 1 is
    # annotate, which reads the generation entries (strings).
    def mutate(path: Path) -> None:
        entries = cache_entries(path)
        index = next(i for i, (_, response) in enumerate(entries) if isinstance(response, kind))
        key, response = entries[index]
        entries[index] = key, change(response)
        write_cache_entries(path, entries)

    code, err = _run_on_a_copy(workspace, "cache.jsonl", mutate, lambda argvs: argvs[command])
    _assert_zero_or_one_error_line(code, err)
