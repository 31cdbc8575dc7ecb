from __future__ import annotations

import argparse
import base64
import copy
import hashlib
import inspect
import json
import math
import random
import re
import warnings
from pathlib import Path

import pytest

from ge_select.backends import _BACKEND_KEYS, build_backend
from ge_select.cli import _build_parser, run
from ge_select.envs import ToyShopConfig, toyshop_guideline, toyshop_make, toyshop_rollout
from ge_select.models import (
    Guideline,
    load_pool,
    load_scores,
    load_selection,
    load_trajectories,
    write_records,
)
from ge_select.pipeline import _CONFIG_KEYS, _PATH_KEYS, load_run_config
from ge_select.prompts import DEFAULT_TEMPLATE

from conftest import (
    backend_echo_response,
    cache_entries,
    echo_response,
    python_child_env,
    run_python_child,
    write_cache_entries,
)


@pytest.fixture
def workspace(tmp_path):
    """A complete working directory: pool, trajectories, guideline, config."""
    config = ToyShopConfig(seed=41, catalog_size=12)
    env, pool, truth = toyshop_make(config, 12)
    guideline_text = toyshop_guideline()
    guideline = Guideline.from_text(guideline_text)
    trajectories = [toyshop_rollout(env, q, guideline.version) for q in pool]

    (tmp_path / "guideline.txt").write_text(guideline_text, encoding="utf-8")
    (tmp_path / "instruction.txt").write_text(
        "You are shopping for one item. Use search[query] and click[button].\n",
        encoding="utf-8",
    )
    write_records(pool, tmp_path / "pool.jsonl")
    write_records(trajectories, tmp_path / "trajectories.jsonl")
    (tmp_path / "config.json").write_text(
        json.dumps(
            {
                "instruction_path": "instruction.txt",
                "score_backend": {"kind": "ngram", "order": 3, "corpus": ""},
                "generate_backend": {"kind": "ngram", "order": 4, "corpus": ""},
                "top_k": 2,
                "t_max": 3,
                "env": {"toyshop": {"seed": 41, "catalog_size": 12}},
            }
        ),
        encoding="utf-8",
    )
    return tmp_path


def ws_args(ws, *pairs):
    return [str(ws / p) if isinstance(p, str) and p.endswith((".jsonl", ".txt", ".json", ".md")) else p for p in pairs]


def score_argv(workspace) -> list[str]:
    return ["score", "--pool", str(workspace / "pool.jsonl"),
            "--trajectories", str(workspace / "trajectories.jsonl"),
            "--guideline", str(workspace / "guideline.txt"),
            "--config", str(workspace / "config.json"),
            "--out", str(workspace / "scores.jsonl"), "--cache-dir", str(workspace / "cache")]


def annotate_argv(workspace) -> list[str]:
    return ["annotate", "--questions", str(workspace / "pool.jsonl"),
            "--guideline", str(workspace / "guideline.txt"),
            "--config", str(workspace / "config.json"), "--env", "toyshop",
            "--out", str(workspace / "annotated.jsonl"), "--cache-dir", str(workspace / "cache")]


def test_help_exits_zero_and_documents_flags(capsys):
    assert run(["--help"]) == 0
    for command, flags in {
        "score": ["--pool", "--trajectories", "--guideline", "--config", "--out",
                  "--parallel", "--cache-dir"],
        "select": ["--scores", "--strategy", "-k", "--seed", "--trajectories", "--embeddings", "--out"],
        "report": ["--scores", "--trajectories", "-m", "--out"],
        "annotate": ["--questions", "--guideline", "--config", "--env", "--env-url", "--out"],
        "export": ["--trajectories", "--instruction", "--guideline", "--out"],
        "stats": ["--trajectories", "--selected", "--pool"],
    }.items():
        assert run([command, "--help"]) == 0
        help_text = capsys.readouterr().out
        for flag in flags:
            assert flag in help_text, (command, flag)


def _readme_block(heading: str) -> str:
    """The first fenced block under the README's ``## <heading>``, without
    its info string."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split(f"\n## {heading}\n", 1)[1].split("```")[1].split("\n", 1)[1]


def _readme_synopsis() -> dict[str, str]:
    """Each subcommand's lines of the README's CLI synopsis."""
    block = _readme_block("CLI")
    parts = re.split(r"^ge-select +(\w+)", block, flags=re.MULTILINE)
    return dict(zip(parts[1::2], parts[2::2]))


def test_readme_cli_synopsis_matches_the_parser():
    synopsis = _readme_synopsis()
    commands = next(
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    assert sorted(synopsis) == sorted(commands)
    for command, parser in commands.items():
        text = synopsis[command]
        options = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
        assert set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", text)) == options, command
        for action in parser._actions:
            if action.choices:
                flag = action.option_strings[-1]
                listed = re.search(rf"{flag} (\S+)", text).group(1).split("|")
                assert listed == list(action.choices), (command, flag)


def test_readme_example_config_loads_without_warning(tmp_path, capsys):
    (tmp_path / "config.json").write_text(_readme_block("Config file"), encoding="utf-8")
    (tmp_path / "instruction.txt").write_text("Shop.\n", encoding="utf-8")
    (tmp_path / "exemplars.jsonl").write_text('{"text": "Task: x\\nAction: y\\n"}\n', encoding="utf-8")
    (tmp_path / "template.txt").write_text(DEFAULT_TEMPLATE, encoding="utf-8")
    (tmp_path / "corpus.txt").write_text("search[mug]\n", encoding="utf-8")
    config = load_run_config(tmp_path / "config.json")
    assert capsys.readouterr().err == ""
    assert config.generate_backend["corpus_path"] == str(tmp_path / "corpus.txt")


def _readme_keys(section: str, subject: str) -> set[str]:
    """The key names the README's ``## <section>`` lists in its sentence
    "<subject> takes `a`, `b` ... and `z`."."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    text = readme.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    sentence = re.search(rf"{re.escape(subject)} takes\s(.*?)[.;]\s", text, flags=re.DOTALL)
    return set(re.findall(r"`(\w+)`", sentence.group(1)))


def test_readme_config_entry_keys_match_the_code():
    assert _readme_keys("Config file", "The top level") == {*_CONFIG_KEYS, *_PATH_KEYS}
    for kind, allowed in _BACKEND_KEYS.items():
        assert _readme_keys("Config file", f"`{kind}`") == set(allowed), kind
    assert _readme_keys("Config file", "`env`") == {"toyshop"}
    assert _readme_keys("Config file", "`env.toyshop`") == set(inspect.signature(ToyShopConfig).parameters)


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["score", "--pool", "pool.jsonl", "--trajectories", "trajectories.jsonl",
          "--guideline", "guideline.txt", "--config", "config.json", "--no-guideline-only",
          "--out", "out.jsonl"], "--no-guideline-only"),
        (["annotate", "--questions", "pool.jsonl", "--guideline", "guideline.txt",
          "--config", "config.json", "--env", "replay", "--out", "out.jsonl"], "--env"),
        (["select", "--strategy", "highscore", "--trajectories", "trajectories.jsonl",
          "--reward-tolerance", "0.5", "--out", "out.jsonl"], "--reward-tolerance"),
        (["annotate", "--questions", "pool.jsonl", "--guideline", "guideline.txt",
          "--config", "config.json", "--env", "toyshop", "--tmax", "3", "--out", "out.jsonl"],
         "--tmax"),
    ],  # fmt: skip
    ids=["score-no-guideline-only", "annotate-env-replay", "select-reward-tolerance", "annotate-tmax"],
)
def test_removed_options_are_usage_errors(workspace, capsys, argv, needle):
    assert run(ws_args(workspace, *argv)) == 1
    assert_one_error_line(capsys.readouterr().err, 1, needle)
    assert not (workspace / "out.jsonl").exists()


def test_unknown_subcommand_and_flag_exit_one(capsys):
    assert run(["frobnicate"]) == 1
    assert "error:1:" in capsys.readouterr().err
    assert run(["stats", "--bogus-flag", "x"]) == 1
    assert "error:1:" in capsys.readouterr().err
    assert run([]) == 1


def test_missing_file_exits_two(workspace, capsys):
    code = run(
        [
            "score",
            "--pool", str(workspace / "missing.jsonl"),
            "--trajectories", str(workspace / "trajectories.jsonl"),
            "--guideline", str(workspace / "guideline.txt"),
            "--config", str(workspace / "config.json"),
            "--out", str(workspace / "scores.jsonl"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:2:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["score", "annotate"])
def test_missing_config_is_not_reported_as_malformed(workspace, capsys, command):
    argv = score_argv(workspace) if command == "score" else annotate_argv(workspace)
    argv[argv.index("--config") + 1] = str(workspace / "nope.json")
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert_one_error_line(err, 2, "cannot read config file", "nope.json")
    assert "malformed" not in err


def test_score_select_report_export_stats_flow(workspace, capsys):
    scores_path = workspace / "scores.jsonl"
    code = run(
        [
            "score",
            "--pool", str(workspace / "pool.jsonl"),
            "--trajectories", str(workspace / "trajectories.jsonl"),
            "--guideline", str(workspace / "guideline.txt"),
            "--config", str(workspace / "config.json"),
            "--out", str(scores_path),
            "--cache-dir", str(workspace / "cache"),
        ]
    )
    assert code == 0
    scores = load_scores(scores_path)
    assert len(scores) == 12

    selection_path = workspace / "selected.jsonl"
    assert run(
        ["select", "--scores", str(scores_path), "--strategy", "ge",
         "-k", "5", "--out", str(selection_path)]
    ) == 0
    selection = load_selection(selection_path)
    assert len(selection.items) == 5
    assert selection.strategy == "ge"

    report_path = workspace / "report.md"
    assert run(
        ["report", "--scores", str(scores_path), "--trajectories",
         str(workspace / "trajectories.jsonl"), "-m", "4", "--out", str(report_path)]
    ) == 0
    assert report_path.read_text(encoding="utf-8").count("## ") == 4

    sft_path = workspace / "sft.jsonl"
    assert run(
        ["export", "--trajectories", str(workspace / "trajectories.jsonl"),
         "--instruction", str(workspace / "instruction.txt"),
         "--guideline", str(workspace / "guideline.txt"), "--out", str(sft_path)]
    ) == 0
    assert len(sft_path.read_text(encoding="utf-8").splitlines()) == 12

    assert run(
        ["stats", "--trajectories", str(workspace / "trajectories.jsonl"),
         "--selected", str(selection_path), "--pool", str(workspace / "pool.jsonl")]
    ) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert "avg_turns" in payload and "avg_reward_pct" in payload
    assert "difficulty_shift" in payload


def test_score_rerun_with_warm_cache_is_byte_identical(workspace):
    argv = [
        "score",
        "--pool", str(workspace / "pool.jsonl"),
        "--trajectories", str(workspace / "trajectories.jsonl"),
        "--guideline", str(workspace / "guideline.txt"),
        "--config", str(workspace / "config.json"),
        "--out", str(workspace / "scores.jsonl"),
        "--cache-dir", str(workspace / "cache"),
    ]
    assert run(argv) == 0
    first = (workspace / "scores.jsonl").read_bytes()
    assert run(argv) == 0
    assert (workspace / "scores.jsonl").read_bytes() == first


def test_score_warns_once_about_malformed_cache_lines(workspace, capsys):
    argv = [
        "score",
        "--pool", str(workspace / "pool.jsonl"),
        "--trajectories", str(workspace / "trajectories.jsonl"),
        "--guideline", str(workspace / "guideline.txt"),
        "--config", str(workspace / "config.json"),
        "--out", str(workspace / "scores.jsonl"),
        "--cache-dir", str(workspace / "cache"),
    ]
    assert run(argv) == 0
    scores = (workspace / "scores.jsonl").read_bytes()
    cache_path = workspace / "cache" / "cache.jsonl"
    lines = cache_path.read_text(encoding="utf-8").splitlines(keepends=True)
    corrupted = "".join(lines[:1] + ["{not json\n"] + lines[1:]) + '{"key":"torn","resp'
    cache_path.write_text(corrupted, encoding="utf-8")
    capsys.readouterr()
    assert run(argv) == 0
    err = capsys.readouterr().err
    assert err.count("warning: cache") == 1
    assert f"warning: cache {cache_path}: skipped 2 malformed line(s)" in err
    assert (workspace / "scores.jsonl").read_bytes() == scores
    # every good entry loaded: the rerun was all hits and appended nothing
    assert cache_path.read_text(encoding="utf-8") == corrupted


def legacy_cache_line(hex_key: str, response) -> str:
    """One cache line as written while keys were hex."""
    entry = {"key": hex_key, "response": response}
    return json.dumps(entry, ensure_ascii=False, separators=(",", ":")) + "\n"


def cold_run_with_hex_keys(workspace, monkeypatch) -> tuple[bytes, bytes, list, dict[str, str]]:
    """A cold ``score`` and ``annotate`` into ``<workspace>/fresh``: their
    outputs, the cache's entries, and each key's full SHA-256 hex key, the
    key that caches stored before keys were base64url."""
    from ge_select import backends, pipeline

    real_cache_key, hex_keys = backends.cache_key, {}

    def recording_cache_key(backend_id, request_body):
        key = real_cache_key(backend_id, request_body)
        hashed = (backend_id.fingerprint + "\n" + request_body).encode("utf-8")
        hex_keys[key] = hashlib.sha256(hashed).hexdigest()
        return key

    with monkeypatch.context() as patch:  # scoring and generation keys
        patch.setattr(pipeline, "cache_key", recording_cache_key)
        patch.setattr(backends, "cache_key", recording_cache_key)
        for argv in (score_argv(workspace), annotate_argv(workspace)):
            argv[argv.index("--cache-dir") + 1] = str(workspace / "fresh")
            assert run(argv) == 0
    entries = cache_entries(workspace / "fresh" / "cache.jsonl")
    # scoring entries are objects, generation entries strings
    assert {type(response) for _, response in entries} == {dict, str}
    assert all(re.fullmatch(r"[A-Za-z0-9_-]{22}", key) for key, _ in entries)
    # a key is the first 128 bits of the SHA-256, the bits that a 32-hex key held
    assert all(base64.urlsafe_b64decode(key + "==").hex() == hex_keys[key][:32] for key, _ in entries)
    outputs = (workspace / "scores.jsonl").read_bytes(), (workspace / "annotated.jsonl").read_bytes()
    return *outputs, entries, hex_keys


def assert_warm_run_calls_no_backend(workspace, monkeypatch, cache_dir: Path, scores, annotated):
    """A warm ``score`` and ``annotate`` over ``cache_dir`` write ``scores``
    and ``annotated`` with no backend call and leave the cache byte-unchanged."""
    from ge_select import backends

    def no_call(*args, **kwargs):
        raise AssertionError("a warm run called the backend")

    cache = (cache_dir / "cache.jsonl").read_bytes()
    monkeypatch.setattr(backends.NgramBackend, "echo_logprobs", no_call)
    monkeypatch.setattr(backends.NgramBackend, "generate", no_call)
    (workspace / "scores.jsonl").unlink()
    (workspace / "annotated.jsonl").unlink()
    for argv in (score_argv(workspace), annotate_argv(workspace)):
        argv[argv.index("--cache-dir") + 1] = str(cache_dir)
        assert run(argv) == 0
    assert (workspace / "scores.jsonl").read_bytes() == scores
    assert (workspace / "annotated.jsonl").read_bytes() == annotated
    assert (cache_dir / "cache.jsonl").read_bytes() == cache


def test_a_cache_written_with_full_sha256_keys_still_serves_every_hit(workspace, monkeypatch):
    """Caches written before keys were base64url hold one ``{"key",
    "response"}`` object per line, keyed by the full 64-character hex
    SHA-256. A warm ``score`` and ``annotate`` over one such cache call no
    backend, write the cold run's bytes and append nothing."""
    scores, annotated, entries, hex_keys = cold_run_with_hex_keys(workspace, monkeypatch)
    full = workspace / "full"
    full.mkdir()
    (full / "cache.jsonl").write_text(
        "".join(legacy_cache_line(hex_keys[key], response) for key, response in entries),
        encoding="utf-8",
    )
    assert_warm_run_calls_no_backend(workspace, monkeypatch, full, scores, annotated)


def test_one_cache_of_hex_keyed_and_list_lines_serves_every_hit(workspace, monkeypatch, capsys):
    """One ``cache.jsonl`` may hold lines of all three kinds: objects keyed by
    64 and by 32 hex characters, and ``[key, response]`` lists. A warm run
    over it serves every entry, and counts the torn list line, the null
    response and the object keyed by a non-hex string as skipped lines."""
    scores, annotated, entries, hex_keys = cold_run_with_hex_keys(workspace, monkeypatch)
    lines = []
    for i, (key, response) in enumerate(entries):
        if i % 3 == 0:
            lines.append(legacy_cache_line(hex_keys[key], response))
        elif i % 3 == 1:
            lines.append(legacy_cache_line(hex_keys[key][:32], response))
        else:
            lines.append(json.dumps([key, response]) + "\n")
    key, response = entries[0]
    lines.insert(1, json.dumps([key, None]) + "\n")
    lines.insert(3, legacy_cache_line("z" + hex_keys[key][1:], response))
    lines.append(json.dumps([key, response])[:-3])  # torn by a crash mid-append
    mixed = workspace / "mixed"
    mixed.mkdir()
    (mixed / "cache.jsonl").write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert_warm_run_calls_no_backend(workspace, monkeypatch, mixed, scores, annotated)
    warning = f"warning: cache {mixed / 'cache.jsonl'}: skipped 3 malformed line(s)\n"
    assert capsys.readouterr().err == 2 * warning


def test_select_all_strategies(workspace):
    scores_path = workspace / "scores.jsonl"
    run(
        ["score", "--pool", str(workspace / "pool.jsonl"),
         "--trajectories", str(workspace / "trajectories.jsonl"),
         "--guideline", str(workspace / "guideline.txt"),
         "--config", str(workspace / "config.json"),
         "--out", str(scores_path), "--cache-dir", str(workspace / "cache")]
    )
    for strategy, extra in {
        "ge": ["--scores", str(scores_path)],
        "entropy": ["--scores", str(scores_path)],
        "random": ["--pool", str(workspace / "pool.jsonl"), "--seed", "7"],
        "highscore": ["--trajectories", str(workspace / "trajectories.jsonl"), "--seed", "7"],
        "fl": ["--pool", str(workspace / "pool.jsonl")],
    }.items():
        out = workspace / f"sel_{strategy}.jsonl"
        assert run(["select", "--strategy", strategy, "-k", "4", "--out", str(out), *extra]) == 0
        selection = load_selection(out)
        assert selection.strategy == strategy
        assert len(selection.items) <= 4


def test_select_negative_k_is_a_usage_error(workspace, capsys):
    scores_path = workspace / "scores.jsonl"
    assert run(score_argv(workspace)) == 0
    for strategy, extra in {
        "ge": ["--scores", str(scores_path)],
        "entropy": ["--scores", str(scores_path)],
        "random": ["--pool", str(workspace / "pool.jsonl")],
        "highscore": ["--trajectories", str(workspace / "trajectories.jsonl")],
        "fl": ["--pool", str(workspace / "pool.jsonl")],
    }.items():
        out = workspace / f"sel_{strategy}.jsonl"
        capsys.readouterr()
        assert run(["select", "--strategy", strategy, "-k", "-3", "--out", str(out), *extra]) == 1
        assert_one_error_line(capsys.readouterr().err, 1, "-k")
        assert not out.exists()
        assert run(["select", "--strategy", strategy, "-k", "0", "--out", str(out), *extra]) == 0
        assert load_selection(out).items == ()


def test_select_high_score_short_supply_warns_but_succeeds(workspace, capsys):
    out = workspace / "hs.jsonl"
    code = run(
        ["select", "--strategy", "highscore", "-k", "500",
         "--trajectories", str(workspace / "trajectories.jsonl"), "--out", str(out)]
    )
    assert code == 0
    assert "warning" in capsys.readouterr().err
    selection = load_selection(out)
    assert selection.warning


def test_select_missing_inputs_usage_error(workspace, capsys):
    for strategy, needle in {
        "ge": "--scores is required for --strategy ge",
        "entropy": "--scores is required for --strategy entropy",
        "random": "--pool or --scores is required for --strategy random",
        "highscore": "--trajectories is required for --strategy highscore",
        "fl": "--embeddings or --pool is required for --strategy fl",
    }.items():
        argv = ["select", "--strategy", strategy, "-k", "3", "--out", str(workspace / "x.jsonl")]
        assert run(argv) == 1
        assert_one_error_line(capsys.readouterr().err, 1, needle)
    assert not (workspace / "x.jsonl").exists()


@pytest.mark.parametrize(
    "lines",
    [
        ["5"],
        ['{"question_id":"a","embedding":["x"]}'],
        ['{"question_id":"a","embedding":3}'],
        ['{"question_id":"","embedding":[1.0]}'],
        ['{"embedding":[1.0]}'],
        ['{"question_id":"a","embedding":[NaN]}'],
        ['{"question_id":"a","embedding":[1' + "0" * 400 + "]}"],
        ['{"question_id":"a\\ud800","embedding":[1.0]}'],
        ["[" * 100_000],
        ['{"question_id":"a","embedding":[1.0]}', '{"question_id":"b","embedding":[1.0,2.0]}'],
        ['{"question_id":"a","embedding":[1.0,2.0]}', '{"question_id":"b","embedding":[]}'],
        # Nonzero vectors whose sum of squares overflows or underflows to 0.
        ['{"question_id":"b","embedding":[1.0,0.0]}', "", '{"question_id":"a","embedding":[1e308,1e308]}'],
        ['{"question_id":"b","embedding":[1.0,0.0]}', "", '{"question_id":"a","embedding":[1e200,0.0]}'],
        ['{"question_id":"b","embedding":[1.0,0.0]}', "", '{"question_id":"a","embedding":[1e-320,0.0]}'],
        # No dimensions: every gain would be 0.
        ['{"question_id":"a","embedding":[]}'],
    ],
)
def test_select_fl_malformed_embeddings_exit_two(tmp_path, capsys, lines):
    path = tmp_path / "embeddings.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning escapes as an exception
        code = run(
            ["select", "--strategy", "fl", "-k", "1", "--embeddings", str(path),
             "--out", str(tmp_path / "sel.jsonl")]
        )
    assert code == 2
    assert_one_error_line(capsys.readouterr().err, 2, f"{path}:{len(lines)}:")


def test_backend_unreachable_exits_three(workspace, capsys):
    (workspace / "bad_config.json").write_text(
        json.dumps(
            {
                "score_backend": {
                    "kind": "http",
                    "model": "m",
                    "endpoint": "http://127.0.0.1:9",
                    "backoff": 0.0,
                    "timeout": 0.2,
                },
            }
        ),
        encoding="utf-8",
    )
    code = run(
        ["score", "--pool", str(workspace / "pool.jsonl"),
         "--trajectories", str(workspace / "trajectories.jsonl"),
         "--guideline", str(workspace / "guideline.txt"),
         "--config", str(workspace / "bad_config.json"),
         "--out", str(workspace / "scores.jsonl"),
         "--cache-dir", str(workspace / "cache2")]
    )
    assert code == 3
    assert capsys.readouterr().err.startswith("error:3:")


def test_annotate_toyshop_and_selection_resolution(workspace):
    out = workspace / "annotated.jsonl"
    code = run(
        ["annotate", "--questions", str(workspace / "pool.jsonl"),
         "--guideline", str(workspace / "guideline.txt"),
         "--config", str(workspace / "config.json"),
         "--env", "toyshop",
         "--cache-dir", str(workspace / "cache"),
         "--out", str(out)]
    )
    assert code == 0
    annotated = load_trajectories(out)
    assert annotated and all(t.source == "annotated" for t in annotated)
    assert all(len(t.steps) <= 3 for t in annotated)

    # selection file + --pool resolves question texts
    run(
        ["select", "--strategy", "random", "-k", "3",
         "--pool", str(workspace / "pool.jsonl"), "--seed", "1",
         "--out", str(workspace / "rand.jsonl")]
    )
    out2 = workspace / "annotated2.jsonl"
    code = run(
        ["annotate", "--questions", str(workspace / "rand.jsonl"),
         "--pool", str(workspace / "pool.jsonl"),
         "--guideline", str(workspace / "guideline.txt"),
         "--config", str(workspace / "config.json"),
         "--env", "toyshop",
         "--cache-dir", str(workspace / "cache"),
         "--out", str(out2)]
    )
    assert code == 0
    assert len(load_trajectories(out2)) == 3


def test_annotate_toyshop_episodes_run_to_the_config_t_max(workspace):
    """The shop ends an episode only at a buy, so a generator that never buys
    runs every episode to ``t_max``, whatever the shop's settings."""
    config = json.loads((workspace / "config.json").read_text(encoding="utf-8"))
    config["t_max"] = 20
    (workspace / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert run(annotate_argv(workspace)) == 0
    annotated = load_trajectories(workspace / "annotated.jsonl")
    assert len(annotated) == 12
    assert all(len(t.steps) == 20 and t.reward == 0.0 for t in annotated)


@pytest.mark.parametrize("first_line", ["5", "true", "null", '"strategy"'])
def test_annotate_questions_file_whose_first_record_is_not_an_object_exits_two(
    workspace, capsys, first_line
):
    questions = workspace / "questions.jsonl"
    pool_text = (workspace / "pool.jsonl").read_text(encoding="utf-8")
    questions.write_text(first_line + "\n" + pool_text, encoding="utf-8")
    code = run(
        ["annotate", "--questions", str(questions),
         "--guideline", str(workspace / "guideline.txt"),
         "--config", str(workspace / "config.json"),
         "--env", "toyshop",
         "--cache-dir", str(workspace / "cache"),
         "--out", str(workspace / "annotated.jsonl")]
    )
    assert code == 2
    assert_one_error_line(capsys.readouterr().err, 2, f"{questions}:1:")


def test_annotate_reads_a_pool_whose_questions_carry_a_strategy_key(workspace):
    pool = workspace / "strategy_pool.jsonl"
    pool.write_text('{"id":"q1","text":"find a red mug","strategy":"x"}\n', encoding="utf-8")
    argv = annotate_argv(workspace)
    argv[argv.index("--questions") + 1] = str(pool)
    assert run(argv) == 0
    assert [t.question_id for t in load_trajectories(workspace / "annotated.jsonl")] == ["q1"]


_EMPTY_SELECTION = {"strategy": "random", "params": {"k": 0, "seed": 0}, "items": []}
_ZZ_SELECTION = {**_EMPTY_SELECTION, "items": [{"question_id": "zz", "score": 0.0}]}
# A selection file, and the message with which ``stats --selected`` and
# ``annotate --questions`` refuse it (None: the command accepts it).
_BAD_SELECTIONS = {
    "strategy-unknown": ([{**_EMPTY_SELECTION, "strategy": "best"}],
                         "selection strategy must be one of", "selection strategy must be one of"),
    "items-not-a-list": ([{**_EMPTY_SELECTION, "items": {}}],
                         "'items' must be a list", "'items' must be a list"),
    "two-records": ([_EMPTY_SELECTION] * 2, "selection file must contain exactly one record",
                    "selection file must contain exactly one record"),
    "id-outside-the-pool": ([_ZZ_SELECTION], "selected question 'zz' is not in the pool",
                            "selection ids missing from pool: ['zz']"),
    "empty": ([_EMPTY_SELECTION], None, "annotate needs at least one question"),
}  # fmt: skip


@pytest.mark.parametrize(
    "records, stats_needle, annotate_needle", _BAD_SELECTIONS.values(), ids=list(_BAD_SELECTIONS)
)
def test_bad_selection_file_exits_two(workspace, capsys, records, stats_needle, annotate_needle):
    selection = workspace / "selection.jsonl"
    selection.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    stats = ["stats", "--trajectories", str(workspace / "trajectories.jsonl"),
             "--selected", str(selection), "--pool", str(workspace / "pool.jsonl")]  # fmt: skip
    annotate = [*annotate_argv(workspace), "--questions", str(selection),
                "--pool", str(workspace / "pool.jsonl")]  # fmt: skip
    for argv, needle in ((stats, stats_needle), (annotate, annotate_needle)):
        capsys.readouterr()
        if needle is None:
            assert run(argv) == 0
            continue
        assert run(argv) == 2
        assert_one_error_line(capsys.readouterr().err, 2, needle)
    assert not (workspace / "annotated.jsonl").exists()
    # Without --pool, annotate cannot resolve a selection's ids.
    assert run(annotate[: annotate.index("--pool")]) == 1
    assert_one_error_line(
        capsys.readouterr().err, 1, "--pool is required when --questions is a selection file"
    )


def test_annotate_http_env(workspace, local_server):
    def handler(path, body):
        if path == "/reset":
            return 200, {"observation": "ready"}
        return 200, {"observation": "done", "reward": 1.0, "done": True}

    local_server.handler = handler
    out = workspace / "http_annotated.jsonl"
    code = run(
        ["annotate", "--questions", str(workspace / "pool.jsonl"),
         "--guideline", str(workspace / "guideline.txt"),
         "--config", str(workspace / "config.json"),
         "--env", "http", "--env-url", local_server.url,
         "--cache-dir", str(workspace / "cache"),
         "--out", str(out)]
    )
    assert code == 0
    annotated = load_trajectories(out)
    assert all(t.reward == 1.0 and len(t.steps) == 1 for t in annotated)


def test_annotate_http_env_requires_url(workspace):
    fresh = workspace / "fresh"
    assert run(
        ["annotate", "--questions", str(workspace / "pool.jsonl"),
         "--guideline", str(workspace / "guideline.txt"),
         "--config", str(workspace / "config.json"),
         "--env", "http",
         "--out", str(workspace / "x.jsonl"),
         "--cache-dir", str(fresh)]
    ) == 1
    assert not fresh.exists()  # the usage error is raised before the cache is opened


def test_annotate_whose_every_reset_fails_exits_four(workspace, capsys, local_server):
    local_server.handler = lambda path, body: (500, {"error": "down"})
    argv = [*annotate_argv(workspace), "--env", "http", "--env-url", local_server.url]
    assert run(argv) == 4
    assert_one_error_line(
        capsys.readouterr().err, 4,
        "error:4:all 12 rollouts failed: environment /reset returned HTTP 500",
    )
    assert [path for path, _, _ in local_server.requests] == ["/reset"] * 12
    assert not (workspace / "annotated.jsonl").exists()


def test_annotate_whose_every_rollout_fails_with_one_generation_failure_exits_three(
    workspace, capsys, local_server
):
    """Half the resets fail and every completion is empty: the run fails as a
    backend failure, since not every rollout failed in the environment, and
    its message names the first generation failure."""
    questions = [q.id for q in load_pool(workspace / "pool.jsonl")]

    def handler(path, body):
        if path == "/reset":
            status = 500 if questions.index(body["question_id"]) % 2 == 0 else 200
            return status, {"observation": "ready"}
        return 200, {"choices": [{"text": ""}]}

    local_server.handler = handler
    config = json.loads((workspace / "config.json").read_text(encoding="utf-8"))
    config["generate_backend"] = {"kind": "http", "model": "m", "endpoint": local_server.url}
    (workspace / "config.json").write_text(json.dumps(config), encoding="utf-8")
    argv = [*annotate_argv(workspace), "--env", "http", "--env-url", local_server.url]
    assert run(argv) == 3
    assert_one_error_line(
        capsys.readouterr().err, 3,
        "error:3:all 12 rollouts failed: backend produced an empty completion",
    )
    assert [path for path, _, _ in local_server.requests].count("/completions") == 6
    assert not (workspace / "annotated.jsonl").exists()


def test_annotate_asks_http_generation_for_the_action_line_only(workspace, local_server):
    """Every turn's request stops at the first newline, so a reply whose
    first line is empty is an empty completion: that question gets one
    ``annotate-generate`` diagnostic, and the others still roll out."""
    replies = iter(["\nclick[buy]"])

    def handler(path, body):
        return 200, {"choices": [{"text": next(replies, "click[buy]")}]}

    local_server.handler = handler
    config = json.loads((workspace / "config.json").read_text(encoding="utf-8"))
    config["generate_backend"] = {"kind": "http", "model": "m", "endpoint": local_server.url}
    (workspace / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert run(annotate_argv(workspace)) == 0
    assert all(body["stop"] == ["\n"] for _, body, _ in local_server.requests)
    first, *rest = [q.id for q in load_pool(workspace / "pool.jsonl")]
    sidecar = workspace / "annotated.jsonl.diag.jsonl"
    assert [json.loads(line) for line in sidecar.read_text(encoding="utf-8").splitlines()] == [
        {"question_id": first, "stage": "annotate-generate",
         "error": "backend produced an empty completion"}  # fmt: skip
    ]
    annotated = load_trajectories(workspace / "annotated.jsonl")
    assert [t.question_id for t in annotated] == rest
    assert all([s.action for s in t.steps] == ["click[buy]"] for t in annotated)


def test_select_default_budget_on_large_score_file(tmp_path):
    import math

    from ge_select.models import ScoreRecord, StepScore

    scores = []
    for i in range(10_000):
        ge = math.sin(i * 0.37)
        scores.append(
            ScoreRecord(
                question_id=f"q{i:05d}",
                guideline_version="0" * 12,
                backend_id="b" * 12,
                per_step=(StepScore(d_i=math.exp(ge), d_g=1.0, n_tokens=1),),
                ge=ge,
            )
        )
    scores_path = tmp_path / "scores.jsonl"
    write_records(scores, scores_path)
    out = tmp_path / "sel.jsonl"
    assert run(["select", "--scores", str(scores_path), "--strategy", "ge",
                "--out", str(out)]) == 0  # -k defaults to 800
    selection = load_selection(out)
    assert len(selection.items) == 800
    assert selection.params["k"] == 800
    ordered = [i.score for i in selection.items]
    assert ordered == sorted(ordered)


def test_stats_without_selection(workspace, capsys):
    assert run(["stats", "--trajectories", str(workspace / "trajectories.jsonl")]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(payload) == {"avg_turns", "avg_reward_pct"}
    assert run(["stats", "--trajectories", str(workspace / "trajectories.jsonl"),
                "--selected", str(workspace / "nope.jsonl")]) == 1


def assert_one_error_line(err: str, code: int, *needles: str) -> None:
    assert err.startswith(f"error:{code}:")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    for needle in needles:
        assert needle in err


def test_trajectory_reward_beyond_float_range_exits_two(workspace, capsys):
    record = json.loads((workspace / "trajectories.jsonl").read_text(encoding="utf-8").splitlines()[0])
    record["reward"] = 10**400
    path = workspace / "huge.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert run(["stats", "--trajectories", str(path)]) == 2
    assert_one_error_line(capsys.readouterr().err, 2, "'reward'")


@pytest.mark.parametrize("field", ["d_i", "mean_entropy"])
def test_score_number_beyond_float_range_exits_two(tmp_path, capsys, field):
    record = {
        "question_id": "q1",
        "guideline_version": "0" * 12,
        "backend_id": "b" * 12,
        "per_step": [{"d_i": 1.0, "d_g": 1.0, "n_tokens": 1}],
        "ge": 0.0,
        "mean_entropy": 0.5,
    }
    if field == "d_i":
        record["per_step"][0]["d_i"] = 10**400
    else:
        record["mean_entropy"] = 10**400
    path = tmp_path / "scores.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    code = run(["select", "--scores", str(path), "--strategy", "ge", "-k", "1",
                "--out", str(tmp_path / "sel.jsonl")])
    assert code == 2
    assert_one_error_line(capsys.readouterr().err, 2, f"'{field}'")


@pytest.mark.parametrize("field", ["guideline_version", "backend_id"])
def test_scores_file_mixing_guidelines_or_backends_exits_two(tmp_path, capsys, field):
    records = [
        {
            "question_id": f"q{i}",
            "guideline_version": "0" * 12,
            "backend_id": "b" * 12,
            "per_step": [{"d_i": 1.0, "d_g": 1.0, "n_tokens": 1}],
            "ge": 0.0,
        }
        for i in range(4)
    ]
    records[2][field] = "1" * 12
    path = tmp_path / "scores.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    out = tmp_path / "sel.jsonl"
    code = run(["select", "--scores", str(path), "--strategy", "ge", "-k", "2", "--out", str(out)])
    assert code == 2
    assert_one_error_line(capsys.readouterr().err, 2, f"{path}:3:", field, "line 1")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["select", "--strategy", "ge", "-k", "1"], ["select", "--strategy", "entropy", "-k", "1"],
     ["select", "--strategy", "random", "-k", "1"], ["report", "-m", "5"],
     ["select", "--strategy", "fl", "-k", "1"]],
    ids=["select-ge", "select-entropy", "select-random", "report", "select-fl"],
)  # fmt: skip
def test_scores_file_repeating_a_question_id_exits_two(workspace, capsys, argv):
    records = [
        {
            "question_id": f"q{i}",
            "guideline_version": "0" * 12,
            "backend_id": "b" * 12,
            "per_step": [{"d_i": 1.0, "d_g": 1.0 + i, "n_tokens": 1}],
            "ge": -math.log(1.0 + i),
            "mean_entropy": 0.1 * i,
        }
        for i in range(5)
    ]
    flag = "--scores"
    if "fl" in argv:  # an embeddings file
        records = [{"question_id": f"q{i}", "embedding": [1.0, float(i)]} for i in range(5)]
        flag = "--embeddings"
    records[3] = records[0]
    path = workspace / "dup.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    out = workspace / "out"
    if argv[0] == "report":
        argv = argv + ["--trajectories", str(workspace / "trajectories.jsonl")]
    assert run(argv + [flag, str(path), "--out", str(out)]) == 2
    assert_one_error_line(capsys.readouterr().err, 2, f"{path}:4:", "'q0'", "line 1")
    assert not out.exists()


def test_report_on_difficulties_whose_quotient_underflows_exits_zero(workspace):
    # d_i / d_g underflows to 0.0, but the log of each is finite.
    ge = math.log(1e-200) - math.log(1e200)
    record = {
        "question_id": "q1",
        "guideline_version": "0" * 12,
        "backend_id": "b" * 12,
        "per_step": [{"d_i": 1e-200, "d_g": 1e200, "n_tokens": 1}],
        "ge": ge,
    }
    path = workspace / "extreme.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    out = workspace / "report.md"
    argv = ["report", "--scores", str(path), "--out", str(out),
            "--trajectories", str(workspace / "trajectories.jsonl")]  # fmt: skip
    assert run(argv) == 0
    assert f"| {ge:+.6f} | guideline conflict |" in out.read_text(encoding="utf-8")


_BAD_RECORDS = {
    "score-ge": ("scores", {"per_step": [{"d_i": 1.0, "d_g": 2.0, "n_tokens": 1}], "ge": 5.0},
                 "does not match per_step"),
    "score-difficulty": ("scores", {"per_step": [{"d_i": -1.0, "d_g": 2.0, "n_tokens": 1}]},
                         "difficulties must be > 0"),
    "score-per_step-empty": ("scores", {"per_step": []}, "score 'q1': per_step must be non-empty"),
    "trajectory-source": ("trajectories", {"source": "scraped"}, "source must be one of"),
    "trajectory-steps": ("trajectories", {"steps": []}, "steps must be non-empty"),
    "step-action": ("trajectories", {"steps": [{"action": " ", "observation": ""}]},
                    "action must be non-empty"),
}  # fmt: skip


@pytest.mark.parametrize("kind, changes, needle", _BAD_RECORDS.values(), ids=list(_BAD_RECORDS))
def test_record_checks_name_the_file_position(workspace, capsys, kind, changes, needle):
    if kind == "scores":
        record = {"question_id": "q1", "guideline_version": "0" * 12, "backend_id": "b" * 12,
                  "ge": 0.0, **changes}  # fmt: skip
        argv = ["select", "--strategy", "ge", "-k", "1", "--scores"]
    else:
        line = (workspace / "trajectories.jsonl").read_text(encoding="utf-8").splitlines()[0]
        record = {**json.loads(line), **changes}
        argv = ["stats", "--trajectories"]
    path = workspace / "bad.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    argv.append(str(path))
    if kind == "scores":
        argv += ["--out", str(workspace / "sel.jsonl")]
    assert run(argv) == 2
    assert_one_error_line(capsys.readouterr().err, 2, f"{path}:1", needle)


@pytest.mark.parametrize(
    "settings, needle",
    [({"backoff": 1e300, "max_retries": 1}, "backoff"), ({"max_retries": 10**6}, "max_retries")],
)
def test_http_retry_schedule_beyond_its_caps_exits_two_before_connecting(
    workspace, capsys, local_server, settings, needle
):
    config = json.loads((workspace / "config.json").read_text(encoding="utf-8"))
    config["score_backend"] = {"kind": "http", "model": "m", "endpoint": local_server.url, **settings}
    (workspace / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert run(score_argv(workspace)) == 2
    assert_one_error_line(capsys.readouterr().err, 2, needle)
    assert local_server.requests == []


def test_http_echo_reply_that_does_not_tile_exits_three(workspace, capsys, local_server):
    def shifted(path, body):
        reply = echo_response(body["prompt"], body["logprobs"])
        logprobs = reply["choices"][0]["logprobs"]
        logprobs["text_offset"] = [offset + 1 for offset in logprobs["text_offset"]]
        return 200, reply

    local_server.handler = shifted
    config = json.loads((workspace / "config.json").read_text(encoding="utf-8"))
    config["score_backend"] = {"kind": "http", "model": "m", "endpoint": local_server.url}
    (workspace / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert run(score_argv(workspace)) == 3
    assert_one_error_line(capsys.readouterr().err, 3, "does not tile the submitted prompt")
    assert not (workspace / "scores.jsonl").exists()


def test_http_echo_reply_whose_token_text_differs_from_the_prompt_exits_three(
    workspace, capsys, local_server
):
    def altered(path, body):
        # The offsets tile and every token keeps its length: only the last
        # token's text is not the prompt's.
        reply = echo_response(body["prompt"], body["logprobs"])
        tokens = reply["choices"][0]["logprobs"]["tokens"]
        tokens[-1] = "".join("b" if ch == "a" else "a" for ch in tokens[-1])
        return 200, reply

    local_server.handler = altered
    config = json.loads((workspace / "config.json").read_text(encoding="utf-8"))
    config["score_backend"] = {"kind": "http", "model": "m", "endpoint": local_server.url}
    (workspace / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert run(score_argv(workspace)) == 3
    assert_one_error_line(
        capsys.readouterr().err, 3,
        "all 12 scoring attempts failed: endpoint token stream does not tile the submitted prompt",
    )
    assert not (workspace / "scores.jsonl").exists()


def test_http_echo_null_logprob_inside_a_scored_span_fails_its_question(
    workspace, capsys, local_server
):
    pool = load_pool(workspace / "pool.jsonl")
    texts = [q.text for q in pool]
    question = next(q for q in pool if texts.count(q.text) == 1)  # its prompts name it alone

    def null_in_span(path, body):
        reply = echo_response(body["prompt"], body["logprobs"])
        logprobs = reply["choices"][0]["logprobs"]
        if f"Task: {question.text}\n" in body["prompt"]:
            # The token after the last "Action: " opens the last step's span.
            last = max(i for i, tok in enumerate(logprobs["tokens"]) if tok == "Action: ")
            logprobs["token_logprobs"][last + 1] = None
        return 200, reply

    local_server.handler = null_in_span
    config = json.loads((workspace / "config.json").read_text(encoding="utf-8"))
    config["score_backend"] = {"kind": "http", "model": "m", "endpoint": local_server.url}
    (workspace / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert run(score_argv(workspace)) == 0
    err = capsys.readouterr().err
    trajectories = load_trajectories(workspace / "trajectories.jsonl")
    steps = next(len(t.steps) for t in trajectories if t.question_id == question.id)
    message = (
        f"the echo reply has a null logprob at a token of step {steps - 1}'s scored span"
    )
    assert err == f"warning: {question.id}: {message}\n"
    diagnostics = (workspace / "scores.jsonl.diag.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line) for line in diagnostics] == [
        {"question_id": question.id, "stage": "score", "error": message}
    ]
    assert len(load_scores(workspace / "scores.jsonl")) == 11


@pytest.mark.parametrize("overflowing", [3, 12])
def test_http_logprobs_whose_span_sum_overflows_fail_their_question(
    workspace, capsys, local_server, overflowing
):
    # Each logprob is finite, but any span of two or more tokens sums to -inf.
    # Only the prompts of the first ``overflowing`` questions get such replies.
    texts = [q.text for q in load_pool(workspace / "pool.jsonl")[:overflowing]]

    def huge(path, body):
        reply = echo_response(body["prompt"], body["logprobs"])
        logprobs = reply["choices"][0]["logprobs"]
        if any(text in body["prompt"] for text in texts):
            logprobs["token_logprobs"] = [None] + [-1e308] * (len(logprobs["tokens"]) - 1)
        return 200, reply

    local_server.handler = huge
    config = json.loads((workspace / "config.json").read_text(encoding="utf-8"))
    config["score_backend"] = {"kind": "http", "model": "m", "endpoint": local_server.url}
    config["top_k"] = 0
    (workspace / "config.json").write_text(json.dumps(config), encoding="utf-8")
    code = run(score_argv(workspace))
    err = capsys.readouterr().err
    cache = workspace / "cache" / "cache.jsonl"
    assert not cache.exists() or "Infinity" not in cache.read_text(encoding="utf-8")
    needle = "the sum of its token logprobs must be a finite number"
    if overflowing == 12:
        assert code == 3
        assert_one_error_line(err, 3, "all 12 scoring attempts failed", needle)
        assert not (workspace / "scores.jsonl").exists()
        return
    assert code == 0 and "Traceback" not in err
    diagnostics = (workspace / "scores.jsonl.diag.jsonl").read_text(encoding="utf-8").splitlines()
    assert [f"warning: {d['question_id']}: {d['error']}" for d in map(json.loads, diagnostics)] == err.splitlines()
    assert len(diagnostics) >= overflowing and all(needle in line for line in diagnostics)
    assert len(load_scores(workspace / "scores.jsonl")) == 12 - len(diagnostics)


def test_http_scoring_in_front_of_an_ngram_model_matches_the_direct_run(workspace, local_server):
    config_path = workspace / "config.json"
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config["score_backend"] = {"kind": "ngram", "order": 3, "corpus": toyshop_guideline()}
    config["top_k"] = 3
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert run(score_argv(workspace)) == 0
    direct = load_scores(workspace / "scores.jsonl")
    ngram = build_backend(config["score_backend"])
    local_server.handler = lambda path, body: (
        200,
        backend_echo_response(ngram, body["prompt"], body["logprobs"]),
    )
    config["score_backend"] = {"kind": "http", "model": "m", "endpoint": local_server.url}
    config_path.write_text(json.dumps(config), encoding="utf-8")
    written = []
    for parallel in ("1", "4"):
        out = workspace / f"http-{parallel}.jsonl"
        argv = score_argv(workspace)
        argv[argv.index("--out") + 1] = str(out)
        argv[argv.index("--cache-dir") + 1] = str(workspace / f"cache-{parallel}")
        assert run([*argv, "--parallel", parallel]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]
    via_http = load_scores(workspace / "http-1.jsonl")
    assert len(via_http) == len(direct) == 12
    for http_record, ngram_record in zip(via_http, direct):
        assert http_record.question_id == ngram_record.question_id
        assert [(s.d_i.hex(), s.d_g.hex(), s.n_tokens) for s in http_record.per_step] == [
            (s.d_i.hex(), s.d_g.hex(), s.n_tokens) for s in ngram_record.per_step
        ]
        assert http_record.ge.hex() == ngram_record.ge.hex()
        # The client rebuilds each top-k residual from exp(logprob), not the
        # model's probabilities, so the entropy may differ in its last bits.
        assert math.isclose(http_record.mean_entropy, ngram_record.mean_entropy, rel_tol=1e-15)


def _peak_http_requests(workspace, local_server, *flags: str) -> int:
    """The most echo requests in flight at once while ``score`` runs against
    the local server with ``flags``."""
    import threading
    import time

    state = {"active": 0, "peak": 0}
    gate = threading.Lock()

    def handler(path, body):
        with gate:
            state["active"] += 1
            state["peak"] = max(state["peak"], state["active"])
        time.sleep(0.05)
        with gate:
            state["active"] -= 1
        return 200, echo_response(body["prompt"], body["logprobs"])

    local_server.handler = handler
    config = json.loads((workspace / "config.json").read_text(encoding="utf-8"))
    config["score_backend"] = {"kind": "http", "model": "m", "endpoint": local_server.url}
    (workspace / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert run(score_argv(workspace) + list(flags)) == 0
    return state["peak"]


def test_http_score_has_at_most_parallel_requests_in_flight(workspace, local_server):
    assert _peak_http_requests(workspace, local_server, "--parallel", "2") == 2


def test_http_score_without_parallel_has_at_most_four_requests_in_flight(workspace, local_server):
    assert _peak_http_requests(workspace, local_server) == 4


def test_ngram_score_starts_no_threads_and_writes_the_same_cache_twice(workspace, monkeypatch):
    import concurrent.futures

    def no_threads(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_threads)
    written = []
    for name in ("first", "second"):
        argv = score_argv(workspace) + ["--parallel", "2"]
        argv[argv.index("--cache-dir") + 1] = str(workspace / name)
        assert run(argv) == 0
        cache = workspace / name / "cache.jsonl"
        written.append((cache.read_bytes(), (workspace / "scores.jsonl").read_bytes()))
    assert written[0] == written[1]
    assert written[0][0]


def _ngram(**settings):
    return {"kind": "ngram", "order": 3, "corpus": "", **settings}


def _http(**settings):
    return {"kind": "http", "model": "m", "endpoint": "http://127.0.0.1:9", **settings}


_CONFIG_CASES = {
    "parallelism": ("parallelism", 4, "'parallelism'"),  # ``score --parallel`` sizes the pool
    "top_k-str": ("top_k", "5", "top_k"),
    "top_k-negative": ("top_k", -1, "top_k"),
    "top_k-bool": ("top_k", True, "top_k"),
    "t_max-str": ("t_max", "3", "t_max"),
    "t_max-zero": ("t_max", 0, "t_max"),
    "score_target-typo": ("score_target", "actoin", "score_target"),
    "env-list": ("env", [1], "env"),
    "env-typo": ("env", {"toyshp": {"seed": 41}}, "'toyshp'"),
    "env-toyshop-unknown-key": ("env", {"toyshop": {"seeed": 1}}, "'seeed'"),
    "env-toyshop-turn_cap": ("env", {"toyshop": {"turn_cap": 15}}, "'turn_cap'"),
    "m": ("m", 30, "'m'"),
    "k": ("k", 800, "'k'"),
    "embed_backend": ("embed_backend", {"kind": "hash_embed"}, "'embed_backend'"),
    "env-replay_trajectories": ("env", {"replay_trajectories": "t.jsonl"}, "'replay_trajectories'"),
    "score_backend-str": ("score_backend", "ngram", "score_backend"),
    "score_backend-empty": ("score_backend", {}, "config has no score_backend entry"),
    "generate_backend-list": ("generate_backend", [1], "generate_backend"),
    "instruction_path-int": ("instruction_path", 5, "paths"),
    "ngram-order-9": ("score_backend", _ngram(order=9), "order"),
    "ngram-order-str": ("score_backend", _ngram(order="x"), "order"),
    "ngram-order-float": ("score_backend", _ngram(order=3.7), "order"),
    "ngram-corpus-int": ("score_backend", _ngram(corpus=5), "corpus"),
    "ngram-model-int": ("score_backend", _ngram(model=5), "model"),
    "http-timeout-str": ("score_backend", _http(timeout="30"), "timeout"),
    "http-timeout-huge": ("score_backend", _http(timeout=10**400), "timeout"),
    "http-timeout-1e10": ("score_backend", _http(timeout=1e10), "timeout"),
    "http-backoff-negative": ("score_backend", _http(backoff=-1), "backoff"),
    "http-retries-float": ("score_backend", _http(max_retries=1.5), "max_retries"),
    "http-max_inflight-unknown-key": ("score_backend", _http(max_inflight=2), "'max_inflight'"),
    "http-model-int": ("score_backend", _http(model=5), "model"),
    "ngram-unknown-key": ("score_backend", _ngram(ordr=5), "'ordr'"),
    "http-unknown-key": ("score_backend", _http(retries=1), "'retries'"),
    "generate_backend-unknown-key": ("generate_backend", _ngram(ordr=5), "'ordr'"),
    "kind-list": ("score_backend", {"kind": ["x"]}, "kind"),
    "kind-missing": ("score_backend", {"order": 3}, "kind"),
    "kind-unknown": ("score_backend", {"kind": "quantum"}, "quantum"),
    "kind-hash_embed": ("score_backend", {"kind": "hash_embed"}, "'hash_embed'"),
    "http-no-endpoint": ("score_backend", {"kind": "http", "model": "m"}, "endpoint"),
    "http-endpoint-empty": ("score_backend", _http(endpoint="", backoff=0), "endpoint"),
    "http-endpoint-no-scheme": (
        "score_backend", _http(endpoint="127.0.0.1:9", backoff=0), "endpoint"
    ),
    "ngram-corpus-and-corpus_path": (
        "score_backend", _ngram(corpus_path="guideline.txt"), "'corpus' and 'corpus_path'"
    ),
    "http-corpus_path": ("generate_backend", _http(corpus_path="guideline.txt"), "'corpus_path'"),
}


@pytest.mark.parametrize("key, value, needle", _CONFIG_CASES.values(), ids=list(_CONFIG_CASES))
def test_string_parallelism_in_config_exits_two(workspace, capsys, key, value, needle):
    """A bad or unknown config entry exits 2 naming it, before ``--cache-dir``
    is created."""
    config = json.loads((workspace / "config.json").read_text(encoding="utf-8"))
    config[key] = value
    (workspace / "config.json").write_text(json.dumps(config), encoding="utf-8")
    code = run(
        ["score", "--pool", str(workspace / "pool.jsonl"),
         "--trajectories", str(workspace / "trajectories.jsonl"),
         "--guideline", str(workspace / "guideline.txt"),
         "--config", str(workspace / "config.json"),
         "--out", str(workspace / "scores.jsonl"),
         "--cache-dir", str(workspace / "cache")]
    )
    assert code == 2
    assert_one_error_line(capsys.readouterr().err, 2, needle)
    assert not (workspace / "cache").exists()


@pytest.mark.parametrize("command", ["score", "annotate"])
def test_template_without_a_placeholder_exits_two_at_load(workspace, capsys, command):
    (workspace / "template.txt").write_text(
        "{{instruction}}\n{{exemplars}}Task: {{question}}\n{{steps}}", encoding="utf-8"
    )
    config = json.loads((workspace / "config.json").read_text(encoding="utf-8"))
    config["template_path"] = "template.txt"
    (workspace / "config.json").write_text(json.dumps(config), encoding="utf-8")
    argv = score_argv(workspace) if command == "score" else [
        "annotate", "--questions", str(workspace / "pool.jsonl"),
        "--guideline", str(workspace / "guideline.txt"),
        "--config", str(workspace / "config.json"), "--env", "toyshop",
        "--cache-dir", str(workspace / "cache"), "--out", str(workspace / "annotated.jsonl"),
    ]  # fmt: skip
    assert run(argv) == 2
    assert_one_error_line(capsys.readouterr().err, 2, "{{guideline}}")
    assert not (workspace / "cache").exists()


@pytest.mark.parametrize("key", ["top-k", "topk", "score_backends", "instruction"])
def test_unknown_run_config_key_exits_two(workspace, capsys, key):
    config = json.loads((workspace / "config.json").read_text(encoding="utf-8"))
    config[key] = 3
    (workspace / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert run(score_argv(workspace)) == 2
    assert_one_error_line(capsys.readouterr().err, 2, "unknown key(s)", repr(key))
    assert not (workspace / "scores.jsonl").exists()


def test_removed_run_config_keys_exit_two_at_annotate_load(workspace, capsys):
    """``score`` meets these keys in ``_CONFIG_CASES``."""
    removed = {
        ("m",): 5, ("k",): 9, ("embed_backend",): {"kind": "hash_embed"},
        ("env", "replay_trajectories"): "recorded.jsonl", ("env", "toyshop", "turn_cap"): 15,
    }  # fmt: skip
    original = json.loads((workspace / "config.json").read_text(encoding="utf-8"))
    for (*parents, key), value in removed.items():
        config = copy.deepcopy(original)
        entry = config
        for name in parents:
            entry = entry[name]
        entry[key] = value
        (workspace / "config.json").write_text(json.dumps(config), encoding="utf-8")
        assert run(annotate_argv(workspace)) == 2
        assert_one_error_line(capsys.readouterr().err, 2, "unknown key(s)", repr(key))
        assert not (workspace / "cache").exists()


@pytest.mark.parametrize(
    "entry, needle",
    [
        (_ngram(ordr=5), "'ordr'"),
        ({"kind": ["x"]}, "kind"),
        ({"kind": "http"}, "model"),
        ({}, "config has no generate_backend entry"),
    ],
)
def test_annotate_generate_backend_of_the_wrong_shape_exits_two(workspace, capsys, entry, needle):
    config = json.loads((workspace / "config.json").read_text(encoding="utf-8"))
    config["generate_backend"] = entry
    (workspace / "config.json").write_text(json.dumps(config), encoding="utf-8")
    code = run(
        ["annotate", "--questions", str(workspace / "pool.jsonl"),
         "--guideline", str(workspace / "guideline.txt"),
         "--config", str(workspace / "config.json"),
         "--env", "toyshop",
         "--cache-dir", str(workspace / "cache"),
         "--out", str(workspace / "annotated.jsonl")]
    )
    assert code == 2
    assert_one_error_line(capsys.readouterr().err, 2, needle)
    assert not (workspace / "annotated.jsonl").exists()


_TOYSHOP_CASES = {
    "unknown-key": ("catalogue_size", 12),
    "catalog_size-str": ("catalog_size", "12"),
    "seed-float": ("seed", 1.5),
    "max_results-bool": ("max_results", True),
    "hidden_attrs-int": ("hidden_attrs", 5),
    "hidden_attrs-str": ("hidden_attrs", "flavor"),
    "hidden_attrs-mixed": ("hidden_attrs", ["flavor", 3]),
}


@pytest.mark.parametrize("key, value", _TOYSHOP_CASES.values(), ids=list(_TOYSHOP_CASES))
def test_unknown_toyshop_key_in_config_exits_two(workspace, capsys, key, value):
    config = json.loads((workspace / "config.json").read_text(encoding="utf-8"))
    config["env"]["toyshop"][key] = value
    (workspace / "config.json").write_text(json.dumps(config), encoding="utf-8")
    code = run(
        ["annotate", "--questions", str(workspace / "pool.jsonl"),
         "--guideline", str(workspace / "guideline.txt"),
         "--config", str(workspace / "config.json"),
         "--env", "toyshop",
         "--cache-dir", str(workspace / "cache"),
         "--out", str(workspace / "annotated.jsonl")]
    )
    assert code == 2
    assert_one_error_line(capsys.readouterr().err, 2, "env.toyshop", key)


@pytest.mark.parametrize(
    "field, value, needle",
    [
        ("catalog_size", 0, "catalog_size"),
        ("max_results", -1, "max_results"),
        ("hidden_attrs", ["flavor", "weight"], "unknown hidden attribute kinds: ['weight']"),
    ],
    ids=["catalog_size", "max_results", "hidden_attrs"],
)
def test_toyshop_range_below_one_exits_four(workspace, capsys, field, value, needle):
    config = json.loads((workspace / "config.json").read_text(encoding="utf-8"))
    config["env"]["toyshop"][field] = value
    (workspace / "config.json").write_text(json.dumps(config), encoding="utf-8")
    code = run(
        ["annotate", "--questions", str(workspace / "pool.jsonl"),
         "--guideline", str(workspace / "guideline.txt"),
         "--config", str(workspace / "config.json"),
         "--env", "toyshop",
         "--cache-dir", str(workspace / "cache"),
         "--out", str(workspace / "annotated.jsonl")]
    )
    assert code == 4
    assert_one_error_line(capsys.readouterr().err, 4, needle)
    assert not (workspace / "annotated.jsonl").exists()


@pytest.mark.parametrize(
    "key",
    ["instruction_path", "template_path", "corpus_path", "pool", "guideline"],
)
def test_non_utf8_input_file_exits_two(workspace, capsys, key):
    bad = workspace / "latin1.txt"
    bad.write_bytes(b"caf\xe9\n")
    config = json.loads((workspace / "config.json").read_text(encoding="utf-8"))
    if key == "corpus_path":
        config["score_backend"] = {"kind": "ngram", "order": 3, "corpus_path": "latin1.txt"}
    elif key.endswith("_path"):
        config[key] = "latin1.txt"
    (workspace / "config.json").write_text(json.dumps(config), encoding="utf-8")
    inputs = {"pool": workspace / "pool.jsonl", "guideline": workspace / "guideline.txt"}
    if key in inputs:
        inputs[key] = bad
    code = run(
        ["score", "--pool", str(inputs["pool"]),
         "--trajectories", str(workspace / "trajectories.jsonl"),
         "--guideline", str(inputs["guideline"]),
         "--config", str(workspace / "config.json"),
         "--out", str(workspace / "scores.jsonl"),
         "--cache-dir", str(workspace / "cache")]
    )
    assert code == 2
    assert_one_error_line(capsys.readouterr().err, 2, "latin1.txt")
    assert not (workspace / "cache").exists()


@pytest.mark.parametrize("bad", ["missing.txt", "latin1.txt"])
@pytest.mark.parametrize(
    "command, unused", [("score", "generate_backend"), ("annotate", "score_backend")]
)
def test_a_command_never_reads_an_unused_entrys_corpus(workspace, command, unused, bad):
    (workspace / "latin1.txt").write_bytes(b"caf\xe9\n")
    config = json.loads((workspace / "config.json").read_text(encoding="utf-8"))
    config[unused] = {"kind": "ngram", "order": 4, "corpus_path": bad}
    (workspace / "unused.json").write_text(json.dumps(config), encoding="utf-8")
    written = []
    for name in ("config.json", "unused.json"):
        argv = score_argv(workspace) if command == "score" else annotate_argv(workspace)
        argv[argv.index("--config") + 1] = str(workspace / name)
        argv[argv.index("--cache-dir") + 1] = str(workspace / f"{name}.cache")
        assert run(argv) == 0
        out = Path(argv[argv.index("--out") + 1])
        written.append((out.read_bytes(), (workspace / f"{name}.cache/cache.jsonl").read_bytes()))
    assert written[0] == written[1]
    assert written[0][0]


def test_annotate_with_its_own_corpus_missing_exits_two_without_a_cache_dir(workspace, capsys):
    config = json.loads((workspace / "config.json").read_text(encoding="utf-8"))
    for entry in ("score_backend", "generate_backend"):
        config[entry] = {"kind": "ngram", "order": 3, "corpus_path": f"missing-{entry}.txt"}
    (workspace / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert run(annotate_argv(workspace)) == 2
    err = capsys.readouterr().err
    assert_one_error_line(err, 2, "cannot read corpus file", "missing-generate_backend.txt")
    assert "missing-score_backend.txt" not in err
    assert not (workspace / "cache").exists()


def test_traced_benchmark_child_runs_score_and_select(workspace):
    # The benchmark's traced runs wrap names of ge_select.cli and
    # ge_select.pipeline (load_pool, build_backend, map_spans_to_tokens, ...),
    # and subclass ``cli.CachedBackend`` and ``cli.ToyShopEnv`` for annotate.
    import subprocess
    import sys
    from pathlib import Path

    child = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"
    select = ["select", "--strategy", "ge", "-k", "3", "--scores", str(workspace / "scores.jsonl"),
              "--out", str(workspace / "selected.jsonl")]  # fmt: skip
    # fl embeds the pool with ``cli.HashEmbedBackend``, which the trace subclasses.
    select_fl = ["select", "--strategy", "fl", "-k", "3", "--pool", str(workspace / "pool.jsonl"),
                 "--out", str(workspace / "sel_fl.jsonl")]  # fmt: skip
    for name, argv, spans_run in (
        ("score", score_argv(workspace), ["prompts.map_spans_to_tokens"]),
        ("select", select, ["selectors.select_ge"]),
        ("select_fl", select_fl, ["backends.hash_embed.embed"]),
        ("annotate", annotate_argv(workspace), ["backends.ngram.generate", "envs.toyshop.step"]),
    ):
        trace = workspace / f"{name}.trace.json"
        proc = subprocess.run(
            [sys.executable, str(child), "--trace-out", str(trace), *argv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        spans = json.loads(trace.read_text(encoding="utf-8"))["spans"]
        for span in ["models.load", *spans_run]:
            assert spans[span]["calls"] >= 1, (name, span)
    assert len(load_selection(workspace / "selected.jsonl").items) == 3


_LAZY_IMPORT_CHILD = """
import sys
import ge_select, ge_select.cli
heavy = {"numpy", "requests", "concurrent.futures"} & set(sys.modules)
assert not heavy, f"importing the CLI loaded {sorted(heavy)}"
ws, phase = sys.argv[1:]
run = ge_select.cli.run
if phase == "score":
    assert run(["score", "--pool", ws + "/pool.jsonl", "--trajectories", ws + "/trajectories.jsonl",
                "--guideline", ws + "/guideline.txt", "--config", ws + "/config.json",
                "--out", ws + "/scores.jsonl", "--cache-dir", ws + "/cache"]) == 0
    heavy = {"numpy", "requests"} & set(sys.modules)
    assert not heavy, f"score loaded {sorted(heavy)}"
    sys.exit(0)
assert run(["select", "--strategy", "ge", "--scores", ws + "/scores.jsonl", "-k", "3",
            "--out", ws + "/sel_ge.jsonl"]) == 0
assert run(["report", "--scores", ws + "/scores.jsonl", "--trajectories",
            ws + "/trajectories.jsonl", "-m", "3", "--out", ws + "/report.md"]) == 0
assert run(["export", "--trajectories", ws + "/trajectories.jsonl", "--instruction",
            ws + "/instruction.txt", "--guideline", ws + "/guideline.txt",
            "--out", ws + "/sft.jsonl"]) == 0
assert run(["stats", "--trajectories", ws + "/trajectories.jsonl"]) == 0
heavy = {"numpy", "requests", "concurrent.futures"} & set(sys.modules)
assert not heavy, f"select ge, report, export and stats loaded {sorted(heavy)}"
assert run(["select", "--strategy", "fl", "--pool", ws + "/pool.jsonl", "-k", "3",
            "--out", ws + "/sel_fl.jsonl"]) == 0
assert "numpy" in sys.modules
assert "concurrent.futures" not in sys.modules, "select fl loaded concurrent.futures"
"""


def test_cli_loads_numpy_and_requests_only_where_used(workspace):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import ge_select

    src_root = str(Path(ge_select.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_root, env.get("PYTHONPATH")]))
    for phase in ("score", "select, report, export and stats"):
        proc = subprocess.run(
            [sys.executable, "-c", _LAZY_IMPORT_CHILD, str(workspace), phase],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
    assert len(load_selection(workspace / "sel_fl.jsonl").items) == 3


_MODULES_CHILD = """
import sys
import ge_select.cli
argv = sys.argv[1:]
assert not argv or ge_select.cli.run(argv) == 0
print(" ".join(sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("ge_select."))))
print(" ".join(sys.modules))
"""
# What a bare interpreter loads, ``site`` included: the modules a child
# loads beyond these are the command's.
_BARE_CHILD = 'import sys; print(" ".join(sys.modules))'

# What each subcommand loads of ge_select, in a fresh process. A scores file
# needs only ``models``, which re-derives each ge with ``ge_score``; ``scoring``
# comes with a backend. ``reports`` comes with ``pipeline``, which re-exports
# its functions. No command loads ``dataclasses`` or ``inspect``, and only
# those that take a digest load ``hashlib``: cache keys, fingerprints and
# guideline versions.
_SCORING_LAYERS = "backends cli models pipeline prompts reports scoring"
_COMMAND_MODULES = {
    "import": ((), "cli models"),
    "score": (None, _SCORING_LAYERS),
    "annotate": (None, _SCORING_LAYERS + " envs"),
    "select ge": (("select", "--strategy", "ge", "--scores", "scores.jsonl", "-k", "3",
                   "--out", "sel.jsonl"), "cli models selectors"),
    "select entropy": (("select", "--strategy", "entropy", "--scores", "scores.jsonl", "-k", "3",
                        "--out", "sel.jsonl"), "cli models selectors"),
    "report": (("report", "--scores", "scores.jsonl", "--trajectories", "trajectories.jsonl",
                "-m", "3", "--out", "report.md"), "cli models reports"),
    "export": (("export", "--trajectories", "trajectories.jsonl", "--instruction",
                "instruction.txt", "--guideline", "guideline.txt", "--out", "sft.jsonl"),
               "cli models reports"),
    "stats": (("stats", "--trajectories", "trajectories.jsonl"), "cli models reports"),
}  # fmt: skip
_DIGESTING = {"score", "annotate", "export"}


@pytest.mark.parametrize("command", _COMMAND_MODULES)
def test_each_subcommand_loads_only_the_modules_it_runs(workspace, command):
    import os
    import subprocess
    import sys

    import ge_select

    argv, expected = _COMMAND_MODULES[command]
    if argv is None:
        argv = score_argv(workspace) if command == "score" else annotate_argv(workspace)
    else:
        argv = ws_args(workspace, *argv)
    if "--scores" in argv:
        assert run(score_argv(workspace)) == 0
    src_root = str(Path(ge_select.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_CHILD, *argv], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    package, loaded = proc.stdout.splitlines()[-2:]  # after stats' line
    assert package.split() == sorted(expected.split())
    bare = subprocess.run(
        [sys.executable, "-c", _BARE_CHILD], env=env, capture_output=True, text=True, check=True
    )
    added = set(loaded.split()) - set(bare.stdout.split())
    assert not added & {"dataclasses", "inspect"}
    assert ("hashlib" in added) == (command in _DIGESTING)


_THREADS_CHILD = """
import os
import sys
import ge_select.cli
code = ge_select.cli.run(sys.argv[1:])
print(len(os.listdir("/proc/self/task")))
sys.exit(code)
"""


def _select_fl_child(pool: Path, out: Path, k: int, openblas_threads: str | None) -> int:
    """Run ``select --strategy fl`` in a ``run_python_child``; return the
    child's thread count after the command."""
    argv = ["select", "--strategy", "fl", "--pool", str(pool), "-k", str(k), "--out", str(out)]
    return int(run_python_child(["-c", _THREADS_CHILD, *argv], openblas_threads).split()[-1])


def test_select_fl_runs_blas_on_one_thread_unless_the_user_sets_it(workspace):
    import os

    if not os.path.isdir("/proc/self/task"):
        pytest.skip("needs /proc/self/task to count threads")
    pool, out = workspace / "pool.jsonl", workspace / "sel_fl.jsonl"
    assert _select_fl_child(pool, out, 3, None) == 1
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("a second BLAS thread needs a second CPU")
    assert _select_fl_child(pool, out, 3, "2") == 2


def test_select_fl_bytes_do_not_depend_on_the_core_count(tmp_path):
    # On this pool two OpenBLAS threads round some similarity products
    # differently from one, and the gains of three picks change.
    _, pool, _ = toyshop_make(ToyShopConfig(seed=3, catalog_size=100), 1500)
    write_records(pool, tmp_path / "pool.jsonl")
    outs = [tmp_path / "default.jsonl", tmp_path / "one.jsonl"]
    for out, threads in zip(outs, (None, "1")):
        _select_fl_child(tmp_path / "pool.jsonl", out, 50, threads)
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_select_fl_bytes_do_not_depend_on_the_order_of_the_pool(tmp_path):
    # Built in pool order, this pool's 50 picks and its shuffled copy's
    # differ in 4 places and in 20 more gains: near-tied sums round differently.
    _, pool, _ = toyshop_make(ToyShopConfig(seed=3, catalog_size=100), 1500)
    shuffled = list(pool)
    random.Random(0).shuffle(shuffled)
    outs = []
    for name, questions in (("sorted", pool), ("shuffled", shuffled)):
        write_records(questions, tmp_path / f"{name}.jsonl")
        outs.append(tmp_path / f"sel_{name}.jsonl")
        _select_fl_child(tmp_path / f"{name}.jsonl", outs[-1], 50, "1")
    assert outs[0].read_bytes() == outs[1].read_bytes()


_REFERENCE_FL_CHILD = """
import json
import sys
from ge_select.models import load_pool
from ge_select.selectors import HashEmbedBackend
tests_dir, pool_path, k = sys.argv[1:]
sys.path.insert(0, tests_dir)
from test_selectors import reference_facility_location
pool = load_pool(pool_path)
embedder = HashEmbedBackend()
items = reference_facility_location(
    [q.id for q in pool], [embedder.embed(q.text) for q in pool], int(k)
)
print(json.dumps([[qid, gain.hex()] for qid, gain in items]))
"""


def test_select_fl_equals_the_plain_greedy_where_equal_texts_give_unequal_rows(tmp_path):
    # At one thread this pool has 238 distinct texts but 255 distinct
    # similarity rows, and lazy greedy grouped by text changes its picks.
    _, pool, _ = toyshop_make(ToyShopConfig(seed=3, catalog_size=100), 1500)
    pool_path, out = tmp_path / "pool.jsonl", tmp_path / "sel_fl.jsonl"
    write_records(pool, pool_path)
    _select_fl_child(pool_path, out, 50, "1")
    got = [[item.question_id, item.score.hex()] for item in load_selection(out).items]
    tests_dir = str(Path(__file__).resolve().parent)
    expected = run_python_child(["-c", _REFERENCE_FL_CHILD, tests_dir, str(pool_path), "50"], "1")
    assert got == json.loads(expected.splitlines()[-1])


def test_select_fl_embeds_each_distinct_text_once(tmp_path, monkeypatch):
    from ge_select.selectors import HashEmbedBackend, select_facility_location

    _, pool, _ = toyshop_make(ToyShopConfig(seed=5, catalog_size=30), 300)
    distinct = {q.text for q in pool}
    assert len(distinct) < len(pool)
    write_records(pool, tmp_path / "pool.jsonl")
    embedder = HashEmbedBackend()
    vectors = [embedder.embed(q.text) for q in pool]
    every = select_facility_location([q.id for q in pool], vectors, 20)
    write_records([every], tmp_path / "every.jsonl")

    embedded: list[str] = []
    embed = HashEmbedBackend.embed

    def counting_embed(self, text: str) -> list[float]:
        embedded.append(text)
        return embed(self, text)

    monkeypatch.setattr(HashEmbedBackend, "embed", counting_embed)
    assert run(["select", "--strategy", "fl", "--pool", str(tmp_path / "pool.jsonl"), "-k", "20",
                "--out", str(tmp_path / "sel_fl.jsonl")]) == 0  # fmt: skip
    assert sorted(embedded) == sorted(distinct)
    assert (tmp_path / "sel_fl.jsonl").read_bytes() == (tmp_path / "every.jsonl").read_bytes()


def test_select_fl_holds_each_embedding_as_an_exact_float_array(tmp_path):
    """``--embeddings`` rows are ``array('d')`` holding each number exactly,
    signed zero included, and a file of the pool's hash vectors selects the
    bytes that ``--pool`` selects."""
    from array import array

    from ge_select.cli import _load_embeddings_file
    from ge_select.selectors import HashEmbedBackend

    rows = [[-0.0, 1, 0.1, 5e-324], [1e308, -3, 0.0, 2.2250738585072014e-308]]
    exact = tmp_path / "exact.jsonl"
    write_records([{"question_id": f"q{i}", "embedding": row} for i, row in enumerate(rows)], exact)
    ids, vectors, lines = _load_embeddings_file(str(exact))
    assert (ids, lines) == (["q0", "q1"], [1, 2])
    assert all(type(v) is array and v.typecode == "d" for v in vectors)
    assert [[x.hex() for x in v] for v in vectors] == [[float(x).hex() for x in row] for row in rows]

    _, pool, _ = toyshop_make(ToyShopConfig(seed=3, catalog_size=100), 300)
    write_records(pool, tmp_path / "pool.jsonl")
    embedder = HashEmbedBackend()
    write_records(
        [{"question_id": q.id, "embedding": embedder.embed(q.text)} for q in pool],
        tmp_path / "embeddings.jsonl",
    )
    for source in ("pool", "embeddings"):
        argv = ["select", "--strategy", "fl", f"--{source}", str(tmp_path / f"{source}.jsonl"),
                "-k", "20", "--out", str(tmp_path / f"sel_{source}.jsonl")]  # fmt: skip
        run_python_child(["-m", "ge_select", *argv], "1")
    assert (tmp_path / "sel_embeddings.jsonl").read_bytes() == (tmp_path / "sel_pool.jsonl").read_bytes()


def _ranked_ids(report: str) -> list[str]:
    return [line.split()[2] for line in report.splitlines() if line.startswith("## ")]


def test_select_and_report_rank_eq5_scores_as_default_ones(workspace, capsys):
    """A scores file carries its ge sign: select and report need no flag for it."""
    config = json.loads((workspace / "config.json").read_text(encoding="utf-8"))
    eq5_config = json.dumps({**config, "ge_sign": "eq5"})
    (workspace / "config_eq5.json").write_text(eq5_config, encoding="utf-8")
    ranked = {}
    for sign, config_name in (("default", "config.json"), ("eq5", "config_eq5.json")):
        scores, sel, report = (workspace / f"{sign}.{ext}" for ext in ("jsonl", "sel", "md"))
        argv = score_argv(workspace)
        argv[argv.index("--config") + 1] = str(workspace / config_name)
        argv[argv.index("--out") + 1] = str(scores)
        assert run(argv) == 0
        assert run(["select", "--scores", str(scores), "--strategy", "ge", "-k", "5",
                    "--out", str(sel)]) == 0  # fmt: skip
        assert run(["report", "--scores", str(scores), "-m", "5", "--out", str(report),
                    "--trajectories", str(workspace / "trajectories.jsonl")]) == 0  # fmt: skip
        ranked[sign] = load_selection(sel).items, _ranked_ids(report.read_text(encoding="utf-8"))
    (default_items, default_report), (eq5_items, eq5_report) = ranked["default"], ranked["eq5"]
    assert [i.question_id for i in eq5_items] == [i.question_id for i in default_items]
    assert [i.score for i in eq5_items] == [-i.score for i in default_items]
    assert any(i.score != 0.0 for i in default_items)
    assert eq5_report == default_report == [i.question_id for i in default_items]

    capsys.readouterr()
    assert run(["select", "--help"]) == 0
    assert "--ge-sign" not in capsys.readouterr().out
    assert run(["select", "--scores", str(workspace / "eq5.jsonl"), "--strategy", "ge",
                "--ge-sign", "eq5", "--out", str(workspace / "x.sel")]) == 1  # fmt: skip
    assert_one_error_line(capsys.readouterr().err, 1, "unrecognized arguments: --ge-sign")


def test_parallel_above_its_cap_is_a_usage_error(workspace, capsys, monkeypatch):
    import concurrent.futures

    def no_threads(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_threads)
    assert run(score_argv(workspace) + ["--parallel", "257"]) == 1
    assert_one_error_line(capsys.readouterr().err, 1, "--parallel", "256")
    assert not (workspace / "scores.jsonl").exists()


def test_score_with_every_question_skipped_writes_empty_scores(workspace, capsys):
    (workspace / "trajectories.jsonl").write_text("", encoding="utf-8")
    assert run(score_argv(workspace)) == 0
    assert (workspace / "scores.jsonl").read_bytes() == b""
    diagnostics = (workspace / "scores.jsonl.diag.jsonl").read_text(encoding="utf-8")
    assert len(diagnostics.splitlines()) == 12
    warnings = capsys.readouterr().err.splitlines()
    assert len(warnings) == 12
    assert all(w.endswith(": no trajectory for question; skipped") for w in warnings)


def test_a_clean_score_rerun_removes_the_diagnostics_sidecar(workspace, capsys):
    trajectories = workspace / "trajectories.jsonl"
    lines = trajectories.read_text(encoding="utf-8").splitlines(keepends=True)
    trajectories.write_text("".join(lines[:-2]), encoding="utf-8")
    assert run(score_argv(workspace)) == 0
    sidecar = workspace / "scores.jsonl.diag.jsonl"
    assert len(sidecar.read_text(encoding="utf-8").splitlines()) == 2
    trajectories.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert run(score_argv(workspace)) == 0
    assert capsys.readouterr().err == ""
    assert len(load_scores(workspace / "scores.jsonl")) == 12
    assert not sidecar.exists()


def test_a_clean_annotate_rerun_removes_the_diagnostics_sidecar(workspace, capsys, local_server):
    failing = {"q0000", "q0001"}

    def handler(path, body):
        if path == "/reset":
            return (500 if body["question_id"] in failing else 200), {"observation": "ready"}
        return 200, {"observation": "done", "reward": 1.0, "done": True}

    local_server.handler = handler
    argv = [*annotate_argv(workspace), "--env", "http", "--env-url", local_server.url]
    assert run(argv) == 0
    sidecar = workspace / "annotated.jsonl.diag.jsonl"
    diagnostics = [json.loads(line) for line in sidecar.read_text(encoding="utf-8").splitlines()]
    assert {d["question_id"] for d in diagnostics} == failing
    assert all("environment /reset returned HTTP 500" in d["error"] for d in diagnostics)
    failing.clear()
    capsys.readouterr()
    assert run(argv) == 0
    assert capsys.readouterr().err == ""
    assert len(load_trajectories(workspace / "annotated.jsonl")) == 12
    assert not sidecar.exists()


def test_a_write_cut_short_keeps_the_previous_output(workspace):
    """``score`` and ``select`` children whose file size limit is below their
    output's size exit 2 with one error line, and leave the previous output
    byte for byte, with no temporary file beside it."""
    import os
    import resource
    import subprocess
    import sys

    assert run(score_argv(workspace)) == 0  # fills the cache, so the child appends nothing
    limit = 256
    assert (workspace / "scores.jsonl").stat().st_size > limit
    select = ["select", "--strategy", "ge", "-k", "12", "--scores", str(workspace / "scores.jsonl"),
              "--out", str(workspace / "selected.jsonl")]  # fmt: skip
    assert run(select) == 0
    assert (workspace / "selected.jsonl").stat().st_size > limit
    previous = b"previous output\n"

    def limit_file_size() -> None:
        hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, hard))

    # select first: it reads the scores that score then overwrites
    for argv, out in ((select, "selected.jsonl"), (score_argv(workspace), "scores.jsonl")):
        (workspace / out).write_bytes(previous)
        before = sorted(os.listdir(workspace))
        proc = subprocess.run(
            [sys.executable, "-m", "ge_select", *argv],
            env=python_child_env(), capture_output=True, text=True, preexec_fn=limit_file_size,
        )  # fmt: skip
        assert proc.returncode == 2, (argv[0], proc.stderr)
        assert_one_error_line(proc.stderr, 2, "File too large")
        assert (workspace / out).read_bytes() == previous, argv[0]
        assert sorted(os.listdir(workspace)) == before, argv[0]


def test_score_with_every_question_failing_exits_three(workspace, capsys):
    config = json.loads((workspace / "config.json").read_text(encoding="utf-8"))
    config["score_backend"] = _http(max_retries=0, timeout=0.2)
    (workspace / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert run(score_argv(workspace)) == 3
    assert_one_error_line(capsys.readouterr().err, 3, "all 12 scoring attempts failed")
    assert not (workspace / "scores.jsonl").exists()


def rewrite_cache_entry(workspace, kind: type, change) -> None:
    """Replace the response of the first cache entry whose response is of
    type ``kind`` (scoring entries are objects, generations strings)."""
    path = workspace / "cache" / "cache.jsonl"
    entries = cache_entries(path)
    index = next(i for i, (_, response) in enumerate(entries) if isinstance(response, kind))
    key, response = entries[index]
    entries[index] = key, change(response)
    write_cache_entries(path, entries)


@pytest.mark.parametrize(
    "argv, out, kind",
    [(score_argv, "scores.jsonl", dict), (annotate_argv, "annotated.jsonl", str)],
    ids=["score", "annotate"],
)
def test_null_cache_entry_is_a_skipped_line_and_is_stored_again(workspace, capsys, argv, out, kind):
    cache_path = workspace / "cache" / "cache.jsonl"
    assert run(argv(workspace)) == 0
    first = (workspace / out).read_bytes()
    lines = len(cache_path.read_text(encoding="utf-8").splitlines())
    rewrite_cache_entry(workspace, kind, lambda response: None)
    capsys.readouterr()
    assert run(argv(workspace)) == 0
    assert capsys.readouterr().err == f"warning: cache {cache_path}: skipped 1 malformed line(s)\n"
    assert (workspace / out).read_bytes() == first
    assert len(cache_path.read_text(encoding="utf-8").splitlines()) == lines + 1


def test_cached_string_logprobs_are_a_diagnostic_naming_the_cache(workspace, capsys):
    assert run(score_argv(workspace)) == 0
    rewrite_cache_entry(
        workspace, dict, lambda r: {**r, "steps": [[str(total), count] for total, count in r["steps"]]}
    )
    capsys.readouterr()
    assert run(score_argv(workspace)) == 0
    cache_path = workspace / "cache" / "cache.jsonl"
    # Questions whose prompts render alike share the entry, so it fails each of them.
    warnings = capsys.readouterr().err.splitlines()
    assert warnings and all(f"cache {cache_path}: scoring entry logprob total" in w for w in warnings)
    diagnostics = (workspace / "scores.jsonl.diag.jsonl").read_text(encoding="utf-8").splitlines()
    assert [f"warning: {d['question_id']}: {d['error']}" for d in map(json.loads, diagnostics)] == warnings
    assert len(load_scores(workspace / "scores.jsonl")) == 12 - len(warnings)


@pytest.mark.parametrize("response", [5, ["x"], ""], ids=["number", "list", "empty"])
def test_malformed_cached_generation_exits_two(workspace, capsys, response):
    assert run(annotate_argv(workspace)) == 0
    rewrite_cache_entry(workspace, str, lambda r: response)
    (workspace / "annotated.jsonl").unlink()
    capsys.readouterr()
    assert run(annotate_argv(workspace)) == 2
    cache_path = workspace / "cache" / "cache.jsonl"
    assert_one_error_line(capsys.readouterr().err, 2, f"cache {cache_path}: generation entry")
    assert not (workspace / "annotated.jsonl").exists()


def test_report_m_below_one_is_a_usage_error(workspace, capsys):
    assert run(score_argv(workspace)) == 0
    report = workspace / "report.md"
    argv = ["report", "--scores", str(workspace / "scores.jsonl"),
            "--trajectories", str(workspace / "trajectories.jsonl"), "--out", str(report)]
    capsys.readouterr()
    for m in ("0", "-2"):
        assert run([*argv, "-m", m]) == 1
        assert_one_error_line(capsys.readouterr().err, 1, "-m")
    assert not report.exists()
    assert run([*argv, "-m", "1"]) == 0
