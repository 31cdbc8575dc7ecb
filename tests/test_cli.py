from __future__ import annotations

import argparse
import json
import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

from ge_select.backends import _BACKEND_KEYS
from ge_select.cli import _build_parser, run
from ge_select.envs import ToyShopConfig, toyshop_guideline, toyshop_make, toyshop_rollout
from ge_select.models import (
    Guideline,
    load_scores,
    load_selection,
    load_trajectories,
    write_records,
)
from ge_select.pipeline import load_run_config
from ge_select.prompts import DEFAULT_TEMPLATE

from conftest import echo_response


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
                "parallelism": 2,
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
            "--config", str(workspace / "config.json"), "--env", "toyshop", "--tmax", "3",
            "--out", str(workspace / "annotated.jsonl"), "--cache-dir", str(workspace / "cache")]


def test_help_exits_zero_and_documents_flags(capsys):
    assert run(["--help"]) == 0
    for command, flags in {
        "score": ["--pool", "--trajectories", "--guideline", "--config", "--out",
                  "--parallel", "--cache-dir"],
        "select": ["--scores", "--strategy", "-k", "--seed", "--trajectories", "--embeddings", "--out"],
        "report": ["--scores", "--trajectories", "-m", "--out"],
        "annotate": ["--questions", "--guideline", "--config", "--env", "--env-url", "--tmax", "--out"],
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


def _readme_keys(section: str, entry: str) -> set[str]:
    """The key names the README's ``## <section>`` lists in its sentence
    "`<entry>` takes `a`, `b` ... and `z`."."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    text = readme.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    sentence = re.search(rf"`{re.escape(entry)}` takes\s(.*?)[.;]\s", text, flags=re.DOTALL)
    return set(re.findall(r"`(\w+)`", sentence.group(1)))


def test_readme_config_entry_keys_match_the_code():
    for kind, allowed in _BACKEND_KEYS.items():
        assert _readme_keys("Config file", kind) == set(allowed), kind
    assert _readme_keys("Config file", "env") == {"toyshop"}
    assert _readme_keys("Config file", "env.toyshop") == {f.name for f in fields(ToyShopConfig)}


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
    ],  # fmt: skip
    ids=["score-no-guideline-only", "annotate-env-replay", "select-reward-tolerance"],
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
    assert run(["select", "--strategy", "ge", "-k", "3", "--out", str(workspace / "x.jsonl")]) == 1
    assert run(["select", "--strategy", "fl", "-k", "3", "--out", str(workspace / "x.jsonl")]) == 1


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
    ],
)
def test_select_fl_malformed_embeddings_exit_two(tmp_path, capsys, lines):
    path = tmp_path / "embeddings.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    code = run(
        ["select", "--strategy", "fl", "-k", "1", "--embeddings", str(path),
         "--out", str(tmp_path / "sel.jsonl")]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:2:")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


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
         "--env", "toyshop", "--tmax", "4",
         "--cache-dir", str(workspace / "cache"),
         "--out", str(out)]
    )
    assert code == 0
    annotated = load_trajectories(out)
    assert annotated and all(t.source == "annotated" for t in annotated)
    assert all(len(t.steps) <= 4 for t in annotated)

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
         "--env", "toyshop", "--tmax", "3",
         "--cache-dir", str(workspace / "cache"),
         "--out", str(out2)]
    )
    assert code == 0
    assert len(load_trajectories(out2)) == 3


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


def test_annotate_tmax_below_one_is_usage_error(workspace, capsys):
    code = run(
        ["annotate", "--questions", str(workspace / "pool.jsonl"),
         "--guideline", str(workspace / "guideline.txt"),
         "--config", str(workspace / "config.json"),
         "--env", "toyshop", "--tmax", "0",
         "--cache-dir", str(workspace / "cache"),
         "--out", str(workspace / "annotated.jsonl")]
    )
    assert code == 1
    assert_one_error_line(capsys.readouterr().err, 1, "--tmax")
    assert not (workspace / "annotated.jsonl").exists()


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
         "--tmax", "3",
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
     ["select", "--strategy", "random", "-k", "1"], ["report", "-m", "5"]],
    ids=["select-ge", "select-entropy", "select-random", "report"],
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
    records[3] = records[0]
    path = workspace / "dup.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    out = workspace / "out"
    if argv[0] == "report":
        argv = argv + ["--trajectories", str(workspace / "trajectories.jsonl")]
    assert run(argv + ["--scores", str(path), "--out", str(out)]) == 2
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


def test_http_score_has_at_most_parallel_requests_in_flight(workspace, local_server):
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
    assert run(score_argv(workspace) + ["--parallel", "2"]) == 0
    assert state["peak"] == 2


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
    "parallelism-str": ("parallelism", "4", "parallelism"),
    "parallelism-257": ("parallelism", 257, "parallelism"),
    "top_k-str": ("top_k", "5", "top_k"),
    "top_k-negative": ("top_k", -1, "top_k"),
    "top_k-bool": ("top_k", True, "top_k"),
    "t_max-str": ("t_max", "3", "t_max"),
    "t_max-zero": ("t_max", 0, "t_max"),
    "score_target-typo": ("score_target", "actoin", "score_target"),
    "env-list": ("env", [1], "env"),
    "env-typo": ("env", {"toyshp": {"seed": 41}}, "'toyshp'"),
    "env-toyshop-unknown-key": ("env", {"toyshop": {"seeed": 1}}, "'seeed'"),
    "score_backend-str": ("score_backend", "ngram", "score_backend"),
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
    "ngram-corpus-and-corpus_path": (
        "score_backend", _ngram(corpus_path="guideline.txt"), "'corpus' and 'corpus_path'"
    ),
    "http-corpus_path": ("generate_backend", _http(corpus_path="guideline.txt"), "'corpus_path'"),
}


@pytest.mark.parametrize("key, value, needle", _CONFIG_CASES.values(), ids=list(_CONFIG_CASES))
def test_string_parallelism_in_config_exits_two(workspace, capsys, key, value, needle):
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
    assert_one_error_line(capsys.readouterr().err, 2, "unknown config key", repr(key))
    assert not (workspace / "scores.jsonl").exists()


def test_retired_run_config_keys_load_with_one_warning_each(workspace, capsys):
    config = json.loads((workspace / "config.json").read_text(encoding="utf-8"))
    assert run(score_argv(workspace)) == 0
    scores = (workspace / "scores.jsonl").read_bytes()
    capsys.readouterr()
    config.update({"m": 5, "k": 9, "embed_backend": {"kind": "hash_embed"}})
    config["env"]["replay_trajectories"] = "recorded.jsonl"
    (workspace / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert run(score_argv(workspace)) == 0
    warnings = capsys.readouterr().err.splitlines()
    assert len(warnings) == 4
    for key, line in zip(["m", "k", "embed_backend", "env.replay_trajectories"], warnings):
        assert line.startswith("warning: ") and f"config key {key!r} is retired" in line
    assert (workspace / "scores.jsonl").read_bytes() == scores


@pytest.mark.parametrize(
    "entry, needle",
    [(_ngram(ordr=5), "'ordr'"), ({"kind": ["x"]}, "kind"), ({"kind": "http"}, "model")],
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


@pytest.mark.parametrize("field", ["catalog_size", "max_results", "turn_cap"])
def test_toyshop_range_below_one_exits_four(workspace, capsys, field):
    config = json.loads((workspace / "config.json").read_text(encoding="utf-8"))
    config["env"]["toyshop"][field] = 0 if field == "catalog_size" else -1
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
    assert_one_error_line(capsys.readouterr().err, 4, field)
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
"""

# What each subcommand loads of ge_select, in a fresh process. ``scoring`` comes
# with any scores file: ``load_scores`` re-derives each ge with ``ge_score``.
# ``reports`` comes with ``pipeline``, which re-exports its functions.
_SCORING_LAYERS = "backends cli models pipeline prompts reports scoring"
_COMMAND_MODULES = {
    "import": ((), "cli models"),
    "score": (None, _SCORING_LAYERS),
    "annotate": (None, _SCORING_LAYERS + " envs"),
    "select ge": (("select", "--strategy", "ge", "--scores", "scores.jsonl", "-k", "3",
                   "--out", "sel.jsonl"), "cli models scoring selectors"),
    "select entropy": (("select", "--strategy", "entropy", "--scores", "scores.jsonl", "-k", "3",
                        "--out", "sel.jsonl"), "cli models scoring selectors"),
    "report": (("report", "--scores", "scores.jsonl", "--trajectories", "trajectories.jsonl",
                "-m", "3", "--out", "report.md"), "cli models reports scoring"),
    "export": (("export", "--trajectories", "trajectories.jsonl", "--instruction",
                "instruction.txt", "--guideline", "guideline.txt", "--out", "sft.jsonl"),
               "cli models reports"),
    "stats": (("stats", "--trajectories", "trajectories.jsonl"), "cli models reports"),
}  # fmt: skip


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
    assert proc.stdout.splitlines()[-1].split() == sorted(expected.split())  # after stats' line


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


def test_score_with_every_question_failing_exits_three(workspace, capsys):
    config = json.loads((workspace / "config.json").read_text(encoding="utf-8"))
    config["score_backend"] = _http(max_retries=0, timeout=0.2)
    (workspace / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert run(score_argv(workspace)) == 3
    assert_one_error_line(capsys.readouterr().err, 3, "all 12 scoring attempts failed")
    assert not (workspace / "scores.jsonl").exists()


def annotate_argv(workspace) -> list[str]:
    return ["annotate", "--questions", str(workspace / "pool.jsonl"),
            "--guideline", str(workspace / "guideline.txt"),
            "--config", str(workspace / "config.json"), "--env", "toyshop", "--tmax", "3",
            "--out", str(workspace / "annotated.jsonl"), "--cache-dir", str(workspace / "cache")]


def rewrite_cache_entry(workspace, kind: type, change) -> None:
    """Replace the response of the first cache entry whose response is of
    type ``kind`` (scoring entries are objects, generations strings)."""
    path = workspace / "cache" / "cache.jsonl"
    entries = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    entry = next(e for e in entries if isinstance(e["response"], kind))
    entry["response"] = change(entry["response"])
    path.write_text("".join(json.dumps(e) + "\n" for e in entries), encoding="utf-8")


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
        workspace, dict, lambda r: {**r, "logprobs": [[str(lp) for lp in s] for s in r["logprobs"]]}
    )
    capsys.readouterr()
    assert run(score_argv(workspace)) == 0
    cache_path = workspace / "cache" / "cache.jsonl"
    # Questions whose prompts render alike share the entry, so it fails each of them.
    warnings = capsys.readouterr().err.splitlines()
    assert warnings and all(f"cache {cache_path}: scoring entry logprob" in w for w in warnings)
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
