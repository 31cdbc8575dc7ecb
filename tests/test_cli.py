from __future__ import annotations

import json

import pytest

from ge_select.cli import run
from ge_select.envs import ToyShopConfig, toyshop_guideline, toyshop_make, toyshop_rollout
from ge_select.models import (
    Guideline,
    load_scores,
    load_selection,
    load_trajectories,
    write_records,
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


def test_help_exits_zero_and_documents_flags(capsys):
    assert run(["--help"]) == 0
    for command, flags in {
        "score": ["--pool", "--trajectories", "--guideline", "--config", "--out",
                  "--no-guideline-only", "--parallel", "--cache-dir"],
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


def test_annotate_replay_env(workspace):
    config = json.loads((workspace / "config.json").read_text(encoding="utf-8"))
    config["env"]["replay_trajectories"] = str(workspace / "trajectories.jsonl")
    (workspace / "config.json").write_text(json.dumps(config), encoding="utf-8")
    guideline = Guideline.load(workspace / "guideline.txt")
    recorded = load_trajectories(workspace / "trajectories.jsonl")

    # replay requires the generator to reproduce recorded actions, which the
    # ngram generator will not; every question should fail with env errors
    out = workspace / "replayed.jsonl"
    code = run(
        ["annotate", "--questions", str(workspace / "pool.jsonl"),
         "--guideline", str(workspace / "guideline.txt"),
         "--config", str(workspace / "config.json"),
         "--env", "replay", "--tmax", "3",
         "--cache-dir", str(workspace / "cache"),
         "--out", str(out)]
    )
    assert code == 4


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


def _ngram(**settings):
    return {"kind": "ngram", "order": 3, "corpus": "", **settings}


def _http(**settings):
    return {"kind": "http", "model": "m", "endpoint": "http://127.0.0.1:9", **settings}


_CONFIG_CASES = {
    "parallelism-str": ("parallelism", "4", "parallelism"),
    "top_k-str": ("top_k", "5", "top_k"),
    "top_k-negative": ("top_k", -1, "top_k"),
    "top_k-bool": ("top_k", True, "top_k"),
    "t_max-str": ("t_max", "3", "t_max"),
    "t_max-zero": ("t_max", 0, "t_max"),
    "score_target-typo": ("score_target", "actoin", "score_target"),
    "env-list": ("env", [1], "env"),
    "score_backend-str": ("score_backend", "ngram", "score_backend"),
    "generate_backend-list": ("generate_backend", [1], "generate_backend"),
    "instruction_path-int": ("instruction_path", 5, "paths"),
    "ngram-order-9": ("score_backend", _ngram(order=9), "order"),
    "ngram-order-str": ("score_backend", _ngram(order="x"), "order"),
    "ngram-order-float": ("score_backend", _ngram(order=3.7), "order"),
    "ngram-corpus-int": ("score_backend", _ngram(corpus=5), "corpus"),
    "ngram-model-int": ("score_backend", _ngram(model=5), "model"),
    "hash-dimensions-zero": ("score_backend", {"kind": "hash_embed", "dimensions": 0}, "dimensions"),
    "hash-dimensions-str": ("score_backend", {"kind": "hash_embed", "dimensions": "256"}, "dimensions"),
    "http-timeout-str": ("score_backend", _http(timeout="30"), "timeout"),
    "http-timeout-huge": ("score_backend", _http(timeout=10**400), "timeout"),
    "http-backoff-negative": ("score_backend", _http(backoff=-1), "backoff"),
    "http-retries-float": ("score_backend", _http(max_retries=1.5), "max_retries"),
    "http-inflight-zero": ("score_backend", _http(max_inflight=0), "max_inflight"),
    "http-model-int": ("score_backend", _http(model=5), "model"),
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
    (workspace / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert run(score_argv(workspace)) == 0
    warnings = capsys.readouterr().err.splitlines()
    assert len(warnings) == 3
    for key, line in zip(["m", "k", "embed_backend"], warnings):
        assert line.startswith("warning: ") and f"config key {key!r} is retired" in line
    assert (workspace / "scores.jsonl").read_bytes() == scores


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
