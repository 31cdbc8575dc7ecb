"""Command line interface.

One executable with score/select/report/annotate/export/stats subcommands.
All behavior is reproducible: identical argv and inputs (plus a warm cache)
produce byte-identical outputs. Nonzero exits print a single machine-parsable
``error:<code>:`` line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Sequence

from .backends import BackendError, CachedBackend, HashEmbedBackend, ResponseCache, build_backend
from .envs import EnvError, HttpEnv, ReplayEnv, ToyShopConfig, ToyShopEnv
from .models import (
    FormatError,
    Guideline,
    Question,
    _load_jsonl,
    _read_text,
    _require_str,
    load_pool,
    load_scores,
    load_selection,
    load_trajectories,
    write_records,
)
from .pipeline import (
    RunConfig,
    annotate,
    dataset_stats,
    difficulty_shift,
    export_sft,
    load_run_config,
    review_report,
    score_pool,
)
from .scoring import GE_SIGN_EQ5, GE_SIGNS
from .selectors import (
    DEFAULT_REWARD_TOLERANCE,
    select_facility_location,
    select_ge,
    select_high_score,
    select_mean_entropy,
    select_random,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FORMAT = 2
EXIT_BACKEND = 3
EXIT_ENV = 4

DEFAULT_CACHE_DIR = ".ge-cache"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="ge-select",
        description=(
            "Score agent trajectories by guideline effectiveness, select "
            "informative questions, and export fine-tuning data."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)

    p = sub.add_parser("score", help="score a pool of trajectories")
    p.add_argument("--pool", required=True, help="question pool JSONL")
    p.add_argument("--trajectories", required=True, help="trajectory JSONL")
    p.add_argument("--guideline", required=True, help="guideline text file")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--out", required=True, help="output score JSONL")
    p.add_argument(
        "--no-guideline-only",
        action="store_true",
        help="score only the guideline-free prompt variant (ge is 0 in this mode)",
    )
    p.add_argument("--parallel", type=int, default=None, help="worker count (default 4)")
    p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR, help="response cache directory")

    p = sub.add_parser("select", help="select k questions")
    p.add_argument("--scores", help="score JSONL (ge, entropy, random fallback)")
    p.add_argument(
        "--strategy",
        required=True,
        choices=["ge", "random", "entropy", "highscore", "fl"],
    )
    p.add_argument("-k", type=int, default=800, help="selection budget (default 800)")
    p.add_argument("--seed", type=int, default=0, help="seed for random/highscore")
    p.add_argument("--trajectories", help="trajectory JSONL (highscore)")
    p.add_argument("--embeddings", help="embedding JSONL (fl)")
    p.add_argument("--pool", help="pool JSONL (random; fl when embedding on the fly)")
    p.add_argument(
        "--ge-sign",
        choices=list(GE_SIGNS),
        default=None,
        help="sign convention the score file was written with (default: default)",
    )
    p.add_argument(
        "--reward-tolerance",
        type=float,
        default=DEFAULT_REWARD_TOLERANCE,
        help="highscore: |reward-1| tolerance",
    )
    p.add_argument("--out", required=True, help="output selection JSONL")

    p = sub.add_parser("report", help="write review report")
    p.add_argument("--scores", required=True)
    p.add_argument("--trajectories", required=True)
    p.add_argument("-m", type=int, default=30, help="number of questions (default 30)")
    p.add_argument("--out", required=True, help="output report path")

    p = sub.add_parser("annotate", help="roll out trajectories")
    p.add_argument("--questions", required=True, help="pool JSONL or selection JSONL")
    p.add_argument("--pool", help="pool JSONL to resolve a selection file against")
    p.add_argument("--guideline", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--env", required=True, choices=["toyshop", "replay", "http"])
    p.add_argument("--env-url", help="base URL for --env http")
    p.add_argument("--tmax", type=int, default=None, help="turn cap (default 15)")
    p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    p.add_argument("--out", required=True, help="output trajectory JSONL")

    p = sub.add_parser("export", help="export SFT dataset")
    p.add_argument("--trajectories", required=True)
    p.add_argument("--instruction", required=True, help="instruction text file")
    p.add_argument("--guideline", required=True)
    p.add_argument("--out", required=True, help="output SFT JSONL")

    p = sub.add_parser("stats", help="dataset statistics")
    p.add_argument("--trajectories", required=True)
    p.add_argument("--selected", help="selection JSONL for difficulty shift")
    p.add_argument("--pool", help="pool JSONL for difficulty shift")

    return parser


def _response_cache(cache_dir: str) -> ResponseCache:
    cache = ResponseCache(Path(cache_dir) / "cache.jsonl")
    if cache.skipped_lines:
        print(
            f"warning: cache {cache.path}: skipped {cache.skipped_lines} malformed line(s)",
            file=sys.stderr,
        )
    return cache


def _cmd_score(args) -> int:
    config = load_run_config(args.config)
    if args.parallel is not None:
        if args.parallel < 1:
            raise UsageError("--parallel must be >= 1")
        config.parallelism = args.parallel
    pool = load_pool(args.pool)
    trajectories = load_trajectories(args.trajectories)
    guideline = Guideline.load(args.guideline)
    if not config.score_backend:
        raise FormatError("config has no score_backend entry")
    backend = build_backend(config.score_backend)
    records, diagnostics = score_pool(
        pool,
        trajectories,
        guideline,
        backend,
        config,
        args.no_guideline_only,
        cache=_response_cache(args.cache_dir),
    )
    skips = {"duplicate trajectory ignored", "no trajectory for question; skipped"}
    failures = [d for d in diagnostics if d.error not in skips]
    if failures and not records:
        raise BackendError(f"all {len(failures)} scoring attempts failed: {failures[0].error}")
    write_records(records, args.out)
    if diagnostics:
        write_records(diagnostics, args.out + ".diag.jsonl")
        for diag in diagnostics:
            print(f"warning: {diag.question_id}: {diag.error}", file=sys.stderr)
    return EXIT_OK


def _finite_vector(value) -> list[float] | None:
    """``value`` as floats if it is a list of finite JSON numbers, else None."""
    if not isinstance(value, list) or any(
        isinstance(v, bool) or not isinstance(v, (int, float)) for v in value
    ):
        return None
    try:
        vector = [float(v) for v in value]
    except OverflowError:  # an integer beyond float range
        return None
    return vector if all(math.isfinite(v) for v in vector) else None


def _load_embeddings_file(path: str) -> tuple[list[str], list[list[float]]]:
    ids: list[str] = []
    vectors: list[list[float]] = []
    for lineno, record in _load_jsonl(path, "embedding"):
        ctx = f"{path}:{lineno}"
        ids.append(_require_str(record, "question_id", ctx))
        vector = _finite_vector(record.get("embedding"))
        if vector is None:
            raise FormatError(f"{ctx}: field 'embedding' must be a list of finite numbers")
        vectors.append(vector)
    return ids, vectors


def _cmd_select(args) -> int:
    if args.k < 0:
        raise UsageError("-k must be >= 0")
    strategy = args.strategy
    if strategy == "ge":
        if not args.scores:
            raise UsageError("--scores is required for --strategy ge")
        scores = load_scores(args.scores)
        result = select_ge(scores, args.k, ascending=args.ge_sign != GE_SIGN_EQ5)
    elif strategy == "entropy":
        if not args.scores:
            raise UsageError("--scores is required for --strategy entropy")
        result = select_mean_entropy(load_scores(args.scores), args.k)
    elif strategy == "random":
        if args.pool:
            pool = load_pool(args.pool)
        elif args.scores:
            pool = [Question(id=s.question_id, text=s.question_id) for s in load_scores(args.scores)]
        else:
            raise UsageError("--pool or --scores is required for --strategy random")
        result = select_random(pool, args.k, args.seed)
    elif strategy == "highscore":
        if not args.trajectories:
            raise UsageError("--trajectories is required for --strategy highscore")
        result = select_high_score(
            load_trajectories(args.trajectories),
            args.k,
            args.seed,
            reward_tolerance=args.reward_tolerance,
        )
    else:  # fl
        if args.embeddings:
            ids, vectors = _load_embeddings_file(args.embeddings)
        elif args.pool:
            embedder = HashEmbedBackend()
            pool = load_pool(args.pool)
            ids = [q.id for q in pool]
            vectors = [embedder.embed(q.text) for q in pool]
        else:
            raise UsageError("--embeddings or --pool is required for --strategy fl")
        result = select_facility_location(ids, vectors, args.k)
    write_records([result], args.out)
    if result.warning:
        print(f"warning: {result.warning}", file=sys.stderr)
    return EXIT_OK


def _cmd_report(args) -> int:
    scores = load_scores(args.scores)
    trajectories = load_trajectories(args.trajectories)
    report = review_report(scores, trajectories, args.m)
    Path(args.out).write_text(report, encoding="utf-8")
    return EXIT_OK


def _load_questions(path: str, pool_path: str | None) -> list[Question]:
    """Accept either a pool file or a selection file plus --pool."""
    raw = _read_text(path, "questions")
    first = None
    for line in raw.splitlines():
        if line.strip():
            try:
                first = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{path}: malformed questions file: {exc}") from exc
            break
    if first is None:
        raise FormatError(f"{path}: questions file is empty")
    if "strategy" in first:
        if not pool_path:
            raise UsageError("--pool is required when --questions is a selection file")
        selection = load_selection(path)
        by_id = {q.id: q for q in load_pool(pool_path)}
        missing = [qid for qid in selection.question_ids if qid not in by_id]
        if missing:
            raise FormatError(f"selection ids missing from pool: {missing[:5]}")
        return [by_id[qid] for qid in selection.question_ids]
    return load_pool(path)


def _cmd_annotate(args) -> int:
    config = load_run_config(args.config)
    if args.tmax is not None:
        if args.tmax < 1:
            raise UsageError("--tmax must be >= 1")
        config.t_max = args.tmax
    questions = _load_questions(args.questions, args.pool)
    guideline = Guideline.load(args.guideline)
    if not config.generate_backend:
        raise FormatError("config has no generate_backend entry")
    if args.env == "toyshop":
        params = config.env.get("toyshop", {})
        if not isinstance(params, dict):
            raise FormatError("config env.toyshop must be an object")
        unknown = sorted(set(params) - {f.name for f in dataclasses.fields(ToyShopConfig)})
        if unknown:
            raise FormatError(f"unknown config env.toyshop keys: {unknown}")
        for key, value in params.items():
            if key == "hidden_attrs":
                if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                    raise FormatError(f"config env.toyshop.{key} must be a list of strings")
            elif isinstance(value, bool) or not isinstance(value, int):
                raise FormatError(f"config env.toyshop.{key} must be an integer, got {value!r}")
        env = ToyShopEnv(ToyShopConfig(**params))
    elif args.env == "replay":
        recordings_path = config.env.get("replay_trajectories")
        if not recordings_path:
            raise FormatError("config env.replay_trajectories is required for --env replay")
        env = ReplayEnv.from_trajectories(load_trajectories(recordings_path))
    else:
        if not args.env_url:
            raise UsageError("--env-url is required for --env http")
        env = HttpEnv(args.env_url)
    # Opening the cache creates --cache-dir, so it comes after every check.
    backend = CachedBackend(
        build_backend(config.generate_backend), _response_cache(args.cache_dir)
    )
    trajectories, diagnostics = annotate(questions, guideline, backend, env, config)
    if diagnostics and not trajectories:
        if all(d.stage == "annotate-env" for d in diagnostics):
            raise EnvError(f"all {len(diagnostics)} rollouts failed: {diagnostics[0].error}")
        raise BackendError(f"all {len(diagnostics)} rollouts failed: {diagnostics[0].error}")
    write_records(trajectories, args.out)
    if diagnostics:
        write_records(diagnostics, args.out + ".diag.jsonl")
        for diag in diagnostics:
            print(f"warning: {diag.question_id}: {diag.error}", file=sys.stderr)
    return EXIT_OK


def _cmd_export(args) -> int:
    trajectories = load_trajectories(args.trajectories)
    instruction = _read_text(args.instruction, "instruction")
    guideline = Guideline.load(args.guideline)
    records = export_sft(trajectories, instruction, guideline)
    write_records(records, args.out)
    return EXIT_OK


def _cmd_stats(args) -> int:
    trajectories = load_trajectories(args.trajectories)
    payload: dict = dataset_stats(trajectories)
    if args.selected and args.pool:
        selection = load_selection(args.selected)
        pool = load_pool(args.pool)
        payload["difficulty_shift"] = difficulty_shift(selection, pool)
    elif args.selected or args.pool:
        raise UsageError("--selected and --pool must be given together")
    print(json.dumps(payload, ensure_ascii=False, sort_keys=True))
    return EXIT_OK


_COMMANDS = {
    "score": _cmd_score,
    "select": _cmd_select,
    "report": _cmd_report,
    "annotate": _cmd_annotate,
    "export": _cmd_export,
    "stats": _cmd_stats,
}


def run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        if not args.command:
            raise UsageError("a subcommand is required (see --help)")
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except UsageError as exc:
        _fail(EXIT_USAGE, str(exc))
        return EXIT_USAGE
    except (FormatError, OSError) as exc:
        _fail(EXIT_FORMAT, str(exc))
        return EXIT_FORMAT
    except BackendError as exc:
        _fail(EXIT_BACKEND, str(exc))
        return EXIT_BACKEND
    except EnvError as exc:
        _fail(EXIT_ENV, str(exc))
        return EXIT_ENV


def _fail(code: int, message: str) -> None:
    flat = " ".join(message.split())
    print(f"error:{code}:{flat}", file=sys.stderr)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
