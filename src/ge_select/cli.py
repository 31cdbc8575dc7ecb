"""Command line interface.

One executable with score/select/report/annotate/export/stats subcommands.
All behavior is reproducible: identical argv and inputs (plus a warm cache)
produce byte-identical outputs. Nonzero exits print a single machine-parsable
``error:<code>:`` line on stderr.

Importing this module loads only ``models``; each command loads the layers it
runs (see ``_COMMANDS``), so ``select``, ``report``, ``export`` and ``stats``
never load a backend, an environment or the scoring pipeline.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from pathlib import Path
from typing import Sequence

from .models import (
    STRATEGIES,
    BackendError,
    EnvError,
    FormatError,
    Guideline,
    Question,
    _check_unique,
    _load_jsonl,
    _read_text,
    load_pool,
    load_scores,
    load_selection,
    load_trajectories,
    number,
    string,
    write_file,
    write_records,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FORMAT = 2
EXIT_BACKEND = 3
EXIT_ENV = 4

DEFAULT_CACHE_DIR = ".ge-cache"

# The names this module uses from each layer. ``run`` binds a command's layers
# here before the command starts; reading a name off this module first, as a
# tracer does before replacing it, binds its layer too. Binding never replaces
# a name already set, so a replacement stays in place.
_DEFERRED = {
    "backends": ("CachedBackend", "ResponseCache", "build_backend"),
    "envs": ("HttpEnv", "ToyShopConfig", "ToyShopEnv"),
    "pipeline": ("SCORE_SKIPS", "annotate", "load_run_config", "score_pool"),
    "reports": ("dataset_stats", "difficulty_shift", "export_sft", "review_report"),
    "selectors": (
        "EmbeddingNormError", "HashEmbedBackend", "select_facility_location", "select_ge",
        "select_high_score", "select_mean_entropy", "select_random",
    ),
}  # fmt: skip


def _load(*layers: str) -> None:
    for layer in layers:
        module = importlib.import_module(f".{layer}", __package__)
        for name in _DEFERRED[layer]:
            globals().setdefault(name, getattr(module, name))


def __getattr__(name: str):
    for layer, names in _DEFERRED.items():
        if name in names:
            _load(layer)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
        "--parallel",
        type=int,
        default=4,
        help="http scoring threads (default 4); n-gram scoring runs on one thread",
    )
    p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR, help="response cache directory")

    p = sub.add_parser("select", help="select k questions")
    p.add_argument("--scores", help="score JSONL (ge, entropy, random fallback)")
    p.add_argument("--strategy", required=True, choices=STRATEGIES)
    p.add_argument("-k", type=int, default=800, help="selection budget (default 800)")
    p.add_argument("--seed", type=int, default=0, help="seed for random/highscore")
    p.add_argument("--trajectories", help="trajectory JSONL (highscore)")
    p.add_argument("--embeddings", help="embedding JSONL (fl)")
    p.add_argument("--pool", help="pool JSONL (random; fl when embedding on the fly)")
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
    p.add_argument("--env", required=True, choices=["toyshop", "http"])
    p.add_argument("--env-url", help="base URL for --env http")
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


# The cap of ``score --parallel``. An http backend scores on one thread per
# worker, so the worker count stays small; other backends start no threads.
MAX_PARALLELISM = 256


def _cmd_score(args) -> int:
    config = load_run_config(args.config)
    if not 1 <= args.parallel <= MAX_PARALLELISM:
        raise UsageError(f"--parallel must be between 1 and {MAX_PARALLELISM}")
    pool = load_pool(args.pool)
    trajectories = load_trajectories(args.trajectories)
    guideline = Guideline.load(args.guideline)
    if not config.score_backend:
        raise FormatError("config has no score_backend entry")
    backend = build_backend(config.score_backend)
    cache = _response_cache(args.cache_dir)
    records, diagnostics = score_pool(
        pool, trajectories, guideline, backend, config, cache=cache, parallelism=args.parallel
    )
    failures = [d for d in diagnostics if d.error not in SCORE_SKIPS]
    if failures and not records:
        raise BackendError(f"all {len(failures)} scoring attempts failed: {failures[0].error}")
    return _write_with_diagnostics(records, diagnostics, args.out)


def _write_with_diagnostics(records: list, diagnostics: list, out: str) -> int:
    """Write ``records`` to ``out``, and any diagnostics to the ``.diag.jsonl``
    sidecar with one warning line each on stderr. A run without diagnostics
    removes the sidecar, so none is left from an earlier run. The sidecar is
    settled before ``out`` is replaced, so a run cut between the two never
    pairs a new ``out`` with an old sidecar."""
    sidecar = Path(out + ".diag.jsonl")
    if diagnostics:
        write_records(diagnostics, sidecar)
    else:
        sidecar.unlink(missing_ok=True)
    write_records(records, out)
    for diag in diagnostics:
        print(f"warning: {diag.question_id}: {diag.error}", file=sys.stderr)
    return EXIT_OK


def _load_embeddings_file(path: str) -> tuple[list[str], list[Sequence[float]], list[int]]:
    """Read an embeddings file, rejecting a repeated id, an empty vector and
    a vector whose length differs from the first record's, each by line
    number. Returns the ids, the vectors and each record's line number. Each
    vector is an ``array('d')``, 8 bytes a number instead of a float object
    and its list slot, since ``select`` holds them all through the product."""
    from array import array  # imported here, so no other command pays for it

    ids: list[str] = []
    vectors: list[array] = []
    lines: list[int] = []
    seen: dict[str, int] = {}
    for lineno, record in _load_jsonl(path, "embedding"):
        qid = string(record.get("question_id"), f"{path}:{lineno}: field 'question_id'")
        _check_unique(seen, qid, "question_id", path, lineno)
        where = f"{path}:{lineno}: field 'embedding'"
        vector = record.get("embedding")
        if not isinstance(vector, list) or not vector:
            raise FormatError(f"{where} must be a non-empty list of finite numbers")
        if vectors and len(vector) != len(vectors[0]):
            raise FormatError(
                f"{where} has {len(vector)} numbers, but line {lines[0]} has {len(vectors[0])}"
            )
        ids.append(qid)
        vectors.append(array("d", [number(v, where) for v in vector]))
        lines.append(lineno)
    return ids, vectors, lines


def _embed_pool(path: str) -> tuple[list[str], list[list[float]]]:
    """Hash-embed a pool: its ids, and one vector per question, shared by the
    questions of one text, so each distinct text is embedded once. The
    pool's records are not kept."""
    embedder = HashEmbedBackend()
    pool = load_pool(path)
    embedded = {text: embedder.embed(text) for text in dict.fromkeys(q.text for q in pool)}
    return [q.id for q in pool], [embedded[q.text] for q in pool]


def _cmd_select(args) -> int:
    if args.k < 0:
        raise UsageError("-k must be >= 0")
    strategy = args.strategy
    if strategy in ("ge", "entropy"):
        if not args.scores:
            raise UsageError(f"--scores is required for --strategy {strategy}")
        select = select_ge if strategy == "ge" else select_mean_entropy
        result = select(load_scores(args.scores), args.k)
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
        result = select_high_score(load_trajectories(args.trajectories), args.k, args.seed)
    else:  # fl
        # One BLAS thread, set before numpy loads: the gains' bytes then do not
        # depend on the core count (README, "select --strategy fl").
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
        lines: list[int] = []
        if args.embeddings:
            ids, vectors, lines = _load_embeddings_file(args.embeddings)
        elif args.pool:
            ids, vectors = _embed_pool(args.pool)
        else:
            raise UsageError("--embeddings or --pool is required for --strategy fl")
        try:
            result = select_facility_location(ids, vectors, args.k)
        except EmbeddingNormError as exc:  # hash embeddings are unit or zero vectors
            where = f"{args.embeddings}:{lines[exc.index]}: field 'embedding'"
            raise FormatError(f"{where} {exc.reason}") from None
    write_records([result], args.out)
    if result.warning:
        print(f"warning: {result.warning}", file=sys.stderr)
    return EXIT_OK


def _cmd_report(args) -> int:
    if args.m < 1:
        raise UsageError("-m must be >= 1")
    scores = load_scores(args.scores)
    trajectories = load_trajectories(args.trajectories)
    report = review_report(scores, trajectories, args.m)
    write_file(args.out, report)
    return EXIT_OK


def _load_questions(path: str, pool_path: str | None) -> list[Question]:
    """Accept either a pool file or a selection file plus --pool. A file
    whose first record has a ``strategy`` and no ``id`` is a selection."""
    first = next(_load_jsonl(path, "questions"), None)
    if first is None:
        raise FormatError(f"{path}: questions file is empty")
    if "strategy" in first[1] and "id" not in first[1]:
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
    questions = _load_questions(args.questions, args.pool)
    guideline = Guideline.load(args.guideline)
    if not config.generate_backend:
        raise FormatError("config has no generate_backend entry")
    if args.env == "toyshop":
        env = ToyShopEnv(ToyShopConfig(**config.env.get("toyshop", {})))
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
        # One generation failure makes the run a backend failure, and the
        # message names the first failure of the kind that sets the code.
        generate = [d for d in diagnostics if d.stage == "annotate-generate"]
        error = BackendError if generate else EnvError
        raise error(f"all {len(diagnostics)} rollouts failed: {(generate or diagnostics)[0].error}")
    return _write_with_diagnostics(trajectories, diagnostics, args.out)


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


# Each command's handler, and the layers it runs besides ``models``.
_COMMANDS = {
    "score": (_cmd_score, ("pipeline", "backends")),
    "select": (_cmd_select, ("selectors",)),
    "report": (_cmd_report, ("reports",)),
    "annotate": (_cmd_annotate, ("pipeline", "backends", "envs")),
    "export": (_cmd_export, ("reports",)),
    "stats": (_cmd_stats, ("reports",)),
}


def run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        if not args.command:
            raise UsageError("a subcommand is required (see --help)")
        handler, layers = _COMMANDS[args.command]
        _load(*layers)
        return handler(args)
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
