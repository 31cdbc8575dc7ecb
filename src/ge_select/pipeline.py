"""End-to-end orchestration: run config, pool scoring and annotation.

Scoring renders and keys every prompt on the calling thread, in question id
order, and looks each distinct key up in the cache once. Only the backend
calls of the distinct misses leave that thread: an http backend waits on the
network, so they fan out across a bounded pool of worker threads, while any
other backend is CPU-bound under the GIL and starts none. The calling thread
stores each entry in question order as the calls return, so a cold run
writes the same cache at every parallelism degree, and then aggregates.
Failures are collected as diagnostics instead of aborting the batch.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Sequence

from .backends import Backend, ResponseCache, backend_kind, cache_key, canonical_request
from .models import (
    BackendError,
    EnvError,
    FormatError,
    Guideline,
    Question,
    Record,
    ScoreRecord,
    Step,
    Trajectory,
    _load_jsonl,
    _read_text,
    keys,
    number,
    string,
    sum_floats,
)
from .prompts import (
    DEFAULT_TEMPLATE,
    SCORE_TARGET_ACTION,
    SCORE_TARGETS,
    PromptBundle,
    build_generation_prompt,
    build_prompt,
    check_template,
    map_spans_to_tokens,
)
# Re-exported for its one reader, perfbench/run.py.
from .reports import validate_sft_record  # noqa: F401
from .scoring import TokenDistribution, aggregate_trajectory, mean_entropy

# An annotate turn reads its action from one line, so generation stops at the
# first newline: a backend writes no line that nothing reads, and the cache
# stores none.
ACTION_STOP = "\n"

# The two diagnostics of ``score_pool`` that skip a question without a failure.
DUPLICATE_TRAJECTORY = "duplicate trajectory ignored"
NO_TRAJECTORY = "no trajectory for question; skipped"
SCORE_SKIPS = (DUPLICATE_TRAJECTORY, NO_TRAJECTORY)


class Diagnostic(Record):
    __slots__ = ("question_id", "stage", "error")
    question_id: str
    stage: str
    error: str

    def __init__(self, question_id: str, stage: str, error: str) -> None:
        object.__setattr__(self, "question_id", question_id)
        object.__setattr__(self, "stage", stage)
        object.__setattr__(self, "error", error)

    def to_record(self) -> dict:
        return {"question_id": self.question_id, "stage": self.stage, "error": self.error}


# Sign conventions of the ge that scoring writes: eq5 negates the default.
GE_SIGN_DEFAULT = "default"
GE_SIGN_EQ5 = "eq5"
GE_SIGNS = (GE_SIGN_DEFAULT, GE_SIGN_EQ5)

# The fields of ``envs.ToyShopConfig``, named here so that loading a config
# does not load the environments.
TOYSHOP_KEYS = ("seed", "catalog_size", "hidden_attrs", "max_results")


class RunConfig(Record):
    """Pipeline settings, usually loaded from one JSON config document."""

    __slots__ = (
        "instruction", "exemplars", "template", "score_target", "ge_sign", "top_k", "t_max",
        "score_backend", "generate_backend", "env",
    )  # fmt: skip
    instruction: str
    exemplars: tuple[str, ...]
    template: str
    score_target: str
    ge_sign: str
    top_k: int
    t_max: int  # the turns of one annotate episode, in any environment
    score_backend: dict
    generate_backend: dict
    env: dict

    def __init__(
        self,
        instruction: str = "Interact with the environment to complete the task.",
        exemplars: tuple[str, ...] = (),
        template: str = DEFAULT_TEMPLATE,
        score_target: str = SCORE_TARGET_ACTION,
        ge_sign: str = GE_SIGN_DEFAULT,
        top_k: int = 5,
        t_max: int = 15,
        score_backend: dict | None = None,
        generate_backend: dict | None = None,
        env: dict | None = None,
    ) -> None:
        if score_backend is None:
            score_backend = {}
        if generate_backend is None:
            generate_backend = {}
        if env is None:
            env = {}
        object.__setattr__(self, "instruction", instruction)
        object.__setattr__(self, "exemplars", exemplars)
        object.__setattr__(self, "template", template)
        object.__setattr__(self, "score_target", score_target)
        object.__setattr__(self, "ge_sign", ge_sign)
        object.__setattr__(self, "top_k", top_k)
        object.__setattr__(self, "t_max", t_max)
        object.__setattr__(self, "score_backend", score_backend)
        object.__setattr__(self, "generate_backend", generate_backend)
        object.__setattr__(self, "env", env)
        number(top_k, "top_k", integer=True, low=0)
        number(t_max, "t_max", integer=True, low=1)
        check_template(template)
        if score_target not in SCORE_TARGETS:
            raise FormatError(f"score_target must be one of {SCORE_TARGETS}")
        if ge_sign not in GE_SIGNS:
            raise FormatError(f"ge_sign must be one of {GE_SIGNS}")
        for name in ("score_backend", "generate_backend"):
            if getattr(self, name) != {}:  # empty when the run needs no such backend
                backend_kind(getattr(self, name), name)
        keys(self.env, ("toyshop",), "env")
        # ``ToyShopConfig`` checks the values when ``annotate`` builds it.
        keys(self.env.get("toyshop", {}), TOYSHOP_KEYS, "env.toyshop")


def load_exemplars(path: str | Path) -> tuple[str, ...]:
    exemplars = []
    for lineno, record in _load_jsonl(path, "exemplar"):
        exemplars.append(string(record.get("text"), f"{path}:{lineno}: field 'text'", empty=True))
    return tuple(exemplars)


# The keys a run config may hold: files to read, and settings that go to
# ``RunConfig`` as they are, which are all its fields but the files' three.
_PATH_KEYS = ("instruction_path", "exemplars_path", "template_path")
_CONFIG_KEYS = tuple(name for name in RunConfig.__slots__ if f"{name}_path" not in _PATH_KEYS)


def load_run_config(path: str | Path) -> RunConfig:
    text = _read_text(path, "config")
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too long an integer, too deep a nesting
        raise FormatError(f"{path}: malformed config JSON: {exc}") from exc
    keys(raw, (*_CONFIG_KEYS, *_PATH_KEYS), str(path))
    base = Path(path).parent

    def resolve(p: Any) -> Path:
        candidate = Path(string(p, f"{path}: config file paths"))
        return candidate if candidate.is_absolute() else base / candidate

    kwargs: dict[str, Any] = {}
    if "instruction_path" in raw:
        kwargs["instruction"] = _read_text(resolve(raw["instruction_path"]), "instruction")
    if "exemplars_path" in raw:
        kwargs["exemplars"] = load_exemplars(resolve(raw["exemplars_path"]))
    if "template_path" in raw:
        kwargs["template"] = _read_text(resolve(raw["template_path"]), "template")
    for key in _CONFIG_KEYS:
        if key in raw:
            kwargs[key] = raw[key]
    for backend_key in ("score_backend", "generate_backend"):
        cfg = kwargs.get(backend_key)  # ``build_backend`` checks and reads the corpus file
        if isinstance(cfg, dict) and isinstance(cfg.get("corpus_path"), str) and cfg["corpus_path"]:
            kwargs[backend_key] = {**cfg, "corpus_path": str(base / cfg["corpus_path"])}
    return RunConfig(**kwargs)


def _check_scored(scored: Any, spans: int, where: str) -> None:
    """Raise ``FormatError`` unless a cached scoring entry holds exactly what
    a miss stores: ``steps``, one ``[total, count]`` pair per span, with
    ``total`` a finite number <= 0 and ``count`` an integer >= 1, and
    ``mean_entropy``, null or a finite number >= 0."""
    steps = keys(scored, ("steps", "mean_entropy"), where).get("steps")
    if "mean_entropy" not in scored or not isinstance(steps, list) or len(steps) != spans:
        raise FormatError(f"{where} needs 'mean_entropy' and one 'steps' pair per span")
    for step in steps:
        if not isinstance(step, list) or len(step) != 2:
            raise FormatError(f"{where}: each span's step must be a [total, count] pair")
        number(step[0], f"{where} logprob total", high=0)
        number(step[1], f"{where} token count", integer=True, low=1)
    if scored["mean_entropy"] is not None:
        number(scored["mean_entropy"], f"{where} mean_entropy", low=0)


def _score_miss(miss: tuple[PromptBundle, int], backend: Backend) -> dict | Exception:
    """The scoring entry (schema 3) of a prompt that missed the cache, or the
    error that failed it: ``steps``, one ``[total, count]`` pair per scored
    action, the sum of its token logprobs in token order and their number,
    and ``mean_entropy``, of the top-k distributions at those tokens (None
    when there are none). The backend's ``score_spans`` gives them when it
    has one, and otherwise its ``echo_logprobs`` reply. A sum that overflows
    is a ``FormatError``, so it is never stored."""
    bundle, top_k = miss
    try:
        if hasattr(backend, "score_spans"):
            steps, entropy = backend.score_spans(bundle.rendered, bundle.action_spans, top_k)
        else:
            echo = backend.echo_logprobs(bundle.rendered, want_top_k=top_k)
            steps = []
            dists: list[TokenDistribution] = []
            for index, (first, last) in enumerate(map_spans_to_tokens(bundle, echo)):
                tokens = echo[first:last]
                if any(token.logprob is None for token in tokens):
                    raise FormatError(
                        f"the echo reply has a null logprob at a token of step {index}'s scored span"
                    )
                steps.append([sum_floats(token.logprob for token in tokens), len(tokens)])
                dists.extend(token.top for token in tokens if token.top)
            entropy = mean_entropy(dists) if dists else None
        for index, (total, _) in enumerate(steps):
            number(total, f"scored span for step {index}: the sum of its token logprobs", high=0)
    except (BackendError, FormatError) as exc:
        return exc
    return {"steps": steps, "mean_entropy": entropy}


def _score_all(
    items: Sequence[tuple[Trajectory, Question]],
    guideline: Guideline,
    backend: Backend,
    config: RunConfig,
    cache: ResponseCache | None,
    parallelism: int,
) -> list[ScoreRecord | Exception]:
    """Each trajectory's record, or the error that failed it, in order.

    The guideline-free prompt is scored at ``top_k`` 0, since only its
    logprobs are used; ``mean_entropy`` comes from the guideline prompt,
    scored at ``config.top_k``. A prompt's key covers schema version, prompt,
    spans and top_k. Each distinct key is looked up once, and a hit of the
    wrong shape is a ``FormatError`` naming the cache. Each distinct miss is
    sent once and stored in order; its failure fails every trajectory that
    needs it."""
    entries: dict[str, Any] = {}  # key -> a checked hit, a stored miss or the error of either
    misses: dict[str, tuple[PromptBundle, int]] = {}
    planned = []
    for trajectory, question in items:
        pair = []
        for g, top_k in ((None, 0), (guideline, config.top_k)):
            bundle = build_prompt(
                config.instruction, g, config.exemplars, trajectory, config.template,
                config.score_target, question_text=question.text,
            )  # fmt: skip
            request = {"op": "score_spans", "v": 3, "text": bundle.rendered,
                       "spans": bundle.action_spans, "top_k": top_k}  # fmt: skip
            key = cache_key(backend.id, canonical_request(request))
            pair.append(key)
            hit = None if key in entries or key in misses or cache is None else cache.get(key)
            if hit is not None:
                try:
                    _check_scored(hit, len(bundle.action_spans), f"cache {cache.path}: scoring entry")
                except FormatError as exc:
                    hit = exc
                entries[key] = hit
            elif key not in entries:
                misses.setdefault(key, (bundle, top_k))
        planned.append(pair)

    def store(scored) -> None:
        for key, entry in zip(misses, scored):  # ``map`` yields in ``misses`` order
            stored = cache is not None and isinstance(entry, dict)
            entries[key] = cache.put(key, entry) if stored else entry

    calls = (misses.values(), [backend] * len(misses))
    # Wrappers forward ``id``, so its kind names the backend beneath them.
    if backend.id.kind == "http":
        # Imported here so runs that start no threads skip its start-up cost.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=parallelism) as pool_exec:
            store(pool_exec.map(_score_miss, *calls))
    else:
        store(map(_score_miss, *calls))

    outcomes: list[ScoreRecord | Exception] = []
    for (trajectory, _), (without_key, with_key) in zip(items, planned):
        without, with_g = entries[without_key], entries[with_key]
        failed = [entry for entry in (without, with_g) if isinstance(entry, Exception)]
        if failed:
            outcomes.append(failed[0])
            continue
        per_step, ge = aggregate_trajectory(with_g["steps"], without["steps"])
        outcomes.append(
            ScoreRecord(
                question_id=trajectory.question_id,
                guideline_version=guideline.version,
                backend_id=backend.id.fingerprint,
                per_step=tuple(per_step),
                ge=-ge if config.ge_sign == GE_SIGN_EQ5 else ge,
                mean_entropy=with_g["mean_entropy"],
            )
        )
    return outcomes


def score_trajectory(
    trajectory: Trajectory,
    question: Question,
    guideline: Guideline,
    backend: Backend,
    config: RunConfig,
    cache: ResponseCache | None = None,
) -> ScoreRecord:
    """Score one trajectory as ``score_pool`` does; a failure raises its
    ``BackendError`` or ``FormatError``."""
    (outcome,) = _score_all([(trajectory, question)], guideline, backend, config, cache, 1)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def score_pool(
    pool: Sequence[Question],
    trajectories: Sequence[Trajectory],
    guideline: Guideline,
    backend: Backend,
    config: RunConfig,
    cache: ResponseCache | None = None,
    *,
    parallelism: int = 4,
) -> tuple[list[ScoreRecord], list[Diagnostic]]:
    """Score every question that has a trajectory; first trajectory wins.

    With a ``cache``, scored spans already in it are not sent to the backend.
    An http backend sends the distinct missed prompts from ``parallelism``
    worker threads; any other backend starts none.
    """
    by_id = {q.id: q for q in pool}
    diagnostics: list[Diagnostic] = []
    chosen: dict[str, Trajectory] = {}
    for trajectory in trajectories:
        qid = trajectory.question_id
        if qid not in by_id:
            raise FormatError(f"trajectory question_id {qid!r} is not in the pool")
        if qid in chosen:
            diagnostics.append(Diagnostic(qid, "score", DUPLICATE_TRAJECTORY))
            continue
        chosen[qid] = trajectory
    for question in pool:
        if question.id not in chosen:
            diagnostics.append(Diagnostic(question.id, "score", NO_TRAJECTORY))

    ordered = sorted(chosen.items())
    items = [(trajectory, by_id[qid]) for qid, trajectory in ordered]
    outcomes = _score_all(items, guideline, backend, config, cache, parallelism)
    records = []
    for (qid, _), outcome in zip(ordered, outcomes):
        if isinstance(outcome, ScoreRecord):
            records.append(outcome)
        else:
            diagnostics.append(Diagnostic(qid, "score", str(outcome)))
    diagnostics.sort(key=lambda d: (d.question_id, d.error))
    return records, diagnostics


def parse_action(completion: str) -> str:
    """First non-empty line of a completion, minus any leading action marker."""
    for line in completion.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.lower().startswith("action:"):
            line = line[len("action:") :].strip()
        if line:
            return line
    return ""


def _episode(
    question: Question,
    guideline: Guideline,
    backend: Backend,
    env,
    config: RunConfig,
) -> Trajectory:
    """Roll out one episode of at most ``config.t_max`` turns. An
    ``EnvError`` or ``BackendError`` propagates unchanged."""
    initial = env.reset(question)
    history: list[tuple[str, str]] = []
    for _ in range(config.t_max):
        prompt = build_generation_prompt(
            config.instruction,
            guideline,
            config.exemplars,
            question.text,
            initial,
            history,
            config.template,
        )
        completion = backend.generate(prompt, stop=[ACTION_STOP])
        action = parse_action(completion) or completion.strip() or "noop"
        result = env.step(action)
        history.append((action, result.observation))
        if result.done:
            break
    return Trajectory(
        question_id=question.id,
        guideline_version=guideline.version,
        steps=tuple(Step(action=a, observation=o) for a, o in history),
        reward=result.reward,  # ``t_max`` >= 1, so the last step is bound
        source="annotated",
        question_text=question.text,
        initial_observation=initial,
    )


def annotate(
    questions: Sequence[Question],
    guideline: Guideline,
    backend: Backend,
    env,
    config: RunConfig,
) -> tuple[list[Trajectory], list[Diagnostic]]:
    """Roll out one episode per question with the generation backend; a
    failed episode leaves a diagnostic instead of a trajectory."""
    if not questions:
        raise FormatError("annotate needs at least one question")
    trajectories: list[Trajectory] = []
    diagnostics: list[Diagnostic] = []
    for question in questions:
        try:
            trajectories.append(_episode(question, guideline, backend, env, config))
        except EnvError as exc:
            diagnostics.append(Diagnostic(question.id, "annotate-env", str(exc)))
        except BackendError as exc:
            diagnostics.append(Diagnostic(question.id, "annotate-generate", str(exc)))
    return trajectories, diagnostics
