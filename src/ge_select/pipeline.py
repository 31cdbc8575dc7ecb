"""End-to-end orchestration: run config, pool scoring and annotation.

Scoring visits questions in id order. An http backend waits on the network,
so its questions fan out across a bounded pool of worker threads; any other
backend is CPU-bound under the GIL, so it scores on the calling thread and its
cache appends follow question order. Aggregation is order-independent and the
output is sorted by question id before writing, so results are invariant to
pool order and parallelism degree. Failures are collected as diagnostics
instead of aborting the batch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from .backends import Backend, ResponseCache, backend_kind, cache_key, canonical_request
from .models import (
    BackendError,
    EnvError,
    FormatError,
    Guideline,
    Question,
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
# Re-exported for callers that import them from here: perfbench/run.py
# (``validate_sft_record``), tests/test_acceptance.py (all but
# ``review_report``) and tests/test_pipeline.py (all five).
from .reports import dataset_stats, difficulty_shift, export_sft, review_report, validate_sft_record  # noqa: F401
from .scoring import TokenDistribution, aggregate_trajectory, mean_entropy

OBSERVATION_STOP = "\nObservation"

# The two diagnostics of ``score_pool`` that skip a question without a failure.
DUPLICATE_TRAJECTORY = "duplicate trajectory ignored"
NO_TRAJECTORY = "no trajectory for question; skipped"
SCORE_SKIPS = (DUPLICATE_TRAJECTORY, NO_TRAJECTORY)


@dataclass(frozen=True)
class Diagnostic:
    question_id: str
    stage: str
    error: str

    def to_record(self) -> dict:
        return {"question_id": self.question_id, "stage": self.stage, "error": self.error}


# Sign conventions of the ge that scoring writes: eq5 negates the default.
GE_SIGN_DEFAULT = "default"
GE_SIGN_EQ5 = "eq5"
GE_SIGNS = (GE_SIGN_DEFAULT, GE_SIGN_EQ5)

# The fields of ``envs.ToyShopConfig``, named here so that loading a config
# does not load the environments.
TOYSHOP_KEYS = ("seed", "catalog_size", "hidden_attrs", "max_results")

# An http backend scores on one thread per worker, so the worker count stays
# small; other backends start no threads and ignore it.
MAX_PARALLELISM = 256


@dataclass
class RunConfig:
    """Pipeline settings, usually loaded from one JSON config document."""

    instruction: str = "Interact with the environment to complete the task."
    exemplars: tuple[str, ...] = ()
    template: str = DEFAULT_TEMPLATE
    score_target: str = SCORE_TARGET_ACTION
    ge_sign: str = GE_SIGN_DEFAULT
    top_k: int = 5
    parallelism: int = 4
    t_max: int = 15  # the turns of one annotate episode, in any environment
    score_backend: dict = field(default_factory=dict)
    generate_backend: dict = field(default_factory=dict)
    env: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        number(self.top_k, "top_k", integer=True, low=0)
        number(self.parallelism, "parallelism", integer=True, low=1, high=MAX_PARALLELISM)
        number(self.t_max, "t_max", integer=True, low=1)
        check_template(self.template)
        if self.score_target not in SCORE_TARGETS:
            raise FormatError(f"score_target must be one of {SCORE_TARGETS}")
        if self.ge_sign not in GE_SIGNS:
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
# ``RunConfig`` as they are.
_PATH_KEYS = ("instruction_path", "exemplars_path", "template_path")
_CONFIG_KEYS = (
    "score_target", "ge_sign", "top_k", "parallelism", "t_max",
    "score_backend", "generate_backend", "env",
)  # fmt: skip


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


def _score_prompt(
    bundle: PromptBundle,
    backend: Backend,
    top_k: int,
    cache: ResponseCache | None = None,
) -> tuple[list[list], float | None]:
    """One ``[total, count]`` pair per scored action, the sum of its token
    logprobs in token order and their number, plus the mean entropy of the
    top-k distributions at those tokens (None when there are none).

    Only these are cached (schema 3), keyed by schema version, prompt, spans
    and top_k, so a hit needs neither the backend, span mapping nor any
    distribution. A miss stores them and returns what the cache holds, so
    racing writers agree; JSON floats round-trip exactly, so a hit returns
    the same bytes. A hit of any other shape raises ``FormatError`` naming
    the cache. A miss whose sum overflows raises ``FormatError`` and stores
    nothing.
    """
    key = cache_key(
        backend.id,
        canonical_request(
            {
                "op": "score_spans",
                "v": 3,
                "text": bundle.rendered,
                "spans": bundle.action_spans,
                "top_k": top_k,
            }
        ),
    )
    scored = cache.get(key) if cache is not None else None
    if scored is not None:
        _check_scored(scored, len(bundle.action_spans), f"cache {cache.path}: scoring entry")
    else:
        echo = backend.echo_logprobs(bundle.rendered, want_top_k=top_k)
        steps: list[list] = []
        dists: list[TokenDistribution] = []
        for index, (first, last) in enumerate(map_spans_to_tokens(bundle, echo)):
            tokens = echo[first:last]
            if any(token.logprob is None for token in tokens):
                raise FormatError(
                    f"scored span for step {index} covers a token "
                    "without a logprob (prompt must not begin with an action)"
                )
            total = sum_floats(token.logprob for token in tokens)
            number(total, f"scored span for step {index}: the sum of its token logprobs", high=0)
            steps.append([total, len(tokens)])
            dists.extend(token.top for token in tokens if token.top)
        scored = {"steps": steps, "mean_entropy": mean_entropy(dists) if dists else None}
        if cache is not None:
            scored = cache.put(key, scored)
    return scored["steps"], scored["mean_entropy"]


def score_trajectory(
    trajectory: Trajectory,
    question: Question,
    guideline: Guideline,
    backend: Backend,
    config: RunConfig,
    cache: ResponseCache | None = None,
) -> ScoreRecord:
    """Score one trajectory under both prompt variants.

    The guideline-free prompt is scored at ``top_k`` 0, since only its
    logprobs are used; ``mean_entropy`` comes from the guideline prompt,
    scored at ``config.top_k``.
    """

    def render(g: Guideline | None) -> PromptBundle:
        return build_prompt(
            config.instruction,
            g,
            config.exemplars,
            trajectory,
            config.template,
            config.score_target,
            question_text=question.text,
        )

    without_steps, _ = _score_prompt(render(None), backend, 0, cache)
    with_steps, entropy = _score_prompt(render(guideline), backend, config.top_k, cache)
    per_step, ge = aggregate_trajectory(with_steps, without_steps)
    if config.ge_sign == GE_SIGN_EQ5:
        ge = -ge
    return ScoreRecord(
        question_id=trajectory.question_id,
        guideline_version=guideline.version,
        backend_id=backend.id.fingerprint,
        per_step=tuple(per_step),
        ge=ge,
        mean_entropy=entropy,
    )


def score_pool(
    pool: Sequence[Question],
    trajectories: Sequence[Trajectory],
    guideline: Guideline,
    backend: Backend,
    config: RunConfig,
    cache: ResponseCache | None = None,
) -> tuple[list[ScoreRecord], list[Diagnostic]]:
    """Score every question that has a trajectory; first trajectory wins.

    With a ``cache``, scored spans already in it are not sent to the backend.
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

    def work(item: tuple[str, Trajectory]):
        qid, trajectory = item
        try:
            return score_trajectory(trajectory, by_id[qid], guideline, backend, config, cache)
        except (BackendError, FormatError) as exc:
            return Diagnostic(qid, "score", str(exc))

    ordered = sorted(chosen.items())  # ``map`` keeps this order in its outcomes
    # Wrappers forward ``id``, so its kind names the backend beneath them.
    if backend.id.kind == "http":
        # Imported here so runs that start no threads skip its start-up cost.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=config.parallelism) as pool_exec:
            outcomes = list(pool_exec.map(work, ordered))
    else:
        outcomes = list(map(work, ordered))
    records = [o for o in outcomes if isinstance(o, ScoreRecord)]
    diagnostics.extend(o for o in outcomes if isinstance(o, Diagnostic))
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


def annotate(
    questions: Sequence[Question],
    guideline: Guideline,
    backend: Backend,
    env,
    config: RunConfig,
) -> tuple[list[Trajectory], list[Diagnostic]]:
    """Roll out one episode per question with the generation backend."""
    if not questions:
        raise FormatError("annotate needs at least one question")
    trajectories: list[Trajectory] = []
    diagnostics: list[Diagnostic] = []
    for question in questions:
        try:
            initial = env.reset(question)
        except EnvError as exc:
            diagnostics.append(Diagnostic(question.id, "annotate-env", str(exc)))
            continue
        history: list[tuple[str, str]] = []
        reward = 0.0
        failed = False
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
            try:
                completion = backend.generate(prompt, stop=[OBSERVATION_STOP])
            except BackendError as exc:
                diagnostics.append(Diagnostic(question.id, "annotate-generate", str(exc)))
                failed = True
                break
            action = parse_action(completion)
            if not action:
                action = completion.strip() or "noop"
            try:
                result = env.step(action)
            except EnvError as exc:
                diagnostics.append(Diagnostic(question.id, "annotate-env", str(exc)))
                failed = True
                break
            history.append((action, result.observation))
            reward = result.reward
            if result.done:
                break
        if failed or not history:
            continue
        trajectories.append(
            Trajectory(
                question_id=question.id,
                guideline_version=guideline.version,
                steps=tuple(Step(action=a, observation=o) for a, o in history),
                reward=reward,
                source="annotated",
                question_text=question.text,
                initial_observation=initial,
            )
        )
    return trajectories, diagnostics
