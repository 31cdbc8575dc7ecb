"""End-to-end orchestration: pool scoring, review reports, annotation, export.

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
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Sequence

from .backends import (
    Backend,
    BackendError,
    ResponseCache,
    backend_kind,
    cache_key,
    canonical_request,
)
from .envs import EnvError, ToyShopConfig
from .models import (
    LEVELS,
    FormatError,
    Guideline,
    Question,
    ScoreRecord,
    SelectionResult,
    Step,
    Trajectory,
    _load_jsonl,
    _read_text,
    keys,
    number,
    string,
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
    t_max: int = 15
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
        keys(self.env.get("toyshop", {}), [f.name for f in fields(ToyShopConfig)], "env.toyshop")


def load_exemplars(path: str | Path) -> tuple[str, ...]:
    exemplars = []
    for lineno, record in _load_jsonl(path, "exemplar"):
        exemplars.append(string(record.get("text"), f"{path}:{lineno}: field 'text'", empty=True))
    return tuple(exemplars)


# The keys a run config may hold: files to read, and settings that go to
# ``RunConfig`` as they are. Older configs still carry the retired keys, at
# the top level or in ``env``, which load with a warning.
_PATH_KEYS = ("instruction_path", "exemplars_path", "template_path")
_CONFIG_KEYS = (
    "score_target", "ge_sign", "top_k", "parallelism", "t_max",
    "score_backend", "generate_backend", "env",
)  # fmt: skip
_RETIRED_CONFIG_KEYS = ("m", "k", "embed_backend")
_RETIRED_ENV_KEY = "replay_trajectories"


def load_run_config(path: str | Path) -> RunConfig:
    try:
        raw = json.loads(_read_text(path, "config"))
    except (ValueError, RecursionError) as exc:  # also too long an integer, too deep a nesting
        raise FormatError(f"{path}: malformed config JSON: {exc}") from exc
    keys(raw, (*_CONFIG_KEYS, *_PATH_KEYS, *_RETIRED_CONFIG_KEYS), str(path))
    retired = [key for key in _RETIRED_CONFIG_KEYS if key in raw]
    env = raw.get("env")
    if isinstance(env, dict) and _RETIRED_ENV_KEY in env:
        retired.append(f"env.{_RETIRED_ENV_KEY}")
        raw["env"] = {k: v for k, v in env.items() if k != _RETIRED_ENV_KEY}
    for key in retired:
        print(f"warning: {path}: config key {key!r} is retired and ignored", file=sys.stderr)
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
    """Raise ``FormatError`` unless a cached scoring entry holds exactly
    ``logprobs``, one non-empty list of finite numbers <= 0 per span, and
    ``mean_entropy``, null or a finite number >= 0."""
    lists = keys(scored, ("logprobs", "mean_entropy"), where).get("logprobs")
    if "mean_entropy" not in scored or not isinstance(lists, list) or len(lists) != spans:
        raise FormatError(f"{where} needs 'mean_entropy' and one 'logprobs' list per span")
    for logprobs in lists:
        if not isinstance(logprobs, list) or not logprobs:
            raise FormatError(f"{where}: each span's logprobs must be a non-empty list")
        for logprob in logprobs:
            number(logprob, f"{where} logprob", high=0)
    if scored["mean_entropy"] is not None:
        number(scored["mean_entropy"], f"{where} mean_entropy", low=0)


def _score_prompt(
    bundle: PromptBundle,
    backend: Backend,
    top_k: int,
    cache: ResponseCache | None = None,
) -> tuple[list[list[float]], float | None]:
    """Token logprobs of each scored action, plus the mean entropy of the
    top-k distributions at those tokens (None when there are none).

    Only these are cached, keyed by schema version, prompt, spans and top_k,
    so a hit needs neither the backend, span mapping nor any distribution.
    A miss stores them and returns what the cache holds, so racing writers
    agree; JSON floats round-trip exactly, so a hit returns the same bytes.
    A hit of any other shape raises ``FormatError`` naming the cache.
    """
    key = cache_key(
        backend.id,
        canonical_request(
            {
                "op": "score_spans",
                "v": 2,
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
        logprobs: list[list[float]] = []
        dists: list[TokenDistribution] = []
        for index, (first, last) in enumerate(map_spans_to_tokens(bundle, echo)):
            tokens = echo[first:last]
            if any(token.logprob is None for token in tokens):
                raise FormatError(
                    f"scored span for step {index} covers a token "
                    "without a logprob (prompt must not begin with an action)"
                )
            logprobs.append([token.logprob for token in tokens])
            dists.extend(token.top for token in tokens if token.top)
        scored = {"logprobs": logprobs, "mean_entropy": mean_entropy(dists) if dists else None}
        if cache is not None:
            scored = cache.put(key, scored)
    return scored["logprobs"], scored["mean_entropy"]


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

    without_lists, _ = _score_prompt(render(None), backend, 0, cache)
    with_lists, entropy = _score_prompt(render(guideline), backend, config.top_k, cache)
    per_step, ge = aggregate_trajectory(with_lists, without_lists)
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


def review_report(
    scores: Sequence[ScoreRecord],
    trajectories: Sequence[Trajectory],
    m: int,
) -> str:
    """Human-readable dossier of the m questions the guideline helps least,
    ranked as ``select_ge`` ranks them."""
    if m < 1:
        raise FormatError("m must be >= 1")
    by_id: dict[str, Trajectory] = {}
    for t in trajectories:
        by_id.setdefault(t.question_id, t)
    ranked = sorted(scores, key=lambda s: (s.default_ge, s.question_id))[:m]
    lines = ["# Guideline review report", ""]
    lines.append(
        f"Showing {len(ranked)} of {len(scores)} scored questions, "
        "lowest guideline effectiveness first."
    )
    lines.append("")
    for rank, record in enumerate(ranked, start=1):
        lines.append(f"## {rank}. {record.question_id} (ge = {record.ge:+.6f})")
        lines.append("")
        ratios = [math.log(s.d_i) - math.log(s.d_g) for s in record.per_step]
        worst = min(ratios)
        lines.append("| step | tokens | d_i | d_g | log(d_i/d_g) | |")
        lines.append("|---:|---:|---:|---:|---:|:---|")
        for i, (step_score, ratio) in enumerate(zip(record.per_step, ratios), start=1):
            flag = "guideline conflict" if ratio == worst else ""
            lines.append(
                f"| {i} | {step_score.n_tokens} | {step_score.d_i:.6f} "
                f"| {step_score.d_g:.6f} | {ratio:+.6f} | {flag} |"
            )
        lines.append("")
        trajectory = by_id.get(record.question_id)
        if trajectory is not None:
            lines.append(f"reward: {trajectory.reward:.4f}")
            lines.append("")
            if trajectory.question_text:
                lines.append(f"Task: {trajectory.question_text}")
            for step in trajectory.steps:
                if step.thought:
                    lines.append(f"Thought: {step.thought}")
                lines.append(f"Action: {step.action}")
                lines.append(f"Observation: {step.observation}")
        lines.append("")
    return "\n".join(lines)


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


def export_sft(
    trajectories: Sequence[Trajectory],
    instruction: str,
    guideline: Guideline,
) -> list[dict]:
    """Convert trajectories into chat-style fine-tuning records.

    Message layout: one system message (instruction plus guideline), one user
    message framing the task, then strictly alternating assistant/user turns.
    The final observation is dropped so every record ends on an assistant
    action, giving 2T+1 messages for a T-step trajectory.
    """
    system = instruction.rstrip("\n") + "\n" + guideline.text.rstrip("\n")
    records = []
    for trajectory in trajectories:
        framing_parts = [p for p in (trajectory.question_text, trajectory.initial_observation) if p]
        framing = "\n".join(framing_parts) if framing_parts else trajectory.question_id
        messages = [
            {"role": "system", "content": system},
            {"role": "user", "content": framing},
        ]
        for i, step in enumerate(trajectory.steps):
            if not step.action.strip():
                raise FormatError(
                    f"trajectory {trajectory.question_id!r} step {i} has an empty action"
                )
            messages.append({"role": "assistant", "content": step.action})
            if i < len(trajectory.steps) - 1:
                messages.append({"role": "user", "content": step.observation})
        records.append({"messages": messages})
    return records


def validate_sft_record(record: dict) -> int:
    """Check role alternation of one exported record; returns message count."""
    messages = record.get("messages")
    if not isinstance(messages, list) or len(messages) < 3:
        raise FormatError("sft record needs at least system, user, assistant messages")
    roles = [m.get("role") for m in messages]
    if roles[0] != "system":
        raise FormatError("first message must be system")
    expected = "user"
    for role in roles[1:]:
        if role != expected:
            raise FormatError(f"expected {expected} message, got {role}")
        expected = "assistant" if expected == "user" else "user"
    if roles[-1] != "assistant":
        raise FormatError("record must end on an assistant action")
    for message in messages:
        if not isinstance(message.get("content"), str):
            raise FormatError("message content must be a string")
    return len(messages)


def dataset_stats(trajectories: Sequence[Trajectory]) -> dict[str, float]:
    if not trajectories:
        raise FormatError("dataset_stats needs at least one trajectory")
    avg_turns = sum(len(t.steps) for t in trajectories) / len(trajectories)
    avg_reward_pct = 100.0 * sum(t.reward for t in trajectories) / len(trajectories)
    return {"avg_turns": avg_turns, "avg_reward_pct": avg_reward_pct}


def difficulty_shift(
    selected: SelectionResult,
    pool: Sequence[Question],
) -> dict[str, float]:
    """Percentage-point change of each difficulty level vs the whole pool."""
    by_id = {q.id: q for q in pool}

    def level_of(question: Question, where: str) -> str:
        level = question.metadata.get("level")
        if level is None:
            raise FormatError(f"{where} question {question.id!r} has no level metadata")
        return level

    pool_counts = {level: 0 for level in LEVELS}
    for question in pool:
        level = level_of(question, "pool")
        pool_counts[level] = pool_counts.get(level, 0) + 1
    selected_counts = {level: 0 for level in LEVELS}
    for item in selected.items:
        question = by_id.get(item.question_id)
        if question is None:
            raise FormatError(f"selected question {item.question_id!r} is not in the pool")
        level = level_of(question, "selected")
        selected_counts[level] = selected_counts.get(level, 0) + 1
    n_pool = len(pool)
    n_selected = len(selected.items)
    shifts = {}
    levels = sorted(set(pool_counts) | set(selected_counts), key=_level_order)
    for level in levels:
        pool_frac = pool_counts.get(level, 0) / n_pool if n_pool else 0.0
        sel_frac = selected_counts.get(level, 0) / n_selected if n_selected else 0.0
        shifts[level] = 100.0 * (sel_frac - pool_frac)
    return shifts


def _level_order(level: str) -> tuple[int, str]:
    try:
        return (LEVELS.index(level), level)
    except ValueError:
        return (len(LEVELS), level)
