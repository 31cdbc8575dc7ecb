"""Domain types and byte-stable JSONL serialization.

Every type serializes to a single JSON object with a fixed key order and no
insignificant whitespace, so files written from equal values are byte-equal
across runs and platforms. Optional fields are emitted only when set, which
keeps the canonical form a pure function of the value.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

SOURCES = ("ingested", "annotated", "synthetic")
STRATEGIES = ("ge", "random", "entropy", "highscore", "fl")
LEVELS = ("easy", "medium", "hard")


# The three errors the CLI maps to exit codes live here, with the types every
# command loads, so it can catch them without loading a backend or environment.
class FormatError(ValueError):
    """Malformed record, file, or field value."""


class BackendError(RuntimeError):
    """Transport failure, unsupported capability, or malformed response."""


class EnvError(RuntimeError):
    """Environment protocol violation or transport failure."""


def _canonical_json(obj: Any) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"), allow_nan=False)


def sum_floats(values: Iterable[float]) -> float:
    """The sum of ``values`` added left to right from 0.0, as ``sum`` adds
    floats up to Python 3.11. Python 3.12's ``sum`` compensates rounding, so
    it would change output bytes, and cached scores, between versions."""
    total = 0.0
    for value in values:
        total += value
    return total


# The input checker: every value read from a file, config or reply passes one
# of these. Each raises ``error`` naming ``where`` the value came from; the
# error class picks the exit code (``FormatError`` exits 2).


def number(
    value: Any,
    where: str,
    *,
    integer: bool = False,
    low: float = -math.inf,
    high: float = math.inf,
    error: type[Exception] = FormatError,
) -> Any:
    """``value`` as a float, or as an int when ``integer``, if it is a JSON
    number of that kind that is finite and lies in [low, high]. Bools,
    non-finite values and integers beyond float range are rejected."""
    if not isinstance(value, bool) and isinstance(value, int if integer else (int, float)):
        try:
            as_float = float(value)
        except OverflowError:  # an integer beyond float range
            as_float = math.inf
        if math.isfinite(as_float) and low <= as_float <= high:
            return value if integer else as_float
    noun = "an integer" if integer else "a finite number"
    bounds = "" if (low, high) == (-math.inf, math.inf) else f" in [{low}, {high}]"
    raise error(f"{where} must be {noun}{bounds}, got {value!r}")


def keys(
    obj: Any, allowed: Iterable[str] | None, where: str, error: type[Exception] = FormatError
) -> dict:
    """``obj`` if it is a JSON object whose keys all lie in ``allowed``; None
    allows any key. The error names each unknown key."""
    if not isinstance(obj, dict):
        raise error(f"{where} must be a JSON object, got {obj!r}")
    unknown = sorted(set(obj).difference(allowed)) if allowed is not None else []
    if unknown:
        raise error(f"{where}: unknown key(s): {', '.join(map(repr, unknown))}")
    return obj


# A JSON escape can make a lone surrogate, which no UTF-8 output can hold.
_SURROGATE = re.compile("[\ud800-\udfff]")


def string(
    value: Any, where: str, *, empty: bool = False, error: type[Exception] = FormatError
) -> str:
    """``value`` if it is a string of Unicode scalar values, and a non-empty
    one unless ``empty``."""
    if isinstance(value, str) and (empty or value):
        if value.isascii() or not _SURROGATE.search(value):
            return value
        raise error(f"{where} holds a lone surrogate, which UTF-8 cannot encode: {value!r}")
    raise error(f"{where} must be a {'' if empty else 'non-empty '}string, got {value!r}")


def _located(cls: type, ctx: str) -> Any:
    """``cls`` as a constructor whose ``__post_init__`` checks name ``ctx``,
    the record's position, when they fail, as every field check does."""

    def construct(**fields: Any) -> Any:
        try:
            return cls(**fields)
        except FormatError as exc:
            raise FormatError(f"{ctx}: {exc}") from exc

    return construct


@dataclass(frozen=True)
class Question:
    """One pool item: a task instruction plus optional string metadata."""

    id: str
    text: str
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.id:
            raise FormatError("question id must be non-empty")
        if not self.text:
            raise FormatError(f"question {self.id!r}: text must be non-empty")
        for k, v in self.metadata.items():
            string(k, f"question {self.id!r}: metadata key", empty=True)
            string(v, f"question {self.id!r}: metadata value", empty=True)

    def to_record(self) -> dict:
        rec: dict[str, Any] = {"id": self.id, "text": self.text}
        if self.metadata:
            rec["metadata"] = {k: self.metadata[k] for k in sorted(self.metadata)}
        return rec

    @classmethod
    def from_record(cls, record: dict, ctx: str = "question") -> "Question":
        return _located(cls, ctx)(
            id=string(record.get("id"), f"{ctx}: field 'id'"),
            text=string(record.get("text"), f"{ctx}: field 'text'"),
            metadata=dict(keys(record.get("metadata", {}), None, f"{ctx}: field 'metadata'")),
        )


@dataclass(frozen=True)
class Step:
    """One interaction turn: optional thought, the emitted action, env feedback."""

    action: str
    observation: str = ""
    thought: str = ""

    def __post_init__(self) -> None:
        if not self.action.strip():
            raise FormatError("step action must be non-empty after trimming")

    def to_record(self) -> dict:
        rec: dict[str, Any] = {}
        if self.thought:
            rec["thought"] = self.thought
        rec["action"] = self.action
        rec["observation"] = self.observation
        return rec

    @classmethod
    def from_record(cls, record: dict, ctx: str = "step") -> "Step":
        keys(record, None, ctx)
        return _located(cls, ctx)(
            action=string(record.get("action"), f"{ctx}: field 'action'"),
            observation=string(
                record.get("observation"), f"{ctx}: field 'observation'", empty=True
            ),
            thought=string(record.get("thought", ""), f"{ctx}: field 'thought'", empty=True),
        )


@dataclass(frozen=True)
class Trajectory:
    """A question's recorded episode: ordered steps plus a scalar reward.

    `question_text` and `initial_observation` are optional carriers for the
    task framing shown to the agent; exporters use them when present so a
    trajectory file is self-contained.
    """

    question_id: str
    guideline_version: str
    steps: tuple[Step, ...]
    reward: float
    source: str
    question_text: str = ""
    initial_observation: str = ""

    def __post_init__(self) -> None:
        if not self.question_id:
            raise FormatError("trajectory question_id must be non-empty")
        if not self.steps:
            raise FormatError(f"trajectory {self.question_id!r}: steps must be non-empty")
        if not 0.0 <= self.reward <= 1.0:
            raise FormatError(
                f"trajectory {self.question_id!r}: reward {self.reward} outside [0,1]"
            )
        if self.source not in SOURCES:
            raise FormatError(
                f"trajectory {self.question_id!r}: source must be one of {SOURCES}"
            )
        object.__setattr__(self, "steps", tuple(self.steps))

    def to_record(self) -> dict:
        rec: dict[str, Any] = {
            "question_id": self.question_id,
            "guideline_version": self.guideline_version,
            "steps": [s.to_record() for s in self.steps],
            "reward": self.reward,
            "source": self.source,
        }
        if self.question_text:
            rec["question_text"] = self.question_text
        if self.initial_observation:
            rec["initial_observation"] = self.initial_observation
        return rec

    @classmethod
    def from_record(cls, record: dict, ctx: str = "trajectory") -> "Trajectory":
        raw_steps = record.get("steps")
        if not isinstance(raw_steps, list):
            raise FormatError(f"{ctx}: 'steps' must be a list")
        qtext, iobs = record.get("question_text", ""), record.get("initial_observation", "")
        return _located(cls, ctx)(
            question_id=string(record.get("question_id"), f"{ctx}: field 'question_id'"),
            guideline_version=string(
                record.get("guideline_version"), f"{ctx}: field 'guideline_version'"
            ),
            steps=tuple(Step.from_record(s, f"{ctx} step {i}") for i, s in enumerate(raw_steps)),
            reward=number(record.get("reward"), f"{ctx}: field 'reward'", low=0.0, high=1.0),
            source=string(record.get("source"), f"{ctx}: field 'source'"),
            question_text=string(qtext, f"{ctx}: field 'question_text'", empty=True),
            initial_observation=string(iobs, f"{ctx}: field 'initial_observation'", empty=True),
        )


def normalize_guideline_text(text: str) -> str:
    """Right-trim each line and force exactly one trailing newline."""
    lines = [line.rstrip() for line in text.split("\n")]
    body = "\n".join(lines).rstrip("\n")
    return body + "\n"


@dataclass(frozen=True)
class Guideline:
    """Versioned expert text inserted into prompts.

    The version is the first 12 hex chars of SHA-256 over the normalized
    text, so any silent edit invalidates previously computed scores.
    """

    text: str
    version: str = field(default="", init=False)

    def __post_init__(self) -> None:
        normalized = normalize_guideline_text(self.text)
        digest = hashlib.sha256(normalized.encode("utf-8")).hexdigest()[:12]
        object.__setattr__(self, "text", normalized)
        object.__setattr__(self, "version", digest)

    @classmethod
    def from_text(cls, text: str) -> "Guideline":
        return cls(text=text)

    @classmethod
    def load(cls, path: str | Path) -> "Guideline":
        return cls.from_text(_read_text(path, "guideline"))


@dataclass(frozen=True)
class StepScore:
    """Per-step difficulty pair: d_i without guideline, d_g with guideline."""

    d_i: float
    d_g: float
    n_tokens: int

    def __post_init__(self) -> None:
        if not (0 < self.d_i < math.inf and 0 < self.d_g < math.inf):
            raise FormatError(
                f"step difficulties must be > 0 and finite, got ({self.d_i}, {self.d_g})"
            )
        if self.n_tokens < 1:
            raise FormatError("n_tokens must be >= 1")

    def to_record(self) -> dict:
        return {"d_i": self.d_i, "d_g": self.d_g, "n_tokens": self.n_tokens}

    @classmethod
    def from_record(cls, record: dict, ctx: str = "step score") -> "StepScore":
        keys(record, None, ctx)
        return _located(cls, ctx)(
            d_i=number(record.get("d_i"), f"{ctx}: field 'd_i'"),
            d_g=number(record.get("d_g"), f"{ctx}: field 'd_g'"),
            n_tokens=number(
                record.get("n_tokens"), f"{ctx}: field 'n_tokens'", integer=True, low=1
            ),
        )


@dataclass(frozen=True)
class ScoreRecord:
    """Scoring result for one question under one guideline and backend."""

    question_id: str
    guideline_version: str
    backend_id: str
    per_step: tuple[StepScore, ...]
    ge: float
    mean_entropy: float | None = None
    # Whether ``ge`` follows the eq5 convention (negated); set from per_step.
    _eq5: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.per_step:
            raise FormatError(f"score {self.question_id!r}: per_step must be non-empty")
        object.__setattr__(self, "per_step", tuple(self.per_step))
        if self.mean_entropy is not None and self.mean_entropy < 0:
            raise FormatError(f"score {self.question_id!r}: mean_entropy must be >= 0")
        # ge must be recomputable from per_step under the default sign
        # convention or under eq5; a value matching both counts as default.
        from .scoring import ge_score

        recomputed = ge_score([(s.d_i, s.d_g) for s in self.per_step])
        eq5 = abs(self.ge - recomputed) > 1e-9
        if eq5 and abs(self.ge + recomputed) > 1e-9:
            raise FormatError(
                f"score {self.question_id!r}: ge {self.ge} does not match per_step "
                f"aggregation {recomputed}"
            )
        object.__setattr__(self, "_eq5", eq5)

    @property
    def default_ge(self) -> float:
        """``ge`` under the default sign convention: lowest helps least."""
        return -self.ge if self._eq5 else self.ge

    def to_record(self) -> dict:
        rec: dict[str, Any] = {
            "question_id": self.question_id,
            "guideline_version": self.guideline_version,
            "backend_id": self.backend_id,
            "per_step": [s.to_record() for s in self.per_step],
            "ge": self.ge,
        }
        if self.mean_entropy is not None:
            rec["mean_entropy"] = self.mean_entropy
        return rec

    @classmethod
    def from_record(cls, record: dict, ctx: str = "score") -> "ScoreRecord":
        raw_steps = record.get("per_step")
        if not isinstance(raw_steps, list):
            raise FormatError(f"{ctx}: 'per_step' must be a list")
        mean_entropy = record.get("mean_entropy")
        if mean_entropy is not None:
            mean_entropy = number(mean_entropy, f"{ctx}: field 'mean_entropy'", low=0.0)
        return _located(cls, ctx)(
            question_id=string(record.get("question_id"), f"{ctx}: field 'question_id'"),
            guideline_version=string(
                record.get("guideline_version"), f"{ctx}: field 'guideline_version'"
            ),
            backend_id=string(record.get("backend_id"), f"{ctx}: field 'backend_id'"),
            per_step=tuple(
                StepScore.from_record(s, f"{ctx} per_step {i}") for i, s in enumerate(raw_steps)
            ),
            ge=number(record.get("ge"), f"{ctx}: field 'ge'"),
            mean_entropy=mean_entropy,
        )


@dataclass(frozen=True)
class SelectionItem:
    question_id: str
    score: float

    def to_record(self) -> dict:
        return {"question_id": self.question_id, "score": self.score}

    @classmethod
    def from_record(cls, record: dict, ctx: str = "selection item") -> "SelectionItem":
        keys(record, None, ctx)
        return cls(
            question_id=string(record.get("question_id"), f"{ctx}: field 'question_id'"),
            score=number(record.get("score"), f"{ctx}: field 'score'"),
        )


@dataclass(frozen=True)
class SelectionResult:
    """Ordered subset chosen by one strategy, with per-item scores."""

    strategy: str
    params: dict[str, Any]
    items: tuple[SelectionItem, ...]
    warning: str = ""

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise FormatError(f"selection strategy must be one of {STRATEGIES}")
        object.__setattr__(self, "items", tuple(self.items))
        seen: set[str] = set()
        for item in self.items:
            if item.question_id in seen:
                raise FormatError(f"selection has duplicate question_id {item.question_id!r}")
            seen.add(item.question_id)

    @property
    def question_ids(self) -> list[str]:
        return [item.question_id for item in self.items]

    def to_record(self) -> dict:
        rec: dict[str, Any] = {
            "strategy": self.strategy,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "items": [item.to_record() for item in self.items],
        }
        if self.warning:
            rec["warning"] = self.warning
        return rec

    @classmethod
    def from_record(cls, record: dict, ctx: str = "selection") -> "SelectionResult":
        raw_items = record.get("items")
        if not isinstance(raw_items, list):
            raise FormatError(f"{ctx}: 'items' must be a list")
        items = tuple(
            SelectionItem.from_record(i, ctx=f"{ctx} item {n}")
            for n, i in enumerate(raw_items)
        )
        return _located(cls, ctx)(
            strategy=string(record.get("strategy"), f"{ctx}: field 'strategy'"),
            params=keys(record.get("params", {}), None, f"{ctx}: field 'params'"),
            items=items,
            warning=string(record.get("warning", ""), f"{ctx}: field 'warning'", empty=True),
        )


def _read_text(path: str | Path, what: str) -> str:
    """The file's text; a file that cannot be read or is not UTF-8 raises
    ``FormatError`` naming ``what`` it is."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {what} file {path}: {exc}") from exc


def _load_jsonl(path: str | Path, kind: str) -> Iterable[tuple[int, dict]]:
    raw = _read_text(path, kind)
    # Only "\n" ends a record: ``str.splitlines`` would also split at the
    # U+0085 and U+2028 that canonical JSON leaves unescaped inside strings.
    for lineno, line in enumerate(raw.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:  # also too long an integer, too deep a nesting
            raise FormatError(f"{path}:{lineno}: malformed {kind} record: {exc}") from exc
        if not isinstance(record, dict):
            raise FormatError(f"{path}:{lineno}: {kind} record must be a JSON object")
        yield lineno, record


def _check_unique(seen: dict[str, int], value: str, name: str, path: str | Path, lineno: int) -> None:
    """Add ``value`` at ``lineno`` to ``seen``; a repeat raises ``FormatError`` naming both lines."""
    if value in seen:
        first = seen[value]
        raise FormatError(f"{path}:{lineno}: duplicate {name} {value!r} (first seen on line {first})")
    seen[value] = lineno


def load_pool(path: str | Path) -> list[Question]:
    """Read a question pool, rejecting duplicate ids by line number."""
    questions: list[Question] = []
    seen: dict[str, int] = {}
    for lineno, record in _load_jsonl(path, "pool"):
        q = Question.from_record(record, ctx=f"{path}:{lineno}")
        _check_unique(seen, q.id, "question id", path, lineno)
        questions.append(q)
    return questions


def load_trajectories(path: str | Path) -> list[Trajectory]:
    return [
        Trajectory.from_record(record, ctx=f"{path}:{lineno}")
        for lineno, record in _load_jsonl(path, "trajectory")
    ]


def load_scores(path: str | Path) -> list[ScoreRecord]:
    """Read a scores file, rejecting duplicate ids by line number. Its records
    must share one ``guideline_version`` and one ``backend_id``: ge values
    from different guidelines or models do not rank against each other."""
    scores: list[ScoreRecord] = []
    seen: dict[str, int] = {}
    for lineno, record in _load_jsonl(path, "score"):
        score = ScoreRecord.from_record(record, ctx=f"{path}:{lineno}")
        _check_unique(seen, score.question_id, "question_id", path, lineno)
        if not scores:
            first, first_line = score, lineno
        for name in ("guideline_version", "backend_id"):
            value, expected = getattr(score, name), getattr(first, name)
            if value != expected:
                raise FormatError(
                    f"{path}:{lineno}: {name} {value!r} differs from {expected!r} on line "
                    f"{first_line}; a scores file must come from one guideline and one backend"
                )
        scores.append(score)
    return scores


def load_selection(path: str | Path) -> SelectionResult:
    records = list(_load_jsonl(path, "selection"))
    if len(records) != 1:
        raise FormatError(f"{path}: selection file must contain exactly one record")
    return SelectionResult.from_record(records[0][1], ctx=f"{path}:1")


def dumps_record(record: Any) -> str:
    return _canonical_json(record.to_record() if hasattr(record, "to_record") else record)


def write_records(records: Sequence[Any], path: str | Path) -> None:
    """Write records canonically: one line each, newline-terminated."""
    text = "".join(dumps_record(r) + "\n" for r in records)
    Path(path).write_text(text, encoding="utf-8")
