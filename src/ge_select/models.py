"""Domain types and byte-stable JSONL serialization.

Every type serializes to a single JSON object with a fixed key order and no
insignificant whitespace, so files written from equal values are byte-equal
across runs and platforms. Optional fields are emitted only when set, which
keeps the canonical form a pure function of the value.

Every record type of the package derives from ``Record``: a plain class whose
``__slots__`` name its fields, with an explicit ``__init__`` that sets them
and runs its checks. ``Record`` makes the fields read-only and compares,
hashes and prints a record by them, as a frozen dataclass would. Unlike the
dataclass decorator it generates no code per class and imports neither its
module nor ``inspect``, a cost every CLI process would pay at start-up.
"""

from __future__ import annotations

import json
import math
import os
import re
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


class Record:
    """Base of the record types. A subclass lists its fields in ``__slots__``
    and sets each in ``__init__`` with ``object.__setattr__``; assigning or
    deleting one afterwards raises ``AttributeError``. Equality, hashing,
    ``repr``, ``copy`` and ``pickle`` go over every slot, in slot order.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    # ``copy`` and ``pickle`` restore every slot without the checks, which
    # the original already passed.
    __getstate__ = _values

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)


def _located(cls: type, ctx: str) -> Any:
    """``cls`` as a constructor whose checks name ``ctx``, the record's
    position, when they fail, as every field check does."""

    def construct(**fields: Any) -> Any:
        try:
            return cls(**fields)
        except FormatError as exc:
            raise FormatError(f"{ctx}: {exc}") from exc

    return construct


class Question(Record):
    """One pool item: a task instruction plus optional string metadata."""

    __slots__ = ("id", "text", "metadata")
    id: str
    text: str
    metadata: dict[str, str]

    def __init__(self, id: str, text: str, metadata: dict[str, str] | None = None) -> None:
        if metadata is None:
            metadata = {}
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "metadata", metadata)
        if not id:
            raise FormatError("question id must be non-empty")
        if not text:
            raise FormatError(f"question {id!r}: text must be non-empty")
        for k, v in metadata.items():
            string(k, f"question {id!r}: metadata key", empty=True)
            string(v, f"question {id!r}: metadata value", empty=True)

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


class Step(Record):
    """One interaction turn: optional thought, the emitted action, env feedback."""

    __slots__ = ("action", "observation", "thought")
    action: str
    observation: str
    thought: str

    def __init__(self, action: str, observation: str = "", thought: str = "") -> None:
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "observation", observation)
        object.__setattr__(self, "thought", thought)
        if not action.strip():
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


class Trajectory(Record):
    """A question's recorded episode: ordered steps plus a scalar reward.

    `question_text` and `initial_observation` are optional carriers for the
    task framing shown to the agent; exporters use them when present so a
    trajectory file is self-contained.
    """

    __slots__ = (
        "question_id", "guideline_version", "steps", "reward", "source",
        "question_text", "initial_observation",
    )  # fmt: skip
    question_id: str
    guideline_version: str
    steps: tuple[Step, ...]
    reward: float
    source: str
    question_text: str
    initial_observation: str

    def __init__(
        self,
        question_id: str,
        guideline_version: str,
        steps: Sequence[Step],
        reward: float,
        source: str,
        question_text: str = "",
        initial_observation: str = "",
    ) -> None:
        object.__setattr__(self, "question_id", question_id)
        object.__setattr__(self, "guideline_version", guideline_version)
        object.__setattr__(self, "reward", reward)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "question_text", question_text)
        object.__setattr__(self, "initial_observation", initial_observation)
        if not question_id:
            raise FormatError("trajectory question_id must be non-empty")
        if not steps:
            raise FormatError(f"trajectory {question_id!r}: steps must be non-empty")
        if not 0.0 <= reward <= 1.0:
            raise FormatError(f"trajectory {question_id!r}: reward {reward} outside [0,1]")
        if source not in SOURCES:
            raise FormatError(f"trajectory {question_id!r}: source must be one of {SOURCES}")
        object.__setattr__(self, "steps", tuple(steps))

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


class Guideline(Record):
    """Versioned expert text inserted into prompts.

    The version is the first 12 hex chars of SHA-256 over the normalized
    text, so any silent edit invalidates previously computed scores.
    """

    __slots__ = ("text", "version")
    text: str
    version: str

    def __init__(self, text: str) -> None:
        # Imported here: of the commands, only those that read a guideline
        # take a digest, and OpenSSL is a noticeable share of a CLI start-up.
        import hashlib

        normalized = normalize_guideline_text(text)
        digest = hashlib.sha256(normalized.encode("utf-8")).hexdigest()[:12]
        object.__setattr__(self, "text", normalized)
        object.__setattr__(self, "version", digest)

    @classmethod
    def from_text(cls, text: str) -> "Guideline":
        return cls(text=text)

    @classmethod
    def load(cls, path: str | Path) -> "Guideline":
        return cls.from_text(_read_text(path, "guideline"))


class StepScore(Record):
    """Per-step difficulty pair: d_i without guideline, d_g with guideline."""

    __slots__ = ("d_i", "d_g", "n_tokens")
    d_i: float
    d_g: float
    n_tokens: int

    def __init__(self, d_i: float, d_g: float, n_tokens: int) -> None:
        object.__setattr__(self, "d_i", d_i)
        object.__setattr__(self, "d_g", d_g)
        object.__setattr__(self, "n_tokens", n_tokens)
        if not (0 < d_i < math.inf and 0 < d_g < math.inf):
            raise FormatError(f"step difficulties must be > 0 and finite, got ({d_i}, {d_g})")
        if n_tokens < 1:
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


def ge_score(per_step: Iterable[tuple[float, float]]) -> float:
    """Aggregate per-step (d_i, d_g) pairs into one guideline-effectiveness value.

    This is the default sign convention: a positive score means the guideline
    lowered difficulty on average (d_g < d_i).
    """
    pairs = list(per_step)
    if not pairs:
        raise ValueError("per_step must be non-empty")
    total = 0.0
    for d_i, d_g in pairs:
        if d_i <= 0 or d_g <= 0:
            raise ValueError(f"difficulties must be positive, got ({d_i}, {d_g})")
        # log(d_i) - log(d_g), not log(d_i/d_g): keeps swap antisymmetry exact.
        total += math.log(d_i) - math.log(d_g)
    return total / len(pairs)


class ScoreRecord(Record):
    """Scoring result for one question under one guideline and backend.
    ``default_ge`` is computed, not passed: ``ge`` under the default sign
    convention, in which the lowest value helps least."""

    __slots__ = (
        "question_id", "guideline_version", "backend_id", "per_step", "ge", "mean_entropy",
        "default_ge",
    )  # fmt: skip
    question_id: str
    guideline_version: str
    backend_id: str
    per_step: tuple[StepScore, ...]
    ge: float
    mean_entropy: float | None
    default_ge: float

    def __init__(
        self,
        question_id: str,
        guideline_version: str,
        backend_id: str,
        per_step: Sequence[StepScore],
        ge: float,
        mean_entropy: float | None = None,
    ) -> None:
        object.__setattr__(self, "question_id", question_id)
        object.__setattr__(self, "guideline_version", guideline_version)
        object.__setattr__(self, "backend_id", backend_id)
        object.__setattr__(self, "ge", ge)
        object.__setattr__(self, "mean_entropy", mean_entropy)
        if not per_step:
            raise FormatError(f"score {question_id!r}: per_step must be non-empty")
        per_step = tuple(per_step)
        object.__setattr__(self, "per_step", per_step)
        if mean_entropy is not None and mean_entropy < 0:
            raise FormatError(f"score {question_id!r}: mean_entropy must be >= 0")
        # ge must be recomputable from per_step under the default sign
        # convention or under eq5; a value matching both counts as default.
        recomputed = ge_score([(s.d_i, s.d_g) for s in per_step])
        eq5 = abs(ge - recomputed) > 1e-9
        if eq5 and abs(ge + recomputed) > 1e-9:
            raise FormatError(
                f"score {question_id!r}: ge {ge} does not match per_step "
                f"aggregation {recomputed}"
            )
        object.__setattr__(self, "default_ge", -ge if eq5 else ge)

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


class SelectionItem(Record):
    __slots__ = ("question_id", "score")
    question_id: str
    score: float

    def __init__(self, question_id: str, score: float) -> None:
        object.__setattr__(self, "question_id", question_id)
        object.__setattr__(self, "score", score)

    def to_record(self) -> dict:
        return {"question_id": self.question_id, "score": self.score}

    @classmethod
    def from_record(cls, record: dict, ctx: str = "selection item") -> "SelectionItem":
        keys(record, None, ctx)
        return cls(
            question_id=string(record.get("question_id"), f"{ctx}: field 'question_id'"),
            score=number(record.get("score"), f"{ctx}: field 'score'"),
        )


class SelectionResult(Record):
    """Ordered subset chosen by one strategy, with per-item scores."""

    __slots__ = ("strategy", "params", "items", "warning")
    strategy: str
    params: dict[str, Any]
    items: tuple[SelectionItem, ...]
    warning: str

    def __init__(
        self,
        strategy: str,
        params: dict[str, Any],
        items: Sequence[SelectionItem],
        warning: str = "",
    ) -> None:
        object.__setattr__(self, "strategy", strategy)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "warning", warning)
        if strategy not in STRATEGIES:
            raise FormatError(f"selection strategy must be one of {STRATEGIES}")
        items = tuple(items)
        object.__setattr__(self, "items", items)
        seen: set[str] = set()
        for item in items:
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


def write_file(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, all or nothing: into a new file
    beside it, which then replaces ``path``. A failed write leaves ``path`` as
    it was, removes the new file and raises the error naming ``path``, as
    ``Path.write_text`` would. The new file has ``write_text``'s mode, and a
    symlink at ``path`` is replaced, not its target. A ``path`` that exists
    but is not a regular file (``/dev/null``, a FIFO, ``/dev/fd/N``, a
    directory) is written straight through, as ``write_text`` writes it, so
    the device or pipe is never replaced."""
    data = text.encode("utf-8")
    path = os.fspath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as handle:
            handle.write(data)
        return
    # A fixed-length name, so an output name of the longest length the file
    # system allows still gets a temporary file.
    temporary = os.path.join(os.path.dirname(path), f".ge-select-{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "wb") as handle:
                handle.write(data)
            os.replace(temporary, path)
        except BaseException:
            try:
                os.unlink(temporary)
            except OSError:
                pass
            raise
    except OSError as exc:
        if exc.filename != temporary:
            raise
        raise type(exc)(exc.errno, exc.strerror, path) from None


def write_records(records: Sequence[Any], path: str | Path) -> None:
    """Write records canonically: one line each, newline-terminated."""
    write_file(path, "".join(dumps_record(r) + "\n" for r in records))
