"""Prompt construction for teacher-forced scoring.

Builds the two prompt variants (with and without the guideline) from one
template, tracking the character span of every scored action while the text
is assembled. Spans are never recovered by substring search, so actions that
contain marker text like "Action:" stay exact.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .models import FormatError, Guideline, Record, Trajectory

SCORE_TARGET_ACTION = "action"
SCORE_TARGET_EMISSION = "emission"
SCORE_TARGETS = (SCORE_TARGET_ACTION, SCORE_TARGET_EMISSION)

_PLACEHOLDERS = ("instruction", "guideline", "exemplars", "question", "steps")
_PLACEHOLDER_RE = re.compile(r"\{\{(" + "|".join(_PLACEHOLDERS) + r")\}\}")

DEFAULT_TEMPLATE = "{{instruction}}\n{{guideline}}{{exemplars}}Task: {{question}}\n{{steps}}"


class PromptBundle(Record):
    """A rendered prompt plus the ``(start, end)`` character offsets of each
    step's scored text, one pair per step in step order."""

    __slots__ = ("rendered", "action_spans")
    rendered: str
    action_spans: tuple[tuple[int, int], ...]

    def __init__(self, rendered: str, action_spans: tuple[tuple[int, int], ...]) -> None:
        object.__setattr__(self, "rendered", rendered)
        object.__setattr__(self, "action_spans", action_spans)


class _Renderer:
    """Accumulates rendered text while recording span offsets."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.length = 0
        self.spans: list[tuple[int, int]] = []

    def emit(self, text: str) -> None:
        self.parts.append(text)
        self.length += len(text)

    def emit_target(self, text: str) -> None:
        start = self.length
        self.emit(text)
        self.spans.append((start, self.length))

    def rendered(self) -> str:
        return "".join(self.parts)


def render_exemplars(exemplars: Sequence[str]) -> str:
    """Join exemplar blocks, each ending with exactly one newline."""
    out = []
    for ex in exemplars:
        out.append(ex if ex.endswith("\n") else ex + "\n")
    return "".join(out)


def render_steps(
    renderer: _Renderer,
    initial_observation: str,
    steps: Iterable[tuple[str, str, str]],
    score_target: str,
) -> None:
    """Write the initial observation, then one block per ``(thought, action,
    observation)`` step, recording the span of each step's scored text."""
    if initial_observation:
        renderer.emit(initial_observation)
        renderer.emit("\n")
    for thought, action, observation in steps:
        if score_target == SCORE_TARGET_EMISSION and thought:
            renderer.emit("Thought: ")
            renderer.emit_target(f"{thought}\nAction: {action}")
        else:
            if thought:
                renderer.emit(f"Thought: {thought}\n")
            renderer.emit("Action: ")
            renderer.emit_target(action)
        renderer.emit("\n")
        renderer.emit(f"Observation: {observation}\n")


def check_template(template: str) -> None:
    """Raise ``FormatError`` naming the first placeholder ``template`` lacks."""
    names = {m.group(1) for m in _PLACEHOLDER_RE.finditer(template)}
    for required in _PLACEHOLDERS:
        if required not in names:
            raise FormatError(f"template is missing the {{{{{required}}}}} placeholder")


def _segments(
    template: str,
    instruction: str,
    guideline: Guideline | None,
    exemplars: Sequence[str],
    question: str,
) -> Iterator[str | None]:
    """The template's rendered pieces in order, with None for each
    ``{{steps}}``. A template missing any placeholder raises ``FormatError``."""
    check_template(template)
    values = {
        "instruction": instruction,
        "guideline": guideline.text if guideline is not None else "",
        "exemplars": render_exemplars(exemplars),
        "question": question,
    }
    cursor = 0
    for match in _PLACEHOLDER_RE.finditer(template):
        yield template[cursor : match.start()]
        yield values.get(match.group(1))
        cursor = match.end()
    yield template[cursor:]


def build_prompt(
    instruction: str,
    guideline: Guideline | None,
    exemplars: Sequence[str],
    trajectory: Trajectory,
    template: str = DEFAULT_TEMPLATE,
    score_target: str = SCORE_TARGET_ACTION,
    question_text: str = "",
) -> PromptBundle:
    """Render one prompt variant and locate every scored action.

    Passing ``guideline=None`` removes exactly the guideline segment; all
    other segments and all scored action texts are unchanged between the two
    variants.
    """
    if score_target not in SCORE_TARGETS:
        raise FormatError(f"unknown score target {score_target!r}")
    question = question_text or trajectory.question_text or trajectory.question_id
    renderer = _Renderer()
    for segment in _segments(template, instruction, guideline, exemplars, question):
        if segment is None:
            steps = ((s.thought, s.action, s.observation) for s in trajectory.steps)
            render_steps(renderer, trajectory.initial_observation, steps, score_target)
        else:
            renderer.emit(segment)
    return PromptBundle(renderer.rendered(), tuple(renderer.spans))


def build_generation_prompt(
    instruction: str,
    guideline: Guideline | None,
    exemplars: Sequence[str],
    question_text: str,
    initial_observation: str,
    history: Sequence[tuple[str, str]],
    template: str = DEFAULT_TEMPLATE,
) -> str:
    """Render the prompt for the next action: the template up to its first
    ``{{steps}}``, the steps of the history so far, as ``build_prompt``
    renders them, then an open "Action: " cue."""
    renderer = _Renderer()
    for segment in _segments(template, instruction, guideline, exemplars, question_text):
        if segment is None:
            break
        renderer.emit(segment)
    steps = (("", action, observation) for action, observation in history)
    render_steps(renderer, initial_observation, steps, SCORE_TARGET_ACTION)
    renderer.emit("Action: ")
    return renderer.rendered()


_START, _END = itemgetter(1), itemgetter(2)


def map_spans_to_tokens(
    bundle: PromptBundle,
    tokens: Sequence[tuple],
) -> tuple[tuple[int, int], ...]:
    """Map each step's character span onto a ``(first, last)`` slice of
    ``tokens``.

    Fields 1 and 2 of a token are its character start and end, and the tokens
    tile the rendered text, as every ``echo_logprobs`` reply does. So their
    bounds are sorted, and each span costs two bisections whatever the
    prompt's length. A token belongs to a span when their character intervals
    overlap at all, so split tokens at span boundaries are kept rather than
    dropped. Every span is non-empty, so the token holding its first
    character overlaps it, and each slice holds at least one token.
    """
    per_action = []
    for start, end in bundle.action_spans:
        first = bisect_right(tokens, start, key=_END)
        per_action.append((first, bisect_left(tokens, end, lo=first, key=_START)))
    return tuple(per_action)
