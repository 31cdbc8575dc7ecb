"""Prompt construction for teacher-forced scoring.

Builds the two prompt variants (with and without the guideline) from one
template, tracking the character span of every scored action while the text
is assembled. Spans are never recovered by substring search, so actions that
contain marker text like "Action:" stay exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from .models import FormatError, Guideline, Step, Trajectory

SCORE_TARGET_ACTION = "action"
SCORE_TARGET_EMISSION = "emission"
SCORE_TARGETS = (SCORE_TARGET_ACTION, SCORE_TARGET_EMISSION)

_PLACEHOLDER_RE = re.compile(r"\{\{(instruction|guideline|exemplars|question|steps)\}\}")

DEFAULT_TEMPLATE = "{{instruction}}\n{{guideline}}{{exemplars}}Task: {{question}}\n{{steps}}"


@dataclass(frozen=True)
class ActionSpan:
    step_index: int
    char_start: int
    char_end: int


@dataclass(frozen=True)
class PromptBundle:
    """A rendered prompt plus the exact location of each scored action."""

    instruction: str
    guideline: Guideline | None
    exemplars: tuple[str, ...]
    rendered: str
    action_spans: tuple[ActionSpan, ...]
    action_texts: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "exemplars", tuple(self.exemplars))
        object.__setattr__(self, "action_spans", tuple(self.action_spans))
        object.__setattr__(self, "action_texts", tuple(self.action_texts))
        prev_end = -1
        for span, text in zip(self.action_spans, self.action_texts):
            if span.char_start <= prev_end:
                raise FormatError("action spans must be strictly increasing and disjoint")
            if self.rendered[span.char_start : span.char_end] != text:
                raise FormatError(
                    f"action span {span.step_index} does not slice to its action text"
                )
            prev_end = span.char_end


@dataclass(frozen=True)
class TokenSpan:
    step_index: int
    token_start: int
    token_end: int


@dataclass(frozen=True)
class TokenSpanMap:
    per_action: tuple[TokenSpan, ...]


class _Renderer:
    """Accumulates rendered text while recording span offsets."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.length = 0
        self.spans: list[ActionSpan] = []
        self.texts: list[str] = []

    def emit(self, text: str) -> None:
        self.parts.append(text)
        self.length += len(text)

    def emit_target(self, step_index: int, text: str) -> None:
        start = self.length
        self.emit(text)
        self.spans.append(ActionSpan(step_index, start, self.length))
        self.texts.append(text)

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
    trajectory: Trajectory,
    score_target: str,
) -> None:
    if trajectory.initial_observation:
        renderer.emit(trajectory.initial_observation)
        renderer.emit("\n")
    for index, step in enumerate(trajectory.steps):
        if score_target == SCORE_TARGET_EMISSION and step.thought:
            renderer.emit("Thought: ")
            renderer.emit_target(index, f"{step.thought}\nAction: {step.action}")
        else:
            if step.thought:
                renderer.emit(f"Thought: {step.thought}\n")
            renderer.emit("Action: ")
            renderer.emit_target(index, step.action)
        renderer.emit("\n")
        renderer.emit(f"Observation: {step.observation}\n")


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
    names = {m.group(1) for m in _PLACEHOLDER_RE.finditer(template)}
    for required in ("instruction", "guideline", "exemplars", "question", "steps"):
        if required not in names:
            raise FormatError(f"template is missing the {{{{{required}}}}} placeholder")

    question = question_text or trajectory.question_text or trajectory.question_id
    renderer = _Renderer()
    cursor = 0
    for match in _PLACEHOLDER_RE.finditer(template):
        renderer.emit(template[cursor : match.start()])
        name = match.group(1)
        if name == "instruction":
            renderer.emit(instruction)
        elif name == "guideline":
            if guideline is not None:
                renderer.emit(guideline.text)
        elif name == "exemplars":
            renderer.emit(render_exemplars(exemplars))
        elif name == "question":
            renderer.emit(question)
        elif name == "steps":
            render_steps(renderer, trajectory, score_target)
        cursor = match.end()
    renderer.emit(template[cursor:])

    return PromptBundle(
        instruction=instruction,
        guideline=guideline,
        exemplars=tuple(exemplars),
        rendered=renderer.rendered(),
        action_spans=tuple(renderer.spans),
        action_texts=tuple(renderer.texts),
    )


def build_generation_prompt(
    instruction: str,
    guideline: Guideline | None,
    exemplars: Sequence[str],
    question_text: str,
    initial_observation: str,
    history: Sequence[tuple[str, str]],
    template: str = DEFAULT_TEMPLATE,
) -> str:
    """Render the prompt for the next action: history so far plus an open cue."""
    stub = Trajectory(
        question_id="pending",
        guideline_version=guideline.version if guideline else "none",
        steps=(Step(action="placeholder", observation=""),),
        reward=0.0,
        source="synthetic",
        question_text=question_text,
        initial_observation=initial_observation,
    )
    bundle = build_prompt(
        instruction, guideline, exemplars, stub, template, question_text=question_text
    )
    # Rendered text up to (and including) the first "Action: " cue.
    prefix_end = bundle.action_spans[0].char_start
    prefix = bundle.rendered[:prefix_end]
    lines = []
    for action, observation in history:
        lines.append(f"{action}\nObservation: {observation}\nAction: ")
    return prefix + "".join(lines)


def map_spans_to_tokens(
    bundle: PromptBundle,
    tokens: Sequence[tuple[str, int, int]],
) -> TokenSpanMap:
    """Map each action's character span onto backend token indices.

    Tokens must tile the rendered text. A token belongs to a span when their
    character intervals overlap at all, so split tokens at span boundaries
    are kept rather than dropped.
    """
    offset = 0
    for i, (text, start, end) in enumerate(tokens):
        if start != offset or end - start != len(text):
            raise FormatError(
                f"token {i} ({text!r}) does not tile the rendered text at offset {offset}"
            )
        offset = end
    if offset != len(bundle.rendered):
        raise FormatError(
            f"tokens cover {offset} chars but rendered text has {len(bundle.rendered)}"
        )
    concatenated = "".join(t[0] for t in tokens)
    if concatenated != bundle.rendered:
        raise FormatError("token texts do not reproduce the rendered text")

    per_action: list[TokenSpan] = []
    token_index = 0
    for span in bundle.action_spans:
        while token_index < len(tokens) and tokens[token_index][2] <= span.char_start:
            token_index += 1
        first = token_index
        last = first
        while last < len(tokens) and tokens[last][1] < span.char_end:
            last += 1
        if last == first:
            raise FormatError(f"action span {span.step_index} maps to zero tokens")
        per_action.append(TokenSpan(span.step_index, first, last))
        token_index = first
    return TokenSpanMap(per_action=tuple(per_action))
