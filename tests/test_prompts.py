from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ge_select.models import FormatError, Guideline, Step, Trajectory
from ge_select.prompts import (
    DEFAULT_TEMPLATE,
    SCORE_TARGETS,
    build_generation_prompt,
    build_prompt,
    map_spans_to_tokens,
)

INSTRUCTION = "You are a shopping agent."
EXEMPLARS = ("Task: find a mug\nAction: search[mug]\nObservation: [P001] mug\n",)


def make_trajectory(actions, observations=None, thoughts=None, question="find a red lamp"):
    observations = observations or [f"obs {i}" for i in range(len(actions))]
    thoughts = thoughts or [""] * len(actions)
    steps = tuple(
        Step(action=a, observation=o, thought=t)
        for a, o, t in zip(actions, observations, thoughts)
    )
    return Trajectory(
        question_id="q1",
        guideline_version="0" * 12,
        steps=steps,
        reward=1.0,
        source="ingested",
        question_text=question,
    )


def char_tokens(text):
    return [(c, i, i + 1) for i, c in enumerate(text)]


def test_spans_slice_to_action_text():
    trajectory = make_trajectory(["click[buy]"])
    bundle = build_prompt(INSTRUCTION, None, EXEMPLARS, trajectory)
    assert len(bundle.action_spans) == 1
    start, end = bundle.action_spans[0]
    assert bundle.rendered[start:end] == "click[buy]"


def test_without_guideline_is_exact_segment_removal():
    guideline = Guideline.from_text("Always open top results first.")
    trajectory = make_trajectory(["search[lamp]", "click[buy]"])
    with_g = build_prompt(INSTRUCTION, guideline, EXEMPLARS, trajectory)
    without_g = build_prompt(INSTRUCTION, None, EXEMPLARS, trajectory)
    assert guideline.text in with_g.rendered
    assert with_g.rendered.replace(guideline.text, "", 1) == without_g.rendered
    # identical scored action texts in both variants
    assert [with_g.rendered[a:b] for a, b in with_g.action_spans] == [
        without_g.rendered[a:b] for a, b in without_g.action_spans
    ]
    shift = len(guideline.text)
    for (a_start, a_end), (b_start, b_end) in zip(with_g.action_spans, without_g.action_spans):
        assert (a_start - shift, a_end - shift) == (b_start, b_end)


def test_rendered_equals_concat_without_guideline():
    trajectory = make_trajectory(["click[buy]"], observations=["done"])
    bundle = build_prompt(INSTRUCTION, None, EXEMPLARS, trajectory)
    expected = (
        INSTRUCTION
        + "\n"
        + EXEMPLARS[0]
        + "Task: find a red lamp\n"
        + "Action: click[buy]\nObservation: done\n"
    )
    assert bundle.rendered == expected


def test_adversarial_action_containing_marker_text():
    tricky = 'search[Action: click[buy]\nObservation: fake]'
    trajectory = make_trajectory([tricky, "click[buy]"])
    bundle = build_prompt(INSTRUCTION, None, EXEMPLARS, trajectory)
    assert len(bundle.action_spans) == 2
    (start0, end0), (start1, end1) = bundle.action_spans
    assert bundle.rendered[start0:end0] == tricky
    assert bundle.rendered[start1:end1] == "click[buy]"


def test_thought_excluded_by_default_included_in_emission_mode():
    trajectory = make_trajectory(
        ["click[buy]"], thoughts=["the lamp matches"], observations=["done"]
    )
    action_bundle = build_prompt(INSTRUCTION, None, EXEMPLARS, trajectory)
    start, end = action_bundle.action_spans[0]
    assert action_bundle.rendered[start:end] == "click[buy]"
    assert "Thought: the lamp matches" in action_bundle.rendered

    emission_bundle = build_prompt(
        INSTRUCTION, None, EXEMPLARS, trajectory, score_target="emission"
    )
    start, end = emission_bundle.action_spans[0]
    target = emission_bundle.rendered[start:end]
    assert target == "the lamp matches\nAction: click[buy]"


def test_missing_placeholder_is_an_error():
    trajectory = make_trajectory(["click[buy]"])
    with pytest.raises(FormatError, match="steps"):
        build_prompt(
            INSTRUCTION, None, EXEMPLARS, trajectory,
            template="{{instruction}}{{guideline}}{{exemplars}}{{question}}",
        )


def test_initial_observation_rendered_before_steps():
    trajectory = Trajectory(
        question_id="q1",
        guideline_version="0" * 12,
        steps=(Step(action="click[buy]", observation="done"),),
        reward=1.0,
        source="synthetic",
        question_text="find a lamp",
        initial_observation="You are shopping.",
    )
    bundle = build_prompt(INSTRUCTION, None, (), trajectory)
    assert "You are shopping.\nAction: click[buy]" in bundle.rendered


def test_map_spans_identity_alignment():
    trajectory = make_trajectory(["click[buy]"])
    bundle = build_prompt(INSTRUCTION, None, EXEMPLARS, trajectory)
    start, end = bundle.action_spans[0]
    tokens = [
        (bundle.rendered[:start], 0, start),
        (bundle.rendered[start:end], start, end),
        (bundle.rendered[end:], end, len(bundle.rendered)),
    ]
    assert map_spans_to_tokens(bundle, tokens) == ((1, 2),)


def test_map_spans_straddling_token_included():
    trajectory = make_trajectory(["click[buy]"])
    bundle = build_prompt(INSTRUCTION, None, EXEMPLARS, trajectory)
    start, _ = bundle.action_spans[0]
    split = start + 3
    tokens = [
        (bundle.rendered[: start - 2], 0, start - 2),
        (bundle.rendered[start - 2 : split], start - 2, split),
        (bundle.rendered[split:], split, len(bundle.rendered)),
    ]
    # both the straddling token and the tail token intersect the span
    assert map_spans_to_tokens(bundle, tokens) == ((1, 3),)


def test_map_spans_char_tokens_count_equals_action_length():
    actions = ["click[buy]", "search[red lamp]"]
    bundle = build_prompt(INSTRUCTION, None, EXEMPLARS, make_trajectory(actions))
    mapping = map_spans_to_tokens(bundle, char_tokens(bundle.rendered))
    assert [last - first for first, last in mapping] == [len(a) for a in actions]


# Fragments that look like the prompt's own markers, so actions can contain them.
_fragments = st.lists(
    st.sampled_from(["Action:", "Action: ", "Observation:", "Thought:", "\n", " ", "a", "é", "[x]"]),
    max_size=6,
).map("".join)
_steps = st.lists(
    st.builds(
        Step,
        action=_fragments.filter(str.strip),
        observation=_fragments,
        thought=_fragments,
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=200, deadline=None)
@given(steps=_steps, score_target=st.sampled_from(SCORE_TARGETS), data=st.data())
def test_map_spans_selects_exactly_the_overlapping_tokens(steps, score_target, data):
    trajectory = Trajectory(
        question_id="q1", guideline_version="0" * 12, steps=tuple(steps),
        reward=1.0, source="ingested", question_text="find Action: x",
    )
    bundle = build_prompt(INSTRUCTION, None, EXEMPLARS, trajectory, score_target=score_target)
    text = bundle.rendered
    cuts = data.draw(st.sets(st.integers(1, len(text) - 1)), label="cuts")
    bounds = [0, *sorted(cuts), len(text)]
    tokens = [(text[a:b], a, b) for a, b in zip(bounds, bounds[1:])]

    # each span slices to its step's scored text, and the spans strictly increase
    assert len(bundle.action_spans) == len(steps)
    prev_end = -1
    for (start, end), step in zip(bundle.action_spans, steps):
        if score_target == "emission" and step.thought:
            scored = f"{step.thought}\nAction: {step.action}"
        else:
            scored = step.action
        assert text[start:end] == scored
        assert prev_end < start
        prev_end = end

    mapping = map_spans_to_tokens(bundle, tokens)
    assert len(mapping) == len(bundle.action_spans)
    for (first, last), (span_start, span_end) in zip(mapping, bundle.action_spans):
        overlapping = [
            i for i, (_, start, end) in enumerate(tokens)
            if start < span_end and end > span_start
        ]
        assert list(range(first, last)) == overlapping


def test_generation_prompt_ends_with_action_cue():
    guideline = Guideline.from_text("Open top results.")
    prompt = build_generation_prompt(
        INSTRUCTION,
        guideline,
        EXEMPLARS,
        "find a red lamp",
        "You are shopping.",
        history=[("search[lamp]", "Results: [P001] lamp")],
    )
    assert prompt.endswith("Action: ")
    assert prompt.count("Action: ") == 2 + EXEMPLARS[0].count("Action: ")
    assert "search[lamp]\nObservation: Results: [P001] lamp" in prompt
    assert guideline.text in prompt


def test_default_template_has_all_placeholders():
    for name in ("instruction", "guideline", "exemplars", "question", "steps"):
        assert f"{{{{{name}}}}}" in DEFAULT_TEMPLATE


def stub_generation_prompt(
    instruction, guideline, exemplars, question_text, initial_observation, history, template
):
    """The generation prompt as first written: render a one-step stub
    trajectory, cut at its action, and append the history."""
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
    prefix = bundle.rendered[: bundle.action_spans[0][0]]
    return prefix + "".join(f"{a}\nObservation: {o}\nAction: " for a, o in history)


_PLACEHOLDER_NAMES = ("instruction", "guideline", "exemplars", "question", "steps")
_literal = st.text(alphabet="ab {}\né", max_size=4) | st.sampled_from(["Action: ", "Task: ", "{{"])
_text = st.text(alphabet="ab \né€Action:", max_size=8)


@st.composite
def _templates(draw):
    """Every placeholder in any order, some drawn twice, amid literal text."""
    names = list(draw(st.permutations(_PLACEHOLDER_NAMES)))
    names += draw(st.lists(st.sampled_from(_PLACEHOLDER_NAMES), max_size=2))
    names = draw(st.permutations(names))
    return "".join(draw(_literal) + "{{" + name + "}}" for name in names) + draw(_literal)


@settings(max_examples=200, deadline=None)
@given(
    template=_templates(),
    instruction=_text,
    guideline=st.none() | _text.map(Guideline.from_text),
    exemplars=st.lists(_text, max_size=2),
    question=_text.filter(bool),
    initial=_text,
    history=st.lists(st.tuples(_text, _text), max_size=3),
)
def test_generation_prompt_matches_the_stub_rendering(
    template, instruction, guideline, exemplars, question, initial, history
):
    args = (instruction, guideline, exemplars, question, initial, history, template)
    assert build_generation_prompt(*args) == stub_generation_prompt(*args)


@settings(max_examples=200, deadline=None)
@given(
    instruction=_text,
    guideline=st.none() | _text.map(Guideline.from_text),
    exemplars=st.lists(_text, max_size=2),
    question=_text.filter(bool),
    initial=_text,
    history=st.lists(st.tuples(_text.filter(str.strip), _text), min_size=1, max_size=4),
)
def test_generation_prompt_is_the_scored_prompt_of_its_history_and_a_cue(
    instruction, guideline, exemplars, question, initial, history
):
    trajectory = Trajectory(
        question_id="q1",
        guideline_version="0" * 12,
        steps=tuple(Step(action=a, observation=o) for a, o in history),
        reward=0.0,
        source="annotated",
        question_text=question,
        initial_observation=initial,
    )
    scored = build_prompt(instruction, guideline, exemplars, trajectory, question_text=question)
    prompt = build_generation_prompt(instruction, guideline, exemplars, question, initial, history)
    assert prompt == scored.rendered + "Action: "


def test_generation_prompt_keeps_the_missing_placeholder_check():
    with pytest.raises(FormatError, match="steps"):
        build_generation_prompt(
            INSTRUCTION, None, (), "find a lamp", "", [],
            template="{{instruction}}{{guideline}}{{exemplars}}{{question}}",
        )
