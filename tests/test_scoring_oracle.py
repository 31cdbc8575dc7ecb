"""End-to-end scoring oracle.

Small random pools are scored by ``score_pool`` and every output value is
recomputed from brute-force byte counts: each step's ``d_i`` and ``d_g``, the
question's ``ge`` and ``mean_entropy``, and the cache entry of each prompt.
The prompts are rendered here from the template's definition, not by
``prompts``, so a span that moves is caught too. The pools mix ASCII and
multibyte text, optional thoughts, both score targets, templates that move
``{{steps}}`` and the exemplars, a random corpus, n-gram orders 1-5 and
``top_k`` 0-3. Each pool is scored three ways: cold, warm from the cache
with a backend that cannot echo, and through ``http`` in front of the same
n-gram model.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ge_select.backends import NgramBackend, ResponseCache, build_backend, cache_key, canonical_request
from ge_select.models import Guideline, Question, Step, Trajectory
from ge_select.pipeline import RunConfig, score_pool

from conftest import (
    backend_echo_response,
    cache_entries,
    oracle_conditional,
    reference_counts,
    reference_top_k,
)

_TEXT = st.text(alphabet="ab [\né€𝄞", max_size=8)
_WORD = st.text(alphabet="ab[é€𝄞", min_size=1, max_size=6)  # never blank after trimming
_HEAD = "Begin.\n"  # so no prompt variant begins with a scored action
_SEPARATORS = ("", "\n", " | ", "é\n")
_PLACEHOLDERS = ("instruction", "guideline", "exemplars", "question", "steps")


@st.composite
def _templates(draw) -> str:
    order = draw(st.permutations(_PLACEHOLDERS))
    parts = [_HEAD]
    for name in order:
        parts.append("{{" + name + "}}")
        parts.append(draw(st.sampled_from(_SEPARATORS)))
    return "".join(parts)


@st.composite
def _trajectories(draw, qid: str) -> Trajectory:
    steps = draw(
        st.lists(
            st.builds(Step, action=_WORD, observation=_TEXT, thought=st.one_of(st.just(""), _WORD)),
            min_size=1,
            max_size=4,
        )
    )
    return Trajectory(
        question_id=qid,
        guideline_version="0" * 12,
        steps=tuple(steps),
        reward=1.0,
        source="ingested",
        initial_observation=draw(_TEXT),
    )


def _render(template: str, values: dict[str, str], trajectory: Trajectory, target: str):
    """The prompt text and the character span of each step's scored text."""
    text, spans = "", []
    rest = template
    while rest:
        before, _, rest = rest.partition("{{")
        text += before
        if not rest:
            break
        name, _, rest = rest.partition("}}")
        if name != "steps":
            text += values[name]
            continue
        if trajectory.initial_observation:
            text += trajectory.initial_observation + "\n"
        for step in trajectory.steps:
            if target == "emission" and step.thought:
                text += "Thought: "
                scored = f"{step.thought}\nAction: {step.action}"
            else:
                text += f"Thought: {step.thought}\n" if step.thought else ""
                text += "Action: "
                scored = step.action
            spans.append((len(text), len(text) + len(scored)))
            text += f"{scored}\nObservation: {step.observation}\n"
    return text, spans


def _oracle_prompt(corpus: bytes, order: int, text: str, spans, top_k: int) -> dict:
    """What scoring caches for one prompt, from brute-force counts: one
    ``[logprob sum, token count]`` pair per span, each token one character,
    and the mean entropy of the top-k distributions at the scored tokens."""
    data = text.encode("utf-8")
    steps, entropies = [], []
    for start, end in spans:
        total = 0.0
        for c in range(start, end):
            i = len(text[:c].encode("utf-8"))
            ctx = data[max(0, i - order) : i]
            if top_k:
                top, residual = reference_top_k(*reference_counts(corpus, data[:i], ctx), top_k)
                h = 0.0
                for _, logprob in top:
                    p = math.exp(float.fromhex(logprob))
                    if p > 0.0:
                        h -= p * math.log(p)
                r = float.fromhex(residual)
                if r > 0.0:
                    h -= r * math.log(r)
                entropies.append(max(0.0, h))
            logprob = None
            for _ in text[c].encode("utf-8"):
                ctx = data[max(0, i - order) : i]
                term = math.log(oracle_conditional(corpus, data[:i], ctx, data[i]))
                logprob = term if logprob is None else logprob + term
                i += 1
            total += logprob
        steps.append([total, end - start])
    entropy = None
    if entropies:
        summed = 0.0
        for h in entropies:
            summed += h
        entropy = summed / len(entropies)
    return {"steps": steps, "mean_entropy": entropy}


def _oracle(pool, trajectories, guideline, corpus: str, order: int, config: RunConfig, backend_id):
    """Each question's expected ``(d_i hex, d_g hex)`` pairs, ge and mean
    entropy, and every cache entry by its key."""
    expected, entries = {}, {}
    exemplars = "".join(ex if ex.endswith("\n") else ex + "\n" for ex in config.exemplars)
    for question, trajectory in zip(pool, trajectories):
        scored = []
        for g, top_k in ((None, 0), (guideline, config.top_k)):
            values = {
                "instruction": config.instruction,
                "guideline": g.text if g is not None else "",
                "exemplars": exemplars,
                "question": question.text,
            }
            text, spans = _render(config.template, values, trajectory, config.score_target)
            entry = _oracle_prompt(corpus.encode("utf-8"), order, text, spans, top_k)
            request = {"op": "score_spans", "v": 3, "text": text, "spans": spans, "top_k": top_k}
            entries[cache_key(backend_id, canonical_request(request))] = entry
            scored.append(entry)
        (without, _), (with_g, entropy) = ((e["steps"], e["mean_entropy"]) for e in scored)
        pairs = [
            (max(1e-6, -wo[0] / wo[1]), max(1e-6, -wi[0] / wi[1])) for wi, wo in zip(with_g, without)
        ]
        ge = 0.0
        for d_i, d_g in pairs:
            ge += math.log(d_i) - math.log(d_g)
        expected[question.id] = (
            [(d_i.hex(), d_g.hex()) for d_i, d_g in pairs],
            (ge / len(pairs)).hex(),
            entropy,
        )
    return expected, entries


def _observed(records) -> dict:
    return {
        r.question_id: (
            [(s.d_i.hex(), s.d_g.hex()) for s in r.per_step],
            r.ge.hex(),
            r.mean_entropy,
        )
        for r in records
    }


class _NoEcho:
    """A backend with the n-gram model's id that cannot echo."""

    def __init__(self, inner) -> None:
        self.id = inner.id

    def echo_logprobs(self, text, want_top_k=0):
        raise AssertionError("a warm run echoed")


@settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    questions=st.integers(1, 4).flatmap(
        lambda n: st.tuples(*(st.tuples(_WORD, _trajectories(f"q{i}")) for i in range(n)))
    ),
    guideline=_WORD.map(Guideline.from_text),
    instruction=_WORD,
    exemplars=st.lists(_TEXT, max_size=2).map(tuple),
    template=_templates(),
    score_target=st.sampled_from(["action", "emission"]),
    corpus=st.text(alphabet="ab [\né€𝄞:A", max_size=24),
    order=st.integers(1, 5),
    top_k=st.integers(0, 3),
)
def test_score_pool_matches_a_brute_force_oracle(
    tmp_path_factory, local_server, questions, guideline, instruction, exemplars, template,
    score_target, corpus, order, top_k,
):  # fmt: skip
    pool = [Question(id=t.question_id, text=text) for text, t in questions]
    trajectories = [t for _, t in questions]
    config = RunConfig(
        instruction=instruction,
        exemplars=exemplars,
        template=template,
        score_target=score_target,
        top_k=top_k,
    )
    ngram = NgramBackend(corpus, order)
    expected, entries = _oracle(pool, trajectories, guideline, corpus, order, config, ngram.id)

    cache_path = tmp_path_factory.mktemp("oracle") / "cache.jsonl"
    cold, diagnostics = score_pool(pool, trajectories, guideline, ngram, config, cache=ResponseCache(cache_path))
    assert not diagnostics
    assert _observed(cold) == expected
    written = cache_path.read_text(encoding="utf-8")
    assert dict(cache_entries(cache_path)) == entries

    warm, _ = score_pool(
        pool, trajectories, guideline, _NoEcho(ngram), config, cache=ResponseCache(cache_path)
    )
    assert _observed(warm) == expected
    assert cache_path.read_text(encoding="utf-8") == written

    # The http client rebuilds each top-k residual from exp(logprob), not the
    # model's probabilities, so only the entropy may differ in its last bits.
    local_server.handler = lambda path, body: (
        200,
        backend_echo_response(ngram, body["prompt"], body["logprobs"]),
    )
    http = build_backend({"kind": "http", "model": "m", "endpoint": local_server.url})
    via_http, diagnostics = score_pool(pool, trajectories, guideline, http, config, parallelism=2)
    assert not diagnostics
    for qid, (steps, ge, entropy) in _observed(via_http).items():
        assert (steps, ge) == expected[qid][:2]
        if entropy is None or expected[qid][2] is None:
            assert entropy is expected[qid][2]
        else:
            assert math.isclose(entropy, expected[qid][2], rel_tol=1e-12)
