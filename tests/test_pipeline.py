from __future__ import annotations

import ast
import json
import math
import re
import sys
import threading
from pathlib import Path

import pytest

import ge_select.pipeline as pipeline
from ge_select.backends import (
    Backend,
    BackendError,
    BackendId,
    CachedBackend,
    HttpBackend,
    NgramBackend,
    ResponseCache,
    cache_key,
    canonical_request,
)
from ge_select.envs import ToyShopConfig, ToyShopEnv, toyshop_guideline, toyshop_make, toyshop_rollout
from ge_select.models import (
    EnvError,
    FormatError,
    Guideline,
    Question,
    ScoreRecord,
    SelectionItem,
    SelectionResult,
    Step,
    Trajectory,
    write_records,
)
from ge_select.pipeline import (
    Diagnostic,
    RunConfig,
    annotate,
    load_run_config,
    parse_action,
    score_pool,
    score_trajectory,
)
from ge_select.prompts import build_prompt
from ge_select.reports import (
    dataset_stats,
    difficulty_shift,
    export_sft,
    review_report,
    validate_sft_record,
)
from ge_select.scoring import DIFFICULTY_FLOOR

from conftest import (
    CountingBackend,
    cache_entries,
    echo_response,
    oracle_conditional,
    write_cache_entries,
)


def tiny_config(**kwargs) -> RunConfig:
    defaults = dict(instruction="Shop.", exemplars=(), top_k=2)
    defaults.update(kwargs)
    return RunConfig(**defaults)


def make_trajectory(qid="q1", actions=("click[buy]",), question="find a mug"):
    return Trajectory(
        question_id=qid,
        guideline_version="0" * 12,
        steps=tuple(Step(action=a, observation="ok") for a in actions),
        reward=1.0,
        source="ingested",
        question_text=question,
    )


def oracle_span_difficulty(corpus: str, rendered: str, start: int, end: int, order: int) -> float:
    data = rendered.encode("utf-8")
    assert rendered.isascii()
    logprobs = []
    for i in range(start, end):
        ctx = data[max(0, i - order) : i]
        p = oracle_conditional(corpus.encode("utf-8"), data[:i], ctx, data[i])
        logprobs.append(math.log(p))
    return max(1e-6, -sum(logprobs) / len(logprobs))


def test_guideline_containing_action_lowers_with_guideline_difficulty():
    guideline = Guideline.from_text("When done, finish with click[buy] right away.")
    trajectory = make_trajectory(actions=("click[buy]",))
    question = Question(id="q1", text="find a mug")
    backend = NgramBackend("", order=3)
    config = tiny_config(top_k=0)
    record = score_trajectory(trajectory, question, guideline, backend, config)
    step = record.per_step[0]
    assert step.d_g < step.d_i
    assert record.ge > 0.0

    # independent oracle: recount bytes over both rendered variants
    bundle_with = build_prompt("Shop.", guideline, (), trajectory, question_text=question.text)
    bundle_without = build_prompt("Shop.", None, (), trajectory, question_text=question.text)
    assert step.d_g == pytest.approx(
        oracle_span_difficulty("", bundle_with.rendered, *bundle_with.action_spans[0], 3),
        abs=1e-9,
    )
    assert step.d_i == pytest.approx(
        oracle_span_difficulty("", bundle_without.rendered, *bundle_without.action_spans[0], 3),
        abs=1e-9,
    )


def test_eq5_sign_config_negates_ge_bit_exactly():
    guideline = Guideline.from_text("Finish with click[buy].")
    trajectory = make_trajectory(actions=("search[mug]", "click[buy]"))
    question = Question(id="q1", text="find a mug")
    backend = NgramBackend("shop talk", order=3)
    default = score_trajectory(trajectory, question, guideline, backend, tiny_config())
    eq5 = score_trajectory(
        trajectory, question, guideline, backend, tiny_config(ge_sign="eq5")
    )
    assert eq5.ge == -default.ge
    assert eq5.per_step == default.per_step


def test_score_pool_sorted_dedup_and_missing_warnings():
    pool = [Question(id=f"q{i}", text=f"find item {i}") for i in range(3)]
    trajectories = [
        make_trajectory("q1", question="find item 1"),
        make_trajectory("q0", question="find item 0"),
        make_trajectory("q1", actions=("search[dup]",), question="find item 1"),
    ]
    guideline = Guideline.from_text("Be quick.")
    backend = NgramBackend("", order=2)
    records, diagnostics = score_pool(pool, trajectories, guideline, backend, tiny_config())
    assert [r.question_id for r in records] == ["q0", "q1"]
    messages = {(d.question_id, d.error) for d in diagnostics}
    assert ("q1", "duplicate trajectory ignored") in messages
    assert ("q2", "no trajectory for question; skipped") in messages


def test_score_pool_rejects_unknown_question():
    pool = [Question(id="q0", text="find item")]
    with pytest.raises(FormatError, match="not in the pool"):
        score_pool(
            pool,
            [make_trajectory("missing")],
            Guideline.from_text("g"),
            NgramBackend("", order=2),
            tiny_config(),
        )


class HttpKind(Backend):
    """Forwards echoes to a backend under an http ``id`` with the same
    fingerprint, and records the threads they run on."""

    def __init__(self, inner: Backend) -> None:
        self.inner = inner
        self.id = BackendId(kind="http", model=inner.id.model, fingerprint=inner.id.fingerprint)
        self.threads: set[int] = set()

    def echo_logprobs(self, text, want_top_k=0):
        self.threads.add(threading.get_ident())
        return self.inner.echo_logprobs(text, want_top_k)


def test_score_pool_invariant_to_order_and_parallelism():
    config = ToyShopConfig(seed=21, catalog_size=10)
    env, pool, _ = toyshop_make(config, 8)
    guideline = Guideline.from_text(toyshop_guideline())
    trajectories = [toyshop_rollout(env, q, guideline.version) for q in pool]
    backend = NgramBackend("", order=3)
    base, _ = score_pool(pool, trajectories, guideline, backend, tiny_config(), parallelism=1)
    shuffled, _ = score_pool(
        list(reversed(pool)),
        list(reversed(trajectories)),
        guideline,
        backend,
        tiny_config(),
        parallelism=4,
    )
    assert base == shuffled
    # Only an http backend scores on worker threads; this one forwards to the
    # same n-gram model, so its records are the same.
    pooled = HttpKind(backend)
    threaded, _ = score_pool(
        list(reversed(pool)),
        list(reversed(trajectories)),
        guideline,
        pooled,
        tiny_config(),
        parallelism=4,
    )
    assert threaded == base
    assert pooled.threads and threading.get_ident() not in pooled.threads


def test_score_pool_warm_cache_issues_zero_calls(tmp_path):
    pool = [Question(id=f"q{i}", text=f"find item {i}") for i in range(3)]
    trajectories = [make_trajectory(f"q{i}", question=f"find item {i}") for i in range(3)]
    guideline = Guideline.from_text("Act fast.")
    counting = CountingBackend(NgramBackend("", order=2))
    cache = ResponseCache(tmp_path / "c.jsonl")
    first, _ = score_pool(pool, trajectories, guideline, counting, tiny_config(), cache=cache)
    calls_after_first = counting.total_calls
    assert calls_after_first > 0
    second, _ = score_pool(pool, trajectories, guideline, counting, tiny_config(), cache=cache)
    assert counting.total_calls == calls_after_first
    assert first == second


def test_guideline_edit_rescores_only_the_guideline_prompts(tmp_path):
    """The paper's loop edits the guideline and scores again. The guideline-free
    prompts do not change, so they stay cache hits and their d_i stay as they were."""
    env, drawn, _ = toyshop_make(ToyShopConfig(seed=3, catalog_size=30), 40)
    distinct = {}
    for question in drawn:
        distinct.setdefault(question.text, question)  # equal texts render equal prompts
    pool = list(distinct.values())[:10]
    guideline = Guideline.from_text(toyshop_guideline())
    trajectories = [toyshop_rollout(env, q, guideline.version) for q in pool]
    config = tiny_config(top_k=5)
    cache_path = tmp_path / "cache.jsonl"
    first, _ = score_pool(
        pool, trajectories, guideline, NgramBackend("", order=4), config,
        cache=ResponseCache(cache_path),
    )  # fmt: skip

    edited = Guideline.from_text(guideline.text + "Before you click[buy], open the product page.\n")
    counting = CountingBackend(NgramBackend("", order=4))
    top_ks = []
    echo = counting.echo_logprobs
    counting.echo_logprobs = lambda text, want_top_k=0: top_ks.append(want_top_k) or echo(text, want_top_k)
    second, diagnostics = score_pool(
        pool, trajectories, edited, counting, config, cache=ResponseCache(cache_path)
    )
    assert not diagnostics and len(first) == len(second) == len(pool) == 10
    assert counting.counts == {"echo": len(pool), "generate": 0}
    assert top_ks == [config.top_k] * len(pool)
    for before, after in zip(first, second):
        assert after.guideline_version == edited.version != before.guideline_version
        assert [s.d_i.hex() for s in after.per_step] == [s.d_i.hex() for s in before.per_step]
    assert [r.ge for r in second] != [r.ge for r in first]


class FailAfter(Backend):
    """Raises a transport-style failure after a budget of echo calls."""

    def __init__(self, inner: Backend, budget: int) -> None:
        self.inner = inner
        self.id = inner.id
        self.remaining = budget

    def echo_logprobs(self, text, want_top_k=0):
        if self.remaining <= 0:
            raise BackendError("endpoint unreachable after 3 retries (simulated)")
        self.remaining -= 1
        return self.inner.echo_logprobs(text, want_top_k)


def test_score_pool_resumes_to_identical_bytes(tmp_path):
    config = ToyShopConfig(seed=22, catalog_size=10)
    env, pool, _ = toyshop_make(config, 6)
    guideline = Guideline.from_text(toyshop_guideline())
    trajectories = [toyshop_rollout(env, q, guideline.version) for q in pool]
    run_config = tiny_config()

    ngram = NgramBackend("", order=3)
    full_records, _ = score_pool(
        pool, trajectories, guideline, ngram, run_config, cache=ResponseCache(tmp_path / "clean.jsonl")
    )
    write_records(full_records, tmp_path / "full.jsonl")

    # interrupted run: backend dies halfway through, partial results flushed
    cache_path = tmp_path / "resume.jsonl"
    failing = FailAfter(ngram, budget=6)
    partial_records, diagnostics = score_pool(
        pool, trajectories, guideline, failing, run_config, cache=ResponseCache(cache_path)
    )
    assert 0 < len(partial_records) < len(pool)
    assert any("unreachable" in d.error for d in diagnostics)
    write_records(partial_records, tmp_path / "partial.jsonl")

    # resume with the same cache, healthy backend
    resumed_records, diagnostics = score_pool(
        pool, trajectories, guideline, ngram, run_config, cache=ResponseCache(cache_path)
    )
    assert not diagnostics
    write_records(resumed_records, tmp_path / "resumed.jsonl")
    assert (tmp_path / "resumed.jsonl").read_bytes() == (tmp_path / "full.jsonl").read_bytes()


def test_score_trajectory_caches_only_the_scored_spans(tmp_path, monkeypatch):
    env, pool, _ = toyshop_make(ToyShopConfig(seed=5, catalog_size=10), 1)
    guideline = Guideline.from_text(toyshop_guideline())
    trajectory = toyshop_rollout(env, pool[0], guideline.version)
    counting = CountingBackend(NgramBackend("", order=3))
    mapped = []
    map_spans = pipeline.map_spans_to_tokens
    monkeypatch.setattr(
        pipeline, "map_spans_to_tokens", lambda *args: mapped.append(1) or map_spans(*args)
    )
    cache_path = tmp_path / "cache.jsonl"
    config = tiny_config(top_k=2)

    record = score_trajectory(
        trajectory, pool[0], guideline, counting, config, cache=ResponseCache(cache_path)
    )
    entries = [response for _, response in cache_entries(cache_path)]
    assert len(entries) == 2
    n_tokens = [s.n_tokens for s in record.per_step]
    for entry in entries:
        assert sorted(entry) == ["mean_entropy", "steps"]
        assert all(len(step) == 2 and step[0] <= 0 for step in entry["steps"])
    without, with_guideline = entries
    assert [count for _, count in with_guideline["steps"]] == n_tokens
    assert [max(DIFFICULTY_FLOOR, -total / count) for total, count in with_guideline["steps"]] == [
        s.d_g for s in record.per_step
    ]
    assert without["mean_entropy"] is None  # the guideline-free prompt is scored at top_k=0
    assert with_guideline["mean_entropy"] == record.mean_entropy
    assert counting.counts["echo"] == 2 and len(mapped) == 2

    warm = score_trajectory(
        trajectory, pool[0], guideline, counting, config, cache=ResponseCache(cache_path)
    )
    assert warm == record
    assert counting.counts["echo"] == 2 and len(mapped) == 2  # a hit maps no spans

    # top_k is part of the key: a rerun at top_k=3 echoes the guideline prompt only
    rerun = score_trajectory(
        trajectory, pool[0], guideline, counting, tiny_config(top_k=3),
        cache=ResponseCache(cache_path),
    )  # fmt: skip
    assert counting.counts["echo"] == 3
    added = cache_entries(cache_path)[-1][1]
    assert added["steps"] == with_guideline["steps"] != without["steps"]
    assert (rerun.per_step, rerun.ge) == (record.per_step, record.ge)


def test_pre_v2_cache_entries_are_never_read(tmp_path):
    env, pool, _ = toyshop_make(ToyShopConfig(seed=6, catalog_size=10), 1)
    guideline = Guideline.from_text(toyshop_guideline())
    trajectory = toyshop_rollout(env, pool[0], guideline.version)
    backend = NgramBackend("", order=3)
    config = tiny_config(top_k=2)
    cold = score_trajectory(trajectory, pool[0], guideline, backend, config)

    # For each prompt, a pre-v2 entry under the key its body had without "v"
    # and a v2 entry (token logprob lists) under its "v": 2 key, each holding
    # values no scorer would compute.
    cache_path = tmp_path / "cache.jsonl"
    cache = ResponseCache(cache_path)
    for g in (None, guideline):
        bundle = build_prompt(
            config.instruction, g, config.exemplars, trajectory, config.template,
            config.score_target, question_text=pool[0].text,
        )
        body = {
            "op": "score_spans",
            "text": bundle.rendered,
            "spans": [[start, end] for start, end in bundle.action_spans],
            "top_k": 0 if g is None else config.top_k,
        }
        logprobs = [[-9.0] * (end - start) for start, end in bundle.action_spans]
        cache.put(cache_key(backend.id, canonical_request(body)), {"logprobs": logprobs, "top": []})
        cache.put(
            cache_key(backend.id, canonical_request({**body, "v": 2})),
            {"logprobs": logprobs, "mean_entropy": 9.0},
        )

    counting = CountingBackend(backend)
    record = score_trajectory(
        trajectory, pool[0], guideline, counting, config, cache=ResponseCache(cache_path)
    )
    assert record == cold
    assert counting.counts["echo"] == 2
    entries = [response for _, response in cache_entries(cache_path)]
    assert len(entries) == 6
    assert all(sorted(entry) == ["mean_entropy", "steps"] for entry in entries[4:])


def _with_steps(change):
    return lambda entry: {**entry, "steps": [change(total, count) for total, count in entry["steps"]]}


# Each malformed hit, and what its error says after the entry's name.
_MALFORMED_HITS = {
    "bool-count": (_with_steps(lambda total, count: [total, True]), " token count must be an integer"),
    "zero-count": (_with_steps(lambda total, count: [total, 0]), " token count must be an integer in [1"),
    "float-count": (
        _with_steps(lambda total, count: [total, float(count)]),
        " token count must be an integer",
    ),
    "positive-total": (
        _with_steps(lambda total, count: [0.5, count]),
        " logprob total must be a finite number in [-inf, 0]",
    ),
    "nan-total": (_with_steps(lambda total, count: [math.nan, count]), " logprob total must be a finite"),
    "inf-total": (_with_steps(lambda total, count: [math.inf, count]), " logprob total must be a finite"),
    "minus-inf-total": (
        _with_steps(lambda total, count: [-math.inf, count]),
        " logprob total must be a finite",
    ),
    "three-elements": (
        _with_steps(lambda total, count: [total, count, count]),
        ": each span's step must be a [total, count] pair",
    ),
    "no-steps": (
        lambda entry: {"mean_entropy": entry["mean_entropy"]},
        " needs 'mean_entropy' and one 'steps' pair per span",
    ),
    "extra-key": (lambda entry: {**entry, "extra": 1}, ": unknown key(s): 'extra'"),
}


@pytest.mark.parametrize("change, needle", _MALFORMED_HITS.values(), ids=list(_MALFORMED_HITS))
def test_malformed_scoring_hit_is_an_error_naming_the_cache(tmp_path, change, needle):
    question = Question(id="q1", text="find a mug")
    trajectory = make_trajectory("q1", actions=("search[mug]", "click[buy]"))
    guideline = Guideline.from_text("Buy the first mug.")
    backend = NgramBackend("", order=3)
    cache_path = tmp_path / "cache.jsonl"
    score_trajectory(trajectory, question, guideline, backend, tiny_config(), ResponseCache(cache_path))
    write_cache_entries(
        cache_path, [(key, change(response)) for key, response in cache_entries(cache_path)]
    )
    counting = CountingBackend(backend)
    with pytest.raises(FormatError, match=re.escape(f"cache {cache_path}: scoring entry{needle}")):
        score_trajectory(
            trajectory, question, guideline, counting, tiny_config(), ResponseCache(cache_path)
        )
    assert counting.total_calls == 0


def test_scoring_entry_size_does_not_grow_with_the_action_text(tmp_path):
    question = Question(id="q1", text="find a mug")
    guideline = Guideline.from_text("Buy the first mug.")
    sizes = []
    for action in ("click[buy]", "search[" + "red mug " * 500 + "]"):
        cache_path = tmp_path / f"{len(action)}.jsonl"
        trajectory = make_trajectory("q1", actions=(action,))
        record = score_trajectory(
            trajectory, question, guideline, NgramBackend("", order=3), tiny_config(),
            ResponseCache(cache_path),
        )  # fmt: skip
        assert record.per_step[0].n_tokens >= len(action)  # byte tokens
        responses = [response for _, response in cache_entries(cache_path)]
        sizes += [len(json.dumps(response)) for response in responses]
    # Two floats, an integer and the keys: no more than this for any action.
    assert max(sizes) <= 90, sizes


def test_racing_scorers_agree_and_store_one_entry_per_prompt(tmp_path):
    question = Question(id="q1", text="find a mug")
    trajectory = make_trajectory("q1", actions=("search[mug]", "click[buy]"))
    guideline = Guideline.from_text("Buy the first mug.")
    backend = NgramBackend("", order=3)
    cache = ResponseCache(tmp_path / "cache.jsonl")
    results = []

    def work():
        results.append(
            score_trajectory(trajectory, question, guideline, backend, tiny_config(), cache=cache)
        )

    threads = [threading.Thread(target=work) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8 and all(r == results[0] for r in results)
    assert len((tmp_path / "cache.jsonl").read_text().splitlines()) == 2


class HttpKindNgram:
    """An n-gram model under the n-gram's fingerprint but an ``id`` of kind
    http, so that scoring sends its misses from worker threads. It forwards
    only ``echo_logprobs`` and records each prompt it echoes and the thread
    that asked."""

    def __init__(self, inner: NgramBackend) -> None:
        self.inner = inner
        self.id = BackendId("http", inner.id.model, fingerprint=inner.id.fingerprint)
        self.echoed: list[tuple[str, int]] = []
        self._lock = threading.Lock()

    def echo_logprobs(self, text, want_top_k=0):
        with self._lock:
            self.echoed.append((text, threading.get_ident()))
        return self.inner.echo_logprobs(text, want_top_k)


class ThreadRecordingCache(ResponseCache):
    """A response cache that records the thread of each ``put``."""

    def __init__(self, path) -> None:
        super().__init__(path)
        self.put_threads: list[int] = []

    def put(self, key, response):
        self.put_threads.append(threading.get_ident())
        return super().put(key, response)


def test_http_scoring_sends_each_distinct_prompt_once_and_stores_on_the_calling_thread(tmp_path):
    env, pool, _ = toyshop_make(ToyShopConfig(seed=3, catalog_size=10), 30)
    guideline = Guideline.from_text(toyshop_guideline())
    trajectories = [toyshop_rollout(env, q, guideline.version) for q in pool]
    texts = {q.text for q in pool}
    assert len(texts) < len(pool)  # some questions repeat a text, and so their prompts
    ngram = NgramBackend(toyshop_guideline(), order=4)
    config = tiny_config(top_k=3)
    direct_cache = tmp_path / "direct.jsonl"
    direct = score_pool(pool, trajectories, guideline, ngram, config, ResponseCache(direct_cache))
    assert not direct[1] and len(direct[0]) == len(pool)
    caller = threading.get_ident()
    for parallelism in (1, 2, 4):
        backend = HttpKindNgram(ngram)
        cache = ThreadRecordingCache(tmp_path / f"cache-{parallelism}.jsonl")
        scored = score_pool(
            pool, trajectories, guideline, backend, config, cache, parallelism=parallelism
        )
        assert scored == direct
        prompts = [text for text, _ in backend.echoed]
        assert len(prompts) == len(set(prompts)) == 2 * len(texts)
        assert caller not in {thread for _, thread in backend.echoed}
        assert cache.put_threads == [caller] * len(prompts)
        assert cache.path.read_bytes() == direct_cache.read_bytes()


def test_a_failed_prompt_shared_by_two_questions_is_sent_once_and_fails_both(local_server):
    shared = "find a red mug"
    pool = [Question(id="q1", text=shared), Question(id="q2", text=shared),
            Question(id="q3", text="find a blue lamp")]  # fmt: skip
    trajectories = [make_trajectory(q.id, question=q.text) for q in pool]
    local_server.handler = lambda path, body: (
        (400, {"error": "no"}) if shared in body["prompt"] else (200, echo_response(body["prompt"]))
    )
    backend = HttpBackend(model="m", endpoint=local_server.url, max_retries=0)
    records, diagnostics = score_pool(
        pool, trajectories, Guideline.from_text("g"), backend, tiny_config(), parallelism=4
    )
    assert [r.question_id for r in records] == ["q3"]
    assert [d.question_id for d in diagnostics] == ["q1", "q2"]
    assert diagnostics[0].error == diagnostics[1].error
    assert "returned HTTP 400" in diagnostics[0].error
    prompts = [body["prompt"] for _, body, _ in local_server.requests]
    assert len(prompts) == len(set(prompts)) == 4  # each question's two prompts, q1's and q3's
    assert sum(shared in prompt for prompt in prompts) == 2


@pytest.mark.parametrize("corpus", ["", toyshop_guideline()], ids=["empty", "guideline"])
def test_only_mean_entropy_depends_on_top_k(corpus):
    """Every run scores the guideline-free prompt at top_k 0, so a full run's
    per-step d_i is the base difficulty whatever the config's top_k."""
    env, pool, _ = toyshop_make(ToyShopConfig(seed=9, catalog_size=10), 4)
    guideline = Guideline.from_text(toyshop_guideline())
    trajectories = [toyshop_rollout(env, q, guideline.version) for q in pool]
    backend = NgramBackend(corpus, order=4)
    at_zero, _ = score_pool(pool, trajectories, guideline, backend, tiny_config(top_k=0))
    at_five, _ = score_pool(pool, trajectories, guideline, backend, tiny_config(top_k=5))
    assert len(at_zero) == len(at_five) == len(pool)
    for zero, five in zip(at_zero, at_five):
        assert zero.mean_entropy is None and five.mean_entropy is not None
        assert (zero.per_step, zero.ge) == (five.per_step, five.ge)
        without_entropy = (five.question_id, five.guideline_version, five.backend_id, five.per_step, five.ge)
        assert ScoreRecord(*without_entropy, mean_entropy=None) == zero


def test_score_records_carry_backend_fingerprint_and_entropy():
    pool = [Question(id="q1", text="find a mug")]
    guideline = Guideline.from_text("g")
    backend = NgramBackend("corpus", order=2)
    records, _ = score_pool(pool, [make_trajectory("q1")], guideline, backend, tiny_config())
    assert records[0].backend_id == backend.id.fingerprint
    assert records[0].guideline_version == guideline.version
    assert records[0].mean_entropy is not None and records[0].mean_entropy >= 0


def make_scored(qid: str, ge: float):
    from ge_select.models import ScoreRecord, StepScore

    return ScoreRecord(
        question_id=qid,
        guideline_version="0" * 12,
        backend_id="b" * 12,
        per_step=(
            StepScore(d_i=math.exp(ge), d_g=1.0, n_tokens=2),
            StepScore(d_i=math.exp(ge), d_g=1.0, n_tokens=3),
        ),
        ge=ge,
    )


def test_review_report_sections_and_order():
    scores = [make_scored(f"q{i:02d}", ge=1.0 - i * 0.1) for i in range(40)]
    trajectories = [make_trajectory(f"q{i:02d}", question=f"task {i}") for i in range(40)]
    report = review_report(scores, trajectories, 30)
    assert report.count("## ") == 30
    first = report.index("q39")
    later = report.index("q10")
    assert first < later  # lowest ge first
    assert "guideline conflict" in report
    assert "Action: click[buy]" in report


def test_review_report_prints_a_steps_thought_before_its_action():
    trajectory = Trajectory(
        question_id="qa",
        guideline_version="0" * 12,
        steps=(
            Step(action="search[mug]", observation="Results:", thought="look for mugs first"),
            Step(action="click[buy]", observation="ok"),
        ),
        reward=1.0,
        source="ingested",
    )
    report = review_report([make_scored("qa", 0.2)], [trajectory], 1)
    assert (
        "Thought: look for mugs first\nAction: search[mug]\nObservation: Results:\n"
        "Action: click[buy]\nObservation: ok\n"
    ) in report


def test_review_report_clamps_and_is_deterministic():
    scores = [make_scored("qa", 0.2), make_scored("qb", -0.3)]
    trajectories = [make_trajectory("qa"), make_trajectory("qb")]
    a = review_report(scores, trajectories, 30)
    b = review_report(scores, trajectories, 30)
    assert a == b
    assert a.count("## ") == 2
    with pytest.raises(FormatError):
        review_report(scores, trajectories, 0)


class ScriptedBackend(Backend):
    def __init__(self, script):
        self.script = list(script)
        self.cursor = 0
        self.id = NgramBackend("", order=1).id

    def generate(self, prompt, stop=(), max_tokens=512, temperature=0.7, top_p=0.95):
        text = self.script[min(self.cursor, len(self.script) - 1)]
        self.cursor += 1
        return text


class BenchmarkSurface:
    """Exposes only what the benchmark's traced backend forwards: ``id``,
    ``echo_logprobs`` and ``generate``. A pipeline that reaches for any
    other backend entry point fails here with ``AttributeError``."""

    __slots__ = ("id", "_inner")

    def __init__(self, inner: Backend) -> None:
        self.id = inner.id
        self._inner = inner

    def echo_logprobs(self, text, want_top_k=0):
        return self._inner.echo_logprobs(text, want_top_k)

    def generate(self, prompt, stop=(), max_tokens=512, temperature=0.7, top_p=0.95):
        return self._inner.generate(prompt, stop, max_tokens, temperature, top_p)


def test_score_pool_and_annotate_need_only_the_benchmark_backend_surface(tmp_path):
    config = ToyShopConfig(seed=27, catalog_size=10)
    env, pool, _ = toyshop_make(config, 4)
    guideline = Guideline.from_text(toyshop_guideline())
    trajectories = [toyshop_rollout(env, q, guideline.version) for q in pool]
    corpus = "Action: search[find a thing]\nObservation: Results:\nAction: click[buy]\n" * 10
    backend = NgramBackend(corpus, order=4)
    run_config = tiny_config(t_max=4)

    cache = ResponseCache(tmp_path / "score.jsonl")
    scored = score_pool(pool, trajectories, guideline, BenchmarkSurface(backend), run_config, cache=cache)
    assert scored == score_pool(pool, trajectories, guideline, NgramBackend(corpus, order=4), run_config)

    cached = CachedBackend(BenchmarkSurface(backend), ResponseCache(tmp_path / "generate.jsonl"))
    env, _, _ = toyshop_make(config, 4)
    annotated = annotate(pool, guideline, cached, env, run_config)
    env, _, _ = toyshop_make(config, 4)
    assert annotated == annotate(pool, guideline, NgramBackend(corpus, order=4), env, run_config)
    assert annotated[0]

    # ``Backend`` declares no more than the benchmark forwards.
    def public(cls):
        return {name for name in vars(cls) if not name.startswith("_")}

    assert public(Backend) | {"id"} == public(BenchmarkSurface)


def test_annotate_immediate_buy_is_one_step_zero_reward():
    config = ToyShopConfig(seed=23, catalog_size=10)
    env, pool, _ = toyshop_make(config, 1)
    backend = ScriptedBackend(["click[buy]"])
    trajectories, diagnostics = annotate(
        pool, Guideline.from_text("g"), backend, env, tiny_config()
    )
    assert not diagnostics
    assert len(trajectories) == 1
    trajectory = trajectories[0]
    assert len(trajectory.steps) == 1
    assert trajectory.reward == 0.0
    assert trajectory.source == "annotated"
    assert trajectory.initial_observation


def test_annotate_deterministic_with_ngram_and_toyshop():
    config = ToyShopConfig(seed=24, catalog_size=10)
    corpus = "Action: search[find a thing]\nObservation: Results:\nAction: click[buy]\n" * 10
    runs = []
    for _ in range(2):
        env, pool, _ = toyshop_make(config, 4)
        backend = NgramBackend(corpus, order=4)
        trajectories, _ = annotate(
            pool, Guideline.from_text("g"), backend, env, tiny_config(t_max=5)
        )
        runs.append(trajectories)
    assert runs[0] == runs[1]
    assert all(1 <= len(t.steps) <= 5 for t in runs[0])


def test_annotate_backend_failure_skips_question():
    class Dying(Backend):
        id = NgramBackend("", order=1).id

        def generate(self, *args, **kwargs):
            raise BackendError("unreachable")

    config = ToyShopConfig(seed=25, catalog_size=10)
    env, pool, _ = toyshop_make(config, 2)
    trajectories, diagnostics = annotate(
        pool, Guideline.from_text("g"), Dying(), env, tiny_config()
    )
    assert trajectories == []
    assert len(diagnostics) == 2
    assert all(d.stage == "annotate-generate" for d in diagnostics)


def test_annotate_env_failure_mid_episode_skips_only_that_question():
    config = ToyShopConfig(seed=28, catalog_size=10)
    shop, pool, _ = toyshop_make(config, 3)
    failing = pool[1].id

    class StepFailsOnce:
        """The shop, but the second /step of one question fails."""

        def reset(self, question):
            self.question_id, self.turns = question.id, 0
            return shop.reset(question)

        def step(self, action):
            self.turns += 1
            if self.question_id == failing and self.turns == 2:
                raise EnvError("environment /step returned HTTP 500")
            return shop.step(action)

    backend = ScriptedBackend(["search[thing]"])  # never buys, so episodes run t_max turns
    trajectories, diagnostics = annotate(
        pool, Guideline.from_text("g"), backend, StepFailsOnce(), tiny_config(t_max=3)
    )
    assert diagnostics == [Diagnostic(failing, "annotate-env", "environment /step returned HTTP 500")]
    assert [t.question_id for t in trajectories] == [pool[0].id, pool[2].id]
    assert all(len(t.steps) == 3 for t in trajectories)


def test_annotate_invalid_actions_continue_episode():
    config = ToyShopConfig(seed=26, catalog_size=10)
    env, pool, _ = toyshop_make(config, 1)
    backend = ScriptedBackend(["do something weird", "also weird", "click[buy]"])
    trajectories, _ = annotate(pool, Guideline.from_text("g"), backend, env, tiny_config(t_max=5))
    assert len(trajectories) == 1
    observations = [s.observation for s in trajectories[0].steps]
    assert observations[0] == "Invalid action."


def test_the_benchmark_skips_the_diagnostics_that_score_pool_skips():
    """``perfbench/run.py`` keeps its own copy of ``SCORE_SKIPS``; a change to
    either side would make the benchmark count skipped questions as failures."""
    run_py = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    copies = [
        ast.literal_eval(node.value)
        for node in ast.parse(run_py.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["SKIP_DIAGNOSTICS"]
    ]
    assert copies == [set(pipeline.SCORE_SKIPS)]


def test_parse_action_variants():
    assert parse_action("click[buy]") == "click[buy]"
    assert parse_action("Action: click[buy]\nextra") == "click[buy]"
    assert parse_action("\n\n  search[mug]  \n") == "search[mug]"
    assert parse_action("   ") == ""


def test_export_sft_message_shape():
    instruction = "Shop well."
    guideline = Guideline.from_text("Click carefully.")
    t1 = make_trajectory("q1", actions=("click[buy]",))
    records = export_sft([t1], instruction, guideline)
    messages = records[0]["messages"]
    assert [m["role"] for m in messages] == ["system", "user", "assistant"]
    assert "Shop well." in messages[0]["content"]
    assert "Click carefully." in messages[0]["content"]
    assert messages[1]["content"].startswith("find a mug")
    assert messages[2]["content"] == "click[buy]"


def test_export_sft_message_count_rule():
    instruction = "i"
    guideline = Guideline.from_text("g")
    for T in (1, 2, 3, 7):
        t = make_trajectory("q1", actions=tuple(f"a{i}" for i in range(T)))
        records = export_sft([t], instruction, guideline)
        assert len(records[0]["messages"]) == 2 * T + 1
        assert validate_sft_record(records[0]) == 2 * T + 1


def test_export_sft_final_observation_dropped():
    t = make_trajectory("q1", actions=("a1", "a2"))
    records = export_sft([t], "i", Guideline.from_text("g"))
    messages = records[0]["messages"]
    assert messages[-1] == {"role": "assistant", "content": "a2"}
    assert all(m["content"] != "ok" or m["role"] == "user" for m in messages)


def test_validate_sft_record_catches_breakage():
    good = export_sft([make_trajectory("q1", actions=("a", "b"))], "i", Guideline.from_text("g"))[0]
    validate_sft_record(good)
    broken = {"messages": good["messages"][:-1]}
    with pytest.raises(FormatError, match="assistant"):
        validate_sft_record(broken)
    swapped = {"messages": [good["messages"][1], good["messages"][0]] + good["messages"][2:]}
    with pytest.raises(FormatError):
        validate_sft_record(swapped)
    system, user, assistant = good["messages"][:3]
    for record, message in (
        ({"messages": [system, user]}, "at least system, user, assistant"),
        ({"messages": "system user assistant"}, "at least system, user, assistant"),
        (
            {"messages": [system, assistant, user, assistant]},
            "expected user message, got assistant",
        ),
        ({"messages": [system, user, {**assistant, "content": None}]}, "content must be a string"),
    ):
        with pytest.raises(FormatError, match=message):
            validate_sft_record(record)


def test_dataset_stats_hand_values():
    t1 = make_trajectory("q1", actions=("a", "b"))
    t2 = make_trajectory("q2", actions=("a", "b", "c", "d"))
    t1 = Trajectory(t1.question_id, t1.guideline_version, t1.steps, 0.5, t1.source,
                    t1.question_text, t1.initial_observation)
    stats = dataset_stats([t1, t2])
    assert stats["avg_turns"] == pytest.approx(3.0, abs=1e-9)
    assert stats["avg_reward_pct"] == pytest.approx(75.0, abs=1e-9)


def test_dataset_stats_perfect_rewards():
    trajectories = [make_trajectory(f"q{i}") for i in range(5)]
    assert dataset_stats(trajectories)["avg_reward_pct"] == 100.0


def test_dataset_stats_single_and_empty():
    t = make_trajectory("q1", actions=("a", "b", "c"))
    stats = dataset_stats([t])
    assert stats == {"avg_turns": 3.0, "avg_reward_pct": 100.0}
    with pytest.raises(FormatError):
        dataset_stats([])


def level_pool(levels: dict[str, str]) -> list[Question]:
    return [
        Question(id=qid, text=f"task {qid}", metadata={"level": level})
        for qid, level in levels.items()
    ]


def selection_of(ids) -> SelectionResult:
    return SelectionResult(
        strategy="ge", params={"k": len(ids)}, items=tuple(SelectionItem(i, 0.0) for i in ids)
    )


def test_difficulty_shift_identity_is_zero():
    pool = level_pool({"a": "easy", "b": "medium", "c": "hard"})
    shifts = difficulty_shift(selection_of(["a", "b", "c"]), pool)
    assert all(abs(v) < 1e-12 for v in shifts.values())


def test_difficulty_shift_hand_example():
    pool = level_pool({"a": "easy", "b": "easy", "c": "hard", "d": "hard"})
    shifts = difficulty_shift(selection_of(["c", "d"]), pool)
    assert shifts["easy"] == pytest.approx(-50.0, abs=1e-9)
    assert shifts["hard"] == pytest.approx(50.0, abs=1e-9)
    assert shifts["medium"] == pytest.approx(0.0, abs=1e-9)
    assert sum(shifts.values()) == pytest.approx(0.0, abs=1e-9)


def test_difficulty_shift_missing_level_errors():
    pool = level_pool({"a": "easy"}) + [Question(id="b", text="task b")]
    with pytest.raises(FormatError, match="level"):
        difficulty_shift(selection_of(["b"]), pool)
    with pytest.raises(FormatError, match="selected question 'z' is not in the pool"):
        difficulty_shift(selection_of(["z"]), pool[:1])


def test_difficulty_shift_lists_unknown_levels_after_the_known_ones_by_name():
    pool = level_pool({"a": "expert", "b": "easy", "c": "beginner"})
    shifts = difficulty_shift(selection_of(["a"]), pool)
    assert list(shifts) == ["easy", "medium", "hard", "beginner", "expert"]
    assert shifts["expert"] == pytest.approx(100.0 - 100.0 / 3, abs=1e-9)


def test_load_run_config_resolves_paths(tmp_path):
    (tmp_path / "instr.txt").write_text("Do the task.", encoding="utf-8")
    (tmp_path / "ex.jsonl").write_text('{"text":"Task: x\\nAction: y\\n"}\n', encoding="utf-8")
    (tmp_path / "corpus.txt").write_text("abcabc", encoding="utf-8")
    config_path = tmp_path / "config.json"
    config_path.write_text(
        """
        {
          "instruction_path": "instr.txt",
          "exemplars_path": "ex.jsonl",
          "score_backend": {"kind": "ngram", "order": 2, "corpus_path": "corpus.txt"},
          "t_max": 2
        }
        """,
        encoding="utf-8",
    )
    config = load_run_config(config_path)
    assert config.instruction == "Do the task."
    assert config.exemplars == ("Task: x\nAction: y\n",)
    assert config.score_backend["corpus_path"] == str(tmp_path / "corpus.txt")
    assert config.t_max == 2
