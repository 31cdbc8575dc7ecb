"""Acceptance gate: every criterion asserted at its stated tolerance.

Each test prints one ``ACCEPTANCE <n> PASS`` line (visible with ``pytest -s``
or in captured output); a failed assertion keeps the line from printing.
Everything here runs offline against the deterministic backends.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ge_select
from ge_select.backends import NgramBackend, ResponseCache
from ge_select.envs import (
    ToyShopConfig,
    toyshop_guideline,
    toyshop_make,
    toyshop_rollout,
)
from ge_select.models import (
    Guideline,
    Question,
    ScoreRecord,
    SelectionItem,
    SelectionResult,
    Step,
    StepScore,
    Trajectory,
    load_pool,
    load_scores,
    load_selection,
    load_trajectories,
    write_records,
)
from ge_select.pipeline import RunConfig, score_pool, score_trajectory
from ge_select.reports import dataset_stats, difficulty_shift, export_sft, validate_sft_record
from ge_select.scoring import (
    DIFFICULTY_FLOOR,
    TokenDistribution,
    ge_score,
    mean_entropy,
    step_difficulty,
)
from ge_select.selectors import (
    HashEmbedBackend,
    cosine_similarity_matrix,
    fl_objective,
    select_facility_location,
    select_ge,
    select_high_score,
    select_mean_entropy,
    select_random,
)

from conftest import CountingBackend


def announce(n: int, description: str) -> None:
    print(f"ACCEPTANCE {n} PASS: {description}")


def test_acceptance_1_scoring_core_oracles():
    started = time.monotonic()
    rng = random.Random(101)

    for _ in range(200):
        lps = [-rng.random() * 10 for _ in range(rng.randint(1, 50))]
        oracle = max(DIFFICULTY_FLOOR, -sum(lps) / len(lps))
        assert abs(step_difficulty(lps) - oracle) <= 1e-9

    for _ in range(200):
        pairs = [
            (rng.uniform(1e-6, 12.0), rng.uniform(1e-6, 12.0))
            for _ in range(rng.randint(1, 15))
        ]
        oracle = sum(math.log(a) - math.log(b) for a, b in pairs) / len(pairs)
        assert abs(ge_score(pairs) - oracle) <= 1e-9
        # antisymmetry holds exactly
        assert ge_score([(b, a) for a, b in pairs]) == -ge_score(pairs)
        # scale invariance within 1e-12
        lam = rng.uniform(1e-3, 1e3)
        scaled = [(a * lam, b * lam) for a, b in pairs]
        assert abs(ge_score(scaled) - ge_score(pairs)) <= 1e-12

    for _ in range(200):
        k = rng.randint(1, 8)
        dists = []
        for _ in range(rng.randint(1, 12)):
            weights = [rng.random() + 1e-9 for _ in range(k + 1)]
            total = sum(weights)
            probs = [w / total for w in weights]
            dists.append(
                TokenDistribution(
                    top=tuple((f"t{i}", math.log(p)) for i, p in enumerate(probs[:k])),
                    residual_mass=probs[k],
                )
            )
        oracle = sum(
            -sum(math.exp(lp) * lp for _, lp in d.top)
            - (d.residual_mass * math.log(d.residual_mass) if d.residual_mass > 0 else 0.0)
            for d in dists
        ) / len(dists)
        assert abs(mean_entropy(dists) - oracle) <= 1e-9

    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    announce(1, f"scoring-core oracle suite (600 randomized cases, {elapsed:.2f}s)")


def test_acceptance_2_ge_sign_semantics():
    started = time.monotonic()
    guideline = Guideline.from_text(
        "Check the options, then finish the purchase with click[buy] immediately."
    )
    backend = NgramBackend(guideline.text, order=3)  # guideline-rich corpus
    trajectory = Trajectory(
        question_id="q1",
        guideline_version=guideline.version,
        steps=(
            Step(action="search[ceramic mug]", observation="Results: [P001] mug"),
            Step(action="click[buy]", observation="You bought [P001]."),
        ),
        reward=1.0,
        source="ingested",
        question_text="find a ceramic mug",
    )
    question = Question(id="q1", text="find a ceramic mug")
    config = RunConfig(instruction="Shop.", exemplars=(), top_k=0)
    record = score_trajectory(trajectory, question, guideline, backend, config)
    boosted = record.per_step[1]  # the click[buy] step quoted by the guideline
    assert boosted.d_g < boosted.d_i
    assert record.ge > 0.0

    eq5_config = RunConfig(instruction="Shop.", exemplars=(), top_k=0, ge_sign="eq5")
    eq5_record = score_trajectory(trajectory, question, guideline, backend, eq5_config)
    assert eq5_record.ge == -record.ge
    assert eq5_record.per_step == record.per_step

    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    announce(
        2,
        f"ge sign semantics: d_g={boosted.d_g:.4f} < d_i={boosted.d_i:.4f}, "
        f"ge={record.ge:+.4f}, eq5 negates bit-exactly ({elapsed:.2f}s)",
    )


def test_acceptance_3_facility_location_bound():
    started = time.monotonic()
    rng = random.Random(303)
    embedder = HashEmbedBackend()
    words = [
        "red", "blue", "green", "black", "small", "large", "mango", "lemon",
        "gadget", "widget", "bottle", "snack", "kit", "lamp", "mug", "poster",
    ]
    ratio_bound = 1 - 1 / math.e
    for instance in range(100):
        texts = [
            " ".join(rng.sample(words, rng.randint(2, 5))) + f" x{instance}y{i}"
            for i in range(10)
        ]
        vectors = [embedder.embed(t) for t in texts]
        ids = [f"q{i}" for i in range(10)]
        sim = np.maximum(cosine_similarity_matrix(vectors), 0.0)

        result = select_facility_location(ids, vectors, 3)
        chosen = [ids.index(q) for q in result.question_ids]
        greedy_value = fl_objective(chosen, sim)
        optimum = max(
            fl_objective(subset, sim) for subset in itertools.combinations(range(10), 3)
        )
        assert greedy_value >= ratio_bound * optimum - 1e-9

        previous = 0.0
        for k in range(1, 6):
            picked = [ids.index(q) for q in select_facility_location(ids, vectors, k).question_ids]
            value = fl_objective(picked, sim)
            assert value >= previous - 1e-12
            previous = value

    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    announce(3, f"facility location greedy >= (1-1/e)*OPT on 100 instances ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def selection_fixtures(tmp_path_factory):
    root = tmp_path_factory.mktemp("selection_fixtures")
    rng = random.Random(404)
    pool = [Question(id=f"q{i:03d}", text=f"find item number {i}") for i in range(40)]
    scores = []
    for i, q in enumerate(pool):
        ge = rng.uniform(-1, 1) if i % 5 else 0.25  # deliberate ties
        scores.append(
            ScoreRecord(
                question_id=q.id,
                guideline_version="0" * 12,
                backend_id="b" * 12,
                per_step=(StepScore(d_i=math.exp(ge), d_g=1.0, n_tokens=2),),
                ge=ge,
                mean_entropy=0.5 if i % 7 else 1.5,
            )
        )
    trajectories = [
        Trajectory(
            question_id=q.id,
            guideline_version="0" * 12,
            steps=(Step(action="click[buy]", observation="ok"),),
            reward=1.0 if i % 3 else 0.5,
            source="annotated",
            question_text=q.text,
        )
        for i, q in enumerate(pool)
    ]
    embedder = HashEmbedBackend()
    embeddings = [
        {"question_id": q.id, "embedding": embedder.embed(q.text)} for q in pool
    ]
    write_records(pool, root / "pool.jsonl")
    write_records(scores, root / "scores.jsonl")
    write_records(trajectories, root / "trajectories.jsonl")
    write_records(embeddings, root / "embeddings.jsonl")
    return root


STRATEGY_ARGS = {
    "ge": ["--scores", "scores.jsonl"],
    "entropy": ["--scores", "scores.jsonl"],
    "random": ["--pool", "pool.jsonl", "--seed", "11"],
    "highscore": ["--trajectories", "trajectories.jsonl", "--seed", "11"],
    "fl": ["--embeddings", "embeddings.jsonl"],
}


def run_cli(root, argv):
    # The child runs with cwd=root, so a relative PYTHONPATH (``src``) would no
    # longer resolve; hand it the absolute source root of the package under test.
    src_root = str(Path(ge_select.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ge_select", *argv],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
    )


def test_acceptance_4_selector_contracts(selection_fixtures):
    root = selection_fixtures
    for strategy, extra in STRATEGY_ARGS.items():
        for attempt in range(2):
            out = f"sel_{strategy}_{attempt}.jsonl"
            proc = run_cli(root, ["select", "--strategy", strategy, "-k", "12", "--out", out, *extra])
            assert proc.returncode == 0, proc.stderr
        first = (root / f"sel_{strategy}_0.jsonl").read_bytes()
        second = (root / f"sel_{strategy}_1.jsonl").read_bytes()
        assert first == second, f"{strategy} selection differs across process invocations"
        selection = load_selection(root / f"sel_{strategy}_0.jsonl")
        eligible = 40 if strategy != "highscore" else 26
        assert len(selection.items) == min(12, eligible)
        assert len(set(selection.question_ids)) == len(selection.items)
        pool_ids = {q.id for q in load_pool(root / "pool.jsonl")}
        assert set(selection.question_ids) <= pool_ids
    announce(4, "selector contracts: deterministic byte-identical selections, all 5 strategies")


def test_acceptance_5_high_score_reward_is_exactly_100(selection_fixtures):
    trajectories = load_trajectories(selection_fixtures / "trajectories.jsonl")
    perfect = sum(1 for t in trajectories if t.reward == 1.0)
    k = 10
    assert perfect >= k
    result = select_high_score(trajectories, k, seed=5)
    rewards = {t.question_id: t.reward for t in trajectories}
    mean_reward_pct = 100.0 * sum(rewards[q] for q in result.question_ids) / len(result.items)
    assert mean_reward_pct == 100.00
    selected = [t for t in trajectories if t.question_id in set(result.question_ids)]
    assert dataset_stats(selected)["avg_reward_pct"] == 100.00
    announce(5, f"high score semantics: selected mean reward x100 == 100.00 ({k} of {perfect})")


def test_acceptance_6_end_to_end_synthetic_selectivity():
    started = time.monotonic()
    beats_base = 0
    beats_random = 0
    seeds = range(20)
    for seed in seeds:
        shop = ToyShopConfig(seed=seed, catalog_size=20)
        env, pool, truth = toyshop_make(shop, 300)
        guideline = Guideline.from_text(toyshop_guideline())  # hidden rule omitted
        trajectories = [toyshop_rollout(env, q, guideline.version) for q in pool]
        backend = NgramBackend("", order=4)
        config = RunConfig(
            instruction="You are shopping for one item.",
            exemplars=(),
            top_k=0,
        )
        records, diagnostics = score_pool(
            pool, trajectories, guideline, backend, config, parallelism=4
        )
        assert len(records) == 300 and not diagnostics

        bottom = select_ge(records, 50)
        ge_fraction = sum(truth[q]["requires_hidden"] for q in bottom.question_ids) / 50
        base_rate = sum(t["requires_hidden"] for t in truth.values()) / len(truth)
        random_pick = select_random(pool, 50, seed=seed)
        random_fraction = (
            sum(truth[q]["requires_hidden"] for q in random_pick.question_ids) / 50
        )
        beats_base += ge_fraction > base_rate
        beats_random += ge_fraction > random_fraction

    elapsed = time.monotonic() - started
    assert beats_base >= 16, f"bottom-50 beat the base rate in only {beats_base}/20 seeds"
    assert beats_random >= 14, f"bottom-50 beat random in only {beats_random}/20 seeds"
    assert elapsed < 300.0
    announce(
        6,
        f"synthetic selectivity: beat base rate {beats_base}/20, "
        f"beat random {beats_random}/20 ({elapsed:.1f}s, no network)",
    )


class FailAfter:
    """Backend wrapper that simulates a mid-run crash after a call budget."""

    def __init__(self, inner, budget: int) -> None:
        self.inner = inner
        self.id = inner.id
        self.remaining = budget

    def echo_logprobs(self, text, want_top_k=0):
        from ge_select.backends import BackendError

        if self.remaining <= 0:
            raise BackendError("killed mid-run (simulated)")
        self.remaining -= 1
        return self.inner.echo_logprobs(text, want_top_k)


def test_acceptance_7_pipeline_determinism_and_resumability(tmp_path):
    shop = ToyShopConfig(seed=77, catalog_size=15)
    env, pool, _ = toyshop_make(shop, 50)
    guideline = Guideline.from_text(toyshop_guideline())
    trajectories = [toyshop_rollout(env, q, guideline.version) for q in pool]
    config = RunConfig(instruction="Shop.", exemplars=(), top_k=2)
    ngram = NgramBackend("", order=3)

    reference_cache = ResponseCache(tmp_path / "ref.jsonl")
    reference, _ = score_pool(
        pool, trajectories, guideline, ngram, config, cache=reference_cache, parallelism=4
    )
    write_records(reference, tmp_path / "reference.jsonl")

    # run killed at ~50%: 50 of the 100 echo calls succeed
    cache_path = tmp_path / "shared_cache.jsonl"
    dying = FailAfter(ngram, budget=50)
    partial, diagnostics = score_pool(
        pool, trajectories, guideline, dying, config, cache=ResponseCache(cache_path), parallelism=4
    )
    assert len(partial) < 50
    assert any("killed mid-run" in d.error for d in diagnostics)

    # resume against the same cache with a healthy backend
    counting = CountingBackend(ngram)
    resumed_cache = ResponseCache(cache_path)
    resumed, diagnostics = score_pool(
        pool, trajectories, guideline, counting, config, cache=resumed_cache, parallelism=4
    )
    assert not diagnostics
    write_records(resumed, tmp_path / "resumed.jsonl")
    assert (tmp_path / "resumed.jsonl").read_bytes() == (tmp_path / "reference.jsonl").read_bytes()
    resumed_calls = counting.total_calls
    assert 0 < resumed_calls <= 50  # only the lost half is recomputed

    # warm-cache rerun issues zero outbound calls and identical bytes
    rerun, _ = score_pool(
        pool, trajectories, guideline, counting, config, cache=resumed_cache, parallelism=4
    )
    assert counting.total_calls == resumed_calls
    write_records(rerun, tmp_path / "rerun.jsonl")
    assert (tmp_path / "rerun.jsonl").read_bytes() == (tmp_path / "reference.jsonl").read_bytes()
    announce(
        7,
        f"resumability: killed-at-50% + resume is byte-identical; warm rerun made 0 calls",
    )


def random_trajectory(rng: random.Random, qid: str) -> Trajectory:
    steps = tuple(
        Step(
            action=f"click[{rng.choice(['buy', 'red', 'blue', 'P0' + str(i)])}]",
            observation=rng.choice(["ok", "Results: [P001] gadget", ""]),
            thought=rng.choice(["", "check the options"]),
        )
        for i in range(rng.randint(1, 8))
    )
    return Trajectory(
        question_id=qid,
        guideline_version="0" * 12,
        steps=steps,
        reward=rng.choice([0.0, 0.5, 1.0]),
        source=rng.choice(["ingested", "annotated", "synthetic"]),
        question_text=f"task for {qid}",
        initial_observation=rng.choice(["", "You are shopping."]),
    )


def test_acceptance_8_format_conformance(tmp_path):
    rng = random.Random(808)
    pool = [
        Question(id=f"q{i:04d}", text=f"task {i}", metadata={"level": rng.choice(["easy", "hard"])})
        for i in range(50)
    ]
    trajectories = [random_trajectory(rng, f"q{i:04d}") for i in range(1000)]
    scores = []
    for i in range(50):
        per_step = (StepScore(d_i=rng.uniform(0.1, 5), d_g=1.0, n_tokens=3),)
        scores.append(
            ScoreRecord(
                question_id=f"q{i:04d}",
                guideline_version="0" * 12,
                backend_id="b" * 12,
                per_step=per_step,
                ge=ge_score([(p.d_i, p.d_g) for p in per_step]),
                mean_entropy=rng.random(),
            )
        )
    selection = SelectionResult(
        strategy="ge",
        params={"k": 5},
        items=tuple(SelectionItem(f"q{i:04d}", float(i)) for i in range(5)),
    )

    for name, records, loader in (
        ("pool", pool, load_pool),
        ("trajectories", trajectories, load_trajectories),
        ("scores", scores, load_scores),
    ):
        a, b = tmp_path / f"{name}_a.jsonl", tmp_path / f"{name}_b.jsonl"
        write_records(records, a)
        write_records(loader(a), b)
        assert a.read_bytes() == b.read_bytes(), f"{name} round-trip not byte-stable"
    sel_a, sel_b = tmp_path / "sel_a.jsonl", tmp_path / "sel_b.jsonl"
    write_records([selection], sel_a)
    write_records([load_selection(sel_a)], sel_b)
    assert sel_a.read_bytes() == sel_b.read_bytes()

    guideline = Guideline.from_text("Always verify options before buying.")
    records = export_sft(trajectories, "Shop well.", guideline)
    assert len(records) == 1000
    for trajectory, record in zip(trajectories, records):
        count = validate_sft_record(record)
        T = len(trajectory.steps)
        assert count == 2 * T + 1
        if T == 1:
            assert count == 3
    announce(8, "format conformance: byte-stable round-trips; 1000 SFT exports validate, count = 2T+1")


def test_acceptance_9_stats_fidelity():
    base = dict(guideline_version="0" * 12, source="annotated")
    t1 = Trajectory(
        question_id="qa",
        steps=(Step(action="a", observation="o"), Step(action="b", observation="o")),
        reward=0.5,
        **base,
    )
    t2 = Trajectory(
        question_id="qb",
        steps=tuple(Step(action=f"a{i}", observation="o") for i in range(4)),
        reward=1.0,
        **base,
    )
    stats = dataset_stats([t1, t2])
    assert abs(stats["avg_turns"] - 3.0) <= 1e-9
    assert abs(stats["avg_reward_pct"] - 75.0) <= 1e-9

    pool = [
        Question(id=f"e{i}", text="t", metadata={"level": "easy"}) for i in range(5)
    ] + [
        Question(id=f"h{i}", text="t", metadata={"level": "hard"}) for i in range(5)
    ]
    hard_skewed = SelectionResult(
        strategy="ge",
        params={"k": 4},
        items=tuple(SelectionItem(f"h{i}", 0.0) for i in range(4)),
    )
    shifts = difficulty_shift(hard_skewed, pool)
    assert abs(shifts["easy"] - (-50.0)) <= 1e-9
    assert abs(shifts["hard"] - 50.0) <= 1e-9
    assert abs(sum(shifts.values())) <= 1e-9
    assert shifts["hard"] > 0.0  # hard-level delta positive on the hard-skewed fixture
    announce(9, "stats fidelity: hand values within 1e-9, deltas sum to 0, hard delta positive")
