from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ge_select.envs import ToyShopConfig, toyshop_make
from ge_select.models import (
    FormatError,
    Question,
    ScoreRecord,
    StepScore,
    Trajectory,
    Step,
)
from ge_select.scoring import ge_score
from ge_select.selectors import (
    EmbeddingNormError,
    HashEmbedBackend,
    _equal_row_groups,
    cosine_similarity_matrix,
    fl_objective,
    select_facility_location,
    select_ge,
    select_high_score,
    select_mean_entropy,
    select_random,
)


def make_score(qid: str, ge: float, entropy: float | None = 0.5) -> ScoreRecord:
    d_g = 1.0
    d_i = math.exp(ge) * d_g
    return ScoreRecord(
        question_id=qid,
        guideline_version="g" * 12,
        backend_id="b" * 12,
        per_step=(StepScore(d_i=d_i, d_g=d_g, n_tokens=1),),
        ge=ge,
        mean_entropy=entropy,
    )


def make_trajectory(qid: str, reward: float) -> Trajectory:
    return Trajectory(
        question_id=qid,
        guideline_version="g" * 12,
        steps=(Step(action="click[buy]", observation="ok"),),
        reward=reward,
        source="annotated",
    )


def make_pool(n: int) -> list[Question]:
    return [Question(id=f"q{i:03d}", text=f"task {i}") for i in range(n)]


def brute_force_fl(sim: np.ndarray, size: int) -> float:
    n = sim.shape[0]
    best = 0.0
    for subset in itertools.combinations(range(n), size):
        best = max(best, fl_objective(subset, sim))
    return best


def test_select_ge_empty_budget():
    assert select_ge([make_score("a", 0.1)], 0).items == ()


def test_select_ge_lowest_first_oracle():
    scores = [make_score("a", 0.5), make_score("b", -0.2), make_score("c", 0.0)]
    result = select_ge(scores, 2)
    assert result.question_ids == ["b", "c"]
    assert result.items[0].score == pytest.approx(-0.2)


def test_select_ge_matches_sort_oracle_on_random_inputs():
    rng = random.Random(17)
    for _ in range(50):
        scores = [make_score(f"q{i:02d}", rng.uniform(-2, 2)) for i in range(20)]
        rng.shuffle(scores)
        k = rng.randint(0, 25)
        expected = sorted(scores, key=lambda s: (s.ge, s.question_id))[: min(k, 20)]
        assert select_ge(scores, k).question_ids == [s.question_id for s in expected]


def test_select_ge_ties_break_lexicographically():
    scores = [make_score(q, 0.0) for q in ("qc", "qa", "qb")]
    assert select_ge(scores, 2).question_ids == ["qa", "qb"]


def test_select_ge_permutation_invariant():
    rng = random.Random(2)
    scores = [make_score(f"q{i}", rng.uniform(-1, 1)) for i in range(15)]
    baseline = select_ge(scores, 7)
    for _ in range(5):
        rng.shuffle(scores)
        assert select_ge(scores, 7) == baseline


def test_select_ge_descending_for_eq5_files():
    """eq5 records hold ge = -ge_score(per_step); select_ge ranks them by the
    default-sign value, as the default file ranks, and keeps their own ge."""
    rng = random.Random(12)
    per_steps = [make_score(f"q{i}", rng.uniform(-1, 1)).per_step for i in range(9)]
    signed = {
        sign: [
            ScoreRecord(f"q{i}", "g" * 12, "b" * 12, p, sign * ge_score((s.d_i, s.d_g) for s in p))
            for i, p in enumerate(per_steps)
        ]
        for sign in (1, -1)
    }
    default, eq5 = select_ge(signed[1], 4), select_ge(signed[-1], 4)
    assert eq5.question_ids == default.question_ids
    by_negated_ge = sorted(signed[-1], key=lambda s: (-s.ge, s.question_id))
    assert eq5.question_ids == [s.question_id for s in by_negated_ge[:4]]
    assert [item.score for item in eq5.items] == [-item.score for item in default.items]


def test_select_random_deterministic_and_exhaustive():
    pool = make_pool(6)
    a = select_random(pool, 17, seed=17)
    b = select_random(pool, 17, seed=17)
    assert a == b
    assert sorted(a.question_ids) == [q.id for q in pool]
    assert a.question_ids != [q.id for q in pool]  # shuffled order
    assert all(item.score == 0.0 for item in a.items)


def test_select_random_unbiased_two_elements():
    pool = make_pool(2)
    counts = {"q000": 0, "q001": 0}
    for seed in range(10_000):
        picked = select_random(pool, 1, seed=seed).question_ids[0]
        counts[picked] += 1
    frequency = counts["q000"] / 10_000
    assert 0.45 <= frequency <= 0.55


def test_select_mean_entropy_descending():
    scores = [make_score("a", 0.0, entropy=0.1), make_score("b", 0.0, entropy=1.2)]
    assert select_mean_entropy(scores, 1).question_ids == ["b"]


def test_select_mean_entropy_all_equal_lexicographic():
    scores = [make_score(q, 0.0, entropy=0.7) for q in ("qc", "qa", "qb")]
    assert select_mean_entropy(scores, 2).question_ids == ["qa", "qb"]


def test_select_mean_entropy_missing_field_names_question():
    scores = [make_score("qa", 0.0), make_score("qb", 0.0, entropy=None)]
    with pytest.raises(FormatError, match="qb"):
        select_mean_entropy(scores, 1)


def test_select_high_score_filters_perfect():
    trajectories = [
        make_trajectory("a", 1.0),
        make_trajectory("b", 0.6),
        make_trajectory("c", 1.0),
    ]
    result = select_high_score(trajectories, 2, seed=0)
    assert sorted(result.question_ids) == ["a", "c"]
    assert result.warning == ""
    mean_pct = 100.0 * sum(i.score for i in result.items) / len(result.items)
    assert mean_pct == 100.0


def test_select_high_score_nothing_qualifies_warns():
    trajectories = [make_trajectory("a", 0.6), make_trajectory("b", 0.7)]
    result = select_high_score(trajectories, 2, seed=0)
    assert result.items == ()
    assert "0 trajectories" in result.warning


def test_select_high_score_short_supply_returns_all_with_warning():
    trajectories = [make_trajectory("a", 1.0), make_trajectory("b", 1.0)]
    result = select_high_score(trajectories, 5, seed=3)
    assert sorted(result.question_ids) == ["a", "b"]
    assert result.warning


def test_select_high_score_tolerance():
    trajectories = [make_trajectory("a", 1.0 - 1e-12), make_trajectory("b", 0.9)]
    result = select_high_score(trajectories, 1, seed=0)
    assert result.question_ids == ["a"]


def test_fl_objective_empty_and_full():
    sim = np.eye(4)
    assert fl_objective([], sim) == 0.0
    assert fl_objective(range(4), sim) == pytest.approx(4.0)


def test_fl_objective_matches_exhaustive_small_instance():
    rng = random.Random(5)
    vectors = [[rng.gauss(0, 1) for _ in range(4)] for _ in range(5)]
    sim = cosine_similarity_matrix(vectors)
    values = {
        subset: fl_objective(subset, sim)
        for subset in itertools.combinations(range(5), 2)
    }
    for subset, value in values.items():
        manual = sum(
            max(0.0, max(sim[i, j] for j in subset)) for i in range(5)
        )
        assert value == pytest.approx(manual, abs=1e-12)


def test_fl_objective_rejects_nonsquare():
    with pytest.raises(FormatError, match="square"):
        fl_objective([0], np.zeros((2, 3)))


def test_fl_identical_points_tie_break():
    vectors = [[1.0, 0.0]] * 4
    ids = ["qd", "qb", "qa", "qc"]
    result = select_facility_location(ids, vectors, 3)
    assert result.question_ids == ["qa", "qb", "qc"]
    assert result.items[0].score == pytest.approx(4.0)
    assert result.items[1].score == pytest.approx(0.0)
    assert result.items[2].score == pytest.approx(0.0)


def test_fl_k1_is_medoid():
    rng = random.Random(11)
    embedder = HashEmbedBackend()
    texts = ["red lamp", "blue lamp", "garden hose"]
    vectors = [embedder.embed(t) for t in texts]
    sim = np.maximum(cosine_similarity_matrix(vectors), 0.0)
    row_sums = sim.sum(axis=1)
    expected = int(np.argmax(row_sums))
    ids = ["q0", "q1", "q2"]
    result = select_facility_location(ids, vectors, 1)
    assert result.question_ids == [ids[expected]]


def test_fl_greedy_meets_submodular_bound():
    rng = random.Random(29)
    embedder = HashEmbedBackend()
    words = ["red", "blue", "lamp", "mug", "snack", "kit", "mango", "large", "small", "poster"]
    for trial in range(20):
        texts = [
            " ".join(rng.sample(words, rng.randint(1, 4))) + f" {trial}-{i}"
            for i in range(10)
        ]
        vectors = [embedder.embed(t) for t in texts]
        ids = [f"q{i}" for i in range(10)]
        sim = np.maximum(cosine_similarity_matrix(vectors), 0.0)
        result = select_facility_location(ids, vectors, 3)
        chosen = [ids.index(q) for q in result.question_ids]
        greedy_value = fl_objective(chosen, sim)
        optimum = brute_force_fl(sim, 3)
        assert greedy_value >= (1 - 1 / math.e) * optimum - 1e-9


def test_fl_objective_nondecreasing_in_k():
    rng = random.Random(31)
    vectors = [[rng.gauss(0, 1) for _ in range(6)] for _ in range(12)]
    ids = [f"q{i:02d}" for i in range(12)]
    sim = np.maximum(cosine_similarity_matrix(vectors), 0.0)
    previous = 0.0
    for k in range(1, 13):
        chosen = [ids.index(q) for q in select_facility_location(ids, vectors, k).question_ids]
        value = fl_objective(chosen, sim)
        assert value >= previous - 1e-12
        previous = value


def reference_facility_location(ids, embeddings, k):
    """The plain greedy: builds the similarity rows in stable id order and
    rescans every remaining candidate at every pick."""
    n = len(ids)
    budget = min(max(k, 0), n)
    items = []
    if budget:
        order = sorted(range(n), key=lambda i: ids[i])
        ids = [ids[i] for i in order]
        sim = np.maximum(cosine_similarity_matrix([embeddings[i] for i in order]), 0.0)
        coverage = np.zeros(n)
        remaining = set(range(n))
        for _ in range(budget):
            best_index = -1
            best_gain = -1.0
            for i in range(n):
                if i not in remaining:
                    continue
                gain = float(np.maximum(sim[i] - coverage, 0.0).sum())
                if gain > best_gain:
                    best_gain = gain
                    best_index = i
            remaining.discard(best_index)
            coverage = np.maximum(coverage, sim[best_index])
            items.append((ids[best_index], best_gain))
    return items


def assert_same_as_reference(ids, vectors, k):
    try:
        expected = reference_facility_location(ids, vectors, k)
    except EmbeddingNormError:  # a subnormal vector whose norm underflows
        with pytest.raises(EmbeddingNormError):
            select_facility_location(ids, vectors, k)
        return
    picked = [qid for qid, _ in expected]
    if len(set(picked)) < len(picked):  # both copies of a repeated id picked
        with pytest.raises(FormatError, match="duplicate question_id"):
            select_facility_location(ids, vectors, k)
        return
    result = select_facility_location(ids, vectors, k)
    assert result.question_ids == picked
    assert [item.score.hex() for item in result.items] == [gain.hex() for _, gain in expected]


@st.composite
def fl_instances(draw):
    """Small pools rich in exact ties: repeated and all-zero vectors, repeated
    ids, and vectors one ulp apart, whose rows differ only in their low bits
    and whose first gains may tie."""
    n = draw(st.integers(0, 12))
    dim = draw(st.integers(1, 4))
    value = st.one_of(
        st.integers(-2, 2).map(float),
        st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False),
    )
    distinct = draw(st.lists(st.lists(value, min_size=dim, max_size=dim), min_size=1, max_size=6))
    nudges = st.tuples(
        st.sampled_from(distinct), st.integers(0, dim - 1), st.sampled_from([-1.0, 1.0])
    )
    for vector, j, direction in draw(st.lists(nudges, max_size=3)):
        near = list(vector)
        near[j] = math.nextafter(near[j], direction * math.inf)
        distinct.append(near)
    vectors = [draw(st.sampled_from(distinct)) for _ in range(n)]
    ids = draw(st.lists(st.sampled_from(["qa", "qb", "qc", "qd", "qe"]), min_size=n, max_size=n))
    k = draw(st.integers(0, n + 2))
    return ids, vectors, k


# Rows one ulp apart whose first gains tie at 3.0: after qa's pick, qb's
# gain is 0 and qc's is one ulp of 1.
@example((["qa", "qb", "qc"], [[2.0, -1.0], [2.0, -1.0], [math.nextafter(2.0, 0.0), -1.0]], 2))
@given(fl_instances())
def test_fl_lazy_greedy_equals_full_rescan(instance):
    assert_same_as_reference(*instance)


def test_fl_lazy_greedy_equals_full_rescan_on_hash_embeddings():
    _, pool, _ = toyshop_make(ToyShopConfig(seed=5, catalog_size=30), 300)
    assert len({q.text for q in pool}) < len(pool)  # repeated texts give exact ties
    embedder = HashEmbedBackend()
    ids = [q.id for q in pool]
    vectors = [embedder.embed(q.text) for q in pool]
    assert_same_as_reference(ids, vectors, 300)


class _CountingRows(np.ndarray):
    """A similarity matrix that counts how often its rows are read."""

    reads = 0

    def __getitem__(self, key):
        _CountingRows.reads += 1
        return super().__getitem__(key)


def test_fl_row_grouping_reads_each_row_once_when_distinct_rows_share_a_first_gain():
    # One-hot rows are pairwise distinct, but every first gain is 1.0: the
    # case where comparing each row with every earlier group of its first
    # gain costs O(n²) row comparisons.
    n, distinct = 400, 300
    sim = np.eye(distinct)[[i % distinct for i in range(n)]]
    _CountingRows.reads = 0
    groups = _equal_row_groups(sim.view(_CountingRows), [1.0] * n)
    assert groups == [i % distinct for i in range(n)]
    assert _CountingRows.reads <= n


@pytest.mark.parametrize(
    "other", [math.nextafter(2.0**-60, 1.0), -0.0], ids=["one-ulp", "negative-zero"]
)
def test_fl_row_grouping_splits_rows_whose_bits_differ(other):
    # Every row sums to the same first gain, and the rows compare equal as
    # floats, but only rows with equal bytes may share a group.
    base = 2.0**-60 if other > 0 else 0.0
    sim = np.array([[1.0, base], [1.0, other], [1.0, base], [1.0, other]])
    first = sim.sum(axis=1).tolist()
    assert len(set(first)) == 1
    assert _equal_row_groups(sim, first) == [0, 1, 0, 1]


def test_cosine_similarity_is_the_same_for_shared_and_copied_vectors():
    # At n=1500 numpy builds the product from one triangle, so rows of one
    # vector differ in their low bits; whether equal vectors are one list or
    # copies must not change any of them.
    _, pool, _ = toyshop_make(ToyShopConfig(seed=3, catalog_size=100), 1500)
    embedder = HashEmbedBackend()
    embedded = {q.text: embedder.embed(q.text) for q in pool}
    shared = [embedded[q.text] for q in pool]
    copies = [list(vector) for vector in shared]
    matrix = np.asarray(copies)
    unit = matrix / np.linalg.norm(matrix, axis=1)[:, None]
    expected = np.clip(unit @ unit.T, -1.0, 1.0)
    for vectors in (shared, copies):
        assert cosine_similarity_matrix(vectors).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "vector, reason",
    [
        ([1e308, 1e308], "has a sum of squares that overflows float64"),
        ([1e200, 0.0], "has a sum of squares that overflows float64"),  # its norm is 1e200
        ([1e-320, 0.0], "is nonzero but the sum of its squares underflows to 0 in float64"),
        ([1e-170, 0.0], "is nonzero but the sum of its squares underflows to 0 in float64"),
        ([math.nan, 0.0], "must be a list of finite numbers"),
    ],
    ids=["overflow", "overflow-finite-norm", "underflow", "underflow-normal", "nan"],
)
def test_fl_rejects_a_nonzero_vector_whose_sum_of_squares_is_not_a_positive_float(vector, reason):
    vectors = [[1.0, 0.0], [0.0, -0.0], vector, list(vector)]
    with pytest.raises(FormatError, match=f"^embedding 2 {reason}$"):
        select_facility_location(["qd", "qc", "qb", "qa"], vectors, 1)
    with pytest.raises(EmbeddingNormError) as raised:
        cosine_similarity_matrix(vectors)
    assert raised.value.index == 2


def test_fl_lazy_greedy_equals_full_rescan_on_orthogonal_vectors():
    n = 40
    vectors = np.eye(n)[[i % 30 for i in range(n)]].tolist()
    assert_same_as_reference([f"q{i:02d}" for i in range(n)], vectors, 35)


def test_fl_dimension_mismatch():
    for vectors, message in (
        ([[1.0, 0.0], [1.0]], "embeddings must all have the same dimension"),
        ([1.0, 2.0], "embeddings must all have the same dimension"),  # numbers, not rows
        ([[1.0, 0.0]], "ids and embeddings must have equal length"),
    ):
        with pytest.raises(FormatError, match=message):
            select_facility_location(["a", "b"], vectors, 1)


def test_all_selectors_respect_budget_and_membership():
    pool = make_pool(10)
    scores = [make_score(q.id, i * 0.1 - 0.5, entropy=i * 0.2) for i, q in enumerate(pool)]
    trajectories = [make_trajectory(q.id, 1.0 if i % 2 else 0.5) for i, q in enumerate(pool)]
    embedder = HashEmbedBackend()
    vectors = [embedder.embed(q.text) for q in pool]
    ids = [q.id for q in pool]
    pool_ids = set(ids)
    for result, eligible in [
        (select_ge(scores, 4), 10),
        (select_random(pool, 4, seed=1), 10),
        (select_mean_entropy(scores, 4), 10),
        (select_high_score(trajectories, 4, seed=1), 5),
        (select_facility_location(ids, vectors, 4), 10),
    ]:
        assert len(result.items) == min(4, eligible)
        assert set(result.question_ids) <= pool_ids
        assert len(set(result.question_ids)) == len(result.items)


def test_ge_direction_sanity_helpful_never_before_unhelpful():
    helped = ScoreRecord(
        question_id="helped",
        guideline_version="g" * 12,
        backend_id="b" * 12,
        per_step=(StepScore(d_i=2.0, d_g=1.0, n_tokens=1), StepScore(d_i=3.0, d_g=2.0, n_tokens=1)),
        ge=(math.log(2.0) + (math.log(3.0) - math.log(2.0))) / 2,
    )
    hindered = ScoreRecord(
        question_id="hindered",
        guideline_version="g" * 12,
        backend_id="b" * 12,
        per_step=(StepScore(d_i=1.0, d_g=2.0, n_tokens=1), StepScore(d_i=2.0, d_g=2.0, n_tokens=1)),
        ge=(math.log(0.5) + 0.0) / 2,
    )
    result = select_ge([helped, hindered], 1)
    assert result.question_ids == ["hindered"]
