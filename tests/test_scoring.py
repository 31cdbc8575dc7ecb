from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ge_select.scoring import (
    DIFFICULTY_FLOOR,
    TokenDistribution,
    aggregate_trajectory,
    ge_score,
    mean_entropy,
    step_difficulty,
)


def brute_force_difficulty(logprobs):
    return max(DIFFICULTY_FLOOR, -sum(logprobs) / len(logprobs))


def brute_force_ge(pairs):
    return sum(math.log(d_i) - math.log(d_g) for d_i, d_g in pairs) / len(pairs)


def brute_force_entropy(dists):
    total = 0.0
    for dist in dists:
        h = 0.0
        for _, lp in dist.top:
            p = math.exp(lp)
            h -= p * math.log(p)
        if dist.residual_mass > 0:
            h -= dist.residual_mass * math.log(dist.residual_mass)
        total += h
    return total / len(dists)


def random_distribution(rng: random.Random, k: int) -> TokenDistribution:
    weights = [rng.random() + 1e-9 for _ in range(k + 1)]
    total = sum(weights)
    probs = [w / total for w in weights]
    top = tuple((f"t{i}", math.log(p)) for i, p in enumerate(probs[:k]))
    return TokenDistribution(top=top, residual_mass=probs[k])


def test_step_difficulty_hand_example():
    assert step_difficulty([-0.1, -0.3]) == pytest.approx(0.2, abs=1e-12)


def test_step_difficulty_floor():
    assert step_difficulty([0.0, 0.0]) == DIFFICULTY_FLOOR


def test_step_difficulty_single_element():
    assert step_difficulty([-2.0]) == 2.0


def test_step_difficulty_rejects_bad_input():
    with pytest.raises(ValueError):
        step_difficulty([])
    with pytest.raises(ValueError):
        step_difficulty([-0.5, 0.1])


def test_step_difficulty_matches_oracle_on_random_cases():
    rng = random.Random(11)
    for _ in range(250):
        lps = [-rng.random() * 8 for _ in range(rng.randint(1, 40))]
        assert step_difficulty(lps) == pytest.approx(brute_force_difficulty(lps), abs=1e-9)


def test_ge_score_zero_when_equal():
    assert ge_score([(1.3, 1.3), (0.2, 0.2)]) == 0.0


def test_ge_score_single_step_ln2():
    assert ge_score([(1.0, 0.5)]) == pytest.approx(math.log(2.0), abs=1e-12)


def test_ge_score_antisymmetry_exact():
    rng = random.Random(23)
    for _ in range(200):
        pairs = [
            (rng.uniform(1e-6, 9.0), rng.uniform(1e-6, 9.0))
            for _ in range(rng.randint(1, 12))
        ]
        swapped = [(dg, di) for di, dg in pairs]
        assert ge_score(swapped) == -ge_score(pairs)


def test_ge_score_scale_invariance():
    rng = random.Random(31)
    for _ in range(200):
        pairs = [
            (rng.uniform(1e-4, 5.0), rng.uniform(1e-4, 5.0))
            for _ in range(rng.randint(1, 10))
        ]
        lam = rng.uniform(1e-3, 1e3)
        scaled = [(di * lam, dg * lam) for di, dg in pairs]
        assert ge_score(scaled) == pytest.approx(ge_score(pairs), abs=1e-12)


def test_ge_score_monotonicity():
    rng = random.Random(43)
    for _ in range(100):
        pairs = [
            (rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0))
            for _ in range(rng.randint(1, 6))
        ]
        base = ge_score(pairs)
        t = rng.randrange(len(pairs))
        bumped_i = list(pairs)
        bumped_i[t] = (pairs[t][0] * 1.3, pairs[t][1])
        assert ge_score(bumped_i) > base
        bumped_g = list(pairs)
        bumped_g[t] = (pairs[t][0], pairs[t][1] * 1.3)
        assert ge_score(bumped_g) < base


def test_ge_score_matches_oracle_on_random_cases():
    rng = random.Random(5)
    for _ in range(250):
        pairs = [
            (rng.uniform(1e-6, 10.0), rng.uniform(1e-6, 10.0))
            for _ in range(rng.randint(1, 20))
        ]
        assert ge_score(pairs) == pytest.approx(brute_force_ge(pairs), abs=1e-9)


def test_ge_score_rejects_bad_input():
    with pytest.raises(ValueError):
        ge_score([])
    with pytest.raises(ValueError):
        ge_score([(0.0, 1.0)])


def test_mean_entropy_deterministic_distribution():
    dist = TokenDistribution(top=(("a", 0.0),), residual_mass=0.0)
    assert mean_entropy([dist]) == 0.0


def test_mean_entropy_uniform_four():
    lp = math.log(0.25)
    dist = TokenDistribution(
        top=(("a", lp), ("b", lp), ("c", lp), ("d", lp)), residual_mass=0.0
    )
    assert mean_entropy([dist]) == pytest.approx(math.log(4.0), abs=1e-12)


def test_mean_entropy_mixes_positions():
    zero = TokenDistribution(top=(("a", 0.0),), residual_mass=0.0)
    lp = math.log(0.25)
    uniform = TokenDistribution(
        top=(("a", lp), ("b", lp), ("c", lp), ("d", lp)), residual_mass=0.0
    )
    assert mean_entropy([zero, uniform]) == pytest.approx(math.log(4.0) / 2, abs=1e-12)


def test_mean_entropy_matches_oracle_and_bounds():
    rng = random.Random(3)
    for _ in range(250):
        k = rng.randint(1, 6)
        dists = [random_distribution(rng, k) for _ in range(rng.randint(1, 10))]
        value = mean_entropy(dists)
        assert value == pytest.approx(brute_force_entropy(dists), abs=1e-9)
        assert 0.0 <= value <= math.log(k + 1) + 1e-12


def test_mean_entropy_rejects_empty():
    with pytest.raises(ValueError):
        mean_entropy([])


def test_token_distribution_validates_mass():
    with pytest.raises(ValueError):
        TokenDistribution(top=(("a", 0.0), ("b", 0.0)), residual_mass=0.0)


def test_aggregate_trajectory_composition():
    per_step, ge = aggregate_trajectory(with_g=[(-0.5, 1)], without_g=[(-1.0, 1)])
    assert per_step[0].d_i == pytest.approx(1.0)
    assert per_step[0].d_g == pytest.approx(0.5)
    assert per_step[0].n_tokens == 1
    assert ge == pytest.approx(math.log(2.0), abs=1e-12)


def test_aggregate_trajectory_length_mismatch():
    from ge_select.models import FormatError

    with pytest.raises(FormatError, match="step counts differ"):
        aggregate_trajectory([(-1.0, 1)] * 2, [(-1.0, 1)] * 3)


def test_aggregate_trajectory_identical_inputs_zero_ge():
    pairs = [(-1.1, 2), (-1.2, 1)]
    _, ge = aggregate_trajectory(pairs, pairs)
    assert ge == 0.0


def test_aggregate_allows_different_token_counts():
    per_step, _ = aggregate_trajectory([(-3.0, 3)], [(-2.0, 1)])
    assert per_step[0].n_tokens == 3
    assert per_step[0].d_i == pytest.approx(2.0)
    assert per_step[0].d_g == pytest.approx(1.0)


def test_aggregate_rejects_a_difficulty_beyond_float_range():
    from ge_select.models import FormatError

    with pytest.raises(FormatError, match="finite"):
        aggregate_trajectory([(-math.inf, 2)], [(-1.0, 1)])


_LOGPROBS = st.lists(
    st.one_of(
        st.floats(max_value=0.0, allow_nan=False),
        st.sampled_from([-0.0, -5e-324, -2.2250738585072014e-308, -1e308]),
    ),
    min_size=1,
    max_size=40,
)


@given(_LOGPROBS)
@example([-0.0])
@example([-5e-324, -5e-324])
@example([-1e308, -7e307])
def test_a_cached_sum_and_count_give_the_difficulty_of_the_logprobs_bit_for_bit(logprobs):
    total = sum(logprobs)  # as a cache miss sums a span, in token order
    if not math.isfinite(total):
        return  # a miss stores no overflowing sum
    pair = json.loads(json.dumps([total, len(logprobs)]))
    per_step, _ = aggregate_trajectory([pair], [pair])
    expected = step_difficulty(logprobs)
    assert per_step[0].d_g.hex() == per_step[0].d_i.hex() == expected.hex()
    assert per_step[0].n_tokens == len(logprobs)
