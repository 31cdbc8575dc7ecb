"""Difficulty and guideline-effectiveness arithmetic.

Pure functions over logprob lists and their per-step sums; no I/O and no
model access. All logs are natural, so difficulties are nats/token and score
checks against ln 2 stay exact.
"""

from __future__ import annotations

import math
from typing import Sequence

from .models import FormatError, Record, StepScore, ge_score, sum_floats

# Difficulty floor: keeps log-ratios finite on perfectly predicted actions.
DIFFICULTY_FLOOR = 1e-6


class TokenDistribution(Record):
    """Top-k alternatives at one position plus the unreported residual mass."""

    __slots__ = ("top", "residual_mass")
    top: tuple[tuple[str, float], ...]
    residual_mass: float

    def __init__(self, top: Sequence[tuple[str, float]], residual_mass: float) -> None:
        object.__setattr__(self, "residual_mass", residual_mass)
        total = 0.0
        for token, logprob in top:
            if logprob > 0:
                raise ValueError(f"logprob for {token!r} must be <= 0")
            total += math.exp(logprob)
        if total > 1.0 + 1e-9:
            raise ValueError(f"top probabilities sum to {total} > 1")
        if not 0.0 <= residual_mass <= 1.0:
            raise ValueError("residual_mass must be in [0,1]")
        object.__setattr__(self, "top", tuple(top))


def _difficulty(total: float, count: int) -> float:
    return max(DIFFICULTY_FLOOR, -total / count)


def step_difficulty(logprobs: Sequence[float]) -> float:
    """Average negated token logprob, floored at DIFFICULTY_FLOOR."""
    if not logprobs:
        raise ValueError("step has no token logprobs")
    for lp in logprobs:
        if lp > 0:
            raise ValueError(f"token logprob {lp} must be <= 0")
    return _difficulty(sum_floats(logprobs), len(logprobs))


def mean_entropy(dists: Sequence[TokenDistribution]) -> float:
    """Mean per-position entropy of top-k distributions with a residual bucket."""
    if not dists:
        raise ValueError("no token distributions given")
    total = 0.0
    for dist in dists:
        h = 0.0
        for _token, logprob in dist.top:
            p = math.exp(logprob)
            if p > 0.0:
                h -= p * math.log(p)
        r = dist.residual_mass
        if r > 0.0:
            h -= r * math.log(r)
        total += max(0.0, h)
    return total / len(dists)


def aggregate_trajectory(
    with_g: Sequence[tuple[float, int]],
    without_g: Sequence[tuple[float, int]],
) -> tuple[list[StepScore], float]:
    """Combine both prompt variants' per-step ``(total, count)`` pairs: the
    sum of a step's token logprobs, in token order, and their number.

    A step's difficulty is ``-total / count``, floored, which is
    ``step_difficulty`` of its logprobs bit for bit. Token counts may differ
    between variants (the tokenizer sees different contexts); only the step
    count must match. Returns the per-step scores, whose ``n_tokens`` is the
    guideline prompt's count, and the default-convention ge value. No steps
    at all raises ``ge_score``'s ``ValueError``.
    """
    if len(with_g) != len(without_g):
        raise FormatError(
            f"variant step counts differ: with guideline {len(with_g)}, "
            f"without {len(without_g)}"
        )
    per_step = [
        StepScore(d_i=_difficulty(*wo), d_g=_difficulty(*wi), n_tokens=wi[1])
        for wi, wo in zip(with_g, without_g)
    ]
    return per_step, ge_score([(s.d_i, s.d_g) for s in per_step])
