"""The five data-selection strategies, and the embedder facility location
uses when it is given a pool instead of embeddings.

Each maps scored or embedded pool data to a deterministic ordered subset of
size min(k, eligible). Ties always break by ascending question id so output
files are reproducible across platforms. Only the facility-location
functions need numpy; they import it themselves, so the other strategies
start without it.
"""

from __future__ import annotations

import heapq
import math
import random
import re
from collections import Counter
from typing import TYPE_CHECKING, Sequence

from .models import (
    FormatError,
    Question,
    ScoreRecord,
    SelectionItem,
    SelectionResult,
    Trajectory,
)

if TYPE_CHECKING:
    import numpy as np

# ``highscore`` takes a trajectory as perfect when its reward is this close to 1.
REWARD_TOLERANCE = 1e-9
EMBED_DIMENSIONS = 256

_WORD_RE = re.compile(r"[a-z0-9]+")


def select_ge(scores: Sequence[ScoreRecord], k: int) -> SelectionResult:
    """Take the k questions the guideline helps least: lowest ``default_ge``,
    whichever sign each record was written with. Item scores are the ``ge``
    values as written."""
    ranked = sorted(scores, key=lambda s: (s.default_ge, s.question_id))
    items = tuple(SelectionItem(s.question_id, s.ge) for s in ranked[: max(k, 0)])
    return SelectionResult(strategy="ge", params={"k": k}, items=items)


def select_random(pool: Sequence[Question], k: int, seed: int) -> SelectionResult:
    rng = random.Random(seed)
    chosen = rng.sample(list(pool), min(max(k, 0), len(pool)))
    items = tuple(SelectionItem(q.id, 0.0) for q in chosen)
    return SelectionResult(strategy="random", params={"k": k, "seed": seed}, items=items)


def select_mean_entropy(scores: Sequence[ScoreRecord], k: int) -> SelectionResult:
    for record in scores:
        if record.mean_entropy is None:
            raise FormatError(
                f"score record {record.question_id!r} has no mean_entropy; "
                "entropy selection needs it on every record"
            )
    ranked = sorted(scores, key=lambda s: (-s.mean_entropy, s.question_id))
    items = tuple(
        SelectionItem(s.question_id, s.mean_entropy) for s in ranked[: max(k, 0)]
    )
    return SelectionResult(strategy="entropy", params={"k": k}, items=items)


def select_high_score(
    trajectories: Sequence[Trajectory],
    k: int,
    seed: int,
) -> SelectionResult:
    perfect = [t for t in trajectories if abs(t.reward - 1.0) <= REWARD_TOLERANCE]
    warning = ""
    if len(perfect) < k:
        warning = (
            f"only {len(perfect)} trajectories with reward 1 available for k={k}; "
            "returning all of them"
        )
    rng = random.Random(seed)
    chosen = rng.sample(perfect, min(max(k, 0), len(perfect)))
    items = tuple(SelectionItem(t.question_id, t.reward) for t in chosen)
    return SelectionResult(
        strategy="highscore",
        params={"k": k, "seed": seed},
        items=items,
        warning=warning,
    )


class HashEmbedBackend:
    """Signed feature hashing of lowercased word unigrams into
    ``EMBED_DIMENSIONS`` buckets, L2-normalized. It calls no model."""

    def __init__(self) -> None:
        # Imported here, not with the module: the other selectors take no
        # digest, and OpenSSL is a noticeable share of a CLI start-up.
        import hashlib

        self._sha256 = hashlib.sha256
        # Word -> bucket_and_sign(word). Pool texts repeat their words, so
        # each distinct word is hashed once; racing threads store equal values.
        self._hashed: dict[str, tuple[int, float]] = {}

    def bucket_and_sign(self, token: str) -> tuple[int, float]:
        digest = self._sha256(token.encode("utf-8")).digest()
        index = int.from_bytes(digest[:4], "big") % EMBED_DIMENSIONS
        sign = 1.0 if digest[4] & 1 else -1.0
        return index, sign

    def embed(self, text: str) -> list[float]:
        # Bucket values are sums of +-1, so they and their squares are exact
        # integers: summing only the nonzero buckets gives the same norm.
        buckets: dict[int, float] = {}
        hashed = self._hashed
        for token in _WORD_RE.findall(text.lower()):
            bucket = hashed.get(token)
            if bucket is None:
                bucket = hashed[token] = self.bucket_and_sign(token)
            index, sign = bucket
            buckets[index] = buckets.get(index, 0.0) + sign
        vec = [0.0] * EMBED_DIMENSIONS
        norm = math.sqrt(sum(v * v for v in buckets.values()))
        if norm == 0.0:
            return vec
        for index, v in buckets.items():
            vec[index] = v / norm
        return vec


class EmbeddingNormError(FormatError):
    """A nonzero embedding whose norm cannot be computed in float64: the sum
    of its squares overflows or underflows to 0 (or it holds a number that
    is not finite). ``index`` is its place in the caller's sequence."""

    def __init__(self, index: int, reason: str) -> None:
        self.index = index
        self.reason = reason
        super().__init__(f"embedding {index} {reason}")


def _similarity(vectors: Sequence[Sequence[float]], order: Sequence[int]) -> np.ndarray:
    """The cosine similarity of the rows ``vectors[i] for i in order``. The
    rows are normalized in place, so only the n×d unit matrix and the
    product are alive while it runs."""
    import numpy as np

    try:
        unit = np.asarray([vectors[i] for i in order], dtype=float)
    except ValueError as exc:  # ragged rows
        raise FormatError("embeddings must all have the same dimension") from exc
    if unit.ndim != 2:
        raise FormatError("embeddings must all have the same dimension")
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(unit, axis=1)  # unscaled: sqrt of the sum of squares
    faulty = np.flatnonzero(~np.isfinite(norms) | ((norms == 0.0) & unit.any(axis=1)))
    if len(faulty):
        row = min(faulty, key=lambda r: order[r])
        if norms[row] == 0.0:
            reason = "is nonzero but the sum of its squares underflows to 0 in float64"
        elif np.isfinite(unit[row]).all():
            reason = "has a sum of squares that overflows float64"
        else:
            reason = "must be a list of finite numbers"
        raise EmbeddingNormError(order[row], reason)
    norms[norms == 0.0] = 1.0  # all-zero vectors are similar to nothing
    unit /= norms[:, None]
    sim = unit @ unit.T
    np.clip(sim, -1.0, 1.0, out=sim)
    return sim


def cosine_similarity_matrix(vectors: Sequence[Sequence[float]]) -> np.ndarray:
    """Pairwise cosine similarity; all-zero vectors are similar to nothing,
    and a nonzero vector whose sum of squares overflows or underflows to 0
    in float64 raises ``EmbeddingNormError``."""
    return _similarity(vectors, range(len(vectors)))


def fl_objective(selected: Sequence[int], sim: np.ndarray) -> float:
    """Facility-location value: sum over points of best (clamped) coverage."""
    import numpy as np

    sim = np.asarray(sim, dtype=float)
    if sim.ndim != 2 or sim.shape[0] != sim.shape[1]:
        raise FormatError("similarity matrix must be square")
    chosen = list(selected)
    if not chosen:
        return 0.0
    coverage = sim[chosen, :].max(axis=0)
    return float(np.maximum(coverage, 0.0).sum())


def _equal_row_groups(sim: np.ndarray, first: Sequence[float]) -> list[int]:
    """Number the rows of ``sim`` so that two rows share a number exactly
    when their bytes are equal. ``first`` holds each row's first gain; equal
    rows have equal first gains, so only rows whose first gain repeats are
    keyed on their bytes, and grouping costs at most one pass over ``sim``.
    Only equal bytes count: ``-0.0`` is not ``0.0``."""
    repeats = Counter(first)
    groups: dict[bytes | int, int] = {}
    return [
        groups.setdefault(sim[i].tobytes() if repeats[first[i]] > 1 else i, len(groups))
        for i in range(len(first))
    ]


def select_facility_location(
    ids: Sequence[str],
    embeddings: Sequence[Sequence[float]],
    k: int,
) -> SelectionResult:
    """Greedy facility-location maximization under cosine similarity.

    Item scores are the marginal objective gain at insertion; ties break by
    ascending id. With k=1 this picks the medoid. The similarity rows are
    built in stable id order, so the result does not depend on the order of
    ``ids`` and ``embeddings``.

    The greedy is Minoux's exact lazy variant: a heap holds one
    ``(-gain, row, step)`` entry per candidate, where ``row`` is the
    candidate's place in the id order and ``gain`` was evaluated against
    the coverage of pick ``step``. A popped entry from an earlier step is
    re-evaluated and pushed back; one from the current step is the pick. A
    stale gain stays an upper bound in floating point too: each term
    ``max(s - c, 0)`` cannot grow as the coverage ``c`` grows, IEEE addition
    is monotone and numpy's pairwise sum is a fixed tree of additions. Every
    gain is computed by the same expression as a full rescan would use (the
    first gains as one row sum of the clamped matrix, which sums each row
    by the same tree), so the picks, their order and their score bytes
    equal the plain greedy's, and the ``(-gain, row)`` key keeps its "first
    in id order with a strictly larger gain" tie-break, also for duplicate
    ids. The full n×n similarity matrix stays: rows built on demand from
    mat-vec products could round differently and change gains.

    A gain is a pure function of the bytes of its row and of the coverage,
    so candidates whose rows are bitwise equal have bitwise-equal gains at
    every step (``_equal_row_groups`` numbers these groups). Of a group, the
    tie-break can pick only the member first in id order, so only that
    member holds a heap entry; when it is picked, the next member takes over
    the entry and its stale gain. Each group's gain is then computed once
    per step, and a pool with no repeated rows runs the plain lazy greedy.
    Grouping by equal texts or embeddings would not be exact: the product
    rounds equal vectors differently in different parts of the matrix, so a
    1500-question toyshop pool has more distinct rows than texts, and
    grouping it by text changes its picks.

    A nonzero embedding whose sum of squares overflows or underflows to 0
    in float64 raises ``EmbeddingNormError``. The gains' low bits depend on
    numpy's BLAS build and on its thread count, which the CLI fixes at one;
    a direct caller keeps its own setting.
    """
    import numpy as np

    if len(ids) != len(embeddings):
        raise FormatError("ids and embeddings must have equal length")
    n = len(ids)
    budget = min(max(k, 0), n)
    items: list[SelectionItem] = []
    if budget:
        order = sorted(range(n), key=lambda i: ids[i])
        ids = [ids[i] for i in order]
        sim = _similarity(embeddings, order)
        np.maximum(sim, 0.0, out=sim)
        first = sim.sum(axis=1).tolist()
        group = _equal_row_groups(sim, first)
        coverage = np.zeros(n)
        scratch = np.empty(n)

        def gain(i: int) -> float:
            np.subtract(sim[i], coverage, out=scratch)
            np.maximum(scratch, 0.0, out=scratch)
            return float(scratch.sum())

        # Each group's first member stands in the heap for the rest, and
        # ``following[i]`` is the next member of its group.
        following: list[int | None] = [None] * n
        head: dict[int, int] = {}
        for i in reversed(range(n)):
            following[i] = head.get(group[i])
            head[group[i]] = i
        heap = [(-first[i], i, 0) for i in head.values()]
        heapq.heapify(heap)
        while len(items) < budget:
            neg_gain, i, step = heap[0]
            if step == len(items):
                np.maximum(coverage, sim[i], out=coverage)
                items.append(SelectionItem(ids[i], -neg_gain))
                if following[i] is None:
                    heapq.heappop(heap)
                else:
                    # The stale gain stays an upper bound for the next member.
                    heapq.heapreplace(heap, (neg_gain, following[i], step))
            else:
                heapq.heapreplace(heap, (-gain(i), i, len(items)))
    return SelectionResult(strategy="fl", params={"k": k}, items=tuple(items))
