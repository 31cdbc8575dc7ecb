from __future__ import annotations

import base64
import hashlib
import json
import math
import os
import random
import re
import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ge_select import backends
from ge_select.backends import (
    Backend,
    BackendError,
    BackendId,
    CachedBackend,
    HttpBackend,
    NgramBackend,
    ResponseCache,
    build_backend,
    cache_key,
    canonical_request,
)
from ge_select.models import FormatError, sum_floats
from ge_select.pipeline import parse_action
from ge_select.prompts import PromptBundle, map_spans_to_tokens
from ge_select.scoring import mean_entropy
from ge_select.selectors import EMBED_DIMENSIONS, HashEmbedBackend

from conftest import (
    CountingBackend,
    cache_entries,
    echo_response,
    oracle_conditional,
    reference_counts,
    reference_top_k,
)


def count_oracle(corpus: bytes, ctx: bytes, b: int) -> float:
    """Add-one conditional from raw substring counts (contexts followed by a byte)."""
    numer = 0
    denom = 0
    for i in range(len(corpus) - len(ctx)):
        if corpus[i : i + len(ctx)] == ctx:
            denom += 1
            if corpus[i + len(ctx)] == b:
                numer += 1
    return (numer + 1) / (denom + 256)


def test_empty_corpus_uniform_logprobs():
    backend = NgramBackend("", order=3)
    result = backend.echo_logprobs("abcd")
    assert len(result) == 4
    for token in result:
        assert token.logprob == pytest.approx(-math.log(256.0), abs=1e-12)


def test_echo_deterministic():
    backend = NgramBackend("some corpus text here", order=3)
    a = backend.echo_logprobs("the quick fox", want_top_k=4)
    b = backend.echo_logprobs("the quick fox", want_top_k=4)
    assert a == b


def test_trained_conditional_beats_uniform():
    corpus = "ab" * 50
    backend = NgramBackend(corpus, order=3)
    result = backend.echo_logprobs("ab")
    lp_b = result[1].logprob
    assert lp_b > -math.log(256.0)
    expected = count_oracle(corpus.encode(), b"a", ord("b"))
    assert lp_b == pytest.approx(math.log(expected), abs=1e-12)


def test_aaab_order2_hand_counts():
    corpus = "aaab"
    backend = NgramBackend(corpus, order=2)
    # count("aaa") = 1, occurrences of "aa" followed by any byte = 2
    assert backend.conditional("aa", ord("a")) == pytest.approx(2 / 258, abs=1e-15)
    assert backend.conditional("aa", ord("b")) == pytest.approx(2 / 258, abs=1e-15)
    assert backend.conditional("aa", ord("c")) == pytest.approx(1 / 258, abs=1e-15)
    oracle = count_oracle(corpus.encode(), b"aa", ord("a"))
    assert backend.conditional("aa", ord("a")) == pytest.approx(oracle, abs=1e-15)


def test_conditionals_normalize_for_random_contexts():
    rng = random.Random(9)
    corpus = "".join(rng.choice("abcab \n") for _ in range(500))
    backend = NgramBackend(corpus, order=3)
    for _ in range(100):
        length = rng.randint(0, 3)
        ctx = bytes(rng.randrange(256) for _ in range(length))
        total = sum(backend.conditional(ctx, b) for b in range(256))
        assert total == pytest.approx(1.0, abs=1e-9)


def test_prefix_repetition_boosts_later_occurrence():
    backend = NgramBackend("", order=4)
    text = "click[buy] now and again click[buy]"
    result = backend.echo_logprobs(text)
    first = sum(t.logprob for t in result[0:10])
    second = sum(t.logprob for t in result[25:35])
    assert text[25:35] == "click[buy]"
    assert second > first


def test_echo_tokens_tile_text_with_multibyte_chars():
    backend = NgramBackend("héllo wörld", order=2)
    text = "héllo"
    result = backend.echo_logprobs(text)
    assert "".join(t.text for t in result) == text
    assert [t.char_start for t in result] == list(range(len(text)))


def test_echo_top_k_distribution_shape():
    backend = NgramBackend("abcabcabc", order=2)
    result = backend.echo_logprobs("abc", want_top_k=5)
    for token in result:
        assert token.top is not None
        assert len(token.top.top) == 5
        mass = sum(math.exp(lp) for _, lp in token.top.top)
        assert mass <= 1.0 + 1e-9
        assert token.top.residual_mass == pytest.approx(1.0 - mass, abs=1e-9)


def test_ngram_order_bounds():
    with pytest.raises(ValueError):
        NgramBackend("x", order=0)
    with pytest.raises(ValueError):
        NgramBackend("x", order=6)


def test_generate_truncates_at_stop():
    corpus = "Action: click[buy]\nObservation: ok\n" * 30
    backend = NgramBackend(corpus, order=4)
    out = backend.generate("Action: click[", stop=["\nObservation"], max_tokens=64)
    assert out == "buy]"
    assert "\nObservation" not in out


def test_generate_deterministic():
    backend = NgramBackend("to be or not to be, that is the question", order=3)
    a = backend.generate("to be", max_tokens=32)
    b = backend.generate("to be", max_tokens=32)
    assert a == b


def test_generate_empty_completion_is_error():
    backend = NgramBackend("XXXXXXXX", order=2)
    with pytest.raises(BackendError, match="empty"):
        backend.generate("X", stop=["X"], max_tokens=8)


def test_generate_max_tokens_bounds_length():
    backend = NgramBackend("abcdefgh" * 4, order=2)
    out = backend.generate("abc", max_tokens=5)
    assert 1 <= len(out.encode("utf-8")) <= 5


def brute_ranking(corpus: bytes, prefix: bytes, ctx: bytes) -> tuple[list[int], dict[int, float]]:
    """All 256 bytes ranked by (-count, byte), with their oracle conditionals.

    Within one context the denominator is fixed, so ranking by probability is
    ranking by count, and unseen bytes follow in ascending order."""
    p = {b: oracle_conditional(corpus, prefix, ctx, b) for b in range(256)}
    return sorted(p, key=lambda b: (-p[b], b)), p


def brute_generate(corpus: bytes, prompt: str, order: int, stop: list[str], max_tokens: int) -> str:
    data = prompt.encode("utf-8")
    generated = b""
    stop_bytes = [s.encode("utf-8") for s in stop if s]
    for _ in range(max_tokens):
        best = brute_ranking(corpus, data, data[-order:])[0][0]
        data += bytes([best])
        generated += bytes([best])
        if any(sb in generated for sb in stop_bytes):
            break
    cut = min([generated.find(sb) for sb in stop_bytes if sb in generated], default=len(generated))
    return generated[:cut].decode("utf-8", errors="replace")


_NGRAM_TEXT = st.text(alphabet="ab \n[é€𝄞", max_size=16)


@settings(max_examples=100)
@given(
    corpus=_NGRAM_TEXT,
    text=_NGRAM_TEXT.filter(bool),
    prompt=_NGRAM_TEXT,
    order=st.integers(1, 5),
    k=st.integers(0, 4),
    stop=st.lists(st.text(alphabet="ab\né", min_size=1, max_size=2), max_size=2),
)
# Contexts that occur in the corpus and earlier in the echoed text or the
# prompt, so a lookup reads the text's table, which is counted over the
# corpus table, before the corpus.
@example(corpus="ab ab", text="ab ab ab", prompt="ab ab", order=2, k=2, stop=[])
@example(corpus="ab é ab", text="é ab é ab", prompt="ab é", order=3, k=3, stop=["\n"])
@example(corpus="a[a[", text="a[a[a[", prompt="[a[a", order=1, k=1, stop=[])
@example(corpus="ab", text="a", prompt="acaca", order=1, k=0, stop=[])
# A completion that revisits a context whose counts tie, in the corpus and in
# the prompt: the oracle counts the completion's own bytes, which only widen
# the lead of the byte picked there.
@example(corpus="abac", text="b", prompt="a", order=1, k=0, stop=[])
@example(corpus="", text="a", prompt="abaca", order=1, k=0, stop=[])
@example(corpus="xab xac x", text="é", prompt=" xa", order=2, k=0, stop=["\n"])
# A character's first byte follows a context that no table holds while its
# continuation byte follows a counted one: in the corpus, then earlier in the text.
@example(corpus="é", text="aé", prompt="", order=1, k=2, stop=[])
@example(corpus="", text="éaé", prompt="é", order=1, k=0, stop=[])
# Top-k at contexts that no table holds, before and after the text counts any.
@example(corpus="", text="ab €ab", prompt="b", order=2, k=4, stop=[])
def test_ngram_matches_brute_force_counts(corpus, text, prompt, order, k, stop):
    backend = NgramBackend(corpus, order)
    corpus_bytes = corpus.encode("utf-8")
    # The second call of each kind runs on the same backend and extends the
    # first one's text: an echo keeps nothing of the one before, while
    # generation counts only the new bytes of its prompt.
    for echoed in (text, text + prompt):
        data = echoed.encode("utf-8")
        result = backend.echo_logprobs(echoed, want_top_k=k)
        i = 0
        for char, token in zip(echoed, result):
            ranked, p = brute_ranking(corpus_bytes, data[:i], data[max(0, i - order) : i])
            expected = [(chr(b) if 32 <= b < 127 else f"\\x{b:02x}", math.log(p[b])) for b in ranked[:k]]
            if k:
                assert token.top.top == tuple(expected)
                mass = 0.0
                for b in ranked[:k]:
                    mass += p[b]
                assert token.top.residual_mass.hex() == max(0.0, 1.0 - mass).hex()
            else:
                assert token.top is None
            logprob = 0.0
            for b in char.encode("utf-8"):
                logprob += math.log(oracle_conditional(corpus_bytes, data[:i], data[max(0, i - order) : i], b))
                i += 1
            assert token.logprob.hex() == logprob.hex()
    for generated_from in (prompt, prompt + text):
        expected_text = brute_generate(corpus_bytes, generated_from, order, stop, 8)
        if expected_text:
            assert backend.generate(generated_from, stop=stop, max_tokens=8) == expected_text
        else:
            with pytest.raises(BackendError, match="empty"):
                backend.generate(generated_from, stop=stop, max_tokens=8)


_ANY_TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=12)


@settings(max_examples=100)
@given(
    corpus=_NGRAM_TEXT,
    order=st.integers(1, 5),
    first=_ANY_TEXT.filter(bool),
    second=_ANY_TEXT,
    k=st.sampled_from([0, 5]),
)
def test_ngram_echo_tiles_any_text(corpus, order, first, second, k):
    backend = NgramBackend(corpus, order)
    # The later texts share a prefix with the one before, on the same backend.
    for text in (first, first + second, first[: len(first) // 2] + second or "a"):
        tokens = backend.echo_logprobs(text, want_top_k=k)
        end = 0
        for token in tokens:
            assert (token.char_start, token.char_end) == (end, end + len(token.text))
            end = token.char_end
        assert "".join(token.text for token in tokens) == text


_SPAN_TEXT = st.text(alphabet="ab [\né€𝄞", min_size=1, max_size=24)


@st.composite
def _text_and_spans(draw) -> tuple[str, list[tuple[int, int]]]:
    """A text and sorted, disjoint, non-empty character spans of it, as
    ``build_prompt`` makes them; some touch, some start at 0 and some end at
    the text's end."""
    text = draw(_SPAN_TEXT)
    cuts = sorted(draw(st.lists(st.integers(0, len(text)), min_size=2, max_size=8)))
    spans = [(a, b) for a, b in zip(cuts[::2], cuts[1::2]) if a < b]
    return text, spans or [(0, len(text))]


def echo_scores(backend: NgramBackend, text: str, spans, k: int) -> tuple[list, str | None]:
    """What ``pipeline`` reads of ``backend``'s echo over ``spans``: each span's
    summed logprob and token count, and the mean entropy, as exact hex."""
    echo = backend.echo_logprobs(text, want_top_k=k)
    steps, dists = [], []
    for first, last in map_spans_to_tokens(PromptBundle(text, tuple(spans)), echo):
        tokens = echo[first:last]
        steps.append([sum_floats(token.logprob for token in tokens).hex(), len(tokens)])
        dists.extend(token.top for token in tokens if token.top)
    return steps, mean_entropy(dists).hex() if dists else None


@settings(max_examples=150)
@given(
    corpus=st.one_of(st.just(""), _NGRAM_TEXT),
    order=st.integers(1, 5),
    case=_text_and_spans(),
    k=st.sampled_from([0, 2, 5]),
)
# One span inside the first ``order`` bytes, whose contexts are short, and one
# that ends the text, after a 4-byte character.
@example(corpus="", order=5, case=("aé€b ab𝄞", [(1, 2), (6, 8)]), k=5)
@example(corpus="ab é€𝄞 ab\n", order=3, case=("é€𝄞 ab é€𝄞", [(0, 2), (3, 5), (8, 10)]), k=2)
# Each span's characters repeat a context counted between spans, and in the corpus.
@example(corpus="ab ab [", order=2, case=("ab ab ab [ab", [(3, 5), (9, 12)]), k=5)
def test_score_spans_equals_the_echo_path_bit_for_bit(corpus, order, case, k):
    text, spans = case
    backend = NgramBackend(corpus, order)
    steps, entropy = backend.score_spans(text, spans, k)
    hex_steps = [[total.hex(), count] for total, count in steps]
    hex_entropy = None if entropy is None else entropy.hex()
    assert (hex_steps, hex_entropy) == echo_scores(backend, text, spans, k)


def echo_key(result) -> list[tuple]:
    return [(t.text, t.char_start, t.char_end, t.logprob.hex(), t.top) for t in result]


def generate_outcome(backend: NgramBackend, prompt: str) -> str:
    try:
        return backend.generate(prompt, stop=["\n"], max_tokens=6)
    except BackendError as exc:
        return f"error: {exc}"


_REUSE_TEXT = st.text(alphabet="ab \né€𝄞", max_size=10)
_ECHO_CALLS = st.lists(
    # (characters kept from the previous text, new suffix, top-k width)
    st.tuples(st.integers(0, 24), _REUSE_TEXT, st.sampled_from([0, 2, 5])),
    min_size=1,
    max_size=8,
)
_GENERATE_CALLS = st.lists(st.tuples(st.booleans(), _REUSE_TEXT), min_size=1, max_size=8)


def echo_texts(calls) -> list[tuple[str, int]]:
    """Texts that share random prefixes with the one before; some repeat it
    whole and some are shorter than any order."""
    texts, previous = [], ""
    for keep, suffix, k in calls:
        previous = previous[:keep] + suffix or "a"
        texts.append((previous, k))
    return texts


def generate_prompts(calls) -> list[str]:
    """Prompts that extend the one before, or start afresh."""
    prompts, previous = [], ""
    for extend, suffix in calls:
        previous = previous + suffix if extend else suffix
        prompts.append(previous)
    return prompts


@settings(max_examples=60)
@given(corpus=_NGRAM_TEXT, order=st.integers(1, 5), calls=_ECHO_CALLS)
def test_echo_prefix_reuse_matches_a_fresh_backend(corpus, order, calls):
    """Echoes on one backend of texts that share prefixes with the one before
    equal a fresh backend's: an echo leaves nothing behind for the next."""
    backend = NgramBackend(corpus, order)
    for text, k in echo_texts(calls):
        expected = NgramBackend(corpus, order).echo_logprobs(text, want_top_k=k)
        assert echo_key(backend.echo_logprobs(text, want_top_k=k)) == echo_key(expected)


@settings(max_examples=60)
@given(corpus=_NGRAM_TEXT, order=st.integers(1, 5), calls=_GENERATE_CALLS)
def test_generate_prompt_reuse_matches_a_fresh_backend(corpus, order, calls):
    backend = NgramBackend(corpus, order)
    for prompt in generate_prompts(calls):
        assert generate_outcome(backend, prompt) == generate_outcome(NgramBackend(corpus, order), prompt)


# Corpora and prompts whose greedy walks often run over several lines, and
# can reach "\nObservation" after an action line.
_LINE_TEXT = st.lists(
    st.sampled_from(["a", "b", "[", "\n", "\n", "b\na", "é", "€", "𝄞", "Action: ", "\nObservation: "]),
    max_size=16,
).map("".join)


@settings(max_examples=100)
@given(
    corpus=_LINE_TEXT,
    order=st.integers(1, 5),
    calls=st.lists(st.tuples(st.booleans(), _LINE_TEXT), min_size=1, max_size=4),
    max_tokens=st.integers(1, 24),
)
@example(corpus="Action: click[buy]\nObservation: ok\n" * 3, order=4, calls=[(False, "Action: c")],
         max_tokens=24)  # fmt: skip
@example(corpus="ab\nab\n", order=2, calls=[(False, "ab")], max_tokens=8)  # the first line is empty
def test_stopping_at_a_newline_yields_the_first_line_of_the_longer_walk(
    corpus, order, calls, max_tokens
):
    """Greedy generation does not depend on ``stop``, which only ends the
    walk: a walk stopped at "\\n" returns the first line of the one stopped
    at "\\nObservation", and ``parse_action`` reads the same action from
    both whenever that line holds one. On fresh backends, and on one reused
    backend whose prompt table each call extends or replaces."""
    reused = NgramBackend(corpus, order)
    for prompt in generate_prompts(calls):
        fresh = (NgramBackend(corpus, order), NgramBackend(corpus, order))
        for longer, shorter in (fresh, (reused, reused)):
            try:
                whole = longer.generate(prompt, stop=["\nObservation"], max_tokens=max_tokens)
            except BackendError:
                whole = ""
            first_line = whole.split("\n", 1)[0]
            if not first_line:
                with pytest.raises(BackendError, match="empty"):
                    shorter.generate(prompt, stop=["\n"], max_tokens=max_tokens)
                continue
            line = shorter.generate(prompt, stop=["\n"], max_tokens=max_tokens)
            assert line == first_line
            if parse_action(line):
                assert parse_action(line) == parse_action(whole)


def test_prefix_reuse_is_exact_under_eight_threads(monkeypatch):
    """Eight threads share one backend, each interleaving echoes with
    generations whose prompts extend its previous one, and each gets a fresh
    backend's results. Only generation keeps state between calls: its
    per-thread prompt table."""
    rng = random.Random(17)
    corpus = "".join(rng.choice("ab \né[]") for _ in range(300))
    order = 3
    alphabet = "ab \né€"

    def suffix() -> str:
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))

    # Every thread starts from one shared text, as every prompt of a pool
    # opens with the same instruction and guideline.
    base = "".join(rng.choice(alphabet) for _ in range(80))
    work = []
    for _ in range(8):
        echo_calls = [(0, base, 5)] + [(rng.randint(0, 120), suffix(), rng.choice([0, 5])) for _ in range(35)]
        generate_calls = [(turn > 0, suffix() if turn else base) for _ in range(12) for turn in range(3)]
        texts, prompts = echo_texts(echo_calls), generate_prompts(generate_calls)
        expected = (
            [echo_key(NgramBackend(corpus, order).echo_logprobs(t, k)) for t, k in texts],
            [generate_outcome(NgramBackend(corpus, order), p) for p in prompts],
        )
        work.append((texts, prompts, expected))

    shared = NgramBackend(corpus, order)
    barrier = threading.Barrier(8)
    results: list = [None] * 8

    def worker(n: int) -> None:
        texts, prompts, _ = work[n]
        barrier.wait()
        echoes, generations = [], []
        for (text, k), prompt in zip(texts, prompts):  # interleave both kinds
            echoes.append(echo_key(shared.echo_logprobs(text, k)))
            generations.append(generate_outcome(shared, prompt))
        results[n] = (echoes, generations)

    count = backends._count

    def yielding_count(*args) -> None:  # hand the interpreter to another thread
        time.sleep(0)
        count(*args)

    monkeypatch.setattr(backends, "_count", yielding_count)
    threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for n in range(8):
        assert results[n] == work[n][2]


def echo_top_k(backend: NgramBackend, text: str, k: int) -> list[tuple[list, str]]:
    return [
        ([(t, lp.hex()) for t, lp in token.top.top], token.top.residual_mass.hex())
        for token in backend.echo_logprobs(text, want_top_k=k)
    ]


def expected_top_k(corpus: str, order: int, text: str, k: int) -> list[tuple[list, str]]:
    corpus_bytes, data = corpus.encode("utf-8"), text.encode("utf-8")
    expected, i = [], 0
    for char in text:
        counts = reference_counts(corpus_bytes, data[:i], data[max(0, i - order) : i])
        expected.append(reference_top_k(*counts, k))
        i += len(char.encode("utf-8"))
    return expected


@settings(max_examples=60)
@given(
    models=st.lists(st.tuples(_NGRAM_TEXT, st.integers(1, 5)), min_size=2, max_size=3),
    calls=st.lists(
        st.tuples(st.integers(0, 2), _NGRAM_TEXT.filter(bool), st.sampled_from([1, 5, 300])),
        min_size=1,
        max_size=6,
    ),
)
def test_memoized_top_k_matches_an_unmemoized_reference(models, calls):
    # Backends over different corpora and orders, in one process, share one
    # memo of distributions; every one must still get its own exact values.
    shared = [NgramBackend(corpus, order) for corpus, order in models]
    for which, text, k in calls:
        n = which % len(models)
        assert echo_top_k(shared[n], text, k) == expected_top_k(*models[n], text, k)
    # After "x" both texts have counted a twice and b once, in a different
    # order; the memo hands both the same distribution object.
    first, second = (
        NgramBackend("", 1).echo_logprobs(text, 5)[-1].top for text in ("xaxaxbxc", "xbxaxaxc")
    )
    assert first is second


def test_memoized_top_k_is_exact_under_eight_threads(monkeypatch):
    rng = random.Random(23)
    corpus = "".join(rng.choice("ab \né[]") for _ in range(200))
    order = 3
    base = "".join(rng.choice("ab \né€") for _ in range(40))
    work = []
    for _ in range(8):
        calls = [
            (base[: rng.randint(0, 40)] + "".join(rng.choice("ab \né€") for _ in range(rng.randint(1, 20))),
             rng.choice([1, 5, 300]))
            for _ in range(6)
        ]
        work.append((calls, [expected_top_k(corpus, order, text, k) for text, k in calls]))

    shared = NgramBackend(corpus, order)
    barrier = threading.Barrier(8)
    results: list = [None] * 8

    def worker(n: int) -> None:
        barrier.wait()
        results[n] = [echo_top_k(shared, text, k) for text, k in work[n][0]]

    distribution = backends._distribution

    def yielding_distribution(*args):  # hand the interpreter to another thread
        time.sleep(0)
        return distribution(*args)

    distribution.cache_clear()  # so threads race to fill the memo
    monkeypatch.setattr(backends, "_distribution", yielding_distribution)
    threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for n in range(8):
        assert results[n] == work[n][1]


def test_fingerprint_depends_on_corpus():
    a = NgramBackend("corpus one", order=3)
    b = NgramBackend("corpus two", order=3)
    c = NgramBackend("corpus one", order=3)
    assert a.id.fingerprint == c.id.fingerprint
    assert a.id.fingerprint != b.id.fingerprint
    # a named model must not hide the order
    low = NgramBackend("abc", 2, model="m")
    high = NgramBackend("abc", 5, model="m")
    assert low.id.fingerprint != high.id.fingerprint


def test_hash_embed_identical_and_empty():
    backend = HashEmbedBackend()
    a = backend.embed("red mango snack")
    b = backend.embed("red mango snack")
    assert a == b
    dot = sum(x * y for x, y in zip(a, b))
    assert dot == pytest.approx(1.0, abs=1e-9)
    zero = backend.embed("")
    assert all(v == 0.0 for v in zero)
    assert sum(x * y for x, y in zip(zero, a)) == 0.0


def test_hash_embed_norm_is_one():
    backend = HashEmbedBackend()
    rng = random.Random(4)
    words = ["alpha", "beta", "gamma", "delta", "lamp", "mug", "red", "blue"]
    for _ in range(50):
        text = " ".join(rng.choice(words) for _ in range(rng.randint(1, 10)))
        vec = backend.embed(text)
        norm = math.sqrt(sum(v * v for v in vec))
        assert norm == pytest.approx(1.0, abs=1e-9)


def test_hash_embed_disjoint_vocab_orthogonal_when_no_collisions():
    backend = HashEmbedBackend()
    left = ["piano", "violin", "cello"]
    right = ["granite", "basalt", "quartz"]
    buckets_left = {backend.bucket_and_sign(w)[0] for w in left}
    buckets_right = {backend.bucket_and_sign(w)[0] for w in right}
    assert not buckets_left & buckets_right  # hashing oracle: no shared buckets
    a = backend.embed(" ".join(left))
    b = backend.embed(" ".join(right))
    assert sum(x * y for x, y in zip(a, b)) == pytest.approx(0.0, abs=1e-12)


def dense_embed(backend: HashEmbedBackend, text: str) -> list[float]:
    """Reference embedding: accumulate into every dimension, normalize all."""
    vec = [0.0] * EMBED_DIMENSIONS
    for token in re.findall(r"[a-z0-9]+", text.lower()):
        index, sign = backend.bucket_and_sign(token)
        vec[index] += sign
    norm = math.sqrt(sum(v * v for v in vec))
    return vec if norm == 0.0 else [v / norm for v in vec]


def test_hash_embed_matches_dense_reference_bit_for_bit():
    backend = HashEmbedBackend()
    words = [f"w{i}" for i in range(2000)]
    seen: dict[int, tuple[str, float]] = {}
    for word in words:  # two words that land in one bucket with opposite signs
        index, sign = backend.bucket_and_sign(word)
        if index in seen and seen[index][1] == -sign:
            cancelling = (seen[index][0], word)
            break
        seen.setdefault(index, (word, sign))
    cancelled = backend.bucket_and_sign(cancelling[0])[0]
    texts = ["", "!!", "red mango", "Mug mug MUG", " ".join(cancelling), " ".join(cancelling) + " lamp"]
    rng = random.Random(6)
    texts += [" ".join(rng.choice(words[:40]) for _ in range(rng.randint(1, 30))) for _ in range(200)]
    for text in texts:
        got = backend.embed(text)
        assert [v.hex() for v in got] == [v.hex() for v in dense_embed(backend, text)]
    with_lamp = backend.embed(" ".join(cancelling) + " lamp")
    assert with_lamp[cancelled].hex() == "0x0.0p+0"  # cancelled to +0.0, not -0.0
    assert sum(v * v for v in with_lamp) == pytest.approx(1.0)


def test_hash_embed_hashes_a_repeated_word_once(monkeypatch):
    backend = HashEmbedBackend()
    hashed: list[str] = []
    bucket_and_sign = backend.bucket_and_sign

    def counting(token: str) -> tuple[int, float]:
        hashed.append(token)
        return bucket_and_sign(token)

    monkeypatch.setattr(backend, "bucket_and_sign", counting)
    texts = ["Red mug red MUG lamp", "red lamp", "mug"]
    got = [backend.embed(text) for text in texts]
    assert sorted(hashed) == ["lamp", "mug", "red"]
    fresh = HashEmbedBackend()
    assert [[v.hex() for v in vec] for vec in got] == [
        [v.hex() for v in dense_embed(fresh, text)] for text in texts
    ]


def test_hash_embed_tokenization_rules():
    backend = HashEmbedBackend()
    assert backend.embed("Red-MANGO!") == backend.embed("red mango")


def test_cache_key_contracts():
    bid_a = BackendId(kind="ngram", model="m1")
    bid_b = BackendId(kind="ngram", model="m2")
    body = canonical_request({"op": "echo", "text": "hi", "top_k": 0})
    assert cache_key(bid_a, body) == cache_key(bid_a, body)
    assert cache_key(bid_a, body) != cache_key(bid_a, body + " ")
    assert cache_key(bid_a, body) != cache_key(bid_b, body)
    # the first 128 bits of the SHA-256 of fingerprint and body, in base64url
    key = cache_key(bid_a, body)
    digest = hashlib.sha256((bid_a.fingerprint + "\n" + body).encode("utf-8")).digest()
    assert re.fullmatch(r"[A-Za-z0-9_-]{22}", key)
    assert base64.urlsafe_b64decode(key + "==") == digest[:16]


def test_response_cache_persistence(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(path)
    cache.put("k1", {"value": 1})
    cache.put("k2", "text")
    reloaded = ResponseCache(path)
    assert reloaded.get("k1") == {"value": 1}
    assert reloaded.get("k2") == "text"
    assert len(reloaded) == 2


def test_response_cache_tolerates_torn_final_line(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(path)
    cache.put("k1", "ok")
    with path.open("a", encoding="utf-8") as handle:
        handle.write('{"key":"k2","resp')  # simulated crash mid-append
    reloaded = ResponseCache(path)
    assert reloaded.get("k1") == "ok"
    assert reloaded.get("k2") is None


def test_response_cache_counts_skipped_lines_and_appends_past_a_torn_one(tmp_path):
    path = tmp_path / "cache.jsonl"
    ResponseCache(path).put("k1", "ok")
    with path.open("ab") as handle:
        handle.write(b'[1]\n{"response":2}\nnot json\n\n{"key":"k2","response":"\xc3')
    cache = ResponseCache(path)
    assert cache.get("k1") == "ok" and len(cache) == 1
    assert cache.skipped_lines == 4  # the blank line is not counted
    cache.put("k3", "new")
    reloaded = ResponseCache(path)
    assert reloaded.get("k3") == "new"
    assert reloaded.skipped_lines == 4


@pytest.mark.parametrize(
    "bad_line",
    [
        b'["k9",{"steps":[[-1.5,',
        b'["k9",null]\n',
        b'{"key":"%s","response":"x"}\n' % hashlib.sha256(b"k9").hexdigest().encode(),
    ],
    ids=["torn-list", "null-response", "hex-keyed-object"],
)
def test_response_cache_skips_a_line_that_is_no_entry_and_appends_past_it(tmp_path, bad_line):
    """Only a ``[key, response]`` list line is an entry. A torn list line, a
    null response and a ``{"key", "response"}`` object line, as caches held
    before entries were lists, are skipped lines; the next append starts on
    a fresh line."""
    path = tmp_path / "cache.jsonl"
    path.write_bytes(b'["k1","a"]\n["k2",{"steps":[[-1.5,2]]}]\n' + bad_line)
    cache = ResponseCache(path)
    assert (cache.get("k1"), cache.get("k2")) == ("a", {"steps": [[-1.5, 2]]})
    assert cache.get("k9") is None
    assert len(cache) == 2 and cache.skipped_lines == 1
    before = path.read_bytes()
    cache.put("k4", "d")
    fresh_line = b"" if bad_line.endswith(b"\n") else b"\n"
    assert path.read_bytes() == before + fresh_line + b'["k4","d"]\n'
    reloaded = ResponseCache(path)
    assert reloaded.get("k4") == "d" and len(reloaded) == 3 and reloaded.skipped_lines == 1


def test_response_cache_two_writers_never_interleave_entries(tmp_path):
    path = tmp_path / "cache.jsonl"
    caches = [ResponseCache(path), ResponseCache(path)]
    payload = "é" * 50_000  # about 100 KB of UTF-8 per entry

    def writer(worker: int) -> None:
        cache = caches[worker % 2]
        for i in range(12):
            cache.put(f"w{worker}-{i}", {"worker": worker, "i": i, "text": payload})

    threads = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    entries = cache_entries(path)
    assert len(entries) == 48
    for _, response in entries:
        assert response["text"] == payload
    fresh = ResponseCache(path)
    assert len(fresh) == 48
    for worker in range(4):
        for i in range(12):
            assert fresh.get(f"w{worker}-{i}") == {"worker": worker, "i": i, "text": payload}


def test_response_cache_short_write_raises(tmp_path, monkeypatch):
    cache = ResponseCache(tmp_path / "cache.jsonl")
    real_write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:10]))
    with pytest.raises(OSError, match="short write"):
        cache.put("k", "value")
    assert cache.get("k") is None


def test_response_cache_first_write_wins(tmp_path):
    cache = ResponseCache(tmp_path / "cache.jsonl")
    assert cache.put("k", "first") == "first"
    assert cache.put("k", "second") == "first"
    assert cache.get("k") == "first"


def test_cached_backend_zero_calls_when_warm(tmp_path):
    counting = CountingBackend(NgramBackend("abcabc", order=2))
    cache = ResponseCache(tmp_path / "cache.jsonl")
    backend = CachedBackend(counting, cache)
    first = backend.generate("abc", max_tokens=4)
    assert counting.counts["generate"] == 1
    second = backend.generate("abc", max_tokens=4)
    assert counting.counts["generate"] == 1
    assert first == second
    # warm cache survives reload
    fresh = CachedBackend(counting, ResponseCache(tmp_path / "cache.jsonl"))
    assert fresh.generate("abc", max_tokens=4) == first
    assert counting.counts["generate"] == 1


def test_concurrent_cache_access_single_entry(tmp_path):
    counting = CountingBackend(NgramBackend("xyzxyz", order=2))
    cache = ResponseCache(tmp_path / "cache.jsonl")
    backend = CachedBackend(counting, cache)
    results = []
    threads = [
        threading.Thread(target=lambda: results.append(backend.generate("xyz", max_tokens=4)))
        for _ in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 8
    assert all(r == results[0] for r in results)
    assert 1 <= counting.counts["generate"] <= 8
    assert len(ResponseCache(tmp_path / "cache.jsonl")) == 1
    lines = (tmp_path / "cache.jsonl").read_text().splitlines()
    assert len(lines) == 1


def test_build_backend_kinds():
    assert isinstance(build_backend({"kind": "ngram", "order": 2, "corpus": "ab"}), NgramBackend)
    assert isinstance(
        build_backend({"kind": "http", "model": "m", "endpoint": "http://x"}), HttpBackend
    )
    for kind in ("quantum", "hash_embed"):
        with pytest.raises(FormatError, match=f"got '{kind}'"):
            build_backend({"kind": kind})
    with pytest.raises(FormatError):
        build_backend({"kind": "http", "model": "m"})


@pytest.mark.parametrize(
    "entry, needle",
    [
        ({"kind": "ngram", "ordr": 5}, "'ordr'"),
        ({"kind": "ngram", "order": 2, "dimensions": 8}, "'dimensions'"),
        ({"kind": "http", "model": "m", "endpoint": "http://x", "order": 2}, "'order'"),
        ({"kind": "http", "model": "m", "endpoint": "http://x", "corpus": ""}, "'corpus'"),
        ({"kind": ["x"]}, "kind"),
        ({"order": 3}, "kind"),
        ("ngram", "backend entry"),
        ({"kind": "http", "endpoint": "http://x"}, "model"),
    ],
)
def test_build_backend_rejects_entries_of_the_wrong_shape(entry, needle):
    with pytest.raises(FormatError, match=re.escape(needle)):
        build_backend(entry)


def test_http_echo_parses_offsets_and_sentinel(local_server):
    local_server.handler = lambda path, body: (200, echo_response(body["prompt"]))
    backend = HttpBackend(model="m", endpoint=local_server.url, backoff=0.0)
    text = "score this prompt"
    result = backend.echo_logprobs(text, want_top_k=2)
    assert "".join(t.text for t in result) == text
    assert result[0].logprob is None
    assert all(t.logprob is not None and t.logprob <= 0 for t in result[1:])
    assert result[1].top is not None
    path, body, headers = local_server.requests[0]
    assert path == "/completions"
    assert body["max_tokens"] == 0 and body["echo"] is True and body["temperature"] == 0


def echo_payload(**changes) -> dict:
    """A well-formed echo of "score this prompt", with ``changes`` applied
    to its logprobs object."""
    logprobs = {
        "tokens": ["score ", "this ", "prompt"],
        "token_logprobs": [None, -0.5, -0.75],
        "text_offset": [0, 6, 11],
        "top_logprobs": [None, {"this ": -0.5, " other": -1.5}, {"prompt": -0.75}],
    }
    logprobs.update(changes)
    return {"choices": [{"text": "score this prompt", "logprobs": logprobs}]}


@pytest.mark.parametrize(
    "changes",
    [
        {"token_logprobs": [None, "x", -0.75]},
        {"token_logprobs": [None, float("inf"), -0.75]},
        {"token_logprobs": [None, float("nan"), -0.75]},
        {"token_logprobs": [None, 10**400, -0.75]},
        {"token_logprobs": [None, True, -0.75]},
        {"top_logprobs": [None, {"this ": "x"}, None]},
        {"top_logprobs": [None, {"this ": float("-inf")}, None]},
        {"top_logprobs": [None, {"this ": None}, None]},
        {"text_offset": [0, 6.5, 11]},
        {"text_offset": [0, "6", 11]},
        {"tokens": ["score ", 5, "prompt"]},
        {"tokens": ["score ", "this\ud800", "prompt"]},
        {"tokens": "score this prompt"},
        {"tokens": 3, "top_logprobs": None},
        {"text_offset": {"0": 0}},
        {"top_logprobs": {"1": None}},
        {"top_logprobs": [None, {"this ": -0.01, " other": -0.01}, None]},  # mass 1.98
        {"top_logprobs": [None, ["x"], None]},
        {"top_logprobs": [None, 5, None]},
    ],
)
def test_http_echo_malformed_logprobs_raise_backend_error(local_server, changes):
    backend = HttpBackend(model="m", endpoint=local_server.url, backoff=0.0)
    local_server.handler = lambda path, body: (200, echo_payload())
    assert len(backend.echo_logprobs("score this prompt", want_top_k=2)) == 3
    local_server.handler = lambda path, body: (200, echo_payload(**changes))
    with pytest.raises(BackendError, match="malformed echo logprobs"):
        backend.echo_logprobs("score this prompt", want_top_k=2)


@pytest.mark.parametrize(
    "offsets", [[0, 7, 11], [0, 5, 11], [1, 7, 12]], ids=["gap", "overlap", "nonzero-start"]
)
def test_http_echo_rejects_offsets_that_do_not_tile_the_prompt(local_server, offsets):
    # The token texts still join to the prompt: only the offsets are wrong.
    local_server.handler = lambda path, body: (200, echo_payload(text_offset=offsets))
    backend = HttpBackend(model="m", endpoint=local_server.url, backoff=0.0)
    with pytest.raises(BackendError, match="does not tile the submitted prompt"):
        backend.echo_logprobs("score this prompt", want_top_k=2)


@pytest.mark.parametrize(
    "changes",
    [
        {"token_logprobs": [None, -0.5]},
        {"tokens": ["score ", "this ", "prompt", ""], "text_offset": [0, 6, 11, 17]},
    ],
    ids=["logprob-missing", "extra-empty-token"],
)
def test_http_echo_rejects_lists_of_unequal_length(local_server, changes):
    # Zipped, the first would fail the tiling check and the second would
    # pass it with its last token dropped.
    local_server.handler = lambda path, body: (200, echo_payload(**changes))
    backend = HttpBackend(model="m", endpoint=local_server.url, backoff=0.0)
    with pytest.raises(BackendError, match="malformed echo logprobs: 'tokens', 'token_logprobs'"):
        backend.echo_logprobs("score this prompt", want_top_k=2)


@pytest.mark.parametrize("kind", ["ngram", "http"])
@pytest.mark.parametrize(
    "method, args, message",
    [
        ("echo_logprobs", ("",), "echo scoring requires non-empty text"),
        ("generate", ("prompt", (), 0), "max_tokens must be >= 1"),
    ],
    ids=["echo-empty-text", "generate-zero-tokens"],
)
def test_backends_refuse_an_empty_echo_and_a_zero_token_budget(
    local_server, kind, method, args, message
):
    if kind == "ngram":
        backend = NgramBackend("abc", order=2)
    else:
        backend = HttpBackend(model="m", endpoint=local_server.url, backoff=0.0)
    with pytest.raises(BackendError, match=f"^{message}$"):
        getattr(backend, method)(*args)
    assert local_server.requests == []  # refused before any request


@pytest.mark.parametrize("method", ["echo_logprobs", "generate"])
@pytest.mark.parametrize(
    "reply, message",
    [
        (b"<html>busy</html>", "/completions returned non-JSON body: "),
        ({}, "malformed completions response: {}"),
        ({"choices": []}, "malformed completions response: {'choices': []}"),
        ({"choices": None}, "malformed completions response: {'choices': None}"),
        ([], "malformed completions response: []"),
    ],
    ids=["not-json", "no-choices", "empty-choices", "null-choices", "not-an-object"],
)
def test_http_completions_reply_of_the_wrong_shape_raises_backend_error(
    local_server, method, reply, message
):
    local_server.handler = lambda path, body: (200, reply)
    backend = HttpBackend(model="m", endpoint=local_server.url, backoff=0.0)
    with pytest.raises(BackendError, match=re.escape(message)):
        getattr(backend, method)("score this prompt")
    assert len(local_server.requests) == 1  # a 200 reply is not retried


def test_http_bearer_token_from_env(local_server, monkeypatch):
    monkeypatch.setenv("GE_API_KEY", "sekrit")
    local_server.handler = lambda path, body: (200, echo_response(body["prompt"]))
    backend = HttpBackend(model="m", endpoint=local_server.url, backoff=0.0)
    backend.echo_logprobs("hello world")
    _, _, headers = local_server.requests[0]
    assert headers.get("Authorization") == "Bearer sekrit"


def test_http_chat_only_endpoint_rejected(local_server):
    local_server.handler = lambda path, body: (
        200,
        {"choices": [{"message": {"content": "hi"}}]},
    )
    backend = HttpBackend(model="m", endpoint=local_server.url, backoff=0.0)
    with pytest.raises(BackendError, match="completions endpoint"):
        backend.echo_logprobs("hello")


def test_http_retries_then_succeeds(local_server):
    state = {"count": 0}

    def handler(path, body):
        state["count"] += 1
        if state["count"] <= 2:
            return 500, {"error": "busy"}
        return 200, echo_response(body["prompt"])

    local_server.handler = handler
    backend = HttpBackend(model="m", endpoint=local_server.url, backoff=0.0)
    result = backend.echo_logprobs("retry me")
    assert state["count"] == 3
    assert result


def test_http_fails_after_three_retries(local_server):
    local_server.handler = lambda path, body: (500, {"error": "down"})
    backend = HttpBackend(model="m", endpoint=local_server.url, backoff=0.0)
    with pytest.raises(BackendError, match="3 retries"):
        backend.echo_logprobs("never works")
    assert len(local_server.requests) == 4  # initial attempt + 3 retries


def test_http_client_error_not_retried(local_server):
    local_server.handler = lambda path, body: (400, {"error": "bad request"})
    backend = HttpBackend(model="m", endpoint=local_server.url, backoff=0.0)
    with pytest.raises(BackendError, match="HTTP 400"):
        backend.echo_logprobs("nope")
    assert len(local_server.requests) == 1


def test_http_generate_stop_and_defaults(local_server):
    local_server.handler = lambda path, body: (
        200,
        {"choices": [{"text": "click[buy]\nObservation: ok"}]},
    )
    backend = HttpBackend(model="m", endpoint=local_server.url, backoff=0.0)
    out = backend.generate("do something", stop=["\nObservation"])
    assert out == "click[buy]"
    _, body, _ = local_server.requests[0]
    assert body["temperature"] == 0.7
    assert body["top_p"] == 0.95
    assert body["max_tokens"] == 512
    assert body["stop"] == ["\nObservation"]


def test_capability_errors(tmp_path):
    # The generation cache does not echo: scoring caches its spans itself.
    cached = CachedBackend(NgramBackend("abc", order=2), ResponseCache(tmp_path / "c.jsonl"))
    with pytest.raises(BackendError, match="'ngram' does not support echo scoring"):
        cached.echo_logprobs("text")

    class EchoOnly(Backend):
        id = BackendId(kind="echo-only", model="m")

    with pytest.raises(BackendError, match="'echo-only' does not support generation"):
        EchoOnly().generate("text")
