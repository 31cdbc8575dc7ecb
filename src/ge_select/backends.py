"""Model backends: echo logprob scoring and generation.

Two implementations share one duck-typed surface:

- ``NgramBackend``: a deterministic byte-level model for offline runs. Its
  conditionals blend training-corpus counts with counts accumulated over the
  preceding bytes of the text being scored or generated, so material that
  appears earlier in a prompt (for example a guideline) raises the
  probability of matching continuations later in the same prompt. That is
  what lets teacher-forced difficulty react to prompt content at all.
- ``HttpBackend``: an OpenAI-compatible completions endpoint.

``ResponseCache`` is a content-addressed, append-only response log so
repeated runs are reproducible and issue no outbound calls. Scoring stores
only what it consumes of each echo there (``pipeline``);
``CachedBackend`` stores generations.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, NamedTuple, Sequence

from .models import BackendError, FormatError, _read_text, keys, number, string, sum_floats
from .scoring import TokenDistribution

if TYPE_CHECKING:
    import requests

API_KEY_ENV = "GE_API_KEY"
MAX_NGRAM_ORDER = 5


@dataclass(frozen=True)
class BackendId:
    kind: str
    model: str
    endpoint: str = ""
    fingerprint: str = ""

    def __post_init__(self) -> None:
        if not self.fingerprint:
            object.__setattr__(self, "fingerprint", _fingerprint(self.kind, self.model, self.endpoint))


def _fingerprint(kind: str, model: str, endpoint: str, extra: str = "") -> str:
    payload = f"{kind}\n{model}\n{endpoint}\n{extra}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


class EchoToken(NamedTuple):
    """One echoed token. The tokens ``echo_logprobs`` returns tile its text:
    each starts where the one before ends, the first at 0, and their texts
    join to the text."""

    text: str
    char_start: int
    char_end: int
    logprob: float | None
    top: TokenDistribution | None = None


class Backend:
    """Capability surface; concrete backends override what they support."""

    id: BackendId

    def echo_logprobs(self, text: str, want_top_k: int = 0) -> tuple[EchoToken, ...]:
        raise BackendError(f"backend {self.id.kind!r} does not support echo scoring")

    def generate(
        self,
        prompt: str,
        stop: Sequence[str] = (),
        max_tokens: int = 512,
        temperature: float = 0.7,
        top_p: float = 0.95,
    ) -> str:
        raise BackendError(f"backend {self.id.kind!r} does not support generation")


_EMPTY_BUCKET: tuple[int, dict[int, int]] = (0, {})
_NO_COUNTS: dict[bytes, list] = {}  # what the corpus table is counted over


def _count(counts: dict[bytes, list], ctx: bytes, b: int, base: dict[bytes, list]) -> None:
    """Add one ``ctx -> b`` observation to a map of context bytes to
    ``[total, {next byte: count}]``; a key's length is its order. A context
    new to ``counts`` starts from a copy of its bucket in ``base``."""
    bucket = counts.get(ctx)
    if bucket is not None:
        bucket[0] += 1
        following = bucket[1]
        following[b] = following.get(b, 0) + 1
    elif ctx in base:
        total, following = base[ctx]
        counts[ctx] = [total + 1, {**following, b: following.get(b, 0) + 1}]
    else:  # the literal spares an empty base a copy
        counts[ctx] = [1, {b: 1}]


_BYTE_TEXT = tuple(chr(b) if 32 <= b < 127 else f"\\x{b:02x}" for b in range(256))
_LOG_UNSEEN = math.log(1 / 256)  # any byte after a context that no table holds


def _rank(item: tuple[int, int]) -> tuple[int, int]:
    """Sort key of a ``(byte, count)`` pair: most frequent first, ties by byte."""
    return -item[1], item[0]


@functools.lru_cache(maxsize=2048)
def _distribution(total: int, ranked: tuple[tuple[int, int], ...], k: int) -> TokenDistribution:
    """Top-k distribution of a context seen ``total`` times, from the ``k``
    most frequent ``(byte, count)`` pairs of its counts, or all of them when
    there are fewer. Add-one smoothing over small integer counts yields the
    same few inputs again and again, so one bounded memo serves every
    backend and thread; a hit returns the same immutable object."""
    if len(ranked) < k:  # pad with the smallest unseen bytes, which all lie below k
        seen = {b for b, _ in ranked}
        ranked += tuple((b, 0) for b in range(min(k, 256)) if b not in seen)[: k - len(ranked)]
    top = []
    mass = 0.0
    for b, count in ranked:
        p = (count + 1) / (total + 256)
        mass += p
        top.append((_BYTE_TEXT[b], math.log(p)))
    return TokenDistribution(top=tuple(top), residual_mass=max(0.0, 1.0 - mass))


class NgramBackend(Backend):
    """Add-one-smoothed byte model: P(b|ctx) = (count(ctx+b)+1)/(count(ctx)+256).

    ``order`` is the context length in bytes. Counts are the training-corpus
    counts plus the counts of the already-processed prefix of the current
    call, so the model is deterministic but prompt-sensitive. There are two
    tables: the corpus table, and one table per echoed text or generation
    prompt, counted over the corpus table, so a lookup reads the text's table
    and then the corpus. Text tables hold full-order contexts only: shorter
    ones are looked up only before the text has counted any.
    """

    def __init__(self, corpus: str, order: int, model: str = "") -> None:
        if not 1 <= order <= MAX_NGRAM_ORDER:
            raise ValueError(f"ngram order must be in [1, {MAX_NGRAM_ORDER}], got {order}")
        self.order = order
        data = corpus.encode("utf-8")
        self.counts: dict[bytes, list] = {}
        for i, b in enumerate(data):
            for start in range(max(0, i - order), i + 1):
                _count(self.counts, data[start:i], b, _NO_COUNTS)
        corpus_hash = hashlib.sha256(data).hexdigest()[:12]
        # Prefix reuse. ``_echoed`` maps each top-k width to the last echoed
        # ``(text, tokens)``; a snapshot is never mutated, so threads share
        # it. ``_prompt`` holds one ``(prompt bytes, prompt counts)`` per
        # thread, because extending a prompt mutates its table.
        self._echoed: dict[int, tuple[str, tuple[EchoToken, ...]]] = {}
        self._prompt = threading.local()
        name = model or f"ngram-o{order}"
        self.id = BackendId(
            kind="ngram",
            model=name,
            endpoint="",
            fingerprint=_fingerprint("ngram", name, "", f"{corpus_hash}\norder={order}"),
        )

    def conditional(self, context: str | bytes, byte_value: int) -> float:
        """Corpus-only conditional; exposed for direct probability checks."""
        ctx = context.encode("utf-8") if isinstance(context, str) else context
        total, following = self.counts.get(ctx[-self.order :], _EMPTY_BUCKET)
        return (following.get(byte_value, 0) + 1) / (total + 256)

    def echo_logprobs(self, text: str, want_top_k: int = 0) -> tuple[EchoToken, ...]:
        """Echo ``text``, reusing the tokens of the characters it shares with
        the previous text echoed at this top-k width. A token depends only on
        the text up to its end, so the shared ones are exact; only their local
        counts are rebuilt before the loop resumes after them.

        One loop visits each remaining byte. A character's first byte opens
        its token and, at ``want_top_k > 0``, its top-k distribution; a UTF-8
        continuation byte adds its logprob to the open token."""
        if not text:
            raise BackendError("echo scoring requires non-empty text")
        k = want_top_k
        order = self.order
        local: dict[bytes, list] = {}
        data = text.encode("utf-8")
        previous_text, previous = self._echoed.get(k, ("", ()))
        shared = len(os.path.commonprefix([previous_text, text]))
        start = len(text[:shared].encode("utf-8"))
        corpus = self.counts
        for end in range(order, start):
            _count(local, data[end - order : end], data[end], corpus)
        log = math.log
        unseen_top = _distribution(0, (), k) if k > 0 else None
        logprobs: list[float] = []
        tops: list[TokenDistribution | None] = []
        for i in range(start, len(data)):
            b = data[i]
            opens = b & 0xC0 != 0x80  # not a UTF-8 continuation byte
            ctx = data[i - order : i] if i >= order else data[:i]
            # The lookup and ``_count(local, ctx, b, corpus)``, inlined
            # because this loop runs once per byte.
            counted = local.get(ctx)
            bucket = counted or corpus.get(ctx)
            if bucket is None:  # a context in no table: every byte is 1/256
                if opens:
                    logprobs.append(_LOG_UNSEEN)
                    tops.append(unseen_top)
                else:
                    logprobs[-1] += _LOG_UNSEEN
                if i >= order:
                    local[ctx] = [1, {b: 1}]
                continue
            total, following = bucket
            count = following.get(b, 0)
            logprob = log((count + 1) / (total + 256))
            if opens:
                logprobs.append(logprob)
                tops.append(
                    _distribution(total, tuple(sorted(following.items(), key=_rank)[:k]), k)
                    if k > 0
                    else None
                )
            else:
                logprobs[-1] += logprob
            if counted is not None:
                counted[0] = total + 1
                following[b] = count + 1
            elif i >= order:
                local[ctx] = [total + 1, {**following, b: count + 1}]
        n = len(text)
        columns = zip(text[shared:], range(shared, n), range(shared + 1, n + 1), logprobs, tops)
        result = previous[:shared] + tuple(map(EchoToken._make, columns))
        self._echoed[k] = (text, result)
        return result

    def generate(
        self,
        prompt: str,
        stop: Sequence[str] = (),
        max_tokens: int = 512,
        temperature: float = 0.7,
        top_p: float = 0.95,
    ) -> str:
        # Greedy and deterministic; temperature/top_p are accepted for
        # interface parity and ignored. The completion's own bytes are not
        # counted: each pick is the top byte of its context, and counting it
        # only widens its lead, so no later pick could change.
        if max_tokens < 1:
            raise BackendError("max_tokens must be >= 1")
        order = self.order
        data = prompt.encode("utf-8")
        # A prompt that extends this thread's previous one (the next turn of
        # an episode) counts only its new bytes; any other starts afresh.
        counted, prompt_counts = getattr(self._prompt, "table", (b"", {}))
        if not data.startswith(counted):
            counted, prompt_counts = b"", {}
        corpus = self.counts
        for i in range(max(order, len(counted)), len(data)):
            _count(prompt_counts, data[i - order : i], data[i], corpus)
        self._prompt.table = (data, prompt_counts)
        ctx = data[-order:]
        stop_bytes = tuple(s.encode("utf-8") for s in stop if s)
        generated = bytearray()
        for _ in range(max_tokens):
            _, following = prompt_counts.get(ctx) or corpus.get(ctx, _EMPTY_BUCKET)
            best = min(following, key=lambda b: (-following[b], b), default=0)
            ctx = (ctx + bytes((best,)))[-order:]
            generated.append(best)
            if generated.endswith(stop_bytes):
                break
        cut = min((generated.find(sb) for sb in stop_bytes if sb in generated), default=len(generated))
        text = generated[:cut].decode("utf-8", errors="replace")
        if not text:
            raise BackendError("backend produced an empty completion")
        return text


class HttpBackend(Backend):
    """OpenAI-compatible completions client with bounded retries.

    Scoring uses completion echo (max_tokens=0, echo=true, temperature=0) so
    the endpoint must return logprobs for prompt tokens; chat-only endpoints
    are rejected with a remediation message. ``requests`` is imported only
    here, so runs on the offline backends start without it.
    """

    def __init__(
        self,
        model: str,
        endpoint: str,
        api_key: str | None = None,
        timeout: float = 60.0,
        max_retries: int = 3,
        backoff: float = 1.0,
        session: requests.Session | None = None,
    ) -> None:
        self.model = model
        self.endpoint = endpoint.rstrip("/")
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        if session is None:
            import requests

            session = requests.Session()
        self.session = session
        self.id = BackendId(kind="http", model=model, endpoint=self.endpoint)

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        return headers

    def _post(self, path: str, body: dict) -> dict:
        import requests

        url = f"{self.endpoint}{path}"
        last_error = ""
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(self.backoff * 2 ** (attempt - 1))
            try:
                response = self.session.post(
                    url, json=body, headers=self._headers(), timeout=self.timeout
                )
            except requests.RequestException as exc:
                last_error = f"transport error: {exc}"
                continue
            if response.status_code == 429 or response.status_code >= 500:
                last_error = f"HTTP {response.status_code}"
                continue
            if response.status_code >= 400:
                raise BackendError(f"{url} returned HTTP {response.status_code}: {response.text[:200]}")
            try:
                return response.json()
            except ValueError as exc:
                raise BackendError(f"{url} returned non-JSON body: {exc}") from exc
        raise BackendError(
            f"{url} unreachable after {self.max_retries} retries ({last_error})"
        )

    def echo_logprobs(self, text: str, want_top_k: int = 0) -> tuple[EchoToken, ...]:
        """Echo ``text`` through the endpoint. A reply whose tokens do not tile
        ``text`` raises ``BackendError``, so callers may rely on the tiling."""
        if not text:
            raise BackendError("echo scoring requires non-empty text")
        body = {
            "model": self.model,
            "prompt": text,
            "max_tokens": 0,
            "echo": True,
            "logprobs": max(want_top_k, 1),
            "temperature": 0,
        }
        data = self._post("/completions", body)
        try:
            choice = data["choices"][0]
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed completions response: {data}") from exc
        logprobs = choice.get("logprobs") if isinstance(choice, dict) else None
        if (
            not isinstance(logprobs, dict)
            or "tokens" not in logprobs
            or "token_logprobs" not in logprobs
            or "text_offset" not in logprobs
        ):
            raise BackendError(
                "endpoint did not return prompt-token logprobs; echo scoring needs a "
                "completions endpoint with echo+logprobs support (chat-only endpoints "
                "cannot score recorded trajectories)"
            )
        token_texts = logprobs["tokens"]
        token_lps = logprobs["token_logprobs"]
        offsets = logprobs["text_offset"]
        tops = logprobs.get("top_logprobs") or []
        for name, value in (
            ("tokens", token_texts),
            ("token_logprobs", token_lps),
            ("text_offset", offsets),
            ("top_logprobs", tops),
        ):
            if not isinstance(value, list):
                raise BackendError(f"malformed echo logprobs: {name!r} must be a list")
        if not len(token_texts) == len(token_lps) == len(offsets):
            raise BackendError(
                "malformed echo logprobs: 'tokens', 'token_logprobs' and 'text_offset' hold "
                f"{len(token_texts)}, {len(token_lps)} and {len(offsets)} entries"
            )
        tokens: list[EchoToken] = []
        end = 0
        for i, (tok, lp, off) in enumerate(zip(token_texts, token_lps, offsets)):
            where = f"malformed echo logprobs: token {i}"
            string(tok, f"{where} text", empty=True, error=BackendError)
            if number(off, f"{where} text_offset", integer=True, error=BackendError) != end:
                raise BackendError(
                    f"{where} starts at offset {off}, not where the tokens before it end "
                    f"({end}); the reply does not tile the submitted prompt"
                )
            end += len(tok)
            if lp is not None:
                lp = min(0.0, number(lp, f"{where} logprob", error=BackendError))
            top = None
            if want_top_k > 0 and i < len(tops) and tops[i] is not None:
                alternatives = [
                    (t, number(p, f"{where} top_logprobs", error=BackendError))
                    for t, p in keys(tops[i], None, f"{where} top_logprobs", BackendError).items()
                ]
                ranked = sorted(alternatives, key=lambda kv: (-kv[1], kv[0]))[:want_top_k]
                entries = tuple((t, min(0.0, p)) for t, p in ranked)
                mass = sum_floats(math.exp(p) for _, p in entries)
                try:
                    top = TokenDistribution(top=entries, residual_mass=max(0.0, 1.0 - mass))
                except ValueError as exc:  # the alternatives hold more than all the mass
                    raise BackendError(f"{where} top_logprobs: {exc}") from exc
            tokens.append(EchoToken(tok, off, end, lp, top))
        if "".join(t.text for t in tokens) != text:
            raise BackendError("endpoint token stream does not tile the submitted prompt")
        return tuple(tokens)

    def generate(
        self,
        prompt: str,
        stop: Sequence[str] = (),
        max_tokens: int = 512,
        temperature: float = 0.7,
        top_p: float = 0.95,
    ) -> str:
        if max_tokens < 1:
            raise BackendError("max_tokens must be >= 1")
        body: dict[str, Any] = {
            "model": self.model,
            "prompt": prompt,
            "max_tokens": max_tokens,
            "temperature": temperature,
            "top_p": top_p,
        }
        if stop:
            body["stop"] = list(stop)
        data = self._post("/completions", body)
        try:
            text = data["choices"][0]["text"]
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed completions response: {data}") from exc
        string(text, "completion text", empty=True, error=BackendError)
        text = text[: min((text.find(s) for s in stop if s in text), default=len(text))]
        if not text:
            raise BackendError("backend produced an empty completion")
        return text


def canonical_request(payload: dict) -> str:
    return json.dumps(payload, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def cache_key(backend_id: BackendId, request_body: str) -> str:
    return hashlib.sha256(
        (backend_id.fingerprint + "\n" + request_body).encode("utf-8")
    ).hexdigest()


class ResponseCache:
    """Append-only response log with an in-memory index.

    One JSON line per entry; appends are serialized, reads are lock-free
    against the immutable index snapshot semantics of dict reads. Each entry
    goes out in a single ``os.write`` on an ``O_APPEND`` descriptor, so
    processes sharing the file cannot interleave the bytes of one entry; a
    short write raises instead of being retried. A line that is not a JSON
    object with a ``key`` and a non-null ``response`` (no stored response is
    null), such as a torn final line (crash mid-append), is skipped on load
    and counted in ``skipped_lines``; the next append starts on a fresh line
    so it is not lost to the torn one.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._index: dict[str, Any] = {}
        self.skipped_lines = 0
        self._torn_tail = False
        if self.path.exists():
            with self.path.open("rb") as handle:
                for line in handle:
                    self._torn_tail = not line.endswith(b"\n")
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        entry = json.loads(line)
                    except (ValueError, RecursionError):  # e.g. a torn final line
                        entry = None
                    response = entry.get("response") if isinstance(entry, dict) else None
                    if response is not None and isinstance(entry.get("key"), str):
                        self._index[entry["key"]] = response
                    else:
                        self.skipped_lines += 1
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)

    def __len__(self) -> int:
        return len(self._index)

    def get(self, key: str) -> Any | None:
        return self._index.get(key)

    def put(self, key: str, response: Any) -> Any:
        """Store once; later writers get the first stored value back."""
        with self._lock:
            if key in self._index:
                return self._index[key]
            line = json.dumps(
                {"key": key, "response": response},
                ensure_ascii=False,
                separators=(",", ":"),
            )
            if self._torn_tail:
                line = "\n" + line
            data = (line + "\n").encode("utf-8")
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            try:
                written = os.write(fd, data)
            finally:
                os.close(fd)
            if written != len(data):
                raise OSError(
                    f"short write to {self.path}: {written} of {len(data)} bytes"
                )
            self._torn_tail = False
            self._index[key] = response
            return response


class CachedBackend(Backend):
    """Content-addressed cache in front of a backend's ``generate``."""

    def __init__(self, inner: Backend, cache: ResponseCache) -> None:
        self.inner = inner
        self.cache = cache
        self.id = inner.id

    def generate(
        self,
        prompt: str,
        stop: Sequence[str] = (),
        max_tokens: int = 512,
        temperature: float = 0.7,
        top_p: float = 0.95,
    ) -> str:
        body = canonical_request(
            {
                "op": "generate",
                "prompt": prompt,
                "stop": list(stop),
                "max_tokens": max_tokens,
                "temperature": temperature,
                "top_p": top_p,
            }
        )
        key = cache_key(self.id, body)
        cached = self.cache.get(key)
        if cached is not None:
            return string(cached, f"cache {self.cache.path}: generation entry")
        return self.cache.put(key, self.inner.generate(prompt, stop, max_tokens, temperature, top_p))


# The keys a backend entry of each kind may hold.
_BACKEND_KEYS = {
    "ngram": ("kind", "model", "corpus", "corpus_path", "order"),
    "http": ("kind", "model", "endpoint", "timeout", "max_retries", "backoff"),
}


def backend_kind(config: Any, where: str = "backend entry") -> str:
    """The ``kind`` of one backend config entry. An entry that is not an
    object, lacks a known ``kind``, holds a key its kind does not take, or
    holds both ``corpus`` and ``corpus_path`` raises ``FormatError``."""
    kind = keys(config, None, where).get("kind")
    if not isinstance(kind, str) or kind not in _BACKEND_KEYS:
        raise FormatError(f"{where} needs a 'kind' in {list(_BACKEND_KEYS)}, got {kind!r}")
    keys(config, _BACKEND_KEYS[kind], f"{kind} {where}")
    if "corpus" in config and "corpus_path" in config:
        raise FormatError(f"{where} holds both 'corpus' and 'corpus_path'")
    return kind


def build_backend(config: dict) -> Backend:
    """Instantiate a backend from one config-file entry, checked as
    ``backend_kind`` checks it, with its values checked and its n-gram
    ``corpus_path`` file read. The http ``max_retries`` (at most 10) and
    ``backoff`` (at most 60 s) are capped, so the longest retry sleep,
    ``backoff * 2 ** (max_retries - 1)``, stays under 9 hours; ``timeout``
    is capped at one hour, far below what a socket timeout can hold."""
    if backend_kind(config) == "http":
        return HttpBackend(
            model=string(config.get("model"), "backend 'model'", empty=True),
            endpoint=string(config.get("endpoint"), "backend 'endpoint'", empty=True),
            timeout=number(
                config.get("timeout", 60.0), "backend 'timeout'", low=0.001, high=3600
            ),
            max_retries=number(
                config.get("max_retries", 3), "backend 'max_retries'", integer=True, low=0, high=10
            ),
            backoff=number(config.get("backoff", 1.0), "backend 'backoff'", low=0, high=60),
        )
    corpus = string(config.get("corpus", ""), "backend 'corpus'", empty=True)
    if "corpus_path" in config:  # ``backend_kind`` allows one of the two
        corpus = _read_text(string(config["corpus_path"], "backend 'corpus_path'"), "corpus")
    return NgramBackend(
        corpus=corpus,
        order=number(
            config.get("order", 3), "backend 'order'", integer=True, low=1, high=MAX_NGRAM_ORDER
        ),
        model=string(config.get("model", ""), "backend 'model'", empty=True),
    )
