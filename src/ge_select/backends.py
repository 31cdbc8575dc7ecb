"""Model backends: echo logprob scoring, generation, and embedding.

Three implementations share one duck-typed surface:

- ``NgramBackend``: a deterministic byte-level model for offline runs. Its
  conditionals blend training-corpus counts with counts accumulated over the
  preceding bytes of the text being scored or generated, so material that
  appears earlier in a prompt (for example a guideline) raises the
  probability of matching continuations later in the same prompt. That is
  what lets teacher-forced difficulty react to prompt content at all.
- ``HashEmbedBackend``: feature-hashed unigram embeddings.
- ``HttpBackend``: OpenAI-compatible completions/embeddings endpoints.

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
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, NamedTuple, Sequence

from .models import FormatError
from .scoring import TokenDistribution

if TYPE_CHECKING:
    import requests

EMBED_DIMENSIONS = 256
API_KEY_ENV = "GE_API_KEY"
MAX_NGRAM_ORDER = 5

_WORD_RE = re.compile(r"[a-z0-9]+")


class BackendError(RuntimeError):
    """Transport failure, unsupported capability, or malformed response."""


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
    text: str
    char_start: int
    char_end: int
    logprob: float | None
    top: TokenDistribution | None = None


@dataclass(frozen=True)
class EchoResult:
    tokens: tuple[EchoToken, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))

    def spans(self) -> list[tuple[str, int, int]]:
        return [(t.text, t.char_start, t.char_end) for t in self.tokens]


class Backend:
    """Capability surface; concrete backends override what they support."""

    id: BackendId

    def echo_logprobs(self, text: str, want_top_k: int = 0) -> EchoResult:
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

    def embed(self, text: str) -> list[float]:
        raise BackendError(f"backend {self.id.kind!r} does not support embedding")


_EMPTY_BUCKET: tuple[int, dict[int, int]] = (0, {})


def _count(counts: dict[bytes, list], ctx: bytes, b: int) -> None:
    """Add one ``ctx -> b`` observation to a map of context bytes to
    ``[total, {next byte: count}]``; a key's length is its order."""
    bucket = counts.get(ctx)
    if bucket is None:
        counts[ctx] = [1, {b: 1}]
    else:
        bucket[0] += 1
        following = bucket[1]
        following[b] = following.get(b, 0) + 1


_BYTE_TEXT = tuple(chr(b) if 32 <= b < 127 else f"\\x{b:02x}" for b in range(256))


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
    call, so the model is deterministic but prompt-sensitive.
    """

    def __init__(self, corpus: str, order: int, model: str = "") -> None:
        if not 1 <= order <= MAX_NGRAM_ORDER:
            raise ValueError(f"ngram order must be in [1, {MAX_NGRAM_ORDER}], got {order}")
        self.order = order
        data = corpus.encode("utf-8")
        self.counts: dict[bytes, list] = {}
        for i, b in enumerate(data):
            for start in range(max(0, i - order), i + 1):
                _count(self.counts, data[start:i], b)
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

    # The counts of the text being scored or generated (``layers``) hold only
    # full-order contexts. A shorter context is looked up only within the
    # first ``order`` bytes, where no earlier position has a context that
    # long, so its local bucket would always be empty.
    def _blend(self, ctx: bytes, *layers: dict[bytes, list]) -> tuple[int, dict[int, int]]:
        """Total and next-byte counts of ``ctx`` over corpus plus ``layers``.

        Counts are integer sums and every ranking of them breaks ties by
        byte, so the order of the layers never changes a result. Only a
        merge of two sources makes a new dict; otherwise the one source's
        own dict comes back: read it only, before counting more."""
        total, following = self.counts.get(ctx, _EMPTY_BUCKET)
        copied = False
        for layer in layers:
            bucket = layer.get(ctx)
            if bucket is None:
                continue
            if not total:  # no source so far has this context
                total, following = bucket
                continue
            if not copied:
                following, copied = dict(following), True
            for b, c in bucket[1].items():
                following[b] = following.get(b, 0) + c
            total += bucket[0]
        return total, following

    def conditional(self, context: str | bytes, byte_value: int) -> float:
        """Corpus-only conditional; exposed for direct probability checks."""
        ctx = context.encode("utf-8") if isinstance(context, str) else context
        total, following = self.counts.get(ctx[-self.order :], _EMPTY_BUCKET)
        return (following.get(byte_value, 0) + 1) / (total + 256)

    @staticmethod
    def _top_k(total: int, following: dict[int, int], k: int) -> TokenDistribution:
        return _distribution(total, tuple(sorted(following.items(), key=_rank)[:k]), k)

    def echo_logprobs(self, text: str, want_top_k: int = 0) -> EchoResult:
        """Echo ``text``, reusing the tokens of the characters it shares with
        the previous text echoed at this top-k width. A token depends only on
        the text up to its end, so the shared ones are exact; only their local
        counts are rebuilt before the loop resumes after them."""
        if not text:
            raise BackendError("echo scoring requires non-empty text")
        order = self.order
        local: dict[bytes, list] = {}
        data = text.encode("utf-8")
        previous_text, previous = self._echoed.get(want_top_k, ("", ()))
        shared = os.path.commonprefix([previous_text, text])
        tokens: list[EchoToken] = list(previous[: len(shared)])
        i = len(shared.encode("utf-8"))
        for end in range(order, i):
            _count(local, data[end - order : end], data[end])
        corpus = self.counts
        log = math.log
        for char_index in range(len(shared), len(text)):
            char = text[char_index]
            logprob = 0.0
            top: TokenDistribution | None = None
            for j in range(1 if char < "\x80" else len(char.encode("utf-8"))):
                b = data[i]
                ctx = data[i - order : i] if i >= order else data[:i]
                # ``_blend(ctx, local)`` and ``_count(local, ctx, b)``, inlined
                # because this loop runs once per byte.
                bucket = local.get(ctx)
                if bucket is None:
                    total, following = corpus.get(ctx, _EMPTY_BUCKET)
                elif ctx in corpus:
                    total, following = self._blend(ctx, local)
                else:
                    total, following = bucket
                if j == 0 and want_top_k > 0:
                    top = self._top_k(total, following, want_top_k)
                logprob += log((following.get(b, 0) + 1) / (total + 256))
                if i >= order:
                    if bucket is None:
                        local[ctx] = [1, {b: 1}]
                    else:
                        bucket[0] += 1
                        counted = bucket[1]
                        counted[b] = counted.get(b, 0) + 1
                i += 1
            tokens.append(EchoToken(char, char_index, char_index + 1, logprob, top))
        result = tuple(tokens)
        self._echoed[want_top_k] = (text, result)
        return EchoResult(tokens=result)

    def generate(
        self,
        prompt: str,
        stop: Sequence[str] = (),
        max_tokens: int = 512,
        temperature: float = 0.7,
        top_p: float = 0.95,
    ) -> str:
        # Greedy and deterministic; temperature/top_p are accepted for
        # interface parity and ignored.
        if max_tokens < 1:
            raise BackendError("max_tokens must be >= 1")
        order = self.order
        data = prompt.encode("utf-8")
        # A prompt that extends this thread's previous one (the next turn of
        # an episode) counts only its new bytes; any other starts afresh.
        counted, prompt_counts = getattr(self._prompt, "table", (b"", {}))
        if not data.startswith(counted):
            counted, prompt_counts = b"", {}
        for i in range(max(order, len(counted)), len(data)):
            _count(prompt_counts, data[i - order : i], data[i])
        self._prompt.table = (data, prompt_counts)
        grown: dict[bytes, list] = {}  # the completion's own counts
        ctx = data[-order:]
        stop_bytes = tuple(s.encode("utf-8") for s in stop if s)
        generated = bytearray()
        for _ in range(max_tokens):
            _, following = self._blend(ctx, prompt_counts, grown)
            best = min(following, key=lambda b: (-following[b], b), default=0)
            if len(ctx) == order:
                _count(grown, ctx, best)
            ctx = (ctx + bytes((best,)))[-order:]
            generated.append(best)
            if generated.endswith(stop_bytes):
                break
        cut = min((generated.find(sb) for sb in stop_bytes if sb in generated), default=len(generated))
        text = generated[:cut].decode("utf-8", errors="replace")
        if not text:
            raise BackendError("backend produced an empty completion")
        return text


class HashEmbedBackend(Backend):
    """Signed feature hashing of lowercased word unigrams, L2-normalized."""

    def __init__(self, dimensions: int = EMBED_DIMENSIONS, model: str = "") -> None:
        self.dimensions = dimensions
        name = model or f"hash-{dimensions}"
        self.id = BackendId(
            kind="hash_embed",
            model=name,
            endpoint="",
            fingerprint=_fingerprint("hash_embed", name, "", str(dimensions)),
        )
        # Word -> bucket_and_sign(word). Pool texts repeat their words, so
        # each distinct word is hashed once; racing threads store equal values.
        self._hashed: dict[str, tuple[int, float]] = {}

    def bucket_and_sign(self, token: str) -> tuple[int, float]:
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        index = int.from_bytes(digest[:4], "big") % self.dimensions
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
        vec = [0.0] * self.dimensions
        norm = math.sqrt(sum(v * v for v in buckets.values()))
        if norm == 0.0:
            return vec
        for index, v in buckets.items():
            vec[index] = v / norm
        return vec


def _echo_logprob(value: Any, where: str) -> float:
    """A logprob from an echo reply: a finite JSON number, as a float."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise BackendError(f"malformed echo logprobs: {where} is not a finite number: {value!r}")


class HttpBackend(Backend):
    """OpenAI-compatible completions/embeddings client with bounded retries.

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
        max_inflight: int = 4,
        session: requests.Session | None = None,
    ) -> None:
        self.model = model
        self.endpoint = endpoint.rstrip("/")
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self._inflight = threading.Semaphore(max_inflight)
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
                with self._inflight:
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

    def echo_logprobs(self, text: str, want_top_k: int = 0) -> EchoResult:
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
        logprobs = choice.get("logprobs")
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
        tokens: list[EchoToken] = []
        for i, (tok, lp, off) in enumerate(zip(token_texts, token_lps, offsets)):
            if not isinstance(tok, str) or isinstance(off, bool) or not isinstance(off, int):
                raise BackendError(
                    f"malformed echo logprobs: token {i} needs a string text and an "
                    f"integer text_offset, got {tok!r} at {off!r}"
                )
            top = None
            if want_top_k > 0 and i < len(tops) and isinstance(tops[i], dict):
                alternatives = [
                    (t, _echo_logprob(p, f"top_logprobs {i}")) for t, p in tops[i].items()
                ]
                ranked = sorted(alternatives, key=lambda kv: (-kv[1], kv[0]))[:want_top_k]
                entries = tuple((t, min(0.0, p)) for t, p in ranked)
                mass = sum(math.exp(p) for _, p in entries)
                top = TokenDistribution(top=entries, residual_mass=max(0.0, 1.0 - mass))
            tokens.append(
                EchoToken(
                    text=tok,
                    char_start=off,
                    char_end=off + len(tok),
                    logprob=(
                        None if lp is None else min(0.0, _echo_logprob(lp, f"token_logprobs {i}"))
                    ),
                    top=top,
                )
            )
        rebuilt = "".join(t.text for t in tokens)
        if rebuilt != text:
            raise BackendError("endpoint token stream does not tile the submitted prompt")
        return EchoResult(tokens=tuple(tokens))

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
        cut = len(text)
        for s in stop:
            idx = text.find(s)
            if idx != -1:
                cut = min(cut, idx)
        text = text[:cut]
        if not text:
            raise BackendError("backend produced an empty completion")
        return text

    def embed(self, text: str) -> list[float]:
        data = self._post("/embeddings", {"model": self.model, "input": text})
        try:
            return [float(v) for v in data["data"][0]["embedding"]]
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed embeddings response: {data}") from exc


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
    object with a ``key``, such as a torn final line (crash mid-append), is
    skipped on load and counted in ``skipped_lines``; the next append starts
    on a fresh line so it is not lost to the torn one.
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
                    except ValueError:  # bad JSON or UTF-8, e.g. a torn final line
                        entry = None
                    if isinstance(entry, dict) and "key" in entry:
                        self._index[entry["key"]] = entry.get("response")
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
            return cached
        return self.cache.put(key, self.inner.generate(prompt, stop, max_tokens, temperature, top_p))


def _setting(config: dict, key: str, default: Any, low: float = 0, high: float = math.inf) -> Any:
    """``config[key]``, or ``default`` when absent. It must have the JSON type
    of ``default``: a string, an integer, or (for a float) any number; a
    number must be finite and in [low, high]."""
    value = config.get(key, default)
    if isinstance(default, str):
        if isinstance(value, str):
            return value
        raise FormatError(f"backend {key!r} must be a string, got {value!r}")
    kind = int if isinstance(default, int) else (int, float)
    if not isinstance(value, bool) and isinstance(value, kind):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond float range
            number = math.inf
        if math.isfinite(number) and low <= number <= high:
            return value if kind is int else number
    noun = "an integer" if kind is int else "a finite number"
    raise FormatError(f"backend {key!r} must be {noun} in [{low}, {high}], got {value!r}")


def build_backend(config: dict) -> Backend:
    """Instantiate a backend from one config-file entry."""
    if not isinstance(config, dict) or "kind" not in config:
        raise BackendError("backend config must be an object with a 'kind' field")
    kind = config["kind"]
    model = _setting(config, "model", "")
    if kind == "ngram":
        return NgramBackend(
            corpus=_setting(config, "corpus", ""),
            order=_setting(config, "order", 3, 1, MAX_NGRAM_ORDER),
            model=model,
        )
    if kind == "hash_embed":
        return HashEmbedBackend(dimensions=_setting(config, "dimensions", EMBED_DIMENSIONS, 1), model=model)
    if kind == "http":
        if "endpoint" not in config or "model" not in config:
            raise BackendError("http backend config needs 'model' and 'endpoint'")
        return HttpBackend(
            model=model,
            endpoint=_setting(config, "endpoint", ""),
            timeout=_setting(config, "timeout", 60.0, 0.001),
            max_retries=_setting(config, "max_retries", 3),
            backoff=_setting(config, "backoff", 1.0),
            max_inflight=_setting(config, "max_inflight", 4, 1),
        )
    raise BackendError(f"unknown backend kind {kind!r}")


class CountingBackend(Backend):
    """Pass-through wrapper that counts calls reaching the wrapped backend."""

    def __init__(self, inner: Backend) -> None:
        self.inner = inner
        self.id = inner.id
        self.counts = {"echo": 0, "generate": 0, "embed": 0}

    @property
    def total_calls(self) -> int:
        return sum(self.counts.values())

    def echo_logprobs(self, text: str, want_top_k: int = 0) -> EchoResult:
        self.counts["echo"] += 1
        return self.inner.echo_logprobs(text, want_top_k)

    def generate(self, prompt, stop=(), max_tokens=512, temperature=0.7, top_p=0.95) -> str:
        self.counts["generate"] += 1
        return self.inner.generate(prompt, stop, max_tokens, temperature, top_p)

    def embed(self, text: str) -> list[float]:
        self.counts["embed"] += 1
        return self.inner.embed(text)
