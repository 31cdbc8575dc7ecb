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
only the slice of each echo it consumes there (``pipeline``);
``CachedBackend`` stores generations.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import requests

from .scoring import TokenDistribution

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


@dataclass(frozen=True)
class EchoToken:
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


class _ByteCounts:
    """Context -> next-byte counts for every context length up to ``order``."""

    def __init__(self, order: int) -> None:
        self.order = order
        self.tables: list[dict[bytes, dict[int, int]]] = [{} for _ in range(order + 1)]
        self.totals: list[dict[bytes, int]] = [{} for _ in range(order + 1)]

    def add_text(self, data: bytes) -> None:
        for i in range(len(data)):
            self.add_position(data, i)

    def add_position(self, data: bytes, i: int) -> None:
        b = data[i]
        for length in range(0, min(self.order, i) + 1):
            ctx = data[i - length : i]
            table = self.tables[length]
            bucket = table.get(ctx)
            if bucket is None:
                bucket = {}
                table[ctx] = bucket
            bucket[b] = bucket.get(b, 0) + 1
            totals = self.totals[length]
            totals[ctx] = totals.get(ctx, 0) + 1

    def bucket(self, ctx: bytes) -> tuple[dict[int, int], int]:
        length = len(ctx)
        if length > self.order:
            raise ValueError("context longer than model order")
        return self.tables[length].get(ctx, {}), self.totals[length].get(ctx, 0)


def _byte_token_text(b: int) -> str:
    return chr(b) if 32 <= b < 127 else f"\\x{b:02x}"


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
        self.corpus_bytes = corpus.encode("utf-8")
        self.counts = _ByteCounts(order)
        self.counts.add_text(self.corpus_bytes)
        corpus_hash = hashlib.sha256(self.corpus_bytes).hexdigest()[:12]
        name = model or f"ngram-o{order}"
        self.id = BackendId(
            kind="ngram",
            model=name,
            endpoint="",
            fingerprint=_fingerprint("ngram", name, "", f"{corpus_hash}\norder={order}"),
        )

    def _conditional(
        self, prefix: _ByteCounts, ctx: bytes, b: int
    ) -> float:
        corpus_bucket, corpus_total = self.counts.bucket(ctx)
        local_bucket, local_total = prefix.bucket(ctx)
        count = corpus_bucket.get(b, 0) + local_bucket.get(b, 0)
        total = corpus_total + local_total
        return (count + 1) / (total + 256)

    def conditional(self, context: str | bytes, byte_value: int) -> float:
        """Corpus-only conditional; exposed for direct probability checks."""
        ctx = context.encode("utf-8") if isinstance(context, str) else context
        ctx = ctx[-self.order :]
        bucket, total = self.counts.bucket(ctx)
        return (bucket.get(byte_value, 0) + 1) / (total + 256)

    def _top_k(self, prefix: _ByteCounts, ctx: bytes, k: int) -> TokenDistribution:
        corpus_bucket, corpus_total = self.counts.bucket(ctx)
        local_bucket, local_total = prefix.bucket(ctx)
        total = corpus_total + local_total
        merged: dict[int, int] = dict(corpus_bucket)
        for b, c in local_bucket.items():
            merged[b] = merged.get(b, 0) + c
        ranked = sorted(merged.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
        chosen = [b for b, _ in ranked]
        if len(chosen) < k:
            seen = set(chosen)
            for b in range(256):
                if b not in seen:
                    chosen.append(b)
                    if len(chosen) == k:
                        break
        top = []
        mass = 0.0
        for b in chosen:
            p = (merged.get(b, 0) + 1) / (total + 256)
            mass += p
            top.append((_byte_token_text(b), math.log(p)))
        return TokenDistribution(top=tuple(top), residual_mass=max(0.0, 1.0 - mass))

    def echo_logprobs(self, text: str, want_top_k: int = 0) -> EchoResult:
        if not text:
            raise BackendError("echo scoring requires non-empty text")
        prefix = _ByteCounts(self.order)
        data = text.encode("utf-8")
        tokens: list[EchoToken] = []
        byte_pos = 0
        for char_index, char in enumerate(text):
            char_bytes = char.encode("utf-8")
            logprob = 0.0
            top: TokenDistribution | None = None
            for j, b in enumerate(char_bytes):
                i = byte_pos + j
                ctx = data[max(0, i - self.order) : i]
                if j == 0 and want_top_k > 0:
                    top = self._top_k(prefix, ctx, want_top_k)
                logprob += math.log(self._conditional(prefix, ctx, b))
                prefix.add_position(data, i)
            tokens.append(
                EchoToken(
                    text=char,
                    char_start=char_index,
                    char_end=char_index + 1,
                    logprob=logprob,
                    top=top,
                )
            )
            byte_pos += len(char_bytes)
        return EchoResult(tokens=tuple(tokens))

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
        prefix = _ByteCounts(self.order)
        data = bytearray(prompt.encode("utf-8"))
        prefix.add_text(bytes(data))
        stop_bytes = [s.encode("utf-8") for s in stop if s]
        generated = bytearray()
        for _ in range(max_tokens):
            ctx = bytes(data[-self.order :]) if self.order else b""
            corpus_bucket, corpus_total = self.counts.bucket(ctx)
            local_bucket, local_total = prefix.bucket(ctx)
            merged: dict[int, int] = dict(corpus_bucket)
            for b, c in local_bucket.items():
                merged[b] = merged.get(b, 0) + c
            if merged:
                best = min(merged.items(), key=lambda kv: (-kv[1], kv[0]))[0]
            else:
                best = 0
            i = len(data)
            data.append(best)
            generated.append(best)
            prefix.add_position(bytes(data), i)
            if any(sb in generated for sb in stop_bytes):
                break
        completion = bytes(generated)
        cut = len(completion)
        for sb in stop_bytes:
            idx = completion.find(sb)
            if idx != -1:
                cut = min(cut, idx)
        text = completion[:cut].decode("utf-8", errors="replace")
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

    def bucket_and_sign(self, token: str) -> tuple[int, float]:
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        index = int.from_bytes(digest[:4], "big") % self.dimensions
        sign = 1.0 if digest[4] & 1 else -1.0
        return index, sign

    def embed(self, text: str) -> list[float]:
        vec = [0.0] * self.dimensions
        for token in _WORD_RE.findall(text.lower()):
            index, sign = self.bucket_and_sign(token)
            vec[index] += sign
        norm = math.sqrt(sum(v * v for v in vec))
        if norm == 0.0:
            return vec
        return [v / norm for v in vec]


class HttpBackend(Backend):
    """OpenAI-compatible completions/embeddings client with bounded retries.

    Scoring uses completion echo (max_tokens=0, echo=true, temperature=0) so
    the endpoint must return logprobs for prompt tokens; chat-only endpoints
    are rejected with a remediation message.
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
        self.session = session or requests.Session()
        self.id = BackendId(kind="http", model=model, endpoint=self.endpoint)

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        return headers

    def _post(self, path: str, body: dict) -> dict:
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
        tops = logprobs.get("top_logprobs") or [None] * len(token_texts)
        tokens: list[EchoToken] = []
        for i, (tok, lp, off) in enumerate(zip(token_texts, token_lps, offsets)):
            top = None
            if want_top_k > 0 and i < len(tops) and isinstance(tops[i], dict):
                ranked = sorted(tops[i].items(), key=lambda kv: (-kv[1], kv[0]))[:want_top_k]
                entries = tuple((t, min(0.0, float(p))) for t, p in ranked)
                mass = sum(math.exp(p) for _, p in entries)
                top = TokenDistribution(top=entries, residual_mass=max(0.0, 1.0 - mass))
            tokens.append(
                EchoToken(
                    text=tok,
                    char_start=off,
                    char_end=off + len(tok),
                    logprob=None if lp is None else min(0.0, float(lp)),
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
    short write raises instead of being retried. A torn final line (crash
    mid-append) is ignored on load.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._index: dict[str, Any] = {}
        if self.path.exists():
            with self.path.open("r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        entry = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    if isinstance(entry, dict) and "key" in entry:
                        self._index[entry["key"]] = entry.get("response")
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


def build_backend(config: dict) -> Backend:
    """Instantiate a backend from one config-file entry."""
    if not isinstance(config, dict) or "kind" not in config:
        raise BackendError("backend config must be an object with a 'kind' field")
    kind = config["kind"]
    if kind == "ngram":
        return NgramBackend(
            corpus=config.get("corpus", ""),
            order=int(config.get("order", 3)),
            model=config.get("model", ""),
        )
    if kind == "hash_embed":
        return HashEmbedBackend(
            dimensions=int(config.get("dimensions", EMBED_DIMENSIONS)),
            model=config.get("model", ""),
        )
    if kind == "http":
        if "endpoint" not in config or "model" not in config:
            raise BackendError("http backend config needs 'model' and 'endpoint'")
        return HttpBackend(
            model=config["model"],
            endpoint=config["endpoint"],
            timeout=float(config.get("timeout", 60.0)),
            max_retries=int(config.get("max_retries", 3)),
            backoff=float(config.get("backoff", 1.0)),
            max_inflight=int(config.get("max_inflight", 4)),
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
