from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Every tier-1 run draws the same examples, with no per-example deadline (the
# suite runs on small, noisy hosts) and no example database written to disk.
settings.register_profile("tier1", deadline=None, derandomize=True, database=None)
settings.load_profile("tier1")

_hypothesis_home: str | None = None


def pytest_configure(config):
    """Keep hypothesis's own caches (it writes some during collection) out of
    the directory pytest starts from."""
    global _hypothesis_home
    _hypothesis_home = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(_hypothesis_home)


def pytest_unconfigure(config):
    if _hypothesis_home:
        shutil.rmtree(_hypothesis_home, ignore_errors=True)


@pytest.fixture(autouse=True)
def _restore_openblas_threads():
    """``select --strategy fl`` sets ``OPENBLAS_NUM_THREADS`` in ``os.environ``.
    An in-process run must not pass it on to every later test's child
    processes, or the tests of that pin would check nothing."""
    before = os.environ.get("OPENBLAS_NUM_THREADS")
    yield
    if before is None:
        os.environ.pop("OPENBLAS_NUM_THREADS", None)
    else:
        os.environ["OPENBLAS_NUM_THREADS"] = before


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def python_child_env(openblas_threads: str | None = None) -> dict[str, str]:
    """The environment of a child process that imports this checkout's
    ``ge_select`` and sees no BLAS thread variable except
    ``OPENBLAS_NUM_THREADS=openblas_threads``."""
    import ge_select

    env = {name: value for name, value in os.environ.items() if name not in BLAS_THREAD_VARS}
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    src_root = str(Path(ge_select.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_root, env.get("PYTHONPATH")]))
    return env


def run_python_child(args: list[str], openblas_threads: str | None = None) -> str:
    """Run ``python *args`` in a fresh process with ``python_child_env``;
    assert it exits 0 and return its stdout."""
    env = python_child_env(openblas_threads)
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, f"{args} exited {proc.returncode}: {proc.stderr}"
    return proc.stdout


def cache_entries(path) -> list[tuple[str, object]]:
    """The ``(key, response)`` pairs of a ``cache.jsonl`` of ``[key,
    response]`` lines, in line order."""
    return [tuple(json.loads(line)) for line in Path(path).read_text(encoding="utf-8").splitlines()]


def write_cache_entries(path, entries) -> None:
    """Write ``(key, response)`` pairs as ``ResponseCache.put`` writes them,
    one ``[key, response]`` line each."""
    Path(path).write_text(
        "".join(
            json.dumps([key, response], ensure_ascii=False, separators=(",", ":")) + "\n"
            for key, response in entries
        ),
        encoding="utf-8",
    )


class LocalServer:
    """Tiny JSON-over-POST server; each test plugs in its own handler."""

    def __init__(self):
        self.requests: list[tuple[str, dict, dict]] = []
        self.handler = lambda path, body: (404, {"error": "no handler"})
        outer = self

        class _Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length) or b"{}")
                headers = {k: v for k, v in self.headers.items()}
                outer.requests.append((self.path, body, headers))
                status, payload = outer.handler(self.path, body)
                # bytes go out as they are, so a handler can send a non-JSON body
                data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)
        self.thread.start()

    @property
    def url(self) -> str:
        host, port = self.httpd.server_address
        return f"http://{host}:{port}"

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()


@pytest.fixture
def local_server():
    server = LocalServer()
    yield server
    server.close()


@pytest.fixture
def no_sleep(monkeypatch):
    """The seconds of every ``time.sleep`` call, made without waiting, so a
    test of http retries does not wait out their backoff."""
    import time

    sleeps: list[float] = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    return sleeps


class CountingBackend:
    """Forwards to a backend and counts the calls that reach it."""

    def __init__(self, inner):
        self.inner = inner
        self.id = inner.id
        self.counts = {"echo": 0, "generate": 0}

    @property
    def total_calls(self) -> int:
        return sum(self.counts.values())

    def echo_logprobs(self, text, want_top_k=0):
        self.counts["echo"] += 1
        return self.inner.echo_logprobs(text, want_top_k)

    def generate(self, prompt, stop=(), max_tokens=512, temperature=0.7, top_p=0.95):
        self.counts["generate"] += 1
        return self.inner.generate(prompt, stop, max_tokens, temperature, top_p)


def whitespace_tokens(text: str) -> list[str]:
    """Greedy split keeping separators attached, mimicking subword offsets."""
    tokens = []
    current = ""
    for ch in text:
        if ch.isspace():
            current += ch
        else:
            if current and current[-1].isspace():
                tokens.append(current)
                current = ""
            current += ch
    if current:
        tokens.append(current)
    return tokens


def echo_response(prompt: str, top_k: int = 0) -> dict:
    """OpenAI-completions-style echo payload with offsets and logprobs."""
    tokens = whitespace_tokens(prompt)
    offsets = []
    pos = 0
    for t in tokens:
        offsets.append(pos)
        pos += len(t)
    logprobs = [None] + [-0.5 - (i % 3) * 0.25 for i in range(1, len(tokens))]
    tops = [None] + [
        {tokens[i]: logprobs[i], " other": logprobs[i] - 1.0} for i in range(1, len(tokens))
    ]
    return {
        "choices": [
            {
                "text": prompt,
                "logprobs": {
                    "tokens": tokens,
                    "token_logprobs": logprobs,
                    "text_offset": offsets,
                    "top_logprobs": tops,
                },
            }
        ]
    }


def backend_echo_response(backend, prompt: str, top_k: int) -> dict:
    """``backend``'s echo of ``prompt`` as an OpenAI-completions echo payload."""
    tokens = backend.echo_logprobs(prompt, want_top_k=top_k)
    return {
        "choices": [
            {
                "text": prompt,
                "logprobs": {
                    "tokens": [t.text for t in tokens],
                    "token_logprobs": [t.logprob for t in tokens],
                    "text_offset": [t.char_start for t in tokens],
                    "top_logprobs": [dict(t.top.top) if t.top else None for t in tokens],
                },
            }
        ]
    }


def backend_generate_response(backend, body: dict) -> dict:
    """``backend``'s completion of a completions request ``body`` as an
    OpenAI-completions payload; an empty completion is ``{"text": ""}``."""
    from ge_select.models import BackendError

    try:
        text = backend.generate(
            body["prompt"], body.get("stop", []), body["max_tokens"], body["temperature"], body["top_p"]
        )
    except BackendError:  # the completion is empty once cut at the stop
        text = ""
    return {"choices": [{"text": text}]}


def oracle_conditional(corpus: bytes, prefix: bytes, ctx: bytes, b: int) -> float:
    """Brute-force add-one conditional over corpus plus already-seen prefix."""

    def count(hay: bytes, nxt: int | None) -> int:
        c = 0
        for i in range(len(hay) - len(ctx)):
            if hay[i : i + len(ctx)] == ctx and (nxt is None or hay[i + len(ctx)] == nxt):
                c += 1
        return c

    numer = count(corpus, b) + count(prefix, b)
    denom = count(corpus, None) + count(prefix, None)
    return (numer + 1) / (denom + 256)


def reference_counts(corpus: bytes, prefix: bytes, ctx: bytes) -> tuple[int, dict[int, int]]:
    """Total and next-byte counts of ``ctx`` over corpus plus prefix, by scanning."""
    following: dict[int, int] = {}
    for hay in (corpus, prefix):
        for i in range(len(hay) - len(ctx)):
            if hay[i : i + len(ctx)] == ctx:
                following[hay[i + len(ctx)]] = following.get(hay[i + len(ctx)], 0) + 1
    return sum(following.values()), following


def reference_top_k(total: int, following: dict[int, int], k: int) -> tuple[list, str]:
    """The n-gram top-k distribution built from scratch on every call: rank
    by (-count, byte), pad with the smallest unseen bytes, smooth add-one."""
    chosen = sorted(following, key=lambda b: (-following[b], b))[:k]
    if len(chosen) < k:
        chosen += [b for b in range(min(k, 256)) if b not in following][: k - len(chosen)]
    top = []
    mass = 0.0
    for b in chosen:
        p = (following.get(b, 0) + 1) / (total + 256)
        mass += p
        top.append((chr(b) if 32 <= b < 127 else f"\\x{b:02x}", math.log(p).hex()))
    return top, max(0.0, 1.0 - mass).hex()
