"""Per-layer tracing for one ``ge_select.cli.run`` call, installed from outside.

``install`` replaces module-level names where the caller looks them up (for
example ``ge_select.pipeline.build_prompt``, which ``score_trajectory``
resolves through the pipeline module) and wraps the backend, cache, embedder
and environment objects the CLI constructs. Nothing under ``src/`` changes;
the wrappers only time and count, so outputs stay byte-identical.

Spans are aggregated in memory per name: call count, total time, self time,
thread CPU time and every duration. Self time is a span's duration minus the
time of the spans it directly caused on the same thread; each thread keeps
its own stack because ``score_pool`` runs ``score_trajectory`` on worker
threads. Under the GIL a worker's span also covers the time it waits for the
interpreter while the other worker runs; thread CPU time does not.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.cpu_s: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counters: dict[str, float] = defaultdict(float)
        self.finalizers: list = []  # called once before dumping

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def span(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records one span ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            stack.append(0.0)
            start = time.perf_counter()
            cpu_start = time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                cpu = time.thread_time() - cpu_start
                duration = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                with self._lock:
                    self.calls[name] += 1
                    self.total_s[name] += duration
                    self.self_s[name] += duration - children
                    self.cpu_s[name] += cpu
                    self.durations[name].append(duration)

        return traced

    def dump(self, path: str) -> None:
        for finalize in self.finalizers:
            finalize()
        payload = {
            "spans": {
                name: {
                    "calls": self.calls[name],
                    "total_s": self.total_s[name],
                    "self_s": self.self_s[name],
                    "cpu_s": self.cpu_s[name],
                    "durations": self.durations[name],
                }
                for name in self.calls
            },
            "counters": dict(self.counters),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class _TracedBackend:
    """Times the model backend the CLI built, below the response cache."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.id = inner.id
        self._tracer = tracer
        prefix = f"backends.{inner.id.kind}"
        self._echo = tracer.span(f"{prefix}.echo", inner.echo_logprobs)
        self._generate = tracer.span(f"{prefix}.generate", inner.generate)
        self._prefix = prefix

    def echo_logprobs(self, text, want_top_k=0):
        self._tracer.count(f"{self._prefix}.echo.bytes", len(text.encode("utf-8")))
        return self._echo(text, want_top_k)

    def generate(self, prompt, stop=(), max_tokens=512, temperature=0.7, top_p=0.95):
        completion = self._generate(prompt, stop, max_tokens, temperature, top_p)
        self._tracer.count(f"{self._prefix}.generate.bytes_out", len(completion.encode("utf-8")))
        return completion


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the CLI reaches."""
    import ge_select.cli as cli
    import ge_select.pipeline as pipeline

    def wrap(module, attr: str, name: str) -> None:
        setattr(module, attr, tracer.span(name, getattr(module, attr)))

    for attr in ("build_prompt", "build_generation_prompt", "map_spans_to_tokens"):
        wrap(pipeline, attr, f"prompts.{attr}")
    for attr in ("aggregate_trajectory", "mean_entropy"):
        wrap(pipeline, attr, f"scoring.{attr}")
    wrap(pipeline, "score_trajectory", "pipeline.score_trajectory")
    for attr in ("score_pool", "annotate", "review_report", "export_sft"):
        wrap(cli, attr, f"pipeline.{attr}")
    for attr in ("select_ge", "select_mean_entropy"):
        wrap(cli, attr, f"selectors.{attr}")

    select_fl = tracer.span("selectors.select_facility_location", cli.select_facility_location)

    def traced_select_fl(ids, embeddings, k):
        tracer.count("selectors.fl.n", len(ids))
        tracer.count("selectors.fl.k", k)
        return select_fl(ids, embeddings, k)

    cli.select_facility_location = traced_select_fl

    for attr in ("load_pool", "load_scores", "load_trajectories", "load_selection"):
        load = getattr(cli, attr)

        def traced_load(path, _load=tracer.span("models.load", load)):
            tracer.count("models.load.bytes", _file_size(path))
            return _load(path)

        setattr(cli, attr, traced_load)

    write = tracer.span("models.write_records", cli.write_records)

    def traced_write(records, path):
        write(records, path)
        tracer.count("models.write_records.bytes", _file_size(path))

    cli.write_records = traced_write

    build_backend = cli.build_backend
    cli.build_backend = lambda config: _TracedBackend(build_backend(config), tracer)

    class TracedCache(cli.ResponseCache):
        def __init__(self, path) -> None:
            loaded = _file_size(path)
            tracer.count("backends.cache.bytes_loaded", loaded)
            tracer.span("backends.cache.load", super().__init__)(path)
            tracer.count("backends.cache.entries_loaded", len(self))
            # Measured once at the end: workers append concurrently, so
            # per-put size differences would overlap.
            tracer.finalizers.append(
                lambda: tracer.count(
                    "backends.cache.bytes_appended", _file_size(self.path) - loaded
                )
            )

        def get(self, key):
            found = super().get(key)
            tracer.count("backends.cache.misses" if found is None else "backends.cache.hits")
            return found

        def put(self, key, response):
            return tracer.span("backends.cache.put", super().put)(key, response)

    cli.ResponseCache = TracedCache

    class TracedCachedBackend(cli.CachedBackend):
        def echo_logprobs(self, text, want_top_k=0):
            return tracer.span("backends.cached.echo", super().echo_logprobs)(text, want_top_k)

    cli.CachedBackend = TracedCachedBackend

    class TracedHashEmbed(cli.HashEmbedBackend):
        def embed(self, text):
            return tracer.span("backends.hash_embed.embed", super().embed)(text)

    cli.HashEmbedBackend = TracedHashEmbed

    class TracedToyShop(cli.ToyShopEnv):
        def reset(self, question):
            return tracer.span("envs.toyshop.reset", super().reset)(question)

        def step(self, action):
            return tracer.span("envs.toyshop.step", super().step)(action)

    cli.ToyShopEnv = TracedToyShop
