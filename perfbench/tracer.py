"""In-memory span tracer wrapped around the program's layer boundaries.

``install`` replaces the names the program calls through (module globals
such as ``perceptqa.qagen.build_trace``, entries of
``perceptqa.qagen.FAMILY_CANDIDATES`` and ``Gateway.chat`` on the class)
with wrappers that open a span, call the original and close the span.
Nothing under ``src/`` changes.  A span records its name, start, end,
the span that caused it and its thread; the command's run id is written
with every span when the spans are saved.

A span's self time is its duration minus the time its child spans on the
same thread cover.  A span opened on a worker thread with nothing open
there hangs under the main thread's innermost open span, but its time is
not subtracted from that span, because the two ran side by side.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
import types
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("cli", "charts", "render", "qagen", "queries", "reasoning",
          "store", "metrics", "gateway")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []   # [id, name, start, end, parent, thread]
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack: list[list] = []
        self._local.stack = self._main_stack

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        else:
            main = self._main_stack
            parent = main[-1][0] if main else None
        span = [next(self._ids), name, time.perf_counter(), None, parent,
                threading.get_ident()]
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: list) -> float:
        span[3] = time.perf_counter()
        stack = self._stack()
        stack.pop()
        return span[3] - span[2]

    def wrap(self, owner, attr, name: str, after=None) -> None:
        """Replace owner.attr (or owner[attr] for a dict) with a traced
        wrapper.  after(result, duration) runs once the span is closed."""
        is_dict = isinstance(owner, dict)
        fn = owner[attr] if is_dict else getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer.end(span)
            if after is not None:
                after(result, duration)
            return result

        if is_dict:
            owner[attr] = traced
        else:
            setattr(owner, attr, traced)

    # -- results --------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        by_id = {s[0]: s for s in self.spans}
        own = {s[0]: s[3] - s[2] for s in self.spans}
        for s in self.spans:
            parent = by_id.get(s[4])
            if parent is not None and parent[5] == s[5]:
                own[parent[0]] -= s[3] - s[2]
        return own

    def summary(self) -> dict:
        """Per span name: calls, total duration and self time; per layer:
        self time, and self time of main-thread spans only."""
        own = self.self_times()
        names: dict[str, dict] = {}
        layers = {layer: 0.0 for layer in LAYERS}
        main_self = 0.0
        for s in self.spans:
            entry = names.setdefault(s[1], {"calls": 0, "total_s": 0.0,
                                            "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += s[3] - s[2]
            entry["self_s"] += own[s[0]]
            layers[s[1].split(".", 1)[0]] += own[s[0]]
            if s[5] == self._main_thread:
                main_self += own[s[0]]
        return {"names": names, "layer_self_s": layers,
                "main_thread_self_s": main_self, "spans": len(self.spans),
                "counts": dict(self.counts),
                "samples": {k: list(v) for k, v in self.samples.items()}}

    def save(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, thread in self.spans:
                fh.write(json.dumps([self.run_id, span_id, name, start, end,
                                     parent, thread]) + "\n")


def _proxy(module):
    """A copy of a module's namespace to hand one consumer, so a function
    of that module can be traced for that consumer alone."""
    proxy = types.ModuleType(module.__name__)
    proxy.__dict__.update(module.__dict__)
    return proxy


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    import perceptqa.cli as cli
    import perceptqa.gateway as gateway
    import perceptqa.metrics as metrics
    import perceptqa.qagen as qagen
    import perceptqa.reasoning as reasoning
    import perceptqa.store as store

    counts = tracer.counts

    def count(key, value=1):
        counts[key] += value

    tracer.wrap(cli, "sample_chart_spec", "charts.sample")
    tracer.wrap(cli, "render_chart", "render.render",
                lambda r, d: count("render.svg_bytes",
                                   len(r[0].encode("utf-8"))))

    def after_generate(result, duration):
        items, stats = result
        count("qagen.items_kept", len(items))
        count("qagen.shortfall", stats.shortfall)

    tracer.wrap(cli, "generate_items", "qagen.generate", after_generate)
    for family in list(qagen.FAMILY_CANDIDATES):
        tracer.wrap(qagen.FAMILY_CANDIDATES, family, "qagen.candidates",
                    lambda r, d: count("qagen.candidates_built", len(r)))
    tracer.wrap(qagen, "realize_question", "qagen.realize")

    tracer.wrap(qagen, "evaluate", "queries.evaluate")
    tracer.wrap(reasoning, "evaluate", "queries.evaluate")

    tracer.wrap(qagen, "build_trace", "reasoning.build_trace")
    tracer.wrap(metrics, "validate_trace_text", "reasoning.validate")
    tracer.wrap(gateway, "validate_trace_text", "reasoning.validate")

    tracer.wrap(cli, "write_dataset", "store.write")
    tracer.wrap(cli, "load_dataset", "store.load")
    store.json = _proxy(store.json)
    tracer.wrap(store.json, "loads", "store.parse")
    for name in ("item_from_dict", "loads_chart", "loads_geom"):
        tracer.wrap(store, name, "store.parse")

    tracer.wrap(cli, "score_item", "metrics.score")
    tracer.wrap(cli, "aggregate", "metrics.aggregate")

    def after_chat(response, duration):
        key = "hit" if response.cached else "miss"
        count(f"gateway.{key}_calls")
        tracer.samples[f"gateway.{key}_s"].append(duration)

    tracer.wrap(gateway.Gateway, "chat", "gateway.chat", after_chat)
    tracer.wrap(cli, "generate_questions_llm", "gateway.qgen")
    tracer.wrap(cli, "generate_dot_answer_llm", "gateway.dot")
    gateway.requests = _proxy(gateway.requests)
    tracer.wrap(gateway.requests, "post", "gateway.transport")
