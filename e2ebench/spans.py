"""Span recording from outside the program: wrappers around layer calls.

:func:`install` replaces a fixed set of public methods of the program's
classes with timing wrappers. Each call records one span ``[name, start,
end, parent, attrs]`` in a per-thread list; ``parent`` is the index of
the enclosing span on the same thread (-1 for a root), taken from a
per-thread nesting stack. Spans stay in memory until :meth:`dump`.

All times come from ``time.perf_counter`` (CLOCK_MONOTONIC on Linux),
which is one clock for every process on the machine, so the load
generator can line a server's spans up against its own request times.
"""

from __future__ import annotations

import functools
import json
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: Span name -> (module, class, method). Span names are the layer names the
#: per-layer metrics are reported under.
LAYER_CALLS = {
    "serve.handle_read": ("repro.serve", "ServeApp", "handle_read"),
    "serve.handle_ingest": ("repro.serve", "ServeApp", "handle_ingest"),
    "serve.handle_update": ("repro.serve", "ServeApp", "handle_update"),
    "serve.submit": ("repro.serve", "ServeSession", "submit"),
    "host.push_updates": ("repro.host", "Session", "push_updates"),
    "host.run": ("repro.host", "Session", "run"),
    "host.apply_update": ("repro.host", "Session", "apply_update"),
    "host.read_results": ("repro.host", "Session", "read_results"),
    "express.classify": ("repro.core.fastpath", "ExpressLane", "classify"),
    "express.apply": ("repro.core.fastpath", "ExpressLane", "apply"),
    "store.apply_batch": ("repro.graph.dynamic", "DynamicGraph", "apply_batch"),
    "store.snapshot": ("repro.graph.dynamic", "DynamicGraph", "snapshot"),
    "version.record_batch": (
        "repro.graph.dynamic",
        "DeltaVersionStore",
        "record_batch",
    ),
    "stream.apply_batch": ("repro.core.streaming", "JetStreamEngine", "apply_batch"),
    "engine.run_regular": ("repro.core.engine", "EngineCore", "run_regular"),
    "engine.run_delete": ("repro.core.engine", "EngineCore", "run_delete"),
}


def _submit_before(args) -> dict:
    return {"queue_depth": args[0].queue_depth()}


def _read_results_after(result) -> dict:
    return {"bytes": int(result.nbytes)}


def _apply_update_after(result) -> dict:
    return {"safe": bool(result.safe)}


def _stream_batch_after(result) -> dict:
    summary = result.metrics.summary()
    return {
        key: int(summary[key])
        for key in (
            "events_processed",
            "events_generated",
            "coalesce_ops",
            "rounds",
            "vertices_reset",
        )
    }


#: Extra per-span attributes, taken before the call (from its arguments)
#: or after it (from its return value).
BEFORE = {"serve.submit": _submit_before}
AFTER = {
    "host.read_results": _read_results_after,
    "host.apply_update": _apply_update_after,
    "stream.apply_batch": _stream_batch_after,
}


class SpanRecorder:
    """Per-thread span lists with nesting stacks."""

    def __init__(self):
        self._local = threading.local()
        self._threads: List[dict] = []
        self._lock = threading.Lock()

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = {"name": threading.current_thread().name, "spans": [], "stack": []}
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def wrap(
        self,
        fn: Callable,
        name: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = recorder._state()
            spans, stack = state["spans"], state["stack"]
            attrs = before(args) if before is not None else {}
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, attrs]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                attrs["error"] = getattr(exc, "status", type(exc).__name__)
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                attrs.update(after(result))
            return result

        return traced

    def threads(self) -> List[dict]:
        """``[{"name", "spans"}]`` per thread that recorded a span."""
        with self._lock:
            return [{"name": t["name"], "spans": t["spans"]} for t in self._threads]

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"threads": self.threads()}, fh)


def install(recorder: SpanRecorder) -> None:
    """Wrap every call in :data:`LAYER_CALLS` with ``recorder``'s spans."""
    import importlib

    for name, (module, cls_name, method) in LAYER_CALLS.items():
        cls = getattr(importlib.import_module(module), cls_name)
        fn = getattr(cls, method)
        setattr(
            cls,
            method,
            recorder.wrap(fn, name, before=BEFORE.get(name), after=AFTER.get(name)),
        )


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------
class Tree:
    """One root span with its descendants, and self time per span name."""

    __slots__ = ("name", "start", "end", "attrs", "self_s", "spans")

    def __init__(self, root: list):
        self.name, self.start, self.end, _, self.attrs = root
        #: span name -> summed self time (s) over this tree
        self.self_s: Dict[str, float] = {}
        #: every span of the tree (root included), in start order
        self.spans: List[list] = []

    @property
    def duration(self) -> float:
        return self.end - self.start


def build_trees(spans: List[list]) -> List[Tree]:
    """Group one thread's spans into root trees and compute self times.

    A span's self time is its duration minus the durations of its direct
    children (children on one thread never overlap each other).
    Raises ``ValueError`` if a child does not nest inside its parent.
    """
    child_s = [0.0] * len(spans)
    tree_of: List[Optional[Tree]] = [None] * len(spans)
    trees: List[Tree] = []
    for i, span in enumerate(spans):
        name, start, end, parent, _ = span
        if end < start:
            raise ValueError(f"span {name} ends before it starts")
        if parent < 0:
            tree = Tree(span)
            trees.append(tree)
        else:
            p = spans[parent]
            if start < p[1] or end > p[2]:
                raise ValueError(f"span {name} does not nest inside {p[0]}")
            child_s[parent] += end - start
            tree = tree_of[parent]
        tree_of[i] = tree
        tree.spans.append(span)
    for i, span in enumerate(spans):
        tree = tree_of[i]
        tree.self_s[span[0]] = tree.self_s.get(span[0], 0.0) + (
            span[2] - span[1] - child_s[i]
        )
    return trees
