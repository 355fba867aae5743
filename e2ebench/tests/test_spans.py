"""Span recording, self times and the request join of the traced split.

Run from the repository root: ``python -m pytest e2ebench/tests -q``.
"""

import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import layers  # noqa: E402
import spans  # noqa: E402


def test_self_time_subtracts_direct_children():
    thread = [
        ["host.run", 0.0, 10.0, -1, {}],
        ["stream.apply_batch", 1.0, 9.0, 0, {}],
        ["store.snapshot", 1.0, 3.0, 1, {}],
        ["engine.run_regular", 4.0, 8.0, 1, {}],
        ["host.read_results", 11.0, 12.0, -1, {}],
    ]
    run, read = spans.build_trees(thread)
    assert run.self_s == {
        "host.run": 2.0,
        "stream.apply_batch": 2.0,
        "store.snapshot": 2.0,
        "engine.run_regular": 4.0,
    }
    assert sum(run.self_s.values()) == run.duration
    assert read.self_s == {"host.read_results": 1.0}


def test_child_outside_parent_is_rejected():
    thread = [
        ["host.run", 0.0, 5.0, -1, {}],
        ["engine.run_regular", 4.0, 6.0, 0, {}],
    ]
    with pytest.raises(ValueError):
        spans.build_trees(thread)


def test_recorder_nests_per_thread_and_keeps_attrs():
    recorder = spans.SpanRecorder()

    def inner(x):
        return x * 2

    def fail():
        raise KeyError("x")

    inner_t = recorder.wrap(inner, "inner", after=lambda r: {"result": r})
    fail_t = recorder.wrap(fail, "fail")
    outer_t = recorder.wrap(lambda: inner_t(3) + inner_t(4), "outer")

    assert outer_t() == 14
    with pytest.raises(KeyError):
        fail_t()
    worker = threading.Thread(target=inner_t, args=(5,), name="worker")
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()

    threads = {t["name"]: t["spans"] for t in recorder.threads()}
    main = threads[threading.current_thread().name]
    assert [s[0] for s in main] == ["outer", "inner", "inner", "fail"]
    assert [s[3] for s in main] == [-1, 0, 0, -1]
    assert main[1][4] == {"result": 6} and main[3][4] == {"error": "KeyError"}
    assert threads["worker"][0][3] == -1
    trees = spans.build_trees(main)
    assert [t.name for t in trees] == ["outer", "fail"]


def test_join_requires_a_span_inside_each_request():
    trees = spans.build_trees(
        [["serve.handle_update", 1.0, 2.0, -1, {}], ["serve.handle_update", 3.0, 5.0, -1, {}]]
    )
    assert layers._contained([(0.5, 2.5), (2.9, 5.1)], trees, "handle") == trees
    with pytest.raises(layers.JoinError):
        layers._contained([(0.5, 2.5), (3.5, 5.1)], trees, "handle")
