"""The benchmark's seeded update streams.

Run from the repository root: ``python -m pytest e2ebench/tests -q``.
"""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import sampler  # noqa: E402

N = 200


def base_edges(seed=0, m=1500):
    rng = random.Random(seed)
    edges = {}
    while len(edges) < m:
        u, v = rng.randrange(N), rng.randrange(N)
        if u != v:
            edges[(u, v)] = float(rng.randrange(1, 64))
    return [(u, v, w) for (u, v), w in edges.items()]


def batches(seed, count=30, size=20):
    stream = sampler.BatchStream(sampler.LiveEdges(base_edges()), N, seed, size)
    return [stream.next_batch() for _ in range(count)]


def updates(seed, count=300):
    stream = sampler.ExpressStream(sampler.LiveEdges(base_edges()), N, seed)
    return [stream.next_update() for _ in range(count)]


def test_same_seed_same_stream():
    assert batches(3) == batches(3)
    assert updates(3) == updates(3)
    a, b = sampler.ReadSampler(N, 3), sampler.ReadSampler(N, 3)
    assert [a.next_vertices() for _ in range(5)] == [b.next_vertices() for _ in range(5)]


def test_different_seeds_differ():
    assert batches(3) != batches(4)
    assert updates(3) != updates(4)


def test_batches_valid_and_balanced():
    live = {(u, v): w for u, v, w in base_edges()}
    size = len(live)
    for insertions, deletions in batches(5):
        assert len(insertions) == len(deletions) == 10
        assert len(set(deletions)) == len(deletions)
        for key in deletions:
            assert key in live, "delete of an edge that is not live"
            del live[key]
        for u, v, w in insertions:
            assert u != v and 1.0 <= w < 64.0
            assert (u, v) not in live, "insert of an edge that is live"
            assert (u, v) not in deletions, "edge deleted and inserted in one batch"
            live[(u, v)] = w
        assert len(live) == size


def test_express_updates_valid_and_balanced():
    live = {(u, v) for u, v, _ in base_edges()}
    size = len(live)
    inserted = []
    for i, update in enumerate(updates(6)):
        key = (update["u"], update["v"])
        if update["op"] == "insert":
            assert key not in live
            assert update["w"] in (sampler.HEAVY_WEIGHT, sampler.LIGHT_WEIGHT)
            live.add(key)
            inserted.append(key)
        else:
            assert key == inserted.pop(0), "deletes remove the oldest pooled edge"
            live.remove(key)
        assert size <= len(live) <= size + sampler.POOL
    ops = [u["op"] for u in updates(6)]
    pool = sampler.POOL
    assert ops[:pool] == ["insert"] * pool
    assert ops[pool:] == ["delete", "insert"] * ((len(ops) - pool) // 2)


def test_express_heavy_share():
    inserts = [u for u in updates(7, count=4000) if u["op"] == "insert"]
    heavy = sum(u["w"] == sampler.HEAVY_WEIGHT for u in inserts) / len(inserts)
    assert abs(heavy - sampler.HEAVY_SHARE) < 0.02


def test_tracker_matches_stream():
    live = sampler.LiveEdges(base_edges())
    stream = sampler.BatchStream(live, N, 8, 20)
    expected = {(u, v): w for u, v, w in base_edges()}
    for _ in range(20):
        insertions, deletions = stream.next_batch()
        for key in deletions:
            del expected[key]
        for u, v, w in insertions:
            expected[(u, v)] = w
    assert {(u, v): w for u, v, w in live.edges()} == expected
    assert len(live) == len(expected)


def test_live_edges_remove_and_sample():
    live = sampler.LiveEdges([(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)])
    assert live.remove(0, 1) == 1.0
    assert (0, 1) not in live and (2, 3) in live and len(live) == 2
    rng = random.Random(0)
    assert {live.sample(rng) for _ in range(50)} == {(1, 2), (2, 3)}
    with pytest.raises(ValueError):
        live.add(1, 2, 5.0)
    with pytest.raises(ValueError):
        sampler.BatchStream(live, N, 0, 3)
