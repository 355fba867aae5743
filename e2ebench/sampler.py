"""Seeded O(batch) update streams over a tracked live edge set.

Every stream keeps the edge count stationary: inserts and deletes are
balanced 1:1, so a faster program that applies more writes in a run does
not also grow the graph and raise its own per-write cost. Each generated
update is recorded in the :class:`LiveEdges` tracker the moment it is
handed out, so after a run the tracker holds exactly the edge set the
program should have, which the correctness gate recomputes from scratch.

``repro.streams.StreamGenerator`` is not used: it re-sorts the whole live
edge set on every batch, which is O(E) per batch.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, List, Set, Tuple

EdgeKey = Tuple[int, int]
WeightedEdge = Tuple[int, int, float]

#: Weight of an express-lane edge that can never shorten a converged SSSP
#: distance: its insert and its later delete both classify safe.
HEAVY_WEIGHT = 1.0e9
#: Weight of an express-lane edge that usually shortens a distance, so its
#: insert (and its later delete) falls through to the engine.
LIGHT_WEIGHT = 1.0
#: Share of express-lane inserts that are heavy-weight.
HEAVY_SHARE = 0.95
#: Express-lane edges held live at once before each is deleted again.
POOL = 16
#: Vertices per serve read.
READ_SIZE = 8


class LiveEdges:
    """The live edge set: O(1) membership, uniform sampling and removal."""

    def __init__(self, edges):
        self._keys: List[EdgeKey] = []
        self._pos: Dict[EdgeKey, int] = {}
        self._weight: Dict[EdgeKey, float] = {}
        for u, v, w in edges:
            self.add(int(u), int(v), float(w))

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: EdgeKey) -> bool:
        return key in self._pos

    def add(self, u: int, v: int, w: float) -> None:
        key = (u, v)
        if key in self._pos:
            raise ValueError(f"edge {u}->{v} is already live")
        self._pos[key] = len(self._keys)
        self._keys.append(key)
        self._weight[key] = w

    def remove(self, u: int, v: int) -> float:
        """Remove ``u -> v`` by swapping the last key into its slot."""
        key = (u, v)
        i = self._pos.pop(key)
        last = self._keys.pop()
        if last != key:
            self._keys[i] = last
            self._pos[last] = i
        return self._weight.pop(key)

    def sample(self, rng: random.Random) -> EdgeKey:
        return self._keys[rng.randrange(len(self._keys))]

    def edges(self) -> List[WeightedEdge]:
        return [(u, v, self._weight[(u, v)]) for u, v in self._keys]


class BatchStream:
    """Balanced batches: half fresh inserts, half uniform deletes of live edges.

    Deletes are drawn uniformly from the edges live at the start of the
    batch; inserts are uniformly drawn vertex pairs that are neither live
    nor deleted earlier in the same batch, with integer weights in
    ``[1, 64)`` like the generated graph's.
    """

    def __init__(self, live: LiveEdges, num_vertices: int, seed: int, batch_size: int):
        if batch_size < 2 or batch_size % 2:
            raise ValueError("batch_size must be even and at least 2")
        self.live = live
        self.num_vertices = num_vertices
        self.half = batch_size // 2
        self._rng = random.Random(seed)

    def next_batch(self) -> Tuple[List[WeightedEdge], List[EdgeKey]]:
        rng, live, n = self._rng, self.live, self.num_vertices
        deleted: Set[EdgeKey] = set()
        while len(deleted) < self.half:
            deleted.add(live.sample(rng))
        deletions = sorted(deleted)
        for u, v in deletions:
            live.remove(u, v)
        insertions: List[WeightedEdge] = []
        while len(insertions) < self.half:
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v or (u, v) in live or (u, v) in deleted:
                continue
            w = float(rng.randrange(1, 64))
            live.add(u, v, w)
            insertions.append((u, v, w))
        return insertions, deletions


class ExpressStream:
    """Single updates: fresh inserts, each deleted again :data:`POOL` inserts later.

    The first :data:`POOL` updates are inserts; after that deletes of the
    oldest pooled edge and fresh inserts alternate, so the edge count
    stays within one of ``base + POOL`` and an edge is deleted
    ``2 * POOL - 1`` updates after its insert. An insert is heavy-weight
    (safe on the SSSP express lane) with probability :data:`HEAVY_SHARE`,
    otherwise light-weight (usually an engine fallthrough); its delete
    later on takes the same class of path.
    """

    def __init__(self, live: LiveEdges, num_vertices: int, seed: int):
        self.live = live
        self.num_vertices = num_vertices
        self._rng = random.Random(seed)
        self._pending: deque = deque()
        self._delete_next = False

    def next_update(self) -> dict:
        if len(self._pending) >= POOL and self._delete_next:
            self._delete_next = False
            u, v = self._pending.popleft()
            self.live.remove(u, v)
            return {"u": u, "v": v, "op": "delete"}
        self._delete_next = True
        rng, n = self._rng, self.num_vertices
        w = HEAVY_WEIGHT if rng.random() < HEAVY_SHARE else LIGHT_WEIGHT
        while True:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v and (u, v) not in self.live:
                break
        self.live.add(u, v, w)
        self._pending.append((u, v))
        return {"u": u, "v": v, "w": w, "op": "insert"}


class ReadSampler:
    """Vertex sets for reads: :data:`READ_SIZE` uniform vertex ids per read."""

    def __init__(self, num_vertices: int, seed: int):
        self.num_vertices = num_vertices
        self._rng = random.Random(seed)

    def next_vertices(self) -> List[int]:
        return [self._rng.randrange(self.num_vertices) for _ in range(READ_SIZE)]
