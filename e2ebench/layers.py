"""Per-layer split of a traced run: joins spans to the client's requests.

Serve writes are joined in three steps, all by time on the one shared
clock: the client's request contains its ``ServeApp.handle_*`` span
(handler thread), which contains the ``ServeSession.submit`` span, which
contains the writer thread's host calls for that write. Writes are
serial on the one writer connection, so each interval holds exactly one
match. Session writes are the ``push_updates`` + ``run`` roots inside the
interval the host process timed.

Per write, the client latency splits into the transport residual
(client latency minus the handle span), the handler's own time, the
writer overhead (submit minus the host calls: queue handoff, the second
snapshot copy, the log append) and the self time of every host-call span
below it. Layer times are reported as the mean over the writes around
the median (:data:`BAND`), so they add up to ``write_p50_ms``; the part
of it the named layers do not cover is ``trace.unattributed_share``.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

import spans

#: Share of writes (by client latency) on each side of the median whose
#: split is averaged.
BAND = 0.1
#: Span name -> (metric, scale from seconds). The value is the span's self
#: time per write.
SELF_METRICS = {
    "host.push_updates": ("host.push_updates_us", 1e6),
    "host.run": ("host.run_self_us", 1e6),
    "host.apply_update": ("host.apply_update_self_us", 1e6),
    "host.read_results": ("host.read_results_us", 1e6),
    "express.classify": ("express.classify_us", 1e6),
    "express.apply": ("express.apply_us", 1e6),
    "store.apply_batch": ("store.apply_batch_us", 1e6),
    "store.snapshot": ("store.snapshot_us", 1e6),
    "version.record_batch": ("version.record_batch_us", 1e6),
    "stream.apply_batch": ("stream.apply_batch_self_us", 1e6),
    "engine.run_regular": ("engine.run_regular_ms", 1e3),
    "engine.run_delete": ("engine.run_delete_ms", 1e3),
}
#: Residuals of a serve write, in microseconds.
RESIDUAL_METRICS = ("serve.transport_us", "serve.writer_overhead_us")
WRITE_STARTS = ("host.push_updates", "host.apply_update")
HANDLE_WRITES = ("serve.handle_update", "serve.handle_ingest")

#: Every per-layer metric with its unit, in report order.
UNITS = {
    "serve.transport_us": "us",
    "serve.read_transport_us": "us",
    "serve.handle_read_us": "us",
    "serve.submit_us": "us",
    "serve.writer_overhead_us": "us",
    "serve.queue_depth_max": "count",
    "serve.queue_depth_mean": "count",
    "serve.rejected": "count",
    "host.push_updates_us": "us",
    "host.run_self_us": "us",
    "host.apply_update_self_us": "us",
    "host.read_results_us": "us",
    "host.results_read_bytes_per_write": "B",
    "express.classify_us": "us",
    "express.apply_us": "us",
    "express.safe_ratio": "ratio",
    "express.resyncs": "count",
    "store.apply_batch_us": "us",
    "store.snapshot_us": "us",
    "store.edges_spliced_per_batch": "count",
    "store.flushes": "count",
    "version.record_batch_us": "us",
    "stream.apply_batch_self_us": "us",
    "engine.run_regular_ms": "ms",
    "engine.run_delete_ms": "ms",
    "engine.events_processed_per_batch": "count",
    "engine.rounds_per_batch": "count",
    "engine.vertices_reset_per_batch": "count",
    "engine.coalesce_ratio": "ratio",
    "engine.prefix_events_processed": "count",
    "loadgen.late_p99_ms": "ms",
    "loadgen.connections": "count",
    "tracing.overhead": "ratio",
    "trace.write_p50_ms": "ms",
    "trace.unattributed_share": "ratio",
}


class JoinError(ValueError):
    """Spans and client requests do not line up (the self-check failed)."""


def _contained(items: List[tuple], trees: List[spans.Tree], what: str) -> List[spans.Tree]:
    """For each ``(start, end)`` the one tree inside it (both sorted by start)."""
    matched = []
    j = 0
    for start, end in items:
        while j < len(trees) and trees[j].start < start:
            j += 1
        if j == len(trees) or trees[j].end > end:
            raise JoinError(f"no {what} span inside the request at {start:.6f}")
        matched.append(trees[j])
        j += 1
    return matched


def _within(start: float, end: float, trees: List[spans.Tree], j: int):
    """Trees from index ``j`` that lie inside ``[start, end]``; next index."""
    while j < len(trees) and trees[j].start < start:
        j += 1
    group = []
    while j < len(trees) and trees[j].end <= end:
        group.append(trees[j])
        j += 1
    if not group:
        raise JoinError(f"no host call inside the write at {start:.6f}")
    return group, j


def _band(values: List[float]) -> List[int]:
    """Indices of the writes within :data:`BAND` of the median."""
    order = sorted(range(len(values)), key=values.__getitem__)
    n = len(order)
    lo = int(n * (0.5 - BAND))
    hi = max(lo + 1, int(n * (0.5 + BAND) + 0.5))
    return order[lo:hi]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def split(record, serve: bool, prefix_writes: int) -> Dict[str, float]:
    """The per-layer metrics of one traced run (see module docstring).

    ``engine.prefix_events_processed`` sums the engine events of the first
    ``prefix_writes`` writes of the stream (warm-up included): a count
    that repeats exactly for a seed, the run's determinism check.
    """
    writer_trees: List[spans.Tree] = []
    handler_trees: List[spans.Tree] = []
    for thread in record.threads:
        trees = spans.build_trees(thread["spans"])  # raises on bad nesting
        is_writer = thread["name"].startswith("repro-serve-writer") or (
            not serve and thread["name"] == "MainThread"
        )
        (writer_trees if is_writer else handler_trees).extend(trees)
    writer_trees.sort(key=lambda t: t.start)
    handler_trees.sort(key=lambda t: t.start)

    writes = [w for w in record.writes if w[3]]
    client = [w[1] - w[0] for w in writes]
    rows: List[Dict[str, float]] = []
    groups: List[List[spans.Tree]] = []
    submits = []
    if serve:
        handles = _contained(
            [(w[0], w[1]) for w in writes],
            [t for t in handler_trees if t.name in HANDLE_WRITES],
            "handle_*",
        )
        j = 0
        for w, handle in zip(writes, handles):
            submit = next(s for s in handle.spans if s[0] == "serve.submit")
            group, j = _within(submit[1], submit[2], writer_trees, j)
            submits.append(submit)
            groups.append(group)
            busy = sum(t.duration for t in group)
            rows.append(
                {
                    "serve.transport_us": (w[1] - w[0] - handle.duration) * 1e6,
                    "serve.writer_overhead_us": (submit[2] - submit[1] - busy) * 1e6,
                    "serve.submit_us": (submit[2] - submit[1]) * 1e6,
                }
            )
    else:
        j = 0
        for w in writes:
            group, j = _within(w[0], w[1], writer_trees, j)
            groups.append(group)
            rows.append({})
    for row, group in zip(rows, groups):
        for tree in group:
            for name, self_s in tree.self_s.items():
                metric, scale = SELF_METRICS[name]
                row[metric] = row.get(metric, 0.0) + self_s * scale

    band = _band(client)
    out: Dict[str, float] = {name: 0.0 for name in UNITS}
    for metric in list(RESIDUAL_METRICS) + ["serve.submit_us"] + [
        m for m, _ in SELF_METRICS.values()
    ]:
        out[metric] = _mean(rows[i].get(metric, 0.0) for i in band)
    write_p50_ms = statistics.median(client) * 1e3
    attributed_ms = sum(
        out[m] / (1e3 if m.endswith("_us") else 1.0)
        for m in list(RESIDUAL_METRICS) + [m for m, _ in SELF_METRICS.values()]
    )
    out["trace.write_p50_ms"] = write_p50_ms
    out["trace.unattributed_share"] = 1.0 - attributed_ms / write_p50_ms

    # Publish volume per write (serve: the snapshot read after every write).
    read_bytes = sum(
        tree.attrs["bytes"]
        for group in groups
        for tree in group
        if tree.name == "host.read_results"
    )
    out["host.results_read_bytes_per_write"] = read_bytes / len(writes)

    if serve:
        depths = [s[4]["queue_depth"] for s in submits]
        out["serve.queue_depth_max"] = float(max(depths))
        out["serve.queue_depth_mean"] = _mean(depths)
        out["serve.rejected"] = float(
            sum(
                1
                for t in handler_trees
                for s in t.spans
                if s[0] == "serve.submit"
                and s[4].get("error") == 429
                and record.t_start <= s[1] <= record.t_last
            )
        )
        reads = [r for r in record.reads if r[3]]
        read_handles = _contained(
            [(r[1], r[2]) for r in reads],
            [t for t in handler_trees if t.name == "serve.handle_read"],
            "handle_read",
        )
        read_band = _band([r[2] - r[0] for r in reads])
        out["serve.handle_read_us"] = _mean(
            read_handles[i].duration * 1e6 for i in read_band
        )
        out["serve.read_transport_us"] = _mean(
            (reads[i][2] - reads[i][1] - read_handles[i].duration) * 1e6
            for i in read_band
        )

    # Express outcomes over the window's writes.
    outcomes = [
        tree.attrs["safe"]
        for group in groups
        for tree in group
        if tree.name == "host.apply_update"
    ]
    out["express.safe_ratio"] = _mean(1.0 if safe else 0.0 for safe in outcomes)
    before, after = record.stats_before, record.stats_after
    out["express.resyncs"] = float(
        after["express"]["resyncs"] - before["express"]["resyncs"]
    )
    out["store.edges_spliced_per_batch"] = (
        after["store"]["edges_spliced"] - before["store"]["edges_spliced"]
    ) / len(writes)
    out["store.flushes"] = (
        after["store"]["flushes"] - before["store"]["flushes"]
    ) / len(writes)

    # Engine work counts from StreamingResult.metrics.summary().
    batches = [
        s[4]
        for group in groups
        for tree in group
        for s in tree.spans
        if s[0] == "stream.apply_batch"
    ]
    if batches:
        total = {k: sum(b[k] for b in batches) for k in batches[0]}
        out["engine.events_processed_per_batch"] = total["events_processed"] / len(batches)
        out["engine.rounds_per_batch"] = total["rounds"] / len(batches)
        out["engine.vertices_reset_per_batch"] = total["vertices_reset"] / len(batches)
        out["engine.coalesce_ratio"] = total["coalesce_ops"] / max(
            1, total["events_generated"]
        )
    out["engine.prefix_events_processed"] = float(
        _prefix_events(writer_trees, prefix_writes)
    )
    return out


def handler_threads(record) -> int:
    """Serve handler threads that handled a traced read or write.

    ``ThreadingHTTPServer`` starts one thread per accepted connection, so
    this is the number of connections the server saw.
    """
    handles = set(HANDLE_WRITES) | {"serve.handle_read"}
    return sum(
        1
        for thread in record.threads
        if any(span[0] in handles for span in thread["spans"])
    )


def _prefix_events(writer_trees: List[spans.Tree], prefix_writes: int) -> int:
    """Engine events over the first ``prefix_writes`` writes of the stream."""
    writes = 0
    events = 0
    for tree in writer_trees:
        if tree.name in WRITE_STARTS:
            writes += 1
            if writes > prefix_writes:
                break
        if writes == 0:
            continue  # set-up work before the first write
        events += sum(
            s[4]["events_processed"] for s in tree.spans if s[0] == "stream.apply_batch"
        )
    return events
