"""Load generation: the serve workloads over HTTP and the Session workload.

One generator process, at most two threads and two connections. Writers
are closed-loop (the next write is sent after the reply); serve readers
are open-loop at :data:`READ_RATE` per second, each read timed from when
it was due. The system under test always runs in its own process: a
``repro serve`` subprocess (optionally the traced launcher), or
:mod:`session_host` for the in-process ``Session`` API.

Each runner returns a :class:`RunRecord`; :mod:`run` turns it into the
reported metrics.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import pickle
import re
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import List, Optional

import numpy as np

import sampler

BENCH_DIR = Path(__file__).resolve().parent

#: Open-loop read rate per second. The parent commit serves about 22
#: requests/s on one keep-alive connection (the ~44 ms Nagle/delayed-ACK
#: stall), so at 10/s read latency measures service time, not a queue.
READ_RATE = 10.0
#: Applied-write log bound passed to ``repro serve --log-bound``.
LOG_BOUND = 64
#: Untimed writes and reads after set-up (lazy express-lane construction).
WARMUP_WRITES = 4
WARMUP_READS = 2
#: Vertices per read when fetching the final state.
VERIFY_CHUNK = 2048
#: Socket timeout of one request, and the wait for processes to start/stop.
REQUEST_TIMEOUT_S = 30.0
PROCESS_TIMEOUT_S = 60.0
SESSION = "bench"


class BenchError(RuntimeError):
    """The benchmark could not run the workload to the end."""


@dataclass
class RunRecord:
    """Raw observations of one workload run (times in seconds)."""

    setup_s: List[float]
    t_start: float
    t_last: float = 0.0
    #: Window writes: (t_send, t_done, updates, ok).
    writes: list = field(default_factory=list)
    #: Window reads: (t_due, t_send, t_done, ok).
    reads: list = field(default_factory=list)
    reads_due: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    #: Local ports of the client sockets the run's requests went out on.
    ports: set = field(default_factory=set)
    #: Correctness check name -> passed.
    checks: dict = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    stats_before: Optional[dict] = None
    stats_after: Optional[dict] = None
    #: Span threads from :mod:`spans` when the run was traced.
    threads: Optional[list] = None

    @property
    def connections(self) -> int:
        """TCP connections the generator used, observed per request."""
        return len(self.ports)

    @property
    def attempted(self) -> int:
        return len(self.writes) + self.reads_due

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks[name] = bool(passed)
        if not passed:
            self.problems.append(f"{name}: {detail}" if detail else name)


def _env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def _reap(proc: subprocess.Popen, timeout: float) -> float:
    """Wait for ``proc`` to exit (killing it past ``timeout``); peak RSS in MiB."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0  # KiB on Linux


def _kill(proc: subprocess.Popen) -> None:
    if proc.returncode is None:
        proc.kill()
        _reap(proc, PROCESS_TIMEOUT_S)


# ---------------------------------------------------------------------------
# HTTP
# ---------------------------------------------------------------------------
class KeepAliveConnection:
    """One persistent HTTP/1.1 connection that never reconnects.

    ``http.client`` silently reopens a dropped connection; with
    ``auto_open`` off a reset instead fails every later request, so the
    run can never fall back to connection-per-request. Each request adds
    the local port of the socket it was sent on to ``record.ports``, so
    the run's connection count is observed, not assumed.
    """

    def __init__(self, port: int, record: Optional[RunRecord]):
        self._conn = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S
        )
        self._conn.connect()
        self._conn.auto_open = 0
        self._ports = record.ports if record is not None else set()

    def request(self, method: str, path: str, body: Optional[bytes] = None):
        """``(status, reply, t_send, t_done)``; status 0 means reset or timeout."""
        headers = {"Content-Type": "application/json"} if body is not None else {}
        t_send = perf_counter()
        try:
            self._conn.request(method, path, body=body, headers=headers)
            self._ports.add(self._conn.sock.getsockname()[1])
            resp = self._conn.getresponse()
            raw = resp.read()
        except (OSError, http.client.HTTPException):
            return 0, None, t_send, perf_counter()
        t_done = perf_counter()
        try:
            reply = json.loads(raw) if raw else None
        except ValueError:
            return 0, None, t_send, t_done
        return resp.status, reply, t_send, t_done

    def close(self) -> None:
        self._conn.close()


class ServeProcess:
    """A ``repro serve`` subprocess on a free loopback port."""

    def __init__(self, root: Path, workdir: Path, index: int, traced: bool):
        self.log_path = workdir / f"serve-{index}.log"
        self.spans_path = workdir / f"serve-{index}.spans.json"
        serve_args = ["serve", "--port", "0", "--log-bound", str(LOG_BOUND)]
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "traced_serve.py")]
            argv += [str(self.spans_path)] + serve_args
        else:
            argv = [sys.executable, "-m", "repro"] + serve_args
        self._log = open(self.log_path, "wb")
        self.t_spawn = perf_counter()
        self.proc = subprocess.Popen(
            argv,
            cwd=root,
            env=_env(root),
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )

    def wait_port(self) -> int:
        deadline = time.monotonic() + PROCESS_TIMEOUT_S
        pattern = re.compile(rb"listening on http://127\.0\.0\.1:(\d+)")
        while time.monotonic() < deadline:
            match = pattern.search(self.log_path.read_bytes())
            if match:
                self.port = int(match.group(1))
                return self.port
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise BenchError(f"serve did not start: {self.log_tail()}")

    def log_tail(self) -> str:
        return self.log_path.read_bytes()[-2000:].decode("utf-8", "replace")

    def stop(self, conn: Optional[KeepAliveConnection]) -> float:
        """Ask for a drained shutdown and wait; returns peak RSS (MiB)."""
        if conn is not None:
            conn.request("POST", "/shutdown", b"{}")
            conn.close()
        try:
            return _reap(self.proc, PROCESS_TIMEOUT_S)
        finally:
            self._log.close()

    def kill(self) -> None:
        _kill(self.proc)
        self._log.close()


# ---------------------------------------------------------------------------
# Serve workloads
# ---------------------------------------------------------------------------
def _write_source(kind: str, live, num_vertices: int, seed: int, batch_size: int):
    """``next_write() -> (path, body bytes, updates)`` for a serve writer."""
    if kind == "update":
        stream = sampler.ExpressStream(live, num_vertices, seed)
        path = f"/sessions/{SESSION}/update"

        def next_write():
            return path, json.dumps(stream.next_update()).encode(), 1

    else:
        stream = sampler.BatchStream(live, num_vertices, seed, batch_size)
        path = f"/sessions/{SESSION}/ingest"

        def next_write():
            insertions, deletions = stream.next_batch()
            body = {
                "insertions": [list(e) for e in insertions],
                "deletions": [list(e) for e in deletions],
            }
            return path, json.dumps(body).encode(), batch_size

    return next_write


def _read_path(vertices) -> str:
    return f"/sessions/{SESSION}/read?vertices={','.join(map(str, vertices))}"


def run_serve(
    root: Path,
    workdir: Path,
    edges: list,
    num_vertices: int,
    seed: int,
    seconds: float,
    write_kind: str,
    batch_size: int,
    traced: bool,
    setup_repeats: int,
    oracle,
) -> RunRecord:
    """One serve run: set-ups, warm-up, the measured window, the final check."""
    live = sampler.LiveEdges(edges)
    next_write = _write_source(write_kind, live, num_vertices, seed, batch_size)
    reads = sampler.ReadSampler(num_vertices, seed + 1)
    body = json.dumps(
        {
            "name": SESSION,
            "algorithm": "sssp",
            "source": 0,
            "policy": "dap",
            "num_vertices": num_vertices,
            "edges": edges,
        }
    ).encode()

    record = RunRecord(setup_s=[], t_start=0.0)
    server: Optional[ServeProcess] = None
    conn_a = conn_b = None
    try:
        for i in range(setup_repeats):
            last = i == setup_repeats - 1
            server = ServeProcess(root, workdir, i, traced=traced and last)
            # Connection A: set-up, then the writer role.
            conn_a = KeepAliveConnection(server.wait_port(), record if last else None)
            status, reply, _, t_done = conn_a.request("POST", "/sessions", body)
            if status != 201:
                raise BenchError(f"session create: {status} {reply}")
            record.setup_s.append(t_done - server.t_spawn)
            if not last:
                server.stop(conn_a)
                conn_a = server = None
        # Connection B: the reader role.
        conn_b = KeepAliveConnection(server.port, record)
        _drive_serve(record, conn_a, conn_b, next_write, reads, seconds)
        _verify_serve(record, conn_a, live, num_vertices, oracle)
        conn_b.close()
        conn_b = None
        record.peak_rss_mb = server.stop(conn_a)
        conn_a = None
        if traced:
            with open(server.spans_path) as fh:
                record.threads = json.load(fh)["threads"]
        server = None
        return record
    finally:
        for c in (conn_a, conn_b):
            if c is not None:
                c.close()
        if server is not None:
            server.kill()


def _drive_serve(record, conn_a, conn_b, next_write, reads, seconds) -> None:
    acked_seq = [0]
    write_failures = [0]

    def write(log: bool) -> None:
        path, body, updates = next_write()
        status, reply, t_send, t_done = conn_a.request("POST", path, body)
        ok = status == 200
        if ok:
            acked_seq[0] = reply["seq"]
        else:
            write_failures[0] += 1
        if log:
            record.writes.append((t_send, t_done, updates, ok))

    for _ in range(WARMUP_WRITES):
        write(log=False)
    for _ in range(WARMUP_READS):
        # Spaced like the window's reads: back-to-back reads would make the
        # connection look interactive and stall the window's first read.
        time.sleep(1.0 / READ_RATE)
        conn_b.request("GET", _read_path(reads.next_vertices()))
    time.sleep(1.0 / READ_RATE)
    if write_failures[0]:
        raise BenchError("warm-up writes failed")
    record.stats_before = conn_a.request("GET", f"/sessions/{SESSION}/stats")[1]

    t_start = perf_counter()
    t_end = t_start + seconds
    record.t_start = t_start
    record.reads_due = math.ceil(seconds * READ_RATE)
    stale_reads = [0]

    def reader() -> None:
        for k in range(record.reads_due):
            due = t_start + k / READ_RATE
            delay = due - perf_counter()
            if delay > 0:
                time.sleep(delay)
            if perf_counter() > t_end + REQUEST_TIMEOUT_S:
                return  # the rest are never sent and count as failed
            min_seq = acked_seq[0]
            status, reply, t_send, t_done = conn_b.request(
                "GET", _read_path(reads.next_vertices())
            )
            ok = status == 200
            if ok and reply["seq"] < min_seq:
                stale_reads[0] += 1
            record.reads.append((due, t_send, t_done, ok))

    thread = threading.Thread(target=reader, name="e2ebench-reader")
    thread.start()
    try:
        while perf_counter() < t_end:
            write(log=True)
    finally:
        thread.join(timeout=seconds + 2 * REQUEST_TIMEOUT_S)
    if thread.is_alive():
        raise BenchError("reader did not finish")
    record.t_last = record.writes[-1][1]
    record.failed = sum(1 for w in record.writes if not w[3])
    record.failed += sum(1 for r in record.reads if not r[3])
    record.failed += record.reads_due - len(record.reads)
    record.check(
        "read_your_writes",
        stale_reads[0] == 0,
        f"{stale_reads[0]} reads older than an acknowledged write",
    )
    record.stats_after = conn_a.request("GET", f"/sessions/{SESSION}/stats")[1]


def _verify_serve(record, conn, live, num_vertices, oracle) -> None:
    """Compare the served state with a from-scratch SSSP on the tracked edges."""
    stats = conn.request("GET", f"/sessions/{SESSION}/stats")[1] or {}
    values = {}
    seqs = set()
    for lo in range(0, num_vertices, VERIFY_CHUNK):
        vertices = range(lo, min(lo + VERIFY_CHUNK, num_vertices))
        status, reply, _, _ = conn.request("GET", _read_path(vertices))
        if status != 200:
            raise BenchError(f"final read failed: {status} {reply}")
        values.update(reply["values"])
        seqs.add(reply["seq"])
    record.check(
        "final_edges",
        stats.get("num_edges") == len(live),
        f"served {stats.get('num_edges')} edges, tracked {len(live)}",
    )
    record.check(
        "final_snapshot",
        seqs == {stats.get("applied_seq")},
        f"final reads saw seqs {sorted(seqs)}",
    )
    actual = np.array([values[str(v)] for v in range(num_vertices)])
    batches = WARMUP_WRITES + len(record.writes)
    problem = oracle.mismatches(actual, live.edges(), batches)
    record.check("final_state", not problem, problem)


# ---------------------------------------------------------------------------
# Session workload
# ---------------------------------------------------------------------------
class SessionHost:
    """The :mod:`session_host` subprocess and its pickle message channel."""

    def __init__(self, root: Path, workdir: Path, traced: bool):
        argv = [sys.executable, str(BENCH_DIR / "session_host.py")]
        if traced:
            argv.append("--trace")
        self._log = open(workdir / "session-host.log", "wb")
        self.log_path = workdir / "session-host.log"
        self.proc = subprocess.Popen(
            argv,
            cwd=root,
            env=_env(root),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )

    def send(self, msg) -> None:
        pickle.dump(msg, self.proc.stdin, protocol=pickle.HIGHEST_PROTOCOL)
        self.proc.stdin.flush()

    def recv(self, timeout: float = PROCESS_TIMEOUT_S):
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise BenchError("session host did not reply in time")
        try:
            reply = pickle.load(self.proc.stdout)
        except EOFError:
            raise BenchError(f"session host exited: {self.log_tail()}")
        if reply[0] == "error":
            raise BenchError(f"session host failed: {reply[1]}")
        return reply

    def call(self, msg, timeout: float = PROCESS_TIMEOUT_S):
        self.send(msg)
        return self.recv(timeout)

    def log_tail(self) -> str:
        return self.log_path.read_bytes()[-2000:].decode("utf-8", "replace")

    def stop(self) -> float:
        try:
            self.send(("quit",))
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            return _reap(self.proc, PROCESS_TIMEOUT_S)
        finally:
            self.proc.stdout.close()
            self._log.close()

    def kill(self) -> None:
        _kill(self.proc)
        self._log.close()


def run_session(
    root: Path,
    workdir: Path,
    edges: list,
    num_vertices: int,
    seed: int,
    seconds: float,
    algorithm: str,
    batch_size: int,
    traced: bool,
    setup_repeats: int,
    oracle,
) -> RunRecord:
    """One Session run: set-ups, a warm-up batch, the window, the final check."""
    live = sampler.LiveEdges(edges)
    stream = sampler.BatchStream(live, num_vertices, seed, batch_size)

    def next_write():
        return ("write",) + stream.next_batch()

    host = SessionHost(root, workdir, traced)
    try:
        reply = host.call(("setup", edges, num_vertices, algorithm, setup_repeats))
        record = RunRecord(setup_s=list(reply[1]), t_start=0.0)
        host.call(next_write())  # warm-up
        record.stats_before = host.call(("stats",))[1]

        t_start = perf_counter()
        t_end = t_start + seconds
        record.t_start = t_start
        while perf_counter() < t_end:
            _, t0, t1, t2 = host.call(next_write())
            record.t_last = perf_counter()
            record.writes.append((t0, t1, batch_size, True))
            # The result read follows its write: due when sent.
            record.reads.append((t1, t1, t2, True))
        record.reads_due = len(record.reads)
        record.stats_after = host.call(("stats",))[1]
        _, states, num_edges, peak_kb, threads = host.call(("final",))
        record.peak_rss_mb = peak_kb / 1024.0
        record.threads = threads
        host.stop()
        host = None
    finally:
        if host is not None:
            host.kill()
    record.check(
        "final_edges", num_edges == len(live), f"{num_edges} edges, tracked {len(live)}"
    )
    # The warm-up batch and the measured ones.
    problem = oracle.mismatches(states, live.edges(), 1 + len(record.writes))
    record.check("final_state", not problem, problem)
    return record
