"""Host process for the in-process ``Session`` workload.

The load generator keeps the update stream, the tracker and the
correctness check in its own process; this process holds only the
``repro.host`` session under test, so its peak RSS is the program's.
Messages are pickled tuples on stdin/stdout, one reply per request:

* ``("setup", edges, num_vertices, algorithm, repeats)`` — ``repeats``
  times: new ``Accelerator``, ``load_graph``, ``configure``, initial
  ``run``; the last session stays open. Replies with each set-up time.
* ``("write", insertions, deletions)`` — ``push_updates`` + ``run`` (the
  timed write), then the ``read_results`` a caller makes to see the
  batch's result (the timed read). Replies with the write's start, its
  end and the read's end.
* ``("stats",)`` — graph store and express counters, keyed like the
  ``store`` and ``express`` blocks of serve's ``/stats``.
* ``("final",)`` — converged states, edge count, peak RSS and, when run
  with ``--trace``, the recorded spans.
* ``("quit",)``.

Usage: ``PYTHONPATH=src python e2ebench/session_host.py [--trace]``.
"""

from __future__ import annotations

import pickle
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def serve_requests(inp, out, recorder) -> None:
    from repro.host import Accelerator

    accelerator = None
    session = None
    while True:
        msg = pickle.load(inp)
        kind = msg[0]
        if kind == "setup":
            _, edges, num_vertices, algorithm, repeats = msg
            times = []
            for _ in range(repeats):
                if accelerator is not None:
                    accelerator.close()
                t0 = perf_counter()
                accelerator = Accelerator()
                session = accelerator.load_graph(edges, num_vertices=num_vertices)
                session.configure(algorithm)
                session.run()
                times.append(perf_counter() - t0)
            reply = ("setup", times)
        elif kind == "write":
            _, insertions, deletions = msg
            t0 = perf_counter()
            session.push_updates(insertions=insertions, deletions=deletions)
            session.run()
            t1 = perf_counter()
            session.read_results()
            reply = ("write", t0, t1, perf_counter())
        elif kind == "stats":
            reply = (
                "stats",
                {"store": session.graph_store_stats(), "express": session.express_stats()},
            )
        elif kind == "final":
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            reply = (
                "final",
                session.read_results().copy(),
                session.graph.num_edges,
                peak_kb,
                recorder.threads() if recorder is not None else None,
            )
        elif kind == "quit":
            if accelerator is not None:
                accelerator.close()
            return
        else:
            raise ValueError(f"unknown message {kind!r}")
        pickle.dump(reply, out, protocol=pickle.HIGHEST_PROTOCOL)
        out.flush()


def main(argv) -> int:
    recorder = None
    if "--trace" in argv:
        recorder = spans.SpanRecorder()
        spans.install(recorder)
    out = sys.stdout.buffer
    # Keep stray prints off the message stream.
    sys.stdout = sys.stderr
    try:
        serve_requests(sys.stdin.buffer, out, recorder)
    except EOFError:
        return 1
    except Exception:
        traceback.print_exc()
        pickle.dump(("error", traceback.format_exc()), out)
        out.flush()
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
