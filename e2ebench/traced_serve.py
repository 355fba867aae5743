"""Run ``repro serve`` with the benchmark's layer spans installed.

Usage::

    PYTHONPATH=src python e2ebench/traced_serve.py SPANS.json serve --port 0 ...

Installs the wrappers of :mod:`spans` on the program's classes, then runs
the same ``repro.cli`` ``serve`` code path a user runs with the remaining
arguments. When the server has drained and stopped, the recorded spans
are written to ``SPANS.json``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def main(argv) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[1:]
    recorder = spans.SpanRecorder()
    spans.install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        recorder.dump(out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
