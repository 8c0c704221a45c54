"""Run ``step serve`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/serve_traced.py TRACE_FILE serve --socket ...``.
The wrappers go in before ``repro.cli.main`` runs.  SIGUSR1 drops every
span recorded so far (the benchmark sends it once the cache-warming pass is
done, so the file covers the measured window only).  The daemon stops
cleanly on SIGTERM, after which the spans are written to ``TRACE_FILE``
(per-layer totals plus Chrome trace events).
"""

from __future__ import annotations

import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    from repro import cli

    tracer = tracing.Tracer()
    tracer.install()
    signal.signal(signal.SIGUSR1, lambda _signum, _frame: tracer.reset())
    try:
        return cli.main(argv)
    finally:
        tracer.dump(path, "step serve")


if __name__ == "__main__":
    sys.exit(main())
