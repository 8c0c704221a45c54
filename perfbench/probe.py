"""One set-up of a sweep workload, timed from outside by ``run.py``.

Imports the program, generates the seeded suite and builds the requests and
the session, then prints ``ready`` and the active solver kernel.
Usage: ``python3 perfbench/probe.py WORKLOAD SEED``.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    from repro.api import Session
    from repro.sat.solver import active_kernel_name

    pool = workload == "sweep_pool"
    circuits = inputs.sweep_circuits(seed)
    inputs.sweep_requests(
        circuits,
        jobs=(os.cpu_count() or 1) if pool else 1,
        backend="process" if pool else "serial",
    )
    Session()
    print("ready", active_kernel_name(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
