"""Record the pure-Python reference fingerprints the correctness gate uses.

Usage (from the root of a checkout)::

    python3 perfbench/record_reference.py [--only sweep|service] SEED [SEED ...]

Runs every ``sweep`` request and every ``service`` structure a run of the
default length can draw, on the pure-Python solver (``STEP_PURE_PYTHON=1``),
in one serial in-process session, and merges their report fingerprints into
``perfbench/reference.json``.  The compiled kernel is decision-for-decision
identical to the pure path, so a benchmark run must reproduce these
fingerprints exactly.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import inputs  # noqa: E402
import kernel  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
#: Service structures covered per seed: every warm one, plus the fresh ones
#: a stream of this many requests draws (about a minute at the default rate).
SERVICE_REQUESTS = 2000


def sweep_fingerprints(seed: int) -> dict:
    from repro.api import Session

    requests = inputs.sweep_requests(inputs.sweep_circuits(seed), jobs=1, backend="serial")
    reports = Session().run_suite(requests)
    return {
        inputs.request_key(report.operator, report.circuit): check.fingerprint(report)
        for report in reports
    }


def service_fingerprints(seed: int) -> dict:
    from repro.api import Session

    warm, fresh, _ = inputs.service_stream(seed, SERVICE_REQUESTS)
    session = Session()
    return {
        structure.key: check.fingerprint(session.run(inputs.service_request(structure)))
        for structure in warm + fresh
    }


def main(argv) -> int:
    families = ("sweep", "service")
    if argv[:1] == ["--only"]:
        families, argv = (argv[1],), argv[2:]
    os.environ["STEP_PURE_PYTHON"] = "1"
    tree, _ = kernel.ensure_build(os.getcwd())
    kernel.activate(tree)
    from repro.sat.solver import active_kernel_name

    if active_kernel_name() != "python":
        raise SystemExit("the reference must come from the pure-Python solver")
    for seed in (int(arg) for arg in argv):
        recorded = {
            family: {"sweep": sweep_fingerprints, "service": service_fingerprints}[family](seed)
            for family in families
        }
        with open(REFERENCE, encoding="utf-8") as handle:
            table = json.load(handle)
        for family, fingerprints in recorded.items():
            table.setdefault(family, {})[str(seed)] = fingerprints
        with open(REFERENCE, "w", encoding="utf-8") as handle:
            json.dump(table, handle, indent=0, sort_keys=True)
            handle.write("\n")
        counts = ", ".join(f"{len(v)} {k}" for k, v in recorded.items())
        print(f"seed {seed}: {counts} fingerprints", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
