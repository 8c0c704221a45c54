"""The ``sweep`` and ``sweep_pool`` workloads: the paper's Table III/IV run.

``sweep`` runs the whole suite (3 operators x 18 circuits, first 4 outputs,
all five engines, no extraction) through one in-process
``Session`` suite drain on the serial backend.  ``sweep_pool`` runs the
same requests on ``Parallelism(jobs=nproc, backend="process")`` with a
fresh, empty persistent cache directory per operator, so every unique cone
is absorbed and saved.

One iteration is one suite drain; a run repeats iterations until its time
is used up and reports medians.  The calibration chunk of ``speed.py``
runs after every record, and every interval between records is scaled by
the speed measured around it.
"""

from __future__ import annotations

import contextlib
import gc
import os
import resource
import shutil
import statistics
import time
from typing import Dict, List, Optional

import check
import inputs
import speed

WORKDIR = os.path.join(".bench_build", "work")


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _children_cpu() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Largest RSS of this process and its reaped children (probes, pool
    workers): ``run.py`` measures in a process that never ran the compiler."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Sweep:
    def __init__(self, seed: int, pool: bool) -> None:
        self.pool = pool
        self.jobs = (os.cpu_count() or 1) if pool else 1
        self.circuits = inputs.sweep_circuits(seed)
        self.iterations: List[Dict[str, object]] = []
        self.workdir = os.path.join(WORKDIR, f"sweep-{os.getpid()}")

    def _requests(self, index: int):
        cache_dirs = None
        if self.pool:
            cache_dirs = {}
            for operator in inputs.OPERATORS:
                path = os.path.join(self.workdir, f"{index}-{operator}")
                os.makedirs(path)
                cache_dirs[operator] = path
        return inputs.sweep_requests(
            self.circuits,
            jobs=self.jobs,
            backend="process" if self.pool else "serial",
            cache_dirs=cache_dirs,
        )

    def iterate(self, tracer=None) -> Dict[str, object]:
        """One suite drain, timed; returns (and keeps) its measurements."""
        from repro.api import Session
        from repro.sat.solver import solver_work_snapshot

        gc.collect()  # before the pool forks: leftovers of the last drain
        requests = self._requests(len(self.iterations))
        session = Session()
        work_before = solver_work_snapshot()
        children_before = _children_cpu()
        cpu_before = _cpu_seconds()
        clock = speed.Clock()
        intervals = []
        span = (
            tracer.span("api.session", request=f"drain{len(self.iterations)}")
            if tracer
            else contextlib.nullcontext()
        )
        mark = time.perf_counter()
        with span:
            session.submit(requests)
            for _record in session.as_completed():
                now = time.perf_counter()
                intervals.append((mark, now))
                clock.sample(now)
                # Serial work pauses while the chunk runs; pool workers do not.
                mark = now if self.pool else time.perf_counter()
            reports = session.reports()
        intervals.append((mark, time.perf_counter()))
        cpu = _cpu_seconds() - cpu_before - sum(clock.samples)
        worker_cpu = _children_cpu() - children_before
        work_after = solver_work_snapshot()
        session.close()
        if self.pool:
            shutil.rmtree(self.workdir, ignore_errors=True)
        wall = sum(end - start for start, end in intervals)
        wall_ref = sum(clock.scale(*pair) for pair in intervals)
        outputs = sum(len(report.outputs) for report in reports)
        measured = {
            "wall": wall,
            "cpu": cpu,
            "wall_ref": wall_ref,
            "cpu_ref": cpu * wall_ref / wall,
            "worker_cpu": worker_cpu,
            "outputs": outputs,
            "requests": len(reports),
            # Later drains keep only what the checks compare: this process
            # must not grow from drain to drain, as every drain's pool
            # workers fork from it (peak_rss_mb).
            "reports": None if self.iterations else reports,
            "results": {
                inputs.request_key(report.operator, report.circuit): (
                    check.fingerprint(report),
                    len(report.outputs),
                    report.schedule.get("solver_kernel"),
                )
                for report in reports
            },
            "solver_stats": solver_stats(reports),
            "work": tuple(b - a for a, b in zip(work_before, work_after)),
        }
        self.iterations.append(measured)
        return measured

    def run(self, seconds: float, minimum: int = 2, tracer=None) -> None:
        deadline = time.perf_counter() + seconds
        count = 0
        while count < minimum or time.perf_counter() + self._typical() <= deadline:
            self.iterate(tracer)
            count += 1

    def _typical(self) -> float:
        return statistics.median(it["wall"] for it in self.iterations) if self.iterations else 0.0

    # -- results -------------------------------------------------------------------

    def end_to_end(self) -> Dict[str, float]:
        """Medians over whole drains, in reference seconds (``speed.py``)."""
        runs = self.iterations
        wall = statistics.median(it["wall_ref"] for it in runs)
        cpu = statistics.median(it["cpu_ref"] for it in runs)
        return {
            "outputs_per_s": runs[0]["outputs"] / wall,
            "completed_rps": runs[0]["requests"] / wall,
            "cpu_s": cpu,
        }

    def verify(self, reference: Optional[Dict[str, str]]) -> tuple:
        """``(attempted, failed, notes)`` over every measured iteration."""
        notes: List[str] = []
        tables = {circuit.name: check.Tables(circuit.aig) for circuit in self.circuits}
        first_problems = {
            inputs.request_key(report.operator, report.circuit): check.check_report(
                report, tables[report.circuit], report.operator, False
            )
            for report in self.iterations[0]["reports"]
        }
        expected = {key: digest for key, (digest, _, _) in self.iterations[0]["results"].items()}
        attempted = failed = 0
        for number, iteration in enumerate(self.iterations):
            for key, (digest, outputs, kernel) in iteration["results"].items():
                outputs = max(1, outputs)
                attempted += outputs
                bad = []
                if kernel != "c":
                    bad.append(f"{key}: solver kernel {kernel!r}")
                if digest != expected[key]:
                    bad.append(f"{key}: iteration {number} differs from iteration 0")
                if reference is not None and reference.get(key) != expected[key]:
                    bad.append(f"{key}: fingerprint differs from the pure-Python reference")
                if number == 0:
                    bad.extend(first_problems[key])
                if bad:
                    failed += outputs
                    notes.extend(bad)
        works = {it["work"] for it in self.iterations}
        if not self.pool and len(works) != 1:
            notes.append(f"solver counters differ between iterations: {sorted(works)}")
            failed += 1
        counters = {it["solver_stats"] for it in self.iterations}
        if len(counters) != 1:
            notes.append(f"report solver_stats differ between iterations: {sorted(counters)}")
            failed += 1
        return attempted, failed, notes


def solver_stats(reports) -> tuple:
    """Total (conflicts, decisions, propagations) the reports record."""
    totals = [0, 0, 0]
    for report in reports:
        stats = report.schedule.get("solver_stats", {})
        for position, key in enumerate(("conflicts", "decisions", "propagations")):
            totals[position] += int(stats.get(key, 0))
    return tuple(totals)
