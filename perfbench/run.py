#!/usr/bin/env python3
"""End-to-end benchmark of the STEP bi-decomposition flow.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

Workloads: ``sweep`` (the paper's Table III/IV run, serial, in-process),
``sweep_pool`` (the same on the process pool, persistent cache writes) and
``service`` (open-loop traffic against a ``step serve`` daemon).  See
``perfbench/README.md``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  The run fails (exit
code 1, no JSON) when the program's sources are missing or the compiled
solver kernel cannot be built or is not the active solver.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import kernel  # noqa: E402
import speed  # noqa: E402

WORKLOADS = ("sweep", "sweep_pool", "service")
#: Set-ups per sweep run; ``setup_s`` is their median.  A service run
#: starts one daemon per window (``service.WINDOWS``) and takes theirs.
SWEEP_SETUPS = 11
REFERENCE = os.path.join(HERE, "reference.json")
#: Set by the launching process: the built tree the measuring process imports.
TREE_VARIABLE = "PERFBENCH_TREE"
TRACE_DIR = os.path.join(".bench_build", "traces")

END_TO_END = {
    "setup_s": "s",
    "outputs_per_s": "1/s",
    "completed_rps": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# name -> unit; every traced run prints all of them (0 where a layer is idle).
PER_LAYER = {
    "sat.solve.calls": "count",
    "sat.solve.self_s": "s",
    "sat.ingest.calls": "count",
    "sat.ingest.self_s": "s",
    "sat.cardinality.self_s": "s",
    "sat.solvers_created": "count",
    "sat.conflicts": "count",
    "sat.decisions": "count",
    "sat.propagations": "count",
    "aig.cnf.calls": "count",
    "aig.cnf.self_s": "s",
    "aig.cone.self_s": "s",
    "aig.signature.calls": "count",
    "aig.signature.self_s": "s",
    "aig.cache.saves": "count",
    "aig.cache.save_s": "s",
    "aig.cache.hit_ratio": "ratio",
    "core.checks.build.self_s": "s",
    "core.checks.check.calls": "count",
    "core.checks.check.self_s": "s",
    "core.qbf_bidec.query.calls": "count",
    "core.qbf_bidec.query.self_s": "s",
    "core.qbf_bidec.refinements": "count",
    "core.mus_partition.self_s": "s",
    "core.ljh.self_s": "s",
    "core.engine.ljh_s": "s",
    "core.engine.step-mg_s": "s",
    "core.engine.step-qd_s": "s",
    "core.engine.step-qb_s": "s",
    "core.engine.step-qdb_s": "s",
    "core.extract.calls": "count",
    "core.extract.self_s": "s",
    "core.verify.self_s": "s",
    "core.scheduler.plan_s": "s",
    "core.scheduler.finalize_s": "s",
    "core.scheduler.fair_wait_p50_ms": "ms",
    "core.scheduler.fair_wait_p99_ms": "ms",
    "core.scheduler.jobs_dispatched": "count",
    "core.executors.submit.calls": "count",
    "core.executors.submit.self_s": "s",
    "core.executors.wait_s": "s",
    "core.executors.pool_start_s": "s",
    "core.executors.parallel_efficiency": "ratio",
    "api.session.self_s": "s",
    "service.codec.encode_request_s": "s",
    "service.codec.decode_report_s": "s",
    "service.codec.decode_request_s": "s",
    "service.codec.encode_report_s": "s",
    "service.result_frame_bytes": "bytes",
    "service.daemon.queue_wait_p50_ms": "ms",
    "service.daemon.queue_wait_p99_ms": "ms",
    "service.daemon.run_p50_ms": "ms",
    "service.daemon.reply_p50_ms": "ms",
    "service.latency_p50_ms": "ms",
    "service.latency_p99_ms": "ms",
    "service.backpressure": "count",
    "loadgen.sent": "count",
    "loadgen.lag_p99_ms": "ms",
    "trace.coverage_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

# per-layer metric -> (span name, field): 0 calls, 1 inclusive s, 2 self s.
SPAN_METRICS = {
    "sat.solve.calls": ("sat.solve", 0),
    "sat.solve.self_s": ("sat.solve", 2),
    "sat.ingest.calls": ("sat.ingest", 0),
    "sat.ingest.self_s": ("sat.ingest", 2),
    "sat.cardinality.self_s": ("sat.cardinality", 2),
    "sat.solvers_created": ("sat.create", 0),
    "aig.cnf.calls": ("aig.cnf", 0),
    "aig.cnf.self_s": ("aig.cnf", 2),
    "aig.cone.self_s": ("aig.cone", 2),
    "aig.signature.calls": ("aig.signature", 0),
    "aig.signature.self_s": ("aig.signature", 2),
    "aig.cache.saves": ("aig.cache.save", 0),
    "aig.cache.save_s": ("aig.cache.save", 1),
    "core.checks.build.self_s": ("core.checks.build", 2),
    "core.checks.check.calls": ("core.checks.check", 0),
    "core.checks.check.self_s": ("core.checks.check", 2),
    "core.qbf_bidec.query.calls": ("core.qbf_bidec.query", 0),
    "core.qbf_bidec.query.self_s": ("core.qbf_bidec.query", 2),
    "core.mus_partition.self_s": ("core.mus_partition", 2),
    "core.ljh.self_s": ("core.ljh", 2),
    "core.engine.ljh_s": ("core.engine.ljh", 1),
    "core.engine.step-mg_s": ("core.engine.step-mg", 1),
    "core.engine.step-qd_s": ("core.engine.step-qd", 1),
    "core.engine.step-qb_s": ("core.engine.step-qb", 1),
    "core.engine.step-qdb_s": ("core.engine.step-qdb", 1),
    "core.extract.calls": ("core.extract", 0),
    "core.extract.self_s": ("core.extract", 2),
    "core.verify.self_s": ("core.verify", 2),
    "core.scheduler.plan_s": ("core.scheduler.plan", 1),
    "core.scheduler.finalize_s": ("core.scheduler.finalize", 1),
    "core.executors.submit.calls": ("core.executors.submit", 0),
    "core.executors.submit.self_s": ("core.executors.submit", 2),
    "core.executors.wait_s": ("core.executors.wait", 2),
    "core.executors.pool_start_s": ("core.executors.pool_start", 1),
    "api.session.self_s": ("api.session", 2),
    "service.codec.encode_request_s": ("service.codec.encode_request", 1),
    "service.codec.decode_report_s": ("service.codec.decode_report", 1),
    "service.codec.decode_request_s": ("service.codec.decode_request", 1),
    "service.codec.encode_report_s": ("service.codec.encode_report", 1),
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def load_reference(family: str, seed: int):
    """Committed pure-Python fingerprints for ``seed``, or ``None``."""
    with open(REFERENCE, encoding="utf-8") as handle:
        table = json.load(handle)
    return table.get(family, {}).get(str(seed))


def span_values(totals, scale: float) -> dict:
    values = {}
    for metric, (span, field) in SPAN_METRICS.items():
        entry = totals.get(span)
        values[metric] = entry[field] / scale if entry else 0.0
    return values


def report_metrics(reports) -> dict:
    """Per-layer counts read off the reports themselves (exact, untimed)."""
    results = [
        result for report in reports for output in report.outputs
        for result in output.results.values()
    ]
    planned = sum(int(report.schedule.get("planned", 0)) for report in reports)
    hits = sum(int(report.schedule.get("persistent_hits", 0)) for report in reports)
    return {
        "sat.conflicts": sum(result.stats.conflicts for result in results),
        "sat.decisions": sum(result.stats.decisions for result in results),
        "sat.propagations": sum(result.stats.propagations for result in results),
        "core.qbf_bidec.refinements": sum(result.stats.refinements for result in results),
        "aig.cache.hit_ratio": hits / planned if planned else 0.0,
    }


def probe_setup(workload: str, seed: int) -> float:
    """Launch-to-ready reference seconds of one fresh sweep process."""
    clock = speed.Clock()
    started = time.perf_counter()
    clock.calibrate(started)
    child = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed)],
        stdout=subprocess.PIPE,
        text=True,
    )
    line = child.stdout.readline()
    ready = time.perf_counter()
    clock.calibrate(ready)
    child.stdout.read()
    child.stdout.close()
    if child.wait() != 0 or line.split() != ["ready", "c"]:
        raise kernel.KernelError(f"set-up probe failed: {line.strip()!r}")
    return clock.scale(started, ready)


# -- sweep / sweep_pool ---------------------------------------------------------


def run_sweep(args) -> tuple:
    import sweep as sweep_module

    pool = args.workload == "sweep_pool"
    setup = [probe_setup(args.workload, args.seed) for _ in range(SWEEP_SETUPS)]
    bench = sweep_module.Sweep(args.seed, pool)
    tracer = None
    if args.trace:
        import tracing

        half = args.seconds / 2.0
        bench.run(half, minimum=1)
        untraced = list(bench.iterations)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            bench.run(half, minimum=1, tracer=tracer)
        finally:
            tracer.uninstall()
        traced = bench.iterations[len(untraced):]
    else:
        bench.run(args.seconds)
    rss = sweep_module.peak_rss_mb()
    reference = load_reference("sweep", args.seed)
    attempted, failed, notes = bench.verify(reference)
    if reference is None:
        notes.append(f"no committed reference fingerprints for seed {args.seed}")
    if not args.trace:
        measured = bench.end_to_end()
        metrics = {name: measured[name] for name in END_TO_END if name in measured}
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = rss
        report_lines = [
            "sweep wall per drain (s): "
            + ", ".join(f"{it['wall']:.3f}" for it in bench.iterations),
            "in reference seconds: "
            + ", ".join(f"{it['wall_ref']:.3f}" for it in bench.iterations),
            "setup samples (reference s): " + ", ".join(f"{s:.3f}" for s in setup),
        ]
        return metrics, attempted, failed, notes, report_lines
    totals = tracer.totals()
    count = len(traced)
    metrics = span_values(totals, count)
    # Only the first drain keeps its reports; the checks make every drain's
    # counters equal to its.
    metrics.update(report_metrics(bench.iterations[0]["reports"]))
    wall_traced = statistics.median(it["wall_ref"] for it in traced)
    wall_untraced = statistics.median(it["wall_ref"] for it in untraced)
    workers = bench.jobs
    metrics["core.executors.parallel_efficiency"] = statistics.median(
        (it["worker_cpu"] if pool else it["cpu"]) / (it["wall"] * workers) for it in traced
    )
    program_self = sum(
        entry[2] for name, entry in totals.items() if name != "api.session"
    )
    metrics["trace.coverage_ratio"] = program_self / sum(it["wall"] for it in traced)
    metrics["trace.overhead_ratio"] = wall_traced / wall_untraced
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.json")
    tracer.dump(path, f"benchmark {args.workload}")
    report_lines = [
        f"untraced drain {wall_untraced:.3f} reference s; traced {wall_traced:.3f}",
        f"trace file: {path}",
    ]
    return metrics, attempted, failed, notes, report_lines


# -- service ------------------------------------------------------------------


async def _service_phase(args, seconds: float, windows: int, trace_path=None, tracer=None):
    """Serve the stream in ``windows`` parts, each on a fresh daemon whose
    start is one set-up sample; returns the bench and each window's data."""
    import service as service_module

    bench = service_module.Service(args.seed, seconds)
    measured = []
    for part in service_module.parts(bench.count, windows):
        try:
            await bench.setup(trace_path)
            if tracer is None:
                measured.append(await bench.window(part))
                continue
            # Spans start with the window: the warming pass is not traced.
            await bench.restart_daemon_trace()
            tracer.install()
            try:
                measured.append(await bench.window(part, tracer))
            finally:
                tracer.uninstall()
        finally:
            await bench.shutdown()
    return bench, measured


def run_service(args) -> tuple:
    import service as service_module

    reference = load_reference("service", args.seed)
    extra = [] if reference is not None else [
        f"no committed reference fingerprints for seed {args.seed}"
    ]
    if not args.trace:
        bench, windows = asyncio.run(
            _service_phase(args, args.seconds, service_module.WINDOWS)
        )
        measured = service_module.combine(windows)
        attempted, failed, notes = bench.verify(measured, reference)
        metrics = service_module.end_to_end(bench, measured)
        latencies = measured["latencies"]
        lines = [
            f"offered rate {bench.rate:g}/s for {measured['span']:.2f}s in {len(windows)} windows",
            # Not gated (see README): logged for a reader, from all windows.
            f"latency p50 {service_module.percentile(latencies, 50) * 1e3:.2f} ms, "
            f"p99 {service_module.percentile(latencies, 99) * 1e3:.2f} ms "
            f"over {len(latencies)} samples; per window p50/p99: "
            + ", ".join(
                f"{service_module.percentile(w['latencies'], 50) * 1e3:.2f}"
                f"/{service_module.percentile(w['latencies'], 99) * 1e3:.1f}"
                for w in windows
            ),
            "setup samples (reference s): "
            + ", ".join(f"{s:.3f}" for s in bench.setup_samples),
        ]
        return metrics, attempted, failed, notes + extra, lines
    import tracing

    # One window per half, so the traced daemon serves exactly what the
    # untraced one did.
    half = args.seconds / 2.0
    plain, (plain_measured,) = asyncio.run(_service_phase(args, half, 1))
    os.makedirs(TRACE_DIR, exist_ok=True)
    daemon_path = os.path.abspath(os.path.join(TRACE_DIR, f"service-daemon-seed{args.seed}.json"))
    tracer = tracing.Tracer()
    bench, (measured,) = asyncio.run(_service_phase(args, half, 1, daemon_path, tracer))
    attempted, failed, notes = plain.verify(plain_measured, reference)
    more = bench.verify(measured, reference)
    attempted, failed, notes = attempted + more[0], failed + more[1], notes + more[2]
    with open(daemon_path, encoding="utf-8") as handle:
        daemon_totals = json.load(handle)["totals"]
    client_totals = tracer.totals()
    merged = dict(daemon_totals)
    for name in ("service.codec.encode_request", "service.codec.decode_report"):
        merged[name] = client_totals.get(name, [0, 0.0, 0.0])
    metrics = span_values(merged, 1.0)
    metrics.update(report_metrics(measured["reports"].values()))
    stats, before = measured["stats"], measured["stats_before"]

    def quantile_ms(name: str, q: float) -> float:
        return service_module.histogram_quantile(stats, before, name, q) * 1e3

    metrics["core.scheduler.fair_wait_p50_ms"] = quantile_ms("repro_fair_queue_wait_seconds", 0.5)
    metrics["core.scheduler.fair_wait_p99_ms"] = quantile_ms("repro_fair_queue_wait_seconds", 0.99)
    metrics["core.scheduler.jobs_dispatched"] = service_module.counter(
        stats, "repro_jobs_dispatched_total", before
    )
    metrics["service.daemon.queue_wait_p50_ms"] = quantile_ms("repro_request_queue_wait_seconds", 0.5)
    metrics["service.daemon.queue_wait_p99_ms"] = quantile_ms("repro_request_queue_wait_seconds", 0.99)
    metrics["service.daemon.run_p50_ms"] = quantile_ms("repro_request_run_seconds", 0.5)
    metrics["service.daemon.reply_p50_ms"] = quantile_ms("repro_request_reply_seconds", 0.5)
    # The untraced half's request latencies (from each due send time).
    metrics["service.latency_p50_ms"] = service_module.percentile(plain_measured["latencies"], 50) * 1e3
    metrics["service.latency_p99_ms"] = service_module.percentile(plain_measured["latencies"], 99) * 1e3
    metrics["service.backpressure"] = measured["backpressure"]
    frames = measured["result_bytes"]
    metrics["service.result_frame_bytes"] = statistics.median(frames) if frames else 0.0
    metrics["loadgen.sent"] = bench.count
    metrics["loadgen.lag_p99_ms"] = service_module.percentile(measured["lags"], 99) * 1e3
    jobs = os.cpu_count() or 1
    metrics["core.executors.parallel_efficiency"] = measured["worker_cpu"] / (measured["span"] * jobs)
    # The daemon idles between requests: here the ratio is the share of the
    # window its traced layers were busy, not a coverage target.
    daemon_self = sum(entry[2] for entry in daemon_totals.values())
    metrics["trace.coverage_ratio"] = daemon_self / measured["span"]
    plain_p50 = service_module.percentile(plain_measured["latencies"], 50)
    traced_p50 = service_module.percentile(measured["latencies"], 50)
    metrics["trace.overhead_ratio"] = traced_p50 / plain_p50 if plain_p50 else 0.0
    lines = [
        f"untraced p50 {plain_p50 * 1e3:.3f} ms; traced p50 {traced_p50 * 1e3:.3f} ms",
        f"daemon trace file: {daemon_path}",
    ]
    return metrics, attempted, failed, notes + extra, lines


# -- main ---------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    tree = os.environ.get(TREE_VARIABLE)
    try:
        if tree is None:
            tree, compile_seconds = kernel.ensure_build(os.getcwd())
            log(f"kernel build: {tree} (compiled in {compile_seconds:.2f}s, not part of setup_s)")
            # Measure in a fresh process: the compiler ran as a child of this
            # one, so only there do RUSAGE_CHILDREN (peak_rss_mb, cpu_s) see
            # nothing but program processes.
            command = [sys.executable, os.path.abspath(__file__)]
            command += sys.argv[1:] if argv is None else list(argv)
            return subprocess.call(command, env=dict(os.environ, **{TREE_VARIABLE: tree}))
        kernel.activate(tree)
        kernel.require_kernel()
    except kernel.KernelError as exc:
        log(f"error: {exc}")
        return 1
    runner = run_service if args.workload == "service" else run_sweep
    metrics, attempted, failed, notes, lines = runner(args)
    units = PER_LAYER if args.trace else END_TO_END
    for line in lines:
        log(line)
    for note in notes[:50]:
        log(f"check: {note}")
    print(f"workload {args.workload}, seed {args.seed}, {'traced' if args.trace else 'untraced'}")
    for name, unit in units.items():
        print(f"  {name:40s} {metrics.get(name, 0.0):>14.6g} {unit}")
    print(f"  {'fail_ratio':40s} {failed / max(1, attempted):>14.6g} ratio  ({failed} of {attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
