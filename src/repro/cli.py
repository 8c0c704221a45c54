"""``step`` — the command-line front end.

Mirrors how the paper's tool is used: point it at a circuit file (BLIF or
BENCH), pick a gate type and one or more engines, and it prints one line per
decomposed primary output plus a per-engine summary.

Examples
--------
::

    step decompose adder.blif --operator or --engine STEP-QD --engine STEP-MG
    step generate rca --width 4 --out adder.blif
    step info adder.blif

    # a long-lived daemon sharing one pool and one cache across clients,
    # and the client subcommand mirroring `decompose` against it
    # (addresses are Unix paths or HOST:PORT):
    step serve --socket /tmp/repro.sock --backend process --jobs 4 \
        --cache-dir ~/.cache/repro
    step client adder.blif --socket /tmp/repro.sock --engine STEP-QD

    # a sharded tier: N TCP daemons behind one consistent-hash router
    step serve --socket 127.0.0.1:7001 --jobs 4 &
    step serve --socket 127.0.0.1:7002 --jobs 4 &
    step route --listen 127.0.0.1:7000 \
        --shard 127.0.0.1:7001 --shard 127.0.0.1:7002
    step client adder.blif --socket 127.0.0.1:7000 --engine STEP-QD

    # the repo's own static analyzer: determinism / async-hygiene /
    # error-path rules (exit 0 clean, 1 findings, 2 usage errors)
    step lint src/repro --format json
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.aig.aig import AIG
from repro.aig.support import max_output_support
from repro.api import (
    Budgets,
    CachePolicy,
    DecompositionRequest,
    Parallelism,
    Session,
)
from repro.circuits import generators
from repro.circuits.library import classic_circuit, classic_circuit_names
from repro.core.executors import BACKEND_PROCESS, BACKENDS
from repro.core.spec import ENGINES
from repro.errors import ReproError, UsageError
from repro.io.bench import read_bench, write_bench
from repro.io.blif import read_blif, write_blif

_GENERATORS = {
    "rca": lambda args: generators.ripple_carry_adder(args.width),
    "cla": lambda args: generators.carry_lookahead_adder(args.width),
    "comparator": lambda args: generators.comparator(args.width),
    "parity": lambda args: generators.parity_tree(args.width),
    "mux": lambda args: generators.mux_tree(args.width),
    "decoder": lambda args: generators.decoder(args.width),
    "majority": lambda args: generators.majority(args.width),
    "alu": lambda args: generators.alu_slice(args.width),
    "multiplier": lambda args: generators.multiplier(args.width),
}


def _load_circuit(path: str) -> AIG:
    if path in classic_circuit_names():
        return classic_circuit(path)
    # Parse errors are already ReproErrors; OS-level failures (missing file,
    # permissions, binary junk that is not even text) are wrapped so main()
    # prints a one-line error instead of leaking a traceback.
    try:
        if path.endswith(".bench"):
            return read_bench(path)
        return read_blif(path)
    except FileNotFoundError:
        raise ReproError(
            f"no such circuit file or library circuit: {path!r}"
        ) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ReproError(f"cannot read circuit file {path!r}: {exc}") from exc


def _save_circuit(aig: AIG, path: str) -> None:
    try:
        if path.endswith(".bench"):
            write_bench(aig, path)
        else:
            write_blif(aig, path)
    except OSError as exc:
        raise ReproError(f"cannot write circuit file {path!r}: {exc}") from exc


def _check_decompose_flags(args: argparse.Namespace) -> None:
    """Reject malformed flag values with one-line errors before any work.

    The request objects validate the same invariants, but checking here
    names the offending *flag* instead of the config field it maps to.
    """
    if args.max_outputs is not None and args.max_outputs < 1:
        raise ReproError(f"--max-outputs must be at least 1 (got {args.max_outputs})")
    # `client` has no placement flags (the daemon owns them); default the
    # checks away instead of branching per subcommand.
    if getattr(args, "jobs", 1) < 1:
        raise ReproError(f"--jobs must be at least 1 (got {args.jobs})")
    if args.qbf_timeout is not None and args.qbf_timeout <= 0:
        raise ReproError(
            f"--qbf-timeout must be a positive number of seconds (got {args.qbf_timeout})"
        )
    if args.output_timeout is not None and args.output_timeout <= 0:
        raise ReproError(
            f"--output-timeout must be a positive number of seconds (got {args.output_timeout})"
        )
    if args.circuit_timeout is not None and args.circuit_timeout < 0:
        # 0 is legal: it budgets nothing and reports every output skipped.
        raise ReproError(
            f"--circuit-timeout must be >= 0 seconds (got {args.circuit_timeout})"
        )
    _check_cache_flags(args)


def _check_cache_flags(args: argparse.Namespace) -> None:
    """Cache-flag invariants shared by `decompose` and `serve` (and vacuous
    for `client`, which has no placement flags)."""
    if getattr(args, "cache_dir", None) is not None and getattr(
        args, "no_dedup", False
    ):
        # The persistent cache rides on the dedup cache; accepting both
        # flags would silently persist nothing.
        raise ReproError("--cache-dir requires cone dedup; drop --no-dedup")
    if getattr(args, "cache_max_entries", None) is not None:
        if args.cache_max_entries < 1:
            raise ReproError(
                f"--cache-max-entries must be at least 1 (got {args.cache_max_entries})"
            )
        if args.cache_dir is None:
            raise ReproError("--cache-max-entries requires --cache-dir")


def _print_report(report, engines, show_fingerprint: bool = False) -> None:
    """The `decompose` output format, shared with `client`."""
    for output in report.outputs:
        for engine, result in sorted(output.results.items()):
            print(f"{output.output_name:>12} {result.summary()}")
    print("-" * 60)
    for engine in engines:
        decomposed = report.decomposed_count(engine)
        cpu = report.cpu_seconds(engine)
        print(f"{engine:>10}: #Dec = {decomposed:4d}   CPU = {cpu:8.2f} s")
    schedule = report.schedule
    if schedule:
        line = (
            f"{'schedule':>10}: jobs = {schedule.get('jobs', 1)}   "
            f"unique cones = {schedule.get('unique_cones', 0)}   "
            f"cache hits = {schedule.get('cache_hits', 0)}"
        )
        if schedule.get("jobs", 1) > 1 or schedule.get("requested_jobs", 1) > 1:
            line += f"   backend = {schedule.get('backend', 'process')}"
        if "persistent_hits" in schedule:
            line += f"   persistent hits = {schedule['persistent_hits']}"
        if schedule.get("fallback"):
            line += f"   fallback = {schedule['fallback']}"
        print(line)
        skipped = schedule.get("skipped") or []
        if skipped:
            print(
                f"{'skipped':>10}: {len(skipped)} output(s) past the circuit "
                f"budget: {', '.join(skipped)}"
            )
    if show_fingerprint:
        print(f"report fingerprint: {report.fingerprint_hex()}")


def _request_from_args(args: argparse.Namespace, remote: bool) -> DecompositionRequest:
    """Build the request both `decompose` and `client` share.

    ``remote`` drops the execution-placement knobs (jobs/backend/cache
    directory) — the daemon owns those; everything that defines the
    decomposition itself travels.
    """
    aig = _load_circuit(args.circuit)
    engines = tuple(args.engine or ["STEP-QD"])
    if remote:
        parallelism = Parallelism(dedup=not args.no_dedup)
        cache = CachePolicy()
    else:
        parallelism = Parallelism(
            jobs=args.jobs,
            dedup=not args.no_dedup,
            backend=args.backend,
        )
        cache = CachePolicy(
            directory=args.cache_dir, max_entries=args.cache_max_entries
        )
    return DecompositionRequest(
        circuit=aig,
        operator=args.operator,
        engines=engines,
        budgets=Budgets(
            per_call=args.qbf_timeout,
            per_output=args.output_timeout,
            per_circuit=args.circuit_timeout,
        ),
        parallelism=parallelism,
        cache=cache,
        max_outputs=args.max_outputs,
        verify=args.verify,
    )


def _cmd_decompose(args: argparse.Namespace) -> int:
    _check_decompose_flags(args)
    request = _request_from_args(args, remote=False)
    report = Session().run(request)
    _print_report(report, request.engines, show_fingerprint=args.fingerprint)
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    _check_decompose_flags(args)
    request = _request_from_args(args, remote=True)
    with ServiceClient(args.socket, timeout=args.connect_timeout) as client:
        report = client.run(request)
    _print_report(report, request.engines, show_fingerprint=args.fingerprint)
    return 0


def _serve_until_signal(server, address: str, banner) -> int:
    """Shared serve loop of `serve` and `route`: start, print the banner
    with the resolved address, stop cleanly on SIGINT/SIGTERM."""
    import asyncio

    async def _serve() -> None:
        import signal

        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX loops
                pass
        await server.start(address)
        print(banner(server.address), flush=True)
        try:
            await stop.wait()
        finally:
            await server.aclose()

    try:
        asyncio.run(_serve())
        print("shutting down")
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        print("shutting down")
    except OSError as exc:
        raise ReproError(f"cannot serve on {address!r}: {exc}") from None
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs import QuotaPolicy
    from repro.service import ReproService

    if args.jobs < 1:
        raise ReproError(f"--jobs must be at least 1 (got {args.jobs})")
    _check_cache_flags(args)
    quota = QuotaPolicy(
        max_inflight_per_client=args.max_inflight_per_client,
        max_pending=args.max_pending,
        cache_write_budget=args.cache_write_budget,
    )
    service = ReproService(
        jobs=args.jobs,
        backend=args.backend,
        cache_dir=args.cache_dir,
        cache_max_entries=args.cache_max_entries,
        quota=quota,
        metrics_address=args.metrics,
    )
    return _serve_until_signal(
        service,
        args.socket,
        lambda address: (
            f"serving on {address} (backend={args.backend}, jobs={args.jobs}"
            + (f", cache-dir={args.cache_dir}" if args.cache_dir else "")
            + (
                f", metrics on {service.metrics_address}"
                if service.metrics_address
                else ""
            )
            + ") — SIGINT/SIGTERM to stop"
        ),
    )


def _cmd_route(args: argparse.Namespace) -> int:
    from repro.service import ReproRouter

    if args.retries < 1:
        raise ReproError(f"--retries must be at least 1 (got {args.retries})")
    if args.probe_interval <= 0:
        raise ReproError(
            f"--probe-interval must be positive (got {args.probe_interval})"
        )
    router = ReproRouter(
        args.shard, max_attempts=args.retries, probe_interval=args.probe_interval
    )
    return _serve_until_signal(
        router,
        args.listen,
        lambda address: (
            f"routing on {address} across {len(args.shard)} shard(s): "
            + ", ".join(args.shard)
            + " — SIGINT/SIGTERM to stop"
        ),
    )


def _histogram_line(obs: dict, name: str, series_key: str = "") -> Optional[str]:
    """One ``count/p50/p90/p99`` summary line for a histogram series."""
    entry = obs.get("histograms", {}).get(name)
    if not isinstance(entry, dict):
        return None
    series = entry.get("series", {}).get(series_key)
    if not isinstance(series, dict) or not series.get("count"):
        return None
    quantiles = "  ".join(
        f"{q}={series[q] * 1000:.1f}ms"
        for q in ("p50", "p90", "p99")
        if isinstance(series.get(q), (int, float))
    )
    return f"n={series['count']}  {quantiles}"


def _counter_total(obs: dict, name: str) -> float:
    entry = obs.get("counters", {}).get(name, {})
    values = entry.get("values", {}) if isinstance(entry, dict) else {}
    return sum(v for v in values.values() if isinstance(v, (int, float)))


def _render_stats_text(stats: dict) -> str:
    """The human `step stats` view of one (daemon or router) stats frame."""
    lines = []
    router = stats.get("router")
    if isinstance(router, dict):
        lines.append(
            f"router: {router.get('shards_up', 0)} shard(s) up, "
            f"{router.get('shards_down', 0)} down; "
            f"routed={router.get('routed', 0)} "
            f"failovers={router.get('failovers', 0)} "
            f"results={router.get('results', 0)}"
        )
    lines.append(
        "requests: "
        + " ".join(
            f"{key}={stats.get(key, 0)}"
            for key in ("submitted", "completed", "cancelled", "failed")
        )
    )
    obs = stats.get("obs")
    if isinstance(obs, dict):
        for label, name in (
            ("latency   ", "repro_request_latency_seconds"),
            ("queue wait", "repro_request_queue_wait_seconds"),
            ("fair queue", "repro_fair_queue_wait_seconds"),
        ):
            line = _histogram_line(obs, name)
            if line is not None:
                lines.append(f"{label}: {line}")
        hits = _counter_total(obs, "repro_cone_cache_hits_total")
        misses = _counter_total(obs, "repro_cone_cache_misses_total")
        if hits or misses:
            rate = 100.0 * hits / (hits + misses)
            lines.append(
                f"cone cache: {int(hits)} hit(s), {int(misses)} miss(es) "
                f"({rate:.1f}% hit rate)"
            )
        rejected = _counter_total(obs, "repro_service_backpressure_total")
        if rejected:
            lines.append(f"backpressure rejections: {int(rejected)}")
    clients = stats.get("clients")
    if isinstance(clients, dict) and clients:
        lines.append("clients:")
        for client in sorted(clients):
            entry = clients[client]
            if not isinstance(entry, dict):
                continue
            lines.append(
                f"  {client}: "
                + " ".join(
                    f"{key}={entry.get(key, 0)}"
                    for key in (
                        "inflight",
                        "submitted",
                        "rejected",
                        "cache_throttled",
                    )
                )
            )
    return "\n".join(lines)


def _cmd_stats(args: argparse.Namespace) -> int:
    import json as _json
    import time as _time

    from repro.service import ServiceClient

    if args.interval <= 0:
        raise ReproError(f"--interval must be positive (got {args.interval})")
    try:
        while True:
            with ServiceClient(args.socket, timeout=args.connect_timeout) as client:
                stats = client.stats()
            if args.json:
                print(_json.dumps(stats, indent=2, sort_keys=True), flush=True)
            else:
                print(_render_stats_text(stats), flush=True)
            if not args.watch:
                return 0
            print("---", flush=True)
            _time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        DEFAULT_BASELINE_NAME,
        RULES,
        analyze_paths,
        load_baseline,
        render_json,
        render_text,
        write_baseline,
    )

    if args.list_rules:
        for rule_id in sorted(RULES):
            spec = RULES[rule_id]
            scope = ", ".join(spec.scope) if spec.scope else "whole tree"
            phase = "project, " if spec.project else ""
            print(
                f"{rule_id:>18} [{spec.severity}] {spec.title} "
                f"({phase}scope: {scope})"
            )
        return 0
    selected = None
    if args.select:
        selected = [
            rule_id.strip()
            for chunk in args.select
            for rule_id in chunk.split(",")
            if rule_id.strip()
        ]
        if not selected:
            raise UsageError("--select needs at least one rule id")
        unknown = sorted(set(selected) - set(RULES))
        if unknown:
            raise UsageError(
                "unknown rule id(s): "
                + ", ".join(unknown)
                + "; see `step lint --list-rules`"
            )
    if args.write_baseline and (
        selected is not None or args.severity or args.no_project
    ):
        # A baseline is a snapshot of the *full* run; writing one from a
        # filtered view would silently un-waive everything filtered out.
        raise UsageError(
            "--write-baseline records a full run; it cannot combine with "
            "--select, --severity or --no-project"
        )
    paths = args.paths or ["src/repro"]
    for path in paths:
        if not os.path.exists(path):
            raise UsageError(f"no such file or directory: {path!r}")
    # Baseline resolution: an explicit --baseline must exist (a typo'd
    # path silently waiving nothing would defeat the gate); the implicit
    # default is only used when the file is actually there.
    baseline = None
    if args.no_baseline:
        if args.baseline is not None:
            raise UsageError("--no-baseline and --baseline are mutually exclusive")
        baseline_path = None
    elif args.baseline is not None:
        if not os.path.isfile(args.baseline) and not args.write_baseline:
            raise UsageError(f"no such baseline file: {args.baseline!r}")
        baseline_path = args.baseline
    else:
        baseline_path = (
            DEFAULT_BASELINE_NAME
            if os.path.isfile(DEFAULT_BASELINE_NAME)
            else None
        )
    if args.write_baseline:
        report = analyze_paths(paths)
        target = baseline_path or DEFAULT_BASELINE_NAME
        count = write_baseline(target, report.findings)
        print(f"wrote {target}: {count} finding(s) baselined")
        return 0
    if baseline_path is not None:
        baseline = load_baseline(baseline_path)
    report = analyze_paths(
        paths,
        rules=selected,
        baseline=baseline,
        project=not args.no_project,
        severity=args.severity,
    )
    print(render_json(report) if args.format == "json" else render_text(report))
    return 1 if report.blocking else 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.family not in _GENERATORS:
        raise ReproError(
            f"unknown circuit family {args.family!r}; "
            f"available: {', '.join(sorted(_GENERATORS))}"
        )
    aig = _GENERATORS[args.family](args)
    _save_circuit(aig, args.out)
    print(f"wrote {args.out}: {aig!r}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    aig = _load_circuit(args.circuit)
    print(f"name     : {aig.name}")
    print(f"inputs   : {len(aig.inputs)}")
    print(f"latches  : {len(aig.latches)}")
    print(f"outputs  : {len(aig.outputs)}")
    print(f"AND nodes: {aig.num_ands}")
    print(f"#InM     : {max_output_support(aig)}")
    return 0


def _add_decomposition_flags(parser: argparse.ArgumentParser) -> None:
    """Flags that define the decomposition itself — shared verbatim by
    ``decompose`` (local) and ``client`` (remote), so scripts switch
    between them by swapping the subcommand and adding ``--socket``."""
    parser.add_argument("circuit", help="BLIF/BENCH file or a library circuit name")
    parser.add_argument("--operator", choices=["or", "and", "xor"], default="or")
    parser.add_argument(
        "--engine", action="append", choices=list(ENGINES), help="may be repeated"
    )
    parser.add_argument("--qbf-timeout", type=float, default=4.0)
    parser.add_argument("--output-timeout", type=float, default=60.0)
    parser.add_argument("--circuit-timeout", type=float, default=None)
    parser.add_argument("--max-outputs", type=int, default=None)
    parser.add_argument("--verify", action="store_true")
    parser.add_argument(
        "--no-dedup",
        action="store_true",
        help="disable structural dedup of identical output cones",
    )
    parser.add_argument(
        "--fingerprint",
        action="store_true",
        help="print a stable digest of the report (for diffing runs)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="step",
        description="Satisfiability-based funcTion dEcomPosition (QBF bi-decomposition)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    decompose = sub.add_parser("decompose", help="bi-decompose every primary output")
    _add_decomposition_flags(decompose)
    decompose.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="workers for the batch scheduler (default: 1)",
    )
    decompose.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default=BACKEND_PROCESS,
        help=(
            "execution backend for --jobs N runs: 'process' (multiprocessing "
            "pool, default), 'thread' (thread pool: no pickling, works under "
            "daemonic parents) or 'serial' (inline reference); all three "
            "produce identical reports"
        ),
    )
    decompose.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "directory for the persistent cone cache: replayable partition "
            "searches are snapshotted there and warm the next run over the "
            "same engines/options (default: no persistence)"
        ),
    )
    decompose.add_argument(
        "--cache-max-entries",
        type=int,
        default=None,
        help=(
            "compact the persistent cone cache to at most N entries at save "
            "time, evicting least-recently-hit first (default: unbounded)"
        ),
    )
    decompose.set_defaults(handler=_cmd_decompose)

    serve = sub.add_parser(
        "serve",
        help="run the long-lived decomposition daemon (Unix socket or TCP)",
    )
    serve.add_argument(
        "--socket",
        required=True,
        metavar="ADDRESS",
        help="address to listen on: a Unix socket path or HOST:PORT",
    )
    serve.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default=BACKEND_PROCESS,
        help="execution backend of the daemon's one shared pool (default: process)",
    )
    serve.add_argument(
        "--jobs",
        type=int,
        default=max(1, os.cpu_count() or 1),
        help="worker count of the shared pool (default: the machine's CPUs)",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        help="persistent cone-cache directory shared by EVERY request the daemon serves",
    )
    serve.add_argument(
        "--cache-max-entries",
        type=int,
        default=None,
        help="bound the shared snapshot: LRU-by-last-hit eviction at save time",
    )
    serve.add_argument(
        "--metrics",
        default=None,
        metavar="ADDRESS",
        help=(
            "also serve a Prometheus text-format scrape endpoint on this "
            "address (Unix path or HOST:PORT; default: off)"
        ),
    )
    serve.add_argument(
        "--max-inflight-per-client",
        type=int,
        default=None,
        metavar="N",
        help=(
            "per-connection cap on non-terminal requests; over-limit submits "
            "get a recoverable backpressure error (default: unbounded)"
        ),
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=None,
        metavar="N",
        help=(
            "bound the accept queue across ALL connections; excess submits "
            "get a recoverable backpressure error (default: unbounded)"
        ),
    )
    serve.add_argument(
        "--cache-write-budget",
        type=int,
        default=None,
        metavar="N",
        help=(
            "per-client persistent cone-cache write budget; exhausted clients "
            "keep running without the persistent cache (default: unbounded)"
        ),
    )
    serve.set_defaults(handler=_cmd_serve)

    stats = sub.add_parser(
        "stats",
        help="print a daemon's or router's live stats (latency percentiles, "
        "cache hit rate, per-client accounting)",
    )
    stats.add_argument(
        "--socket",
        required=True,
        metavar="ADDRESS",
        help="the daemon's or router's address: a Unix socket path or HOST:PORT",
    )
    stats.add_argument(
        "--json",
        action="store_true",
        help="print the raw stats frame as JSON instead of the summary",
    )
    stats.add_argument(
        "--watch",
        action="store_true",
        help="keep printing (every --interval seconds) until interrupted",
    )
    stats.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh period for --watch (default: 2.0)",
    )
    stats.add_argument(
        "--connect-timeout",
        type=float,
        default=None,
        help="socket timeout in seconds (default: wait indefinitely)",
    )
    stats.set_defaults(handler=_cmd_stats)

    route = sub.add_parser(
        "route",
        help="run the consistent-hash router over N `step serve` shards",
    )
    route.add_argument(
        "--listen",
        required=True,
        metavar="ADDRESS",
        help="client-facing address: a Unix socket path or HOST:PORT",
    )
    route.add_argument(
        "--shard",
        action="append",
        required=True,
        metavar="ADDRESS",
        help="a shard daemon's address (repeat once per shard)",
    )
    route.add_argument(
        "--retries",
        type=int,
        default=3,
        help=(
            "shard attempts per request before it fails over to a `failed` "
            "result carrying the shard error (default: 3)"
        ),
    )
    route.add_argument(
        "--probe-interval",
        type=float,
        default=1.0,
        help=(
            "seconds between health probes that re-admit returning shards "
            "to the hash ring (default: 1.0)"
        ),
    )
    route.set_defaults(handler=_cmd_route)

    client = sub.add_parser(
        "client",
        help="run one decompose against a `step serve` daemon or a "
        "`step route` shard fleet (same output)",
    )
    _add_decomposition_flags(client)
    client.add_argument(
        "--socket",
        required=True,
        metavar="ADDRESS",
        help="the daemon's or router's address: a Unix socket path or HOST:PORT",
    )
    client.add_argument(
        "--connect-timeout",
        type=float,
        default=None,
        help="socket timeout in seconds (default: wait indefinitely)",
    )
    client.set_defaults(handler=_cmd_client)

    lint = sub.add_parser(
        "lint",
        help="run the determinism/async-hygiene static analyzer over the tree",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to analyze (default: src/repro)",
    )
    lint.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help=(
            "baseline of waived legacy findings (default: lint-baseline.json "
            "in the current directory, when present)"
        ),
    )
    lint.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline: report every finding",
    )
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to the baseline file and exit 0",
    )
    lint.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format (default: text)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    lint.add_argument(
        "--select",
        default=None,
        metavar="RULE-ID[,RULE-ID...]",
        help="run only the listed rules (comma-separated, repeatable)",
        action="append",
    )
    lint.add_argument(
        "--severity",
        choices=["error", "warning"],
        default=None,
        help="report only findings of this severity",
    )
    lint.add_argument(
        "--no-project",
        action="store_true",
        help="skip the phase-2 whole-program analyses (DET-FLOW, PROTO)",
    )
    lint.set_defaults(handler=_cmd_lint)

    generate = sub.add_parser("generate", help="write a generated benchmark circuit")
    generate.add_argument("family", help=", ".join(sorted(_GENERATORS)))
    generate.add_argument("--width", type=int, default=4)
    generate.add_argument("--out", required=True)
    generate.set_defaults(handler=_cmd_generate)

    info = sub.add_parser("info", help="print circuit statistics")
    info.add_argument("circuit")
    info.set_defaults(handler=_cmd_info)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # UsageError carries 2 (called wrong), everything else 1 (failed).
        return getattr(exc, "exit_code", 1)


if __name__ == "__main__":
    sys.exit(main())
