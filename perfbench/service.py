"""The ``service`` workload: open-loop traffic against a ``step serve`` daemon.

The daemon runs in its default deployment (``python -m repro.cli serve``:
process backend, ``--jobs`` = CPUs) with a ``--cache-dir`` that set-up
warms by submitting every warm structure once.  One asyncio client on one
Unix-socket connection then sends a seeded stream at a fixed rate, whether
or not earlier requests have completed (open loop).  About three quarters
of the requests repeat warmed structures (persistent-cache reads: signature,
replay, extraction); the rest are fresh circuits (worker dispatch and cache
writes).  Every request runs STEP-MG and STEP-QD with extraction and
verification on.

Each request is timed from the moment it was *due* to be sent to the
moment its decoded report is in hand, so a stall also charges the requests
queued behind it.  How late the sender itself ran is reported as
``loadgen.lag_p99_ms``.  The calibration chunk of ``speed.py`` runs after
every send, and each latency and the window's CPU time are scaled to the
reference speed by it.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import check
import inputs
import speed
from stats import percentile

HERE = os.path.dirname(os.path.abspath(__file__))
WORKDIR = os.path.join(".bench_build", "work")

#: Offered rate of the fixed-rate window (requests per second).
RATE = 34.0
#: Consecutive windows of an untraced run, each on a freshly started daemon.
#: Latency moved by ~5 % from one daemon process to the next at a fixed
#: machine speed, and the cache snapshot each fresh request rewrites grows
#: through a window; pooling several shorter windows evens out both.
WINDOWS = 5
#: Seconds a run waits for stragglers after the last send.
DRAIN_SECONDS = 30.0
#: Seconds a daemon gets to exit after SIGTERM before it is killed.
STOP_SECONDS = 10.0
LINE_LIMIT = 64 * 1024 * 1024
CLK_TCK = os.sysconf("SC_CLK_TCK")


def _proc_tree(pid: int) -> List[int]:
    """``pid`` and its direct children (the daemon and its pool workers)."""
    found = [pid]
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as handle:
                found.extend(int(child) for child in handle.read().split())
        except OSError:
            pass
    return found


def _cpu_of(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def _hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Daemon:
    """One ``step serve`` process on a private Unix socket."""

    def __init__(self, tag: str, trace_path: Optional[str] = None) -> None:
        self.dir = os.path.abspath(os.path.join(WORKDIR, f"service-{os.getpid()}-{tag}"))
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(os.path.join(self.dir, "cache"))
        self.socket = os.path.join(self.dir, "daemon.sock")
        serve = ["serve", "--socket", self.socket, "--cache-dir", os.path.join(self.dir, "cache")]
        if trace_path is None:
            command = [sys.executable, "-m", "repro.cli", *serve]
        else:
            command = [sys.executable, os.path.join(HERE, "serve_traced.py"), trace_path, *serve]
        self.log_path = os.path.join(self.dir, "daemon.log")
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.process = subprocess.Popen(command, stdout=log, stderr=subprocess.STDOUT)

    def cpu_seconds(self) -> float:
        return sum(_cpu_of(pid) for pid in _proc_tree(self.process.pid))

    def worker_cpu_seconds(self) -> float:
        return sum(_cpu_of(pid) for pid in _proc_tree(self.process.pid)[1:])

    def peak_rss_mb(self) -> float:
        return max(_hwm_mb(pid) for pid in _proc_tree(self.process.pid))

    def stop(self) -> None:
        """SIGTERM (a clean drain), then SIGKILL for anything left over."""
        workers = _proc_tree(self.process.pid)[1:]
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_SECONDS)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
                with open(self.log_path, encoding="utf-8", errors="replace") as log:
                    tail = log.read()[-2000:]
                print(f"daemon ignored SIGTERM for {STOP_SECONDS}s; killed. Log tail:\n{tail}",
                      file=sys.stderr)
        for pid in workers:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        shutil.rmtree(self.dir, ignore_errors=True)


class Connection:
    """One client connection: tagged submits, results matched by id."""

    def __init__(self, reader, writer) -> None:
        from repro.service import protocol

        self.protocol = protocol
        self.reader = reader
        self.writer = writer
        self.waiters: Dict[object, asyncio.Future] = {}
        self.tag_of: Dict[int, object] = {}
        self.result_bytes: List[int] = []
        self.reader_task = asyncio.ensure_future(self._read())

    @classmethod
    async def open(cls, path: str, timeout: float = 60.0) -> "Connection":
        deadline = time.monotonic() + timeout
        while True:
            try:
                reader, writer = await asyncio.open_unix_connection(path, limit=LINE_LIMIT)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                if time.monotonic() > deadline:
                    raise
                await asyncio.sleep(0.01)
        connection = cls(reader, writer)
        await connection.call({"type": "ping"})
        return connection

    async def _read(self) -> None:
        decode_frame = self.protocol.decode_frame
        while True:
            line = await self.reader.readline()
            if not line:
                break
            frame = decode_frame(line)
            kind = frame.get("type")
            if kind == "hello":
                continue
            if kind == "event":
                if frame.get("state") == "queued" and "tag" in frame:
                    self.tag_of[frame["id"]] = frame["tag"]
                continue
            if kind == "result":
                self.result_bytes.append(len(line))
                tag = self.tag_of.pop(frame["id"], None)
            else:
                tag = frame.get("tag")
            waiter = self.waiters.pop(tag, None)
            if waiter is not None and not waiter.done():
                waiter.set_result(frame)
        for waiter in self.waiters.values():
            if not waiter.done():
                waiter.set_exception(ConnectionError("daemon closed the connection"))

    def send(self, frame: dict, tag) -> asyncio.Future:
        frame = dict(frame, v=self.protocol.PROTOCOL_VERSION, tag=tag)
        waiter = asyncio.get_running_loop().create_future()
        self.waiters[tag] = waiter
        self.writer.write(self.protocol.encode_frame(frame))
        return waiter

    async def call(self, frame: dict, tag="call") -> dict:
        return await self.send(frame, tag)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass
        self.reader_task.cancel()
        try:
            await self.reader_task
        except (asyncio.CancelledError, ConnectionError):
            pass


def _submit_frame(protocol, structure) -> dict:
    return {"type": "submit", "request": protocol.encode_request(inputs.service_request(structure))}


async def _warm(connection: Connection, warm) -> List[dict]:
    waiters = [
        connection.send(_submit_frame(connection.protocol, structure), f"warm{index}")
        for index, structure in enumerate(warm)
    ]
    return list(await asyncio.gather(*waiters))


async def _start(warm, tag: str, trace_path: Optional[str]):
    daemon = Daemon(tag, trace_path)
    try:
        connection = await Connection.open(daemon.socket)
        await _warm(connection, warm)
    except BaseException:
        daemon.stop()
        raise
    return daemon, connection


class Service:
    def __init__(self, seed: int, seconds: float) -> None:
        started = time.perf_counter()
        self.rate = RATE
        self.count = max(1, int(round(RATE * seconds)))
        self.warm, self.fresh, self.stream = inputs.service_stream(seed, self.count)
        self.generate_s = time.perf_counter() - started
        self.setup_samples: List[float] = []
        self.daemon: Optional[Daemon] = None
        self.connection: Optional[Connection] = None

    async def setup(self, trace_path: Optional[str] = None) -> None:
        """Start a fresh daemon and warm its cache: one set-up sample."""
        clock = speed.Clock()
        started = time.perf_counter()
        clock.calibrate(started)
        tag = f"{len(self.setup_samples)}{'t' if trace_path else ''}"
        self.daemon, self.connection = await _start(self.warm, tag, trace_path)
        ready = time.perf_counter()
        clock.calibrate(ready)
        factor = clock.factor((started + ready) / 2.0)
        self.setup_samples.append((self.generate_s + ready - started) * factor)

    async def restart_daemon_trace(self) -> None:
        """Make a ``serve_traced.py`` daemon drop the spans it has so far.

        The ping round trip after the signal ensures the daemon's main
        thread, which runs the handler, has passed it.
        """
        self.daemon.process.send_signal(signal.SIGUSR1)
        await self.connection.call({"type": "ping"}, "restart")

    async def window(self, part: range, tracer=None) -> Dict[str, object]:
        """Send ``self.stream[part]`` open-loop at the fixed rate; collect
        every reply."""
        from repro.service import protocol

        connection = self.connection
        loop = asyncio.get_running_loop()
        interval = 1.0 / self.rate
        done_at: Dict[int, float] = {}
        reports: Dict[int, object] = {}
        failures: Dict[int, str] = {}
        lags: List[float] = []
        clock = speed.Clock()
        stats_before = (await connection.call({"type": "stats"}, "stats")).get("stats", {})
        clock.calibrate(loop.time())
        cpu_before = self.daemon.cpu_seconds()
        worker_before = self.daemon.worker_cpu_seconds()

        async def finish(index: int, waiter: asyncio.Future) -> None:
            try:
                frame = await waiter
            except ConnectionError as exc:
                failures[index] = str(exc)
                return
            if frame.get("type") != "result" or frame.get("state") != "done":
                failures[index] = str(frame.get("error") or frame.get("state") or frame)
                return
            if tracer:
                tracer.request = f"r{index}"
            reports[index] = protocol.decode_report(frame["report"])
            done_at[index] = loop.time()

        tasks = []
        start = loop.time() + 0.05 - part.start * interval
        for index in part:
            structure = self.stream[index]
            due = start + index * interval
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            lags.append(max(0.0, loop.time() - due))
            if tracer:
                tracer.request = f"r{index}"
            waiter = connection.send(_submit_frame(protocol, structure), index)
            tasks.append(asyncio.ensure_future(finish(index, waiter)))
            clock.sample(loop.time())
        first_due = start + part.start * interval
        window_end = start + part.stop * interval
        if tasks:
            _, pending = await asyncio.wait(tasks, timeout=DRAIN_SECONDS)
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
        clock.calibrate(loop.time())
        cpu = self.daemon.cpu_seconds() - cpu_before
        worker_cpu = self.daemon.worker_cpu_seconds() - worker_before
        latencies = sorted(clock.scale(start + i * interval, done_at[i]) for i in done_at)
        stats_frame = (await connection.call({"type": "stats"}, "stats")).get("stats", {})
        return {
            "latencies": latencies,
            "lags": sorted(lags),
            "reports": reports,
            "failures": failures,
            "completed": len(done_at),
            "outputs": sum(len(report.outputs) for report in reports.values()),
            # From the first due send to the last reply.
            "busy": max(done_at.values(), default=window_end) - first_due,
            "cpu": cpu,
            "cpu_ref": cpu * speed.REFERENCE_S / statistics.median(clock.samples),
            "worker_cpu": worker_cpu,
            "span": window_end - first_due,
            "stats_before": stats_before,
            "stats": stats_frame,
            # Since the daemon started: the warming pass counts too.
            "backpressure": counter(stats_frame, "repro_service_backpressure_total"),
            "peak_rss_mb": self.daemon.peak_rss_mb(),
            "result_bytes": list(connection.result_bytes),
        }

    async def shutdown(self) -> None:
        if self.connection is not None:
            await self.connection.close()
            self.connection = None
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    # -- checks -----------------------------------------------------------------

    def verify(self, measured: Dict[str, object], reference: Optional[Dict[str, str]]):
        """``(attempted, failed, notes)`` for the whole stream."""
        notes: List[str] = []
        failed = 0
        reports = measured["reports"]
        for index, reason in sorted(measured["failures"].items()):
            notes.append(f"request {index}: {reason}")
            failed += 1
        missing = self.count - len(reports) - len(measured["failures"])
        if missing:
            notes.append(f"{missing} requests got no reply within {DRAIN_SECONDS}s")
            failed += missing
        checked: Dict[str, str] = {}
        for index in sorted(reports):
            report = reports[index]
            structure = self.stream[index]
            bad = []
            if report.schedule.get("solver_kernel") != "c":
                bad.append(f"solver kernel {report.schedule.get('solver_kernel')!r}")
            digest = check.fingerprint(report)
            key = structure.key
            if key not in checked:
                checked[key] = digest
                tables = check.Tables(structure.circuit)
                bad.extend(check.check_report(report, tables, structure.operator, True))
                if not report.outputs:
                    bad.append("empty report")
            elif checked[key] != digest:
                bad.append(f"{key}: fingerprint differs from an earlier reply")
            if reference is not None and key in reference and reference[key] != digest:
                bad.append(f"{key}: fingerprint differs from the pure-Python reference")
            if bad:
                failed += 1
                notes.extend(f"request {index}: {problem}" for problem in bad)
        backpressure = measured["backpressure"]
        if backpressure:
            notes.append(f"{backpressure} submits were rejected with backpressure")
            failed += int(backpressure)
        return self.count, failed, notes


def counter(stats: dict, name: str, before: Optional[dict] = None) -> float:
    """A counter's total from a daemon stats frame (minus ``before``'s)."""

    def total(frame: dict) -> float:
        values = frame.get("obs", {}).get("counters", {}).get(name, {}).get("values", {})
        return float(sum(values.values()))

    return total(stats) - (total(before) if before else 0.0)


def histogram_quantile(stats: dict, before: dict, name: str, q: float) -> float:
    """Quantile ``q`` of a stats-frame histogram over the window only: the
    bucket counts of ``before`` are subtracted from those of ``stats``."""
    from repro.obs.registry import quantile_from_counts

    def series(frame: dict):
        entry = frame.get("obs", {}).get("histograms", {}).get(name, {})
        return entry.get("buckets"), entry.get("series", {}).get("", {}).get("counts")

    buckets, counts = series(stats)
    if not counts:
        return 0.0
    _, earlier = series(before)
    delta = [now - then for now, then in zip(counts, earlier or [0] * len(counts))]
    value = quantile_from_counts(buckets, delta, q)
    return float(value) if value is not None else 0.0


def parts(count: int, windows: int) -> List[range]:
    """``range(count)`` cut into ``windows`` consecutive parts."""
    bounds = [round(number * count / windows) for number in range(windows + 1)]
    return [range(low, high) for low, high in zip(bounds, bounds[1:])]


def combine(windows: List[Dict[str, object]]) -> Dict[str, object]:
    """One measurement from consecutive windows, each on its own daemon."""
    merged: Dict[str, object] = {"reports": {}, "failures": {}}
    for window in windows:
        merged["reports"].update(window["reports"])
        merged["failures"].update(window["failures"])
    for key in ("latencies", "lags", "result_bytes"):
        merged[key] = sorted(value for window in windows for value in window[key])
    for key in ("completed", "outputs", "busy", "span", "cpu", "cpu_ref", "worker_cpu",
                "backpressure"):
        merged[key] = sum(window[key] for window in windows)
    merged["peak_rss_mb"] = max(window["peak_rss_mb"] for window in windows)
    return merged


def end_to_end(service: Service, measured: Dict[str, object]) -> Dict[str, float]:
    # Completions per second from the first due send to the last reply:
    # equal to the offered rate unless a backlog builds up.
    return {
        "setup_s": statistics.median(service.setup_samples),
        "outputs_per_s": measured["outputs"] / measured["busy"],
        "completed_rps": measured["completed"] / measured["busy"],
        "cpu_s": measured["cpu_ref"],
        "peak_rss_mb": measured["peak_rss_mb"],
    }
