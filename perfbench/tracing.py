"""Spans at the program's layer boundaries, recorded from outside.

:func:`install` wraps public functions and methods of the program with a
timing wrapper.  A function is replaced in its defining module *and* in
every loaded module that imported it by name, so call sites such as
``from repro.sat.cardinality import totalizer_outputs`` see the wrapper;
methods are replaced on their class.  :func:`Tracer.uninstall` restores
the originals.

Each finished span adds to per-thread totals (calls, inclusive seconds,
self seconds = inclusive minus the time of child spans).  Spans of at least
:data:`KEEP_SECONDS` are also kept as records (name, start, end, parent
span, request id) for the Chrome trace-event file; the totals cover every
span.  Nothing is written until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from typing import Dict, List, Optional

KEEP_SECONDS = 0.0005
KEEP_LIMIT = 200_000

# (module, attribute, span name).  "Class.method" attributes patch the class.
BOUNDARIES = [
    ("repro.sat.solver", "Solver", "sat.create"),
    ("repro.sat.solver", "CKernelSolver.solve", "sat.solve"),
    ("repro.sat.solver", "PySolver.solve", "sat.solve"),
    ("repro.sat.solver", "CKernelSolver.add_clause", "sat.ingest"),
    ("repro.sat.solver", "CKernelSolver.add_cnf", "sat.ingest"),
    ("repro.sat.solver", "PySolver.add_clause", "sat.ingest"),
    ("repro.sat.solver", "PySolver.add_cnf", "sat.ingest"),
    ("repro.sat.cardinality", "totalizer_outputs", "sat.cardinality"),
    ("repro.sat.cardinality", "at_most_k", "sat.cardinality"),
    ("repro.sat.cardinality", "at_least_one", "sat.cardinality"),
    ("repro.aig.cnf", "cone_to_cnf", "aig.cnf"),
    ("repro.aig.function", "BooleanFunction.from_output", "aig.cone"),
    ("repro.aig.signature", "canonical_cone_signature", "aig.signature"),
    ("repro.aig.signature", "PersistentConeCache.save", "aig.cache.save"),
    ("repro.core.checks", "RelaxationChecker.__init__", "core.checks.build"),
    ("repro.core.checks", "RelaxationChecker.check_alpha_beta", "core.checks.check"),
    ("repro.core.qbf_bidec", "QbfPartitionSolver.query", "core.qbf_bidec.query"),
    ("repro.core.qbf_bidec", "GenericQbfPartitionSolver.query", "core.qbf_bidec.query"),
    ("repro.core.mus_partition", "mus_decompose", "core.mus_partition"),
    ("repro.core.ljh", "ljh_decompose", "core.ljh"),
    ("repro.core.engine", "BiDecomposer.decompose_function", "core.engine"),
    ("repro.core.extract", "extract_functions", "core.extract"),
    ("repro.core.verify", "verify_decomposition", "core.verify"),
    ("repro.core.scheduler", "BatchScheduler.plan", "core.scheduler.plan"),
    ("repro.core.scheduler", "BatchScheduler.finalize", "core.scheduler.finalize"),
    ("repro.core.executors", "ProcessBackend.start", "core.executors.pool_start"),
    ("repro.core.executors", "ProcessBackend.open", "core.executors.pool_start"),
    ("repro.core.executors", "ProcessBackend.add_context", "core.executors.submit"),
    ("repro.core.executors", "ProcessBackend.submit", "core.executors.submit"),
    ("repro.core.executors", "ProcessBackend.map_unordered", "core.executors.wait"),
    ("repro.service.protocol", "encode_request", "service.codec.encode_request"),
    ("repro.service.protocol", "decode_request", "service.codec.decode_request"),
    ("repro.service.protocol", "encode_report", "service.codec.encode_report"),
    ("repro.service.protocol", "decode_report", "service.codec.decode_report"),
]


def _engine_span(args, kwargs) -> str:
    """``core.engine.<engine>``: one inclusive span name per engine."""
    engine = kwargs.get("engine", args[3] if len(args) > 3 else "STEP-QD")
    return f"core.engine.{str(engine).lower()}"



class Tracer:
    """In-memory span store; one stack and one totals table per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._tables: List[Dict[str, List[float]]] = []
        self._records: List[tuple] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: List[tuple] = []
        self.request: Optional[str] = None

    # -- recording ----------------------------------------------------------------

    def _state(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.totals = {}
            with self._lock:
                self._tables.append(local.totals)
        return stack, local.totals

    def begin(self, name: str):
        stack, _ = self._state()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        request = parent[4] if parent is not None else self.request
        frame = [name, time.perf_counter(), 0.0, span_id, request, parent[3] if parent else 0]
        stack.append(frame)
        return frame

    def end(self, frame) -> None:
        end = time.perf_counter()
        stack, totals = self._state()
        stack.pop()
        name, start, child, span_id, request, parent_id = frame
        duration = end - start
        if stack:
            stack[-1][2] += duration
        entry = totals.get(name)
        if entry is None:
            entry = totals[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if duration >= KEEP_SECONDS and len(self._records) < KEEP_LIMIT:
            self._records.append(
                (name, start, end, span_id, parent_id, request, threading.get_ident())
            )

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[str] = None):
        """A span opened by the benchmark itself around a block."""
        frame = self.begin(name)
        if request is not None:
            frame[4] = request
        try:
            yield
        finally:
            self.end(frame)

    def wrap(self, name: str, function):
        tracer = self
        namer = _engine_span if name == "core.engine" else None

        if inspect.isgeneratorfunction(function):

            @functools.wraps(function)
            def generator_wrapper(*args, **kwargs):
                iterator = function(*args, **kwargs)
                while True:
                    frame = tracer.begin(name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        tracer.end(frame)
                    yield item

            return generator_wrapper

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            frame = tracer.begin(namer(args, kwargs) if namer else name)
            try:
                return function(*args, **kwargs)
            finally:
                tracer.end(frame)

        return wrapper

    # -- patching -----------------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary; each import site of a function is patched."""
        for module_name, attribute, name in BOUNDARIES:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[method]
                if isinstance(raw, classmethod):
                    replacement = classmethod(self.wrap(name, raw.__func__))
                else:
                    replacement = self.wrap(name, raw)
                setattr(owner, method, replacement)
                self._patches.append((owner, method, raw))
                continue
            original = getattr(module, attribute)
            wrapped = self.wrap(name, original)
            for loaded in list(sys.modules.values()):
                namespace = getattr(loaded, "__dict__", None)
                if not namespace or not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        setattr(loaded, key, wrapped)
                        self._patches.append((loaded, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    # -- results ------------------------------------------------------------------

    def reset(self) -> None:
        """Forget every finished span (one still open counts in full when it ends)."""
        with self._lock:
            for table in self._tables:
                table.clear()
            self._records.clear()

    def totals(self) -> Dict[str, List[float]]:
        """``name -> [calls, inclusive_s, self_s]`` summed over threads."""
        merged: Dict[str, List[float]] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, (calls, inclusive, own) in list(table.items()):
                entry = merged.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += inclusive
                entry[2] += own
        return merged

    def dump(self, path: str, process: str) -> None:
        """Write the totals and a Chrome trace-event file (``path``)."""
        pid = os.getpid()
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": start * 1e6,
                "dur": (end - start) * 1e6,
                "pid": pid,
                "tid": thread,
                "args": {"id": span_id, "parent": parent_id, "request": request},
            }
            for name, start, end, span_id, parent_id, request, thread in self._records
        ]
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": process}}
        )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "totals": self.totals()}, handle)
