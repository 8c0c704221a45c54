"""Pluggable execution backends for the live scheduler.

The schedulers in :mod:`repro.core.scheduler` plan and dispatch: they
turn circuits into per-output jobs, dedup structurally identical cones,
order the survivors by weighted fair queueing and assemble reports.
Everything about **where** a dispatched job runs lives here, behind one
small interface:

* :meth:`ExecutorBackend.open` brings the substrate up empty and installs
  the completion hook; ``False`` means the substrate cannot exist here and
  the scheduler falls back to the serial backend.
* :meth:`ExecutorBackend.add_context` registers one circuit's execution
  context — ``(aig, operator, engines, worker options, circuit_name)`` —
  under the slot the scheduler chose for it.
* :meth:`ExecutorBackend.submit` schedules one job spec
  ``(slot, index, output_name, deadline)``; its ``(slot, index,
  record, error)`` result arrives through the hook, from whatever thread
  finished it.
* :meth:`ExecutorBackend.shutdown` releases the substrate.

Three implementations cover the useful points of the design space:

``SerialBackend``
    Runs every job inline inside ``submit``.  It is the deterministic
    reference: no pool, no threads, no pickling — but the *same* job
    protocol as the parallel backends, so differential tests compare all
    three over one code path.
``ThreadBackend``
    A :class:`concurrent.futures.ThreadPoolExecutor`.  Jobs share the
    parent's memory (no pickling, plug-in engines just work) and threads
    are legal where ``multiprocessing`` is not — daemonic parents,
    restricted sandboxes.  Searches hold the GIL, so threads interleave
    rather than use extra cores; the win is substrate availability, not
    CPU scaling.
``ProcessBackend``
    The ``multiprocessing`` pool (fork-preferred).  True CPU parallelism;
    each context crosses the pipe once per job as a pre-pickled blob and
    results come back pickled.

Every backend executes jobs through the same :func:`run_job` body, so the
deterministic engines produce bit-identical
:class:`repro.core.result.OutputResult` records — the scheduler's
fingerprint-identity guarantee is backend-independent (and
differential-tested in ``tests/test_executors.py``).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.aig.aig import AIG
from repro.core.engine import BiDecomposer
from repro.core.result import OutputResult
from repro.errors import DecompositionError
from repro.utils.timer import Deadline

BACKEND_SERIAL = "serial"
BACKEND_THREAD = "thread"
BACKEND_PROCESS = "process"

#: Valid ``Parallelism.backend`` / ``--backend`` values, weakest first.
BACKENDS = (BACKEND_SERIAL, BACKEND_THREAD, BACKEND_PROCESS)

# One per-circuit execution context as shipped by the schedulers:
# (aig, operator, engines, worker-side EngineOptions, circuit_name).
ExecutionContext = Tuple[AIG, str, List[str], object, str]

# One job spec: (slot, output index, output name, deadline).
JobSpec = Tuple[int, int, str, Optional[Deadline]]

# One result: the job's (slot, index) identity plus its record (None when
# the job was skipped because its circuit deadline had already expired).
JobResult = Tuple[int, int, Optional[OutputResult]]

# Live-mode completion hook: (slot, index, record, error).  Exactly one of
# record/error is meaningful; a budget-skipped job delivers (None, None).
# Invoked from whatever thread completed the job (the submitting thread for
# the serial backend, a pool thread otherwise) — implementations must be
# thread-safe and non-blocking.
CompletionHook = Callable[[int, int, Optional[OutputResult], Optional[BaseException]], None]


def check_backend(name: str) -> str:
    """Validate (and return) an executor backend name."""
    if name not in BACKENDS:
        raise DecompositionError(
            f"unknown executor backend {name!r}; known backends: "
            + ", ".join(BACKENDS)
        )
    return name


def strongest_backend(names: Iterable[str]) -> str:
    """The most parallel backend among ``names`` (serial < thread < process).

    Used by :class:`repro.api.session.Session`: one drain runs on one
    substrate, so mixed requests are served by the strongest one any of
    them asked for.
    """
    strongest = BACKEND_SERIAL
    for name in names:
        check_backend(name)
        if BACKENDS.index(name) > BACKENDS.index(strongest):
            strongest = name
    return strongest


# One runner context: a BiDecomposer plus everything `decompose_output`
# needs, built from an ExecutionContext by the in-process backends and by
# pool workers alike.
_RunnerContext = Tuple[BiDecomposer, AIG, str, List[str], str]


def _runner(context: ExecutionContext) -> _RunnerContext:
    """One BiDecomposer for one circuit context."""
    aig, operator, engines, options, circuit_name = context
    return (BiDecomposer(options), aig, operator, engines, circuit_name)


def _build_runners(contexts: Sequence[ExecutionContext]) -> List[_RunnerContext]:
    """One runner per circuit context (``_worker_init``)."""
    return [_runner(context) for context in contexts]


def run_job(
    context: _RunnerContext, job: JobSpec, function: Optional[object] = None
) -> JobResult:
    """Execute one job against its circuit context (all backends).

    Honours the job's circuit deadline exactly like the historical pool
    worker: a job that starts after expiry returns a ``None`` record (the
    scheduler reports it in ``schedule["skipped"]``), one that starts
    before expiry runs its engines under sub-deadlines capped by the
    circuit's remaining budget.

    ``function`` optionally supplies the cone the planner already
    extracted, saving a re-traversal; only the in-process backends can
    pass it (a pool worker's job identity crosses the pipe bare).
    """
    slot, index, output_name, deadline = job
    if deadline is not None and deadline.expired:
        return slot, index, None
    decomposer, aig, operator, engines, circuit_name = context
    record = decomposer.decompose_output(
        aig,
        output_name,
        operator,
        engines,
        circuit_name=circuit_name,
        function=function,
        deadline=deadline,
    )
    return slot, index, record


class ExecutorBackend:
    """Interface every execution substrate implements.

    ``workers`` is the effective worker count the backend runs with —
    what the scheduler reports in ``schedule["jobs"]`` (1 for the serial
    backend regardless of the requested count).

    The substrate is brought up empty and long-lived (:meth:`open`);
    circuit contexts join incrementally (:meth:`add_context`, one per
    request) and every submitted job delivers its result through a
    **non-blocking completion hook** instead of a drain loop.
    :class:`repro.core.scheduler.LiveSuiteScheduler` is the one caller.
    """

    name: str = ""
    workers: int = 1

    def open(self, on_done: CompletionHook) -> bool:
        """Bring the substrate up empty, for incremental submission.

        ``on_done`` is invoked once per submitted job with ``(slot, index,
        record, error)`` from whatever thread completed it.  Returns
        ``False`` when the substrate cannot exist here (the caller picks a
        weaker backend).
        """
        raise NotImplementedError

    def add_context(self, slot: int, context: ExecutionContext) -> None:
        """Register one circuit context under ``slot`` for job specs.

        The caller assigns slots monotonically and never reuses one, so a
        long-lived service can tell request N's jobs from request M's even
        after N completed.  Callers serialise registration with
        submission.
        """
        raise NotImplementedError

    def submit(self, job: JobSpec, function: Optional[object] = None) -> None:
        """Schedule one job; its result arrives through the ``open`` hook.

        Non-blocking for the pooled backends.  The serial backend runs the
        job inline, so the hook fires before ``submit`` returns — callers
        must tolerate synchronous completion.  ``function`` optionally
        supplies the cone the planner already extracted; in-process
        backends reuse it, the process backend ignores it (cones do not
        cross the pipe).
        """
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release the substrate (idempotent; called in a ``finally``)."""


class SerialBackend(ExecutorBackend):
    """Inline execution in dispatch order — the deterministic reference."""

    name = BACKEND_SERIAL

    def __init__(self, workers: int = 1) -> None:
        # Serial means serial: the requested worker count is ignored.
        self.workers = 1
        self._contexts: Dict[int, _RunnerContext] = {}
        self._on_done: Optional[CompletionHook] = None

    def open(self, on_done: CompletionHook) -> bool:
        self._on_done = on_done
        return True

    def add_context(self, slot: int, context: ExecutionContext) -> None:
        self._contexts[slot] = _runner(context)

    def submit(self, job: JobSpec, function: Optional[object] = None) -> None:
        assert self._on_done is not None, "open() must precede submit()"
        try:
            slot, index, record = run_job(self._contexts[job[0]], job, function)
        # Exception, not BaseException: an interrupt during an inline
        # search must stop the caller, not become one request's failure.
        except Exception as exc:  # noqa: BLE001 - delivered, not swallowed
            self._on_done(job[0], job[1], None, exc)
        else:
            self._on_done(slot, index, record, None)

    def shutdown(self) -> None:
        self._contexts = {}


class ThreadBackend(ExecutorBackend):
    """A thread pool: shared memory, no pickling, legal under daemonic
    parents where ``multiprocessing`` raises."""

    name = BACKEND_THREAD

    def __init__(self, workers: int) -> None:
        self.workers = max(1, workers)
        self._contexts: Dict[int, _RunnerContext] = {}
        self._executor: Optional[ThreadPoolExecutor] = None
        self._on_done: Optional[CompletionHook] = None

    def open(self, on_done: CompletionHook) -> bool:
        try:
            self._executor = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-exec"
            )
        except (OSError, RuntimeError):  # pragma: no cover - thread limits
            return False
        self._on_done = on_done
        return True

    def add_context(self, slot: int, context: ExecutionContext) -> None:
        self._contexts[slot] = _runner(context)

    def submit(self, job: JobSpec, function: Optional[object] = None) -> None:
        assert self._executor is not None and self._on_done is not None
        on_done = self._on_done
        slot, index = job[0], job[1]

        def deliver(future) -> None:
            try:
                _slot, _index, record = future.result()
            except BaseException as exc:  # noqa: BLE001 - includes cancellation
                on_done(slot, index, None, exc)
            else:
                on_done(slot, index, record, None)

        future = self._executor.submit(run_job, self._contexts[slot], job, function)
        future.add_done_callback(deliver)

    def shutdown(self) -> None:
        if self._executor is not None:
            # cancel_futures: discard unstarted jobs instead of blocking
            # until every queued search finishes — mirroring
            # ProcessBackend.terminate()'s promptness.
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        self._contexts = {}


class ProcessBackend(ExecutorBackend):
    """The ``multiprocessing`` pool, fork-preferred.

    ``start`` and ``map_unordered`` are the retired batch entry points
    (contexts installed at fork time, results drained through
    ``imap_unordered``); nothing in the library calls them any more, and
    they go once the benchmark tracer stops naming them.
    """

    name = BACKEND_PROCESS

    def __init__(self, workers: int) -> None:
        self.workers = max(1, workers)
        self._pool = None
        self._on_done: Optional[CompletionHook] = None
        self._blobs: Dict[int, bytes] = {}

    def start(self, contexts: Sequence[ExecutionContext]) -> bool:
        self._pool = _create_pool(self.workers, contexts)
        return self._pool is not None

    def open(self, on_done: CompletionHook) -> bool:
        self._pool = _create_pool(self.workers, [])
        if self._pool is None:
            return False
        self._on_done = on_done
        return True

    def add_context(self, slot: int, context: ExecutionContext) -> None:
        """Register a context by pickling it ONCE into a reusable blob.

        Pool workers cannot be re-initialised after the fork, and which
        worker picks up a given job is unknowable, so every job ships its
        context blob alongside the spec; workers unpickle it the first
        time they see the slot and serve later jobs from a per-worker LRU
        (:func:`_live_worker_run`).  Pre-pickling here means the parent
        pays AIG serialisation once per request, and the pool's own
        argument pickling just copies bytes.
        """
        assert self._pool is not None, "open() must precede add_context()"
        self._blobs[slot] = pickle.dumps(context, pickle.HIGHEST_PROTOCOL)

    def submit(self, job: JobSpec, function: Optional[object] = None) -> None:
        # ``function`` is deliberately ignored: cones do not cross the pipe.
        assert self._pool is not None and self._on_done is not None
        on_done = self._on_done
        slot, index = job[0], job[1]

        def deliver(result: JobResult) -> None:
            on_done(result[0], result[1], result[2], None)

        def deliver_error(exc: BaseException) -> None:
            on_done(slot, index, None, exc)

        self._pool.apply_async(
            _live_worker_run,
            ((os.getpid(), slot), self._blobs[slot], job),
            callback=deliver,
            error_callback=deliver_error,
        )

    def map_unordered(
        self,
        jobs: Sequence[JobSpec],
        functions: Optional[Dict[Tuple[int, int], object]] = None,
    ) -> Iterator[JobResult]:
        # ``functions`` is deliberately unused: worker processes rebuild
        # cones from their own forked AIG copy.
        assert self._pool is not None, "start() must precede map_unordered()"
        for result in self._pool.imap_unordered(_worker_run, list(jobs)):
            yield result

    def shutdown(self) -> None:
        if self._pool is not None:
            # Mirrors the historical `with pool:` block: terminate is safe
            # after a full drain and correct after an abandoned one.
            self._pool.terminate()
            self._pool.join()
            self._pool = None


_BACKEND_TYPES = {
    BACKEND_SERIAL: SerialBackend,
    BACKEND_THREAD: ThreadBackend,
    BACKEND_PROCESS: ProcessBackend,
}


def create_backend(name: str, workers: int) -> ExecutorBackend:
    """Instantiate the named backend sized to ``workers``."""
    kind = check_backend(name)
    backend = _BACKEND_TYPES[kind](workers)
    # Parent-side observability only: create_backend never runs inside
    # pool workers, so these counters stay in the serving process.
    from repro.obs.registry import default_registry as _obs_registry

    registry = _obs_registry()
    registry.counter(
        "repro_executor_backends_total",
        "executor backends instantiated, by kind",
    ).inc(backend=kind)
    registry.gauge(
        "repro_executor_workers",
        "effective worker count of the most recent backend, by kind",
    ).set(backend.workers, backend=kind)
    return backend


# -- process-pool plumbing (module level for pickling) --------------------------

_WORKER_STATE: Dict[str, object] = {}


def _create_pool(worker_count: int, contexts: Sequence[ExecutionContext]):
    """Fork a worker pool initialised with the given circuit contexts.

    Returns ``None`` where no pool can exist (restricted sandboxes, or a
    daemonic parent process, which multiprocessing rejects via
    AssertionError) so callers fall back to the serial backend — or pick
    the :class:`ThreadBackend` up front, which those environments accept.
    Exceptions raised *inside* jobs reach the completion hook through
    ``apply_async``'s error callback.
    """
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        context = multiprocessing.get_context()
    try:
        return context.Pool(
            processes=worker_count,
            initializer=_worker_init,
            initargs=(list(contexts),),
        )
    except (OSError, ValueError, ImportError, AssertionError):  # pragma: no cover
        return None


def _worker_init(contexts: List[ExecutionContext]) -> None:
    """Install the per-circuit contexts in this worker process.

    Each entry is ``(aig, operator, engines, options, circuit_name)``; the
    worker builds one BiDecomposer per circuit so suite jobs from different
    requests run under their own options.
    """
    _WORKER_STATE["contexts"] = _build_runners(contexts)


def _worker_run(args: JobSpec) -> JobResult:
    """Run one job in a pool worker, honouring its circuit's deadline.

    ``args`` is ``(slot, index, output_name, deadline)`` where
    ``slot`` selects the circuit context installed by :func:`_worker_init`.
    The :class:`Deadline` crosses the pipe as plain data; its expiry check
    compares the system-wide monotonic clock, which parent and (forked or
    spawned) workers on one machine share, so "expired" means the same
    thing on both sides.
    """
    contexts: List[_RunnerContext] = _WORKER_STATE["contexts"]  # type: ignore[assignment]
    return run_job(contexts[args[0]], args)


# Per-worker cache of live-mode runner contexts, keyed by (parent pid, slot).
# A long-lived service daemon streams a fresh circuit context with every
# request; capping the cache keeps worker memory bounded over thousands of
# requests (evicted contexts are simply rebuilt from the job's blob).
_LIVE_RUNNER_CACHE_LIMIT = 32
_LIVE_RUNNERS: "OrderedDict[Tuple[int, int], _RunnerContext]" = OrderedDict()


def _live_worker_run(token: Tuple[int, int], blob: bytes, job: JobSpec) -> JobResult:
    """Run one live-mode job in a pool worker.

    ``blob`` is the pickled :data:`ExecutionContext`; the first job of a
    context builds its :class:`BiDecomposer` and caches it under ``token``
    so the request's remaining jobs skip the unpickle + rebuild.
    """
    runner = _LIVE_RUNNERS.get(token)
    if runner is None:
        runner = _runner(pickle.loads(blob))
        _LIVE_RUNNERS[token] = runner
        while len(_LIVE_RUNNERS) > _LIVE_RUNNER_CACHE_LIMIT:
            _LIVE_RUNNERS.popitem(last=False)
    else:
        _LIVE_RUNNERS.move_to_end(token)
    return run_job(runner, job)
