"""The session facade: run one request, or stream a whole suite.

:class:`Session` is the canonical blocking entry point of the library:

* :meth:`Session.run` executes one
  :class:`repro.api.request.DecompositionRequest` and returns its
  :class:`repro.core.result.CircuitReport`.
* :meth:`Session.submit` + :meth:`Session.as_completed` execute a *suite*:
  every submitted circuit's outputs are sharded across **one** shared
  executor, and finished :class:`repro.core.result.OutputResult`\\ s stream
  back as they complete — from whichever circuit finished one, so a heavy
  circuit no longer serialises the suite behind it.  Per-circuit reports
  are assembled when the stream is drained (:meth:`Session.reports`).

Both run their requests on a fresh
:class:`repro.core.scheduler.LiveSuiteScheduler` per call — the same
driver the asyncio session and the service daemon keep for their
lifetime — so every front door produces the same reports.

Requests are validated against the session's
:class:`repro.api.registry.EngineRegistry` at run/submit time, so a
session restricted to a custom registry *rejects* engines the default
registry would accept.  Third-party engines must be registered in the
process-wide :func:`repro.api.registry.default_registry` — requests
validate against it at construction, and the engine driver resolves
plug-in runners through it; a session registry narrows the allowed set,
it does not widen it.

Example::

    from repro.api import DecompositionRequest, Parallelism, Session

    session = Session()
    requests = [
        DecompositionRequest(circuit=aig, operator="or",
                             engines=("STEP-MG", "STEP-QD"),
                             parallelism=Parallelism(jobs=4))
        for aig in suite
    ]
    session.submit(requests)
    for record in session.as_completed():
        print(record.circuit, record.output_name)
    reports = session.reports()
"""

from __future__ import annotations

import os
import queue
from typing import Dict, Iterable, Iterator, List, Optional

from repro.api.lifecycle import STATE_FAILED, RequestTicket, TicketCounter
from repro.api.registry import EngineRegistry, default_registry
from repro.api.request import DecompositionRequest
from repro.core.result import CircuitReport, OutputResult
from repro.errors import DecompositionError
from repro.obs.registry import default_registry as obs_registry
from repro.utils.timer import monotonic

#: Wall-clock of whole blocking runs, pure observability (never enters
#: report data; ``report.schedule`` stays outside fingerprints anyway).
_RUN_SECONDS = obs_registry().histogram(
    "repro_session_run_seconds", "blocking Session.run wall time"
)


def shared_cache_provider(store: Dict[str, object]):
    """A ``(path, max_entries) -> PersistentConeCache`` factory backed by
    ``store``: one shared instance per absolute snapshot path.

    Both session facades use this so every run in a session against the
    same cache dir reuses ONE in-memory cache (one disk read per session,
    cumulative saves, a deterministic flush point at close).  The first
    request against a path fixes the compaction bound for the session (a
    daemon configures one policy anyway).
    """
    from repro.aig.signature import PersistentConeCache

    def provide(path: str, max_entries: Optional[int]):
        key = os.path.abspath(path)
        cache = store.get(key)
        if cache is None:
            cache = PersistentConeCache(path, max_entries=max_entries)
            store[key] = cache
        return cache

    return provide


def unit_for_request(request: DecompositionRequest, cache_provider=None):
    """One request as a :class:`repro.core.scheduler.SuiteUnit`: its own
    :class:`repro.core.scheduler.BatchScheduler` plus run parameters.

    Shared by the blocking session, the asyncio session and the service
    daemon, so every front door builds identical execution state for a
    given request.
    """
    from repro.core.engine import BiDecomposer
    from repro.core.scheduler import BatchScheduler, SuiteUnit

    options = request.to_options()
    planner = BatchScheduler(
        BiDecomposer(options),
        jobs=options.jobs,
        dedup=options.dedup,
        seed=options.seed,
        cache_dir=options.cache_dir,
        cache_max_entries=request.cache.max_entries,
        cache_provider=cache_provider,
    )
    return SuiteUnit(
        scheduler=planner,
        aig=request.circuit,
        operator=request.operator,
        engines=list(request.engines),
        circuit_timeout=request.budgets.per_circuit,
        max_outputs=request.max_outputs,
        circuit_name=request.name,
        priority=request.priority,
        cross_dedup=request.cache.cross_circuit_dedup,
    )


class Session:
    """A decomposition service handle: registry + suite submission queue.

    Parameters
    ----------
    registry:
        Engine registry to validate requests against; defaults to the
        process-wide registry (where third-party engines register).

    Attributes
    ----------
    stats:
        Counters over the session's lifetime: ``runs`` (single-request
        executions), ``suites`` (drained ``submit`` batches) and
        ``pools_created`` (executor pools started for them — at most one
        per call, the "one pool for N circuits" guarantee, and none for a
        call that dispatched nothing).
    """

    def __init__(self, registry: Optional[EngineRegistry] = None) -> None:
        # Explicit None check: a registry with no engines is falsy (__len__)
        # but still a deliberate choice, not a request for the default.
        self.registry = default_registry() if registry is None else registry
        self._pending: List[DecompositionRequest] = []
        # Ticket per pending request, same order as ``_pending``.
        self._pending_tickets: List[RequestTicket] = []
        # None while a submitted suite is draining (or was abandoned
        # mid-stream); a list once a drain completed.
        self._reports: Optional[List[CircuitReport]] = []
        self._next_pool_id = 0
        self._counter = TicketCounter()
        self._tickets: List[RequestTicket] = []
        # Shared persistent-cache instances (see shared_cache_provider).
        self._persistent_caches: Dict[str, object] = {}
        self._provide_cache = shared_cache_provider(self._persistent_caches)
        self._closed = False
        self.stats: Dict[str, int] = {"runs": 0, "suites": 0, "pools_created": 0}

    # -- lifecycle ----------------------------------------------------------------

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Deterministic shutdown: cancel still-queued requests and flush
        shared persistent-cache snapshots.

        Idempotent.  After ``close()`` the session rejects new work; the
        reports of already-drained suites stay readable.
        """
        if self._closed:
            return
        self._closed = True
        for ticket in self._pending_tickets:
            ticket.mark_cancelled()
        self._pending = []
        self._pending_tickets = []
        for cache in self._persistent_caches.values():
            if cache.dirty:
                cache.save()

    def _check_open(self) -> None:
        if self._closed:
            raise DecompositionError("the session is closed; no further requests")

    # -- status -------------------------------------------------------------------

    def tickets(self) -> List[RequestTicket]:
        """Every request ticket this session issued, in submission order."""
        return list(self._tickets)

    def status(self, ticket_id: Optional[int] = None):
        """Per-request lifecycle state.

        With no argument: ``{ticket_id: state}`` over every request the
        session has seen (``queued``/``running``/``done``/``cancelled``/
        ``failed``) — streaming consumers no longer infer completion from
        :meth:`as_completed` exhaustion.  With a ticket id: that request's
        state string.
        """
        if ticket_id is None:
            return {ticket.id: ticket.state for ticket in self._tickets}
        for ticket in self._tickets:
            if ticket.id == ticket_id:
                return ticket.state
        raise DecompositionError(f"unknown request ticket id {ticket_id!r}")

    def cancel(self, ticket_id: int) -> bool:
        """Cancel a still-queued request (submitted, not yet drained).

        Returns ``True`` when the request was removed from the pending
        batch; ``False`` when it is already executing or terminal (the
        blocking session cannot interrupt a drain in progress — the async
        session and the service can).
        """
        for position, ticket in enumerate(self._pending_tickets):
            if ticket.id == ticket_id:
                del self._pending[position]
                del self._pending_tickets[position]
                return ticket.mark_cancelled()
        return False

    def _issue_ticket(self, request: DecompositionRequest) -> RequestTicket:
        ticket = RequestTicket(self._counter.next(), request.circuit_name)
        self._tickets.append(ticket)
        return ticket

    # -- execution ----------------------------------------------------------------

    def _drain(
        self, batch: List[DecompositionRequest], tickets: List[RequestTicket]
    ) -> Iterator[OutputResult]:
        """Run ``batch`` on one fresh live scheduler, yielding records as
        jobs finish; returns once every ticket is terminal.

        The executor is ``serial`` when no request asked for more than one
        job — then each request runs to completion inside ``add_request``,
        after the previous one finalized — and otherwise the strongest
        backend any request asked for, sized to the largest ``jobs``.
        Raises as soon as a request fails (its ticket is ``failed``); the
        scheduler is closed either way, which cancels whatever had not
        finished.
        """
        from repro.core.executors import BACKEND_SERIAL, strongest_backend
        from repro.core.scheduler import LiveSuiteScheduler

        jobs = max(request.parallelism.jobs for request in batch)
        backend = BACKEND_SERIAL
        if jobs > 1:
            backend = strongest_backend(
                request.parallelism.backend for request in batch
            )
        # Records in arrival order; None wakes the drain when a request
        # ends (each request's records arrive before its terminal state).
        arrived: "queue.SimpleQueue[Optional[OutputResult]]" = queue.SimpleQueue()

        def on_transition(ticket: RequestTicket, _old: str, _new: str) -> None:
            if ticket.terminal:
                arrived.put(None)

        for ticket in tickets:
            ticket.add_listener(on_transition)
        live = LiveSuiteScheduler(
            jobs=jobs,
            backend=backend,
            pool_id=self._next_pool_id,
            on_record=lambda _ticket, record: arrived.put(record),
        )
        self._next_pool_id += 1

        def landed() -> Iterator[OutputResult]:
            """The records that arrived so far; raises once a request failed."""
            while not arrived.empty():
                record = arrived.get()
                if record is not None:
                    yield record
            for ticket in tickets:
                if ticket.state == STATE_FAILED:
                    raise DecompositionError(
                        f"request {ticket.id} ({ticket.name}) failed: {ticket.error}"
                    )

        try:
            for request, ticket in zip(batch, tickets):
                unit = unit_for_request(request, cache_provider=self._provide_cache)
                try:
                    live.add_request(unit, ticket)
                except Exception as exc:  # planning failed
                    ticket.mark_failed(f"{type(exc).__name__}: {exc}")
                    raise
                yield from landed()
            while not all(ticket.terminal for ticket in tickets):
                record = arrived.get()
                if record is not None:
                    yield record
                yield from landed()
            # Records that landed after the last look but before the last
            # request turned terminal.
            yield from landed()
        finally:
            live.close()
            self.stats["pools_created"] += live.pools_created
        for ticket in tickets:
            ticket.report.schedule["suite_size"] = len(batch)

    # -- single request -----------------------------------------------------------

    def run(self, request: DecompositionRequest) -> CircuitReport:
        """Execute one request and return its circuit report."""
        self._check_open()
        self._check(request)
        self.stats["runs"] += 1
        ticket = self._issue_ticket(request)
        started = monotonic()
        try:
            for _record in self._drain([request], [ticket]):
                pass
        finally:
            _RUN_SECONDS.observe(monotonic() - started)
        return ticket.report

    # -- suites -------------------------------------------------------------------

    def submit(
        self, requests: Iterable[DecompositionRequest] | DecompositionRequest
    ) -> int:
        """Queue requests for the next :meth:`as_completed` drain.

        Accepts one request or an iterable; returns the number of requests
        now pending.  Nothing executes until the stream is consumed.
        """
        self._check_open()
        if isinstance(requests, DecompositionRequest):
            requests = [requests]
        batch = list(requests)
        for request in batch:
            self._check(request)
        self._pending.extend(batch)
        self._pending_tickets.extend(
            self._issue_ticket(request) for request in batch
        )
        # The last drained suite no longer answers for the session: reports()
        # must not serve batch N-1's reports while batch N is pending.
        if self._pending:
            self._reports = None
        return len(self._pending)

    def as_completed(self) -> Iterator[OutputResult]:
        """Execute the pending suite, streaming records as they complete.

        All pending requests share one executor sized to the largest
        ``parallelism.jobs`` among them (serial when that is 1).  Yield
        order under a parallel executor is completion order and therefore
        machine-dependent; with one job it is submit order, then output
        order for each request's searched cones, then its replayed
        duplicates.  The *set* of records — and the per-circuit reports
        afterwards — is deterministic and fingerprint-identical to running
        each request individually.  Draining the stream assembles the
        reports (:meth:`reports`) and clears the queue.
        """
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        tickets, self._pending_tickets = self._pending_tickets, []
        # Invalidate until the drain completes: an abandoned stream must not
        # leave reports() silently answering with the previous suite.
        self._reports = None
        try:
            yield from self._drain(batch, tickets)
        except BaseException:
            # Abandoned mid-drain, or one request failed: every request
            # that did not finish is cancelled, not failed — the failing
            # request's ticket already says why.
            for ticket in tickets:
                ticket.mark_cancelled()
            raise
        self._reports = [ticket.report for ticket in tickets]
        self.stats["suites"] += 1

    def run_suite(
        self, requests: Iterable[DecompositionRequest]
    ) -> List[CircuitReport]:
        """Submit, drain and return the per-request reports (submit order)."""
        self.submit(requests)
        for _record in self.as_completed():
            pass
        return self.reports()

    def reports(self) -> List[CircuitReport]:
        """Per-request reports of the last drained suite, in submit order."""
        if self._reports is None:
            raise DecompositionError(
                "a submitted suite has not been drained; exhaust "
                "as_completed() before reading reports"
            )
        return list(self._reports)

    def report(self, circuit_name: str) -> CircuitReport:
        """The last drained suite's report for the named circuit."""
        for report in self.reports():
            if report.circuit == circuit_name:
                return report
        raise DecompositionError(
            f"no report for circuit {circuit_name!r} in the last drained suite"
        )

    # -- internals ----------------------------------------------------------------

    def _check(self, request: DecompositionRequest) -> None:
        if not isinstance(request, DecompositionRequest):
            raise DecompositionError(
                f"expected a DecompositionRequest, got {type(request).__name__}"
            )
        request.validate_against(self.registry)
