"""``asyncio``-native sessions: ``await`` a decomposition, stream a suite.

:class:`AsyncSession` is the event-loop front door over the same driver
the blocking :class:`repro.api.session.Session` runs each call on — a
:class:`repro.core.scheduler.LiveSuiteScheduler`, here one long-lived
instance on one executor backend — with the connection-oriented shape a
server wants:

* requests **join a live stream** (:meth:`AsyncSession.submit` returns an
  :class:`AsyncRequestHandle` immediately; jobs start competing for the
  shared workers at once, fairly interleaved with every other in-flight
  request);
* completions are **awaited, not polled** — ``await handle.report()``,
  ``async for record in session.as_completed()``, ``async for event in
  handle.events()``;
* requests **cancel cooperatively** (:meth:`AsyncRequestHandle.cancel`)
  without perturbing anything else on the pool.

The request lifecycle is the explicit state machine of
:mod:`repro.api.lifecycle` (``queued → running → done/cancelled/failed``),
and reports are fingerprint-identical to the same request run through a
blocking session with the same backend and cache settings.

Example::

    from repro.api import DecompositionRequest
    from repro.api.aio import AsyncSession

    async def main(suite):
        async with AsyncSession(jobs=4, backend="process") as session:
            handles = [session.submit(request) for request in suite]
            async for record in session.as_completed():
                print(record.circuit, record.output_name)
            reports = [await handle.report() for handle in handles]

The engines themselves stay synchronous — the event loop never blocks on
a partition search because every search runs on the executor backend
(threads or worker processes), and completions re-enter the loop through
``call_soon_threadsafe``.  This module is also exactly what
:mod:`repro.service` serves over a Unix socket.
"""

from __future__ import annotations

import asyncio
from typing import AsyncIterator, Dict, List, Optional

from repro.api.lifecycle import (
    RequestTicket,
    TERMINAL_STATES,
    TicketCounter,
)
from repro.api.registry import EngineRegistry, default_registry
from repro.api.request import DecompositionRequest
from repro.api.session import shared_cache_provider, unit_for_request
from repro.core.result import CircuitReport, OutputResult
from repro.errors import DecompositionError


class AsyncRequestHandle:
    """One submitted request: state, events, cancellation, awaited report."""

    def __init__(self, session: "AsyncSession", ticket: RequestTicket, slot: int) -> None:
        self._session = session
        self.ticket = ticket
        self._slot = slot
        self._records: List[OutputResult] = []
        self._subscribers: List[asyncio.Queue] = []
        # Chronological log of everything published: late subscribers
        # replay it, so no event outruns an events() iterator that was
        # created after submission (jobs can finish fast).
        self._event_log: List[Dict[str, object]] = []
        self._report_future: asyncio.Future = session._loop.create_future()
        # Set on the loop when the terminal transition is dispatched.  The
        # scheduler queues every record callback before that transition,
        # so unlike the thread-side ``ticket.terminal`` it also means
        # "all records have landed".
        self._settled = False

    @property
    def id(self) -> int:
        return self.ticket.id

    @property
    def name(self) -> str:
        return self.ticket.name

    @property
    def state(self) -> str:
        return self.ticket.state

    @property
    def error(self) -> Optional[str]:
        return self.ticket.error

    @property
    def records(self) -> List[OutputResult]:
        """Per-output results delivered so far (completion order)."""
        return list(self._records)

    async def report(self) -> CircuitReport:
        """Await the request's :class:`CircuitReport`.

        Raises :class:`repro.errors.DecompositionError` when the request
        was cancelled or failed (the failure message is preserved).
        """
        return await asyncio.shield(self._report_future)

    def cancel(self) -> bool:
        """Cooperatively cancel; ``True`` if the request was cancellable."""
        return self._session._cancel_slot(self._slot)

    async def events(self) -> AsyncIterator[Dict[str, object]]:
        """Stream lifecycle events until the request is terminal.

        Yields ``{"type": "state", "id", "state"}`` on transitions and
        ``{"type": "record", "id", "output", "record"}`` per finished
        output.  Subscribing to an already-terminal request yields its
        terminal state once and stops.
        """
        # Let dispatch callbacks already scheduled on the loop land first:
        # a synchronously-completed request (serial backend) queues its
        # whole history via call_soon_threadsafe before anyone can await.
        await asyncio.sleep(0)
        queue: asyncio.Queue = asyncio.Queue()
        # Snapshot + register with no await in between (single loop
        # thread): backlog and queue partition the stream exactly.
        backlog = list(self._event_log)
        self._subscribers.append(queue)

        def _terminal(event: Dict[str, object]) -> bool:
            return (
                event.get("type") == "state"
                and event.get("state") in TERMINAL_STATES
            )

        try:
            for event in backlog:
                yield event
                if _terminal(event):
                    return
            if self.ticket.terminal and self._session.handle(self.id) is None:
                # Forgotten by the session, so no dispatch will ever log
                # the terminal transition: synthesise it.  A registered
                # handle waits for that dispatch, which lands after every
                # record callback.
                yield {"type": "state", "id": self.id, "state": self.ticket.state}
                return
            while True:
                event = await queue.get()
                yield event
                if _terminal(event):
                    return
        finally:
            if queue in self._subscribers:
                self._subscribers.remove(queue)

    # -- loop-thread dispatch (called by AsyncSession only) ---------------------

    def _publish(self, event: Dict[str, object]) -> None:
        self._event_log.append(event)
        for queue in self._subscribers:
            queue.put_nowait(event)

    def _resolve(self) -> None:
        """Settle the report future from the ticket's terminal state."""
        if self._report_future.done():
            return
        if self.ticket.report is not None:
            self._report_future.set_result(self.ticket.report)
        else:
            detail = f": {self.ticket.error}" if self.ticket.error else ""
            self._report_future.set_exception(
                DecompositionError(
                    f"request {self.id} ({self.name}) {self.ticket.state}{detail}"
                )
            )
        # A handle whose report nobody awaits must not dump a traceback at
        # GC time; the state machine already records the failure.
        self._report_future.exception()


class AsyncSession:
    """An asyncio session: N concurrent requests, one warm executor.

    Parameters
    ----------
    registry:
        Engine registry requests validate against (default: process-wide).
    jobs:
        Worker count of the session's one executor backend.  Unlike the
        blocking session — which sizes a fresh pool per drained batch —
        an async session owns its substrate for its whole life, so the
        per-request ``Parallelism.jobs``/``backend`` fields are ignored
        here.
    backend:
        ``"serial"``, ``"thread"`` or ``"process"``
        (:mod:`repro.core.executors`).  ``thread`` is the default: it
        needs no pickling, accepts plug-in engines and is legal in every
        environment; pick ``process`` for CPU scaling.

    Must be used from a running event loop.  ``async with`` closes it
    deterministically (cancels pending work, shuts the executor down,
    flushes shared persistent-cache snapshots).
    """

    def __init__(
        self,
        registry: Optional[EngineRegistry] = None,
        jobs: int = 1,
        backend: str = "thread",
        metrics=None,
    ) -> None:
        from repro.core.scheduler import LiveSuiteScheduler

        self.registry = default_registry() if registry is None else registry
        try:
            self._loop = asyncio.get_running_loop()
        except RuntimeError:
            raise DecompositionError(
                "AsyncSession must be created inside a running event loop "
                "(e.g. within the coroutine asyncio.run() executes); for "
                "blocking code use repro.api.Session instead"
            ) from None
        self._counter = TicketCounter()
        self._handles: Dict[int, AsyncRequestHandle] = {}
        self._slot_of: Dict[int, int] = {}
        self._wakeups: List[asyncio.Event] = []
        # Shared persistent-cache instances (see shared_cache_provider).
        self._persistent_caches: Dict[str, object] = {}
        self._provide_cache = shared_cache_provider(self._persistent_caches)
        self._closed = False
        # ``metrics`` is a repro.obs MetricsRegistry (or None for the
        # process-wide one); the daemon passes its own so per-service
        # series stay isolated.
        self._live = LiveSuiteScheduler(
            jobs=jobs,
            backend=backend,
            on_record=self._on_record_threadsafe,
            metrics=metrics,
        )

    # -- lifecycle ----------------------------------------------------------------

    async def __aenter__(self) -> "AsyncSession":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def metrics(self):
        """The obs :class:`MetricsRegistry` the live scheduler reports to."""
        return self._live.metrics

    async def aclose(self) -> None:
        """Deterministic shutdown: cancel outstanding requests, shut the
        executor down (off-loop — it may wait on in-flight jobs), flush
        persistent-cache snapshots."""
        if self._closed:
            return
        self._closed = True
        await asyncio.get_running_loop().run_in_executor(None, self._live.close)
        for handle in self._handles.values():
            handle._resolve()
            handle._publish(
                {"type": "state", "id": handle.id, "state": handle.ticket.state}
            )
        for cache in self._persistent_caches.values():
            if cache.dirty:
                cache.save()
        self._wake_all()

    # -- submission ---------------------------------------------------------------

    def submit(self, request: DecompositionRequest) -> AsyncRequestHandle:
        """Enter one request into the live stream; returns its handle.

        Synchronous (no await): planning happens inline, then the
        request's jobs start competing for the shared workers.
        """
        if self._closed:
            raise DecompositionError("the async session is closed")
        if not isinstance(request, DecompositionRequest):
            raise DecompositionError(
                f"expected a DecompositionRequest, got {type(request).__name__}"
            )
        request.validate_against(self.registry)
        ticket = RequestTicket(self._counter.next(), request.circuit_name)
        ticket.add_listener(self._on_transition_threadsafe)
        unit = unit_for_request(request, cache_provider=self._provide_cache)
        # Register the handle BEFORE execution can start: submit may run
        # off-loop (the daemon offloads it), so dispatch callbacks can
        # land on the loop while add_request is still executing — they
        # must find the handle or records would be dropped.
        handle = AsyncRequestHandle(self, ticket, slot=-1)
        self._handles[ticket.id] = handle
        try:
            slot = self._live.add_request(unit, ticket)
        except Exception as exc:
            del self._handles[ticket.id]
            ticket.mark_failed(f"{type(exc).__name__}: {exc}")
            raise
        handle._slot = slot
        self._slot_of[ticket.id] = slot
        # The ticket may already be terminal (an all-followers request
        # completes inside add_request); settle the future now in case
        # the listener fired before the handle was registered.  Off-loop
        # callers must not touch the future directly.
        if ticket.terminal:
            self._loop.call_soon_threadsafe(handle._resolve)
        return handle

    async def run(self, request: DecompositionRequest) -> CircuitReport:
        """Submit one request and await its report."""
        return await self.submit(request).report()

    def cancel(self, ticket_id: int) -> bool:
        """Cancel by ticket id (see :meth:`AsyncRequestHandle.cancel`)."""
        slot = self._slot_of.get(ticket_id)
        return self._cancel_slot(slot) if slot is not None else False

    def _cancel_slot(self, slot: int) -> bool:
        return self._live.cancel(slot)

    def forget(self, ticket_id: int) -> None:
        """Drop a terminal request's handle and scheduler entry (a daemon
        serving an unbounded request stream must not grow per-request
        state forever)."""
        handle = self._handles.get(ticket_id)
        if handle is not None and handle.ticket.terminal:
            del self._handles[ticket_id]
            slot = self._slot_of.pop(ticket_id, None)
            if slot is not None:
                self._live.forget(slot)

    # -- observation --------------------------------------------------------------

    def handle(self, ticket_id: int) -> Optional[AsyncRequestHandle]:
        return self._handles.get(ticket_id)

    def status(self, ticket_id: Optional[int] = None):
        """Mirror of :meth:`repro.api.session.Session.status`."""
        if ticket_id is None:
            return {
                handle.id: handle.state for handle in self._handles.values()
            }
        handle = self._handles.get(ticket_id)
        if handle is None:
            raise DecompositionError(f"unknown request ticket id {ticket_id!r}")
        return handle.state

    def stats(self) -> Dict[str, int]:
        """Live counters: submitted/completed/cancelled/failed/records,
        plus ``pools_created`` (1 for the session's whole life — the
        many-clients-one-pool witness) and the substrate shape."""
        counters = dict(self._live.stats)
        counters["pools_created"] = self._live.pools_created
        counters["backend"] = self._live.backend
        counters["jobs"] = self._live.jobs
        return counters

    async def as_completed(self) -> AsyncIterator[OutputResult]:
        """Stream per-output results of every request submitted so far.

        Completes when those requests are all terminal and their records
        delivered.  Requests submitted *while* streaming are not joined —
        call again for them (their records are buffered per handle, so
        nothing is lost).  Single consumer at a time per handle set.
        """
        # Land dispatch callbacks already queued on the loop (synchronous
        # completions) before judging "everything delivered".
        await asyncio.sleep(0)
        handles = list(self._handles.values())
        delivered = {handle.id: 0 for handle in handles}
        wakeup = asyncio.Event()
        self._wakeups.append(wakeup)
        try:
            while True:
                for handle in handles:
                    records = handle._records
                    while delivered[handle.id] < len(records):
                        yield records[delivered[handle.id]]
                        delivered[handle.id] += 1
                if all(
                    handle._settled and delivered[handle.id] >= len(handle._records)
                    for handle in handles
                ):
                    return
                if self._closed:
                    return
                await wakeup.wait()
                wakeup.clear()
        finally:
            self._wakeups.remove(wakeup)

    # -- scheduler plumbing (executor threads -> event loop) ----------------------

    def _on_record_threadsafe(self, ticket: RequestTicket, record: OutputResult) -> None:
        self._loop.call_soon_threadsafe(self._dispatch_record, ticket, record)

    def _on_transition_threadsafe(
        self, ticket: RequestTicket, old_state: str, new_state: str
    ) -> None:
        self._loop.call_soon_threadsafe(self._dispatch_state, ticket, new_state)

    def _dispatch_record(self, ticket: RequestTicket, record: OutputResult) -> None:
        handle = self._handles.get(ticket.id)
        if handle is None:
            return
        handle._records.append(record)
        handle._publish(
            {
                "type": "record",
                "id": handle.id,
                "output": record.output_name,
                "record": record,
            }
        )
        self._wake_all()

    def _dispatch_state(self, ticket: RequestTicket, state: str) -> None:
        handle = self._handles.get(ticket.id)
        if handle is None:
            return
        if state in TERMINAL_STATES:
            handle._settled = True
            handle._resolve()
        handle._publish({"type": "state", "id": handle.id, "state": state})
        self._wake_all()

    def _wake_all(self) -> None:
        for wakeup in self._wakeups:
            wakeup.set()
