"""The long-lived decomposition daemon: one warm session, many clients.

:class:`ReproService` is an asyncio server — on a Unix socket or a TCP
``host:port`` — multiplexing any number of concurrent client connections
onto **one** :class:`repro.api.aio.AsyncSession`, which means one
executor pool paid for once, one shared persistent cone cache, and
weighted fair scheduling across every client's in-flight requests (a
small request never waits for a monster another client submitted first;
it competes by priority).  TCP is what lets ``repro.service.router`` put
N of these daemons behind one consistent-hash front door.

Protocol behaviour (frames in :mod:`repro.service.protocol`, the
connection loop shared with the router in :mod:`repro.service.server`):

* every ``submit`` is acknowledged with a ``queued`` event carrying the
  server-assigned request id (and the client's ``tag``), then streams
  ``running``/per-output progress events and finally one ``result`` frame
  (``done`` with the encoded report, or ``cancelled``/``failed``);
* malformed or version-mismatched frames get a one-line ``error`` reply
  and the connection stays up — one bad client cannot wedge the daemon,
  and neither can one failed request (its state machine records the
  error; everything else keeps running);
* a client that disconnects has its unfinished requests cancelled
  cooperatively — abandoned work must not hold workers.

``step serve --socket ADDRESS`` is the CLI front end;
:class:`ServiceThread` embeds a daemon in-process (tests, examples,
notebooks).
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional, Set

from repro.api.aio import AsyncRequestHandle, AsyncSession
from repro.api.config import CachePolicy
from repro.api.lifecycle import STATE_DONE, TERMINAL_STATES
from repro.api.registry import EngineRegistry
from repro.errors import Backpressure, ProtocolError, ReproError
from repro.obs.exposition import MetricsEndpoint, render_prometheus
from repro.obs.quota import ClientAccount, QuotaPolicy
from repro.obs.registry import MetricsRegistry
from repro.obs.registry import default_registry as obs_registry
from repro.obs.registry import merge_snapshots
from repro.service.protocol import (
    PROTOCOL_VERSION,
    WIRE_LINE_LIMIT,
    decode_request,
    encode_report,
)
from repro.service.server import Connection, FrameServer, ServerThread


class _Client(Connection):
    """One daemon connection and the account its submits are charged to.

    ``owned`` maps request id -> final state once the pump delivered a
    result (None while in flight): the honest answer for a late cancel
    of a request whose session handle was already forgotten.
    """

    def __init__(self, writer: asyncio.StreamWriter, account: ClientAccount) -> None:
        super().__init__(writer)
        self.account = account


class ReproService(FrameServer):
    """The daemon: an asyncio server over one shared async session."""

    role = "service"

    def __init__(
        self,
        jobs: int = 1,
        backend: str = "thread",
        cache_dir: Optional[str] = None,
        cache_max_entries: Optional[int] = None,
        registry: Optional[EngineRegistry] = None,
        line_limit: int = WIRE_LINE_LIMIT,
        quota: Optional[QuotaPolicy] = None,
        metrics_address: Optional[str] = None,
    ) -> None:
        super().__init__(line_limit)
        self._jobs = jobs
        self._backend = backend
        self._registry = registry
        self._cache_policy = (
            CachePolicy(directory=cache_dir, max_entries=cache_max_entries)
            if cache_dir is not None
            else None
        )
        self._session: Optional[AsyncSession] = None
        # Admission bounds (all unenforced by default) and this daemon's
        # PRIVATE metrics registry: per-client series and request spans
        # must not bleed between two services embedded in one process.
        # Substrate metrics (solver, caches, executors) land in the
        # process-wide registry; stats() merges both views.
        self.quota = quota if quota is not None else QuotaPolicy()
        self.metrics = MetricsRegistry()
        self._metrics_address = metrics_address
        self._metrics_endpoint: Optional[MetricsEndpoint] = None
        self._frames_total = self.metrics.counter(
            "repro_service_frames_total", "client frames handled, by type"
        )
        self._connections_total = self.metrics.counter(
            "repro_service_connections_total", "client connections accepted"
        )
        self._backpressure_total = self.metrics.counter(
            "repro_service_backpressure_total",
            "submits rejected by quota, by which bound fired",
        )
        self._errors_total = self.metrics.counter(
            "repro_service_errors_total", "error frames sent to clients"
        )
        # client id -> running account; kept after disconnect so the
        # stats frame stays a complete history of who the daemon served.
        self._accounts: Dict[str, ClientAccount] = {}
        # client id -> that connection's ``owned`` mapping (live view used
        # to compute per-client in-flight counts for quotas and stats).
        self._owned_of: Dict[str, Dict[int, Optional[str]]] = {}
        self._live_clients: Set[str] = set()

    @property
    def session(self) -> Optional[AsyncSession]:
        return self._session

    # -- lifecycle ----------------------------------------------------------------

    async def start(self, address: str) -> asyncio.AbstractServer:
        """Bind a Unix path or ``host:port`` and start accepting.

        A pre-existing file at a Unix path is unlinked only when it *is*
        a socket (the stale leftover of a killed daemon); pointing
        ``step serve`` at a regular file is refused with a one-line
        :class:`ServiceError` and the file survives.
        """
        server = await super().start(address)
        # No await between binding and building the session: connection
        # handlers only run once control returns to the loop, so every
        # handler sees a live session.
        self._session = AsyncSession(
            registry=self._registry,
            jobs=self._jobs,
            backend=self._backend,
            metrics=self.metrics,
        )
        if self._metrics_address is not None:
            self._metrics_endpoint = MetricsEndpoint(
                lambda: render_prometheus(self.metrics_snapshot())
            )
            await self._metrics_endpoint.start(self._metrics_address)
        return server

    @property
    def metrics_address(self) -> Optional[str]:
        """The bound scrape address, when ``--metrics`` is serving."""
        endpoint = self._metrics_endpoint
        return endpoint.address if endpoint is not None else None

    async def aclose(self) -> None:
        """Stop accepting, drop the socket file, close the shared session."""
        if self._metrics_endpoint is not None:
            await self._metrics_endpoint.aclose()
            self._metrics_endpoint = None
        # Connection handlers clean up while the session is still open:
        # their cleanup cancels and forgets owned requests.
        await super().aclose()
        if self._session is not None:
            await self._session.aclose()

    def metrics_snapshot(self) -> Dict[str, object]:
        """This daemon's full metric view: the process-wide substrate
        registry (solver work, caches, executors) merged with its own
        per-service registry (spans, frames, per-client series)."""
        return merge_snapshots(
            [obs_registry().snapshot(), self.metrics.snapshot()]
        )

    def _inflight_of(self, owned: Dict[int, Optional[str]]) -> int:
        """How many of a connection's requests are still non-terminal.

        ``owned`` values stay ``None`` until the pump delivers a result,
        but a cancel can terminate a request before then — count against
        the session's live states so quota slots free the moment a
        request is terminal, not when its result frame flushes.
        """
        states = self._session.status()
        count = 0
        for request_id, delivered in owned.items():
            if delivered is not None:
                continue
            state = states.get(request_id)
            if state is not None and state not in TERMINAL_STATES:
                count += 1
        return count

    def _pending_total(self) -> int:
        """Non-terminal requests across every connection (the accept
        queue depth ``max_pending`` bounds)."""
        return sum(
            1
            for state in self._session.status().values()
            if state not in TERMINAL_STATES
        )

    def stats(self) -> Dict[str, object]:
        """Service-level counters layered over the session's.

        Version 2 of the stats payload (protocol v3): adds the ``obs``
        metric snapshot (counter/gauge/histogram series with
        p50/p90/p99), per-client ``clients`` accounting and the
        configured ``quotas``.
        """
        counters: Dict[str, object] = dict(self._session.stats())
        counters["stats_version"] = 2
        counters["protocol"] = PROTOCOL_VERSION
        counters["connections"] = len(self._live)
        counters["served_connections"] = self._served_connections
        counters["states"] = dict(self._session.status())
        counters["quotas"] = {
            "max_inflight_per_client": self.quota.max_inflight_per_client,
            "max_pending": self.quota.max_pending,
            "cache_write_budget": self.quota.cache_write_budget,
        }
        counters["clients"] = {
            client: self._accounts[client].stats(
                self._inflight_of(self._owned_of.get(client, {}))
            )
            for client in sorted(self._accounts)
        }
        counters["obs"] = self.metrics_snapshot()
        return counters

    # -- one connection -----------------------------------------------------------

    def _connect(self, writer: asyncio.StreamWriter) -> _Client:
        self._connections_total.inc()
        # The connection's client identity: stable for its lifetime and
        # unique for the daemon's (the obs label and quota key).
        client = f"c{self._served_connections}"
        account = self._accounts.setdefault(client, ClientAccount(client))
        self._live_clients.add(client)
        conn = _Client(writer, account)
        self._owned_of[client] = conn.owned
        return conn

    def _disconnect(self, conn: _Client) -> None:
        # Cooperative cleanup: work nobody is listening for is work
        # stolen from connected clients.
        for request_id in conn.owned:
            handle = self._session.handle(request_id)
            if handle is not None and not handle.ticket.terminal:
                handle.cancel()
        for pump in list(conn.tasks):
            pump.cancel()
        # The pumps normally forget() after their result frame; the
        # ones just cancelled never will, so drop this connection's
        # terminal requests here (cancel() above is synchronous, so
        # cancelled requests are terminal already — non-terminal ones
        # still have jobs in flight and are forgotten by forget()'s
        # own terminal guard once the scheduler releases them).
        for request_id in conn.owned:
            self._session.forget(request_id)
        # Account hygiene: idle connections leave no record; active
        # ones keep theirs for the stats frame, bounded so an
        # unbounded connection stream cannot grow the daemon forever.
        account = conn.account
        self._live_clients.discard(account.client)
        if account.submitted == 0 and account.rejected == 0:
            self._accounts.pop(account.client, None)
            self._owned_of.pop(account.client, None)
        else:
            self._prune_accounts()

    async def _handle_frame(self, conn: _Client, frame_type: str, frame, tag) -> None:
        self._frames_total.inc(type=frame_type)
        await super()._handle_frame(conn, frame_type, frame, tag)

    async def _stats_payload(self) -> Dict[str, object]:
        return self.stats()

    async def _reply_error(self, conn: _Client, exc: ReproError, tag) -> None:
        self._errors_total.inc()
        if isinstance(exc, Backpressure):
            conn.account.rejected += 1
            self._backpressure_total.inc(quota=exc.quota or "unknown")
        await super()._reply_error(conn, exc, tag)

    #: Disconnected-client accounts retained for the stats frame.
    _MAX_RETAINED_ACCOUNTS = 1024

    def _prune_accounts(self) -> None:
        if len(self._accounts) <= self._MAX_RETAINED_ACCOUNTS:
            return
        # Oldest disconnected clients go first (ids are "c<N>", N rising).
        for client in sorted(self._accounts, key=lambda name: int(name[1:])):
            if client in self._live_clients:
                continue
            del self._accounts[client]
            self._owned_of.pop(client, None)
            if len(self._accounts) <= self._MAX_RETAINED_ACCOUNTS:
                return

    async def _handle_submit(self, conn: _Client, frame, tag) -> None:
        # Admission FIRST, before any decode or planning: a rejected
        # submit must leave zero trace in the session/scheduler, so the
        # surviving requests' execution (and fingerprints) are exactly
        # what they would have been had the rejected frame never arrived.
        account = conn.account
        self.quota.admit(
            account.client, self._inflight_of(conn.owned), self._pending_total()
        )
        # Cache-write budget: an exhausted client still runs (results are
        # cache-independent by construction) but without the persistent
        # cache, so it cannot keep growing the shared snapshot.
        cache_policy = self._cache_policy
        if self.quota.cache_writes_exhausted(account.persistent_saved):
            cache_policy = None
            account.cache_throttled += 1
        # Decode (node-by-node AIG rebuild) and submit (cone planning,
        # persistent-cache warm) are CPU work: run them off-loop so one
        # client's large circuit never stalls other connections' frames.
        loop = asyncio.get_running_loop()
        request = await loop.run_in_executor(
            None, decode_request, frame.get("request"), cache_policy
        )
        handle = await loop.run_in_executor(None, self._session.submit, request)
        conn.owned[handle.id] = None
        account.submitted += 1
        await conn.send(
            self._tagged(
                {
                    "type": "event",
                    "v": PROTOCOL_VERSION,
                    "id": handle.id,
                    "name": handle.name,
                    "state": "queued",
                },
                tag,
            )
        )
        conn.spawn(self._pump_request(handle, conn))

    async def _handle_cancel(self, conn: _Client, frame, tag) -> None:
        request_id = frame.get("id")
        if not isinstance(request_id, int) or request_id not in conn.owned:
            raise ProtocolError(
                f"cancel: unknown request id {request_id!r} for this connection"
            )
        handle = self._session.handle(request_id)
        if handle is not None:
            cancelled = handle.cancel()
            state = handle.state
        else:
            # Already finished and forgotten: report the real terminal
            # state the pump delivered, never a fictitious "cancelled".
            cancelled = False
            state = conn.owned.get(request_id) or "done"
        await conn.send(
            self._tagged(
                {
                    "type": "event",
                    "v": PROTOCOL_VERSION,
                    "id": request_id,
                    "state": state,
                    "cancelled": cancelled,
                },
                tag,
            )
        )

    async def _pump_request(self, handle: AsyncRequestHandle, conn: _Client) -> None:
        """Relay one request's lifecycle to its connection, then forget it."""
        account = conn.account
        try:
            async for event in handle.events():
                if event["type"] == "record":
                    await conn.send(
                        {
                            "type": "event",
                            "v": PROTOCOL_VERSION,
                            "id": handle.id,
                            "state": "running",
                            "output": event["output"],
                        }
                    )
                    continue
                state = event["state"]
                if state not in TERMINAL_STATES:
                    await conn.send(
                        {
                            "type": "event",
                            "v": PROTOCOL_VERSION,
                            "id": handle.id,
                            "state": state,
                        }
                    )
                    continue
                result: Dict[str, object] = {
                    "type": "result",
                    "v": PROTOCOL_VERSION,
                    "id": handle.id,
                    "state": state,
                }
                if state == STATE_DONE:
                    report = handle.ticket.report
                    result["report"] = encode_report(report)
                    # Persistent-cache writes this request caused, charged
                    # against the client's cache_write_budget.
                    saved = report.schedule.get("persistent_saved", 0)
                    if isinstance(saved, int) and saved > 0:
                        account.persistent_saved += saved
                elif handle.error:
                    result["error"] = handle.error
                conn.owned[handle.id] = state
                await conn.send(result)
                # The span closes when the result frame is flushed: its
                # "replied" mark and per-phase durations land in this
                # daemon's registry, labelled by client.
                handle.ticket.span.finish(self.metrics, client=account.client)
            self._session.forget(handle.id)
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass


class ServiceThread(ServerThread):
    """A daemon embedded in this process, on its own event-loop thread.

    The test suite, the examples and notebooks use this to get a real
    socket-speaking service without managing a subprocess::

        with ServiceThread("/tmp/repro.sock", jobs=2, backend="thread"):
            with ServiceClient("/tmp/repro.sock") as client:
                report = client.run(request)

    The address may equally be TCP (``"127.0.0.1:0"`` binds an ephemeral
    port; read the resolved one back from :attr:`address` after
    :meth:`start`).  ``backend="thread"`` (the default here) keeps
    plug-in engines registered in this process visible to the daemon's
    workers.
    """

    def __init__(self, address: str, **service_kwargs) -> None:
        service_kwargs.setdefault("backend", "thread")
        self.service = ReproService(**service_kwargs)
        super().__init__(address, self.service)
