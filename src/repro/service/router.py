"""The sharded service tier: one front door, N daemon shards.

:class:`ReproRouter` is an asyncio server that speaks the exact client
protocol of :class:`repro.service.daemon.ReproService` — same handshake,
same frame catalogue — while owning **no** execution substrate of its
own.  Every ``submit`` is forwarded to one of N configured ``step
serve`` shards over a persistent connection, chosen by **consistent
hashing of the request's canonical cone signature set**: the same
circuit (and every structural duplicate of it) always lands on the same
shard, so each shard's warm persistent cone cache specialises and the
fleet behaves like one logical cache N times the size of any single
daemon's.

Mechanics:

* **Routing key.**  :func:`request_route_key` decodes the submitted
  circuit and computes the fanin-commutative
  :func:`repro.aig.signature.canonical_cone_signature` of every primary
  output — the exact keys the shards' cone caches use — then buckets by
  the *dominant* signature (most outputs; digest order breaks ties).
  Constant-free circuits with no outputs fall back to the circuit name.
* **Id translation.**  The router assigns its own request ids.  A
  shard's ``queued`` ack teaches the router the shard-local id; every
  subsequent ``event``/``result`` frame is relayed with the shard-local
  id translated back to the router-global one, and ``cancel`` frames
  travel the other way.  ``stats`` aggregates numeric counters across
  shards (per-shard detail under ``"shards"``, router counters under
  ``"router"``).
* **Failover.**  A shard that disconnects mid-request has its in-flight
  requests re-submitted to the next shard on the hash ring (bounded by
  ``max_attempts``; exhaustion yields a ``failed`` result carrying the
  last shard error).  A health probe re-dials down shards every
  ``probe_interval`` seconds and re-admits them to the ring on success.

Because every shard individually guarantees fingerprint-identical
reports, a report served through the router is fingerprint-identical to
a solo ``Session.run()`` **regardless of which shard served it** — the
property that makes failover invisible to clients
(``tests/test_router.py`` and the CI service-smoke job assert it).

``step route --listen ADDR --shard ADDR --shard ADDR ...`` is the CLI
front end; :class:`RouterThread` embeds a router in-process (tests,
examples).
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.aig.function import BooleanFunction
from repro.aig.signature import canonical_cone_signature
from repro.errors import ProtocolError, ReproError, ServiceError
from repro.obs.registry import SNAPSHOT_VERSION, merge_snapshots
from repro.service.protocol import (
    PROTOCOL_VERSION,
    WIRE_LINE_LIMIT,
    FrameReader,
    decode_circuit,
    decode_frame,
    encode_frame,
    parse_address,
)
from repro.service.server import Connection, FrameServer, ServerThread

#: Virtual points per shard on the hash ring.  Enough that removing one
#: shard spreads its keyspace over every survivor instead of dumping it
#: on a single neighbour.
RING_REPLICAS = 64


# -- routing key ----------------------------------------------------------------


def request_route_key(payload: object) -> Tuple[str, str]:
    """The (route key, display name) of a submit frame's request payload.

    The key is the dominant canonical cone signature digest across the
    circuit's primary outputs — dominant by output count, ties broken by
    digest order, so the key is a pure function of the circuit's
    structure (never of output order or construction history).  Raises
    :class:`ProtocolError` for payloads whose circuit does not decode,
    exactly as a shard would.
    """
    if not isinstance(payload, dict):
        raise ProtocolError("malformed submit: 'request' must be a JSON object")
    try:
        circuit = decode_circuit(payload["circuit"])
    except KeyError:
        raise ProtocolError("malformed submit: missing field 'circuit'") from None
    name = str(payload.get("name") or circuit.name)
    digests: List[str] = []
    for index in range(len(circuit.outputs)):
        function = BooleanFunction.from_output(circuit, index)
        signature = canonical_cone_signature(
            function.aig, function.root, function.inputs
        )
        digests.append(str(signature[2]))
    if not digests:
        return f"circuit:{name}", name
    counts = Counter(digests)
    dominant = max(counts, key=lambda digest: (counts[digest], digest))
    return f"cone:{dominant}", name


def _ring_point(data: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest(), "big"
    )


def build_ring(
    shards: Sequence[str], replicas: int = RING_REPLICAS
) -> List[Tuple[int, str]]:
    """The sorted consistent-hash ring: ``replicas`` points per shard.

    Points depend only on the shard address strings, so every router
    configured with the same shard set — in any order — routes every key
    identically (the determinism the per-shard warm caches rely on).
    """
    ring = [
        (_ring_point(f"{address}#{index}"), address)
        for address in shards
        for index in range(replicas)
    ]
    ring.sort()
    return ring


# -- one shard ------------------------------------------------------------------


class _ShardLink:
    """One persistent connection to a shard, owned by the router loop.

    Tagged round trips (submit/cancel/stats relays) resolve through
    :meth:`call`; untagged frames — the shard's progress events and
    results — flow to :meth:`ReproRouter._relay` for id translation.
    All state lives on the router's event loop; no locks beyond the
    write lock.
    """

    def __init__(self, router: "ReproRouter", address: str) -> None:
        self.address = address
        self.up = False
        #: shard-local request id -> _PendingRequest being relayed.
        self.routes: Dict[int, "_PendingRequest"] = {}
        self._router = router
        self._writer: Optional[asyncio.StreamWriter] = None
        self._frames: Optional[FrameReader] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._write_lock = asyncio.Lock()
        self._calls: Dict[str, Tuple[Optional[object], asyncio.Future]] = {}
        self._next_tag = 0
        self._closing = False

    async def connect(self) -> None:
        """Dial the shard and complete the versioned handshake."""
        kind, host, port = parse_address(self.address)
        if kind == "tcp":
            reader, writer = await asyncio.open_connection(
                host or "127.0.0.1", port
            )
        else:
            reader, writer = await asyncio.open_unix_connection(host)
        frames = FrameReader(reader, limit=self._router.line_limit)
        try:
            hello = decode_frame(await frames.readline())
        except ProtocolError:
            writer.close()
            raise ServiceError(
                f"shard {self.address} did not complete the handshake"
            ) from None
        if hello.get("type") != "hello" or hello.get("v") != PROTOCOL_VERSION:
            writer.close()
            raise ServiceError(
                f"shard {self.address} speaks protocol {hello.get('v')!r}, "
                f"this router speaks {PROTOCOL_VERSION}"
            )
        self._writer = writer
        self._frames = frames
        self.up = True
        self._reader_task = asyncio.ensure_future(self._read_loop())

    async def close(self) -> None:
        self._closing = True
        self.up = False
        if self._reader_task is not None:
            self._reader_task.cancel()
        if self._writer is not None:
            self._writer.close()

    async def call(self, frame: Dict[str, object], on_reply=None) -> dict:
        """One tagged round trip; ``on_reply`` runs synchronously in the
        reader (before any later frame is processed) when given."""
        if not self.up:
            raise ServiceError(f"shard {self.address} is down")
        self._next_tag += 1
        tag = f"r{self._next_tag}"
        frame = dict(frame)
        frame["tag"] = tag
        future = asyncio.get_running_loop().create_future()
        self._calls[tag] = (on_reply, future)
        try:
            await self._send(frame)
        except (OSError, ServiceError) as exc:
            self._calls.pop(tag, None)
            raise ServiceError(
                f"shard {self.address} went away mid-call: {exc}"
            ) from None
        return await future

    async def _send(self, frame: Dict[str, object]) -> None:
        if self._writer is None:
            raise ServiceError(f"shard {self.address} is down")
        async with self._write_lock:
            self._writer.write(encode_frame(frame))
            await self._writer.drain()

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._frames.readline()
                if not line:
                    raise ServiceError(
                        f"shard {self.address} closed the connection"
                    )
                frame = decode_frame(line)
                tag = frame.get("tag")
                if tag is not None:
                    entry = self._calls.pop(tag, None)
                    if entry is not None:
                        on_reply, future = entry
                        if on_reply is not None:
                            on_reply(frame)
                        if not future.done():
                            future.set_result(frame)
                    continue  # tagged frames are always direct replies
                await self._router._relay(self, frame)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - any loss of the stream
            self._fail(exc)

    def _fail(self, exc: BaseException) -> None:
        """The connection is gone: fail callers, hand work to failover."""
        if self._closing or not self.up:
            return
        self.up = False
        if self._writer is not None:
            self._writer.close()
        calls, self._calls = self._calls, {}
        for _, future in calls.values():
            if not future.done():
                future.set_exception(
                    ServiceError(f"shard {self.address} disconnected: {exc}")
                )
        self._router._on_shard_down(self, exc)


# -- one routed request ---------------------------------------------------------


class _PendingRequest:
    """One client submit on its way through (possibly several) shards."""

    __slots__ = (
        "global_id",
        "connection",
        "payload",
        "key",
        "name",
        "shard",
        "local_id",
        "attempts",
        "last_error",
        "cancel_requested",
        "done",
        "final_state",
    )

    def __init__(self, global_id, connection, payload, key, name) -> None:
        self.global_id = global_id
        self.connection = connection
        self.payload = payload
        self.key = key
        self.name = name
        self.shard: Optional[_ShardLink] = None
        self.local_id: Optional[int] = None
        self.attempts = 0
        self.last_error: Optional[str] = None
        self.cancel_requested = False
        self.done = False
        self.final_state: Optional[str] = None


# -- the router -----------------------------------------------------------------


class ReproRouter(FrameServer):
    """The consistent-hash front door over N ``step serve`` shards."""

    role = "router"

    def __init__(
        self,
        shards: Sequence[str],
        max_attempts: int = 3,
        probe_interval: float = 1.0,
        replicas: int = RING_REPLICAS,
        line_limit: int = WIRE_LINE_LIMIT,
        stats_timeout: float = 5.0,
    ) -> None:
        if not shards:
            raise ServiceError("a router needs at least one shard address")
        if len(set(shards)) != len(shards):
            raise ServiceError(f"duplicate shard addresses in {list(shards)!r}")
        super().__init__(line_limit)
        self._links: Dict[str, _ShardLink] = {
            address: _ShardLink(self, address) for address in shards
        }
        self._ring = build_ring(shards, replicas=replicas)
        self._max_attempts = max_attempts
        self._probe_interval = probe_interval
        self._stats_timeout = stats_timeout
        self._probe_task: Optional[asyncio.Task] = None
        self._next_global_id = 0
        self._counters = {"routed": 0, "failovers": 0, "results": 0}

    @property
    def shards(self) -> List[str]:
        return list(self._links)

    def shard_for(self, key: str) -> Optional[str]:
        """The address the ring currently routes ``key`` to (diagnostics)."""
        link = self._pick(key)
        return link.address if link is not None else None

    # -- lifecycle ----------------------------------------------------------------

    async def start(self, listen_address: str) -> asyncio.AbstractServer:
        """Dial the shards, bind the client-facing listener, start probing.

        Shards that are down at start are tolerated (the probe re-admits
        them) as long as at least one is reachable.
        """
        failures = []
        for link in self._links.values():
            if link.up:
                continue
            try:
                await link.connect()
            except (OSError, ReproError) as exc:
                failures.append(f"{link.address}: {exc}")
        if not any(link.up for link in self._links.values()):
            raise ServiceError(
                "none of the configured shards is reachable — "
                + "; ".join(failures)
            )
        server = await super().start(listen_address)
        self._probe_task = asyncio.ensure_future(self._probe_loop())
        return server

    async def aclose(self) -> None:
        if self._probe_task is not None:
            self._probe_task.cancel()
            self._probe_task = None
        await super().aclose()
        for link in self._links.values():
            await link.close()

    # -- the ring -----------------------------------------------------------------

    def _pick(self, key: str, exclude: Sequence[str] = ()) -> Optional[_ShardLink]:
        """First *up* shard clockwise of the key's ring point."""
        if not self._ring:
            return None
        index = bisect.bisect(self._ring, (_ring_point(key), ""))
        for step in range(len(self._ring)):
            _, address = self._ring[(index + step) % len(self._ring)]
            link = self._links[address]
            if link.up and address not in exclude:
                return link
        return None

    async def _probe_loop(self) -> None:
        """Re-dial down shards; success re-admits them to the ring."""
        while True:
            await asyncio.sleep(self._probe_interval)
            for link in list(self._links.values()):
                if not link.up:
                    try:
                        await link.connect()
                    except (OSError, ReproError):
                        pass  # still down; next probe retries

    # -- client connections -------------------------------------------------------

    def _disconnect(self, conn: Connection) -> None:
        # A vanished client's work must not hold shard workers: relay a
        # cancel for everything still in flight and stop relaying.
        for pending in conn.owned.values():
            if pending.done:
                continue
            pending.cancel_requested = True
            link, local_id = pending.shard, pending.local_id
            if link is not None and local_id is not None:
                link.routes.pop(local_id, None)
                conn.spawn(self._cancel_on_shard(link, local_id))
        conn.owned.clear()

    async def _cancel_on_shard(self, link: _ShardLink, local_id: int) -> None:
        try:
            await link.call(
                {"type": "cancel", "v": PROTOCOL_VERSION, "id": local_id}
            )
        except (OSError, ReproError):
            pass  # the shard is gone; nothing left to cancel

    # -- submit / dispatch / failover ---------------------------------------------

    async def _handle_submit(self, conn: Connection, frame: dict, tag) -> None:
        # Decoding the circuit and hashing every output cone is CPU work:
        # run it off-loop so one client's monster circuit never stalls
        # other connections' frames (mirrors the daemon's submit path).
        loop = asyncio.get_running_loop()
        key, name = await loop.run_in_executor(
            None, request_route_key, frame.get("request")
        )
        self._next_global_id += 1
        pending = _PendingRequest(
            self._next_global_id, conn, frame.get("request"), key, name
        )
        conn.owned[pending.global_id] = pending
        # Ack with the router-global id immediately: the client has a
        # stable handle even if the first shard dies before acking.
        await conn.send(
            self._tagged(
                {
                    "type": "event",
                    "v": PROTOCOL_VERSION,
                    "id": pending.global_id,
                    "name": name,
                    "state": "queued",
                },
                tag,
            )
        )
        conn.spawn(self._dispatch(pending))

    async def _dispatch(self, pending: _PendingRequest) -> None:
        """Bind the request to a shard; walk the ring on shard failure."""
        while True:
            if pending.done:
                return
            if pending.cancel_requested:
                await self._finish(pending, "cancelled")
                return
            if pending.attempts >= self._max_attempts:
                await self._finish(
                    pending,
                    "failed",
                    error=(
                        f"gave up after {pending.attempts} shard attempt(s); "
                        f"last shard error: {pending.last_error}"
                    ),
                )
                return
            link = self._pick(pending.key)
            if link is None:
                await self._finish(
                    pending,
                    "failed",
                    error=(
                        "no shard is up"
                        + (
                            f"; last shard error: {pending.last_error}"
                            if pending.last_error
                            else ""
                        )
                    ),
                )
                return
            pending.attempts += 1
            try:
                reply = await link.call(
                    {
                        "type": "submit",
                        "v": PROTOCOL_VERSION,
                        "request": pending.payload,
                    },
                    on_reply=lambda frame, link=link: self._bind(
                        link, frame, pending
                    ),
                )
            except ServiceError as exc:
                pending.last_error = str(exc)
                continue
            if reply.get("type") == "error":
                # The shard judged the request itself invalid (unknown
                # engine, bad budgets, ...) — not a shard failure, and
                # every shard would answer the same; don't retry.
                await self._finish(
                    pending, "failed", error=str(reply.get("error"))
                )
                return
            self._counters["routed"] += 1
            if pending.cancel_requested:
                # The client cancelled in the pre-bind window and already
                # holds our "cancelled: True" promise — honour it
                # deterministically, like the daemon cancelling a queued
                # request: drop the route (the shard's racing outcome is
                # no longer relayed), tell the shard, synthesise the
                # terminal result.
                if pending.local_id is not None:
                    link.routes.pop(pending.local_id, None)
                    pending.connection.spawn(
                        self._cancel_on_shard(link, pending.local_id)
                    )
                await self._finish(pending, "cancelled")
            return

    def _bind(self, link: _ShardLink, reply: dict, pending: _PendingRequest) -> None:
        """Register the shard-local id — synchronously, inside the link
        reader, so no event of this request can outrun its route entry.

        A request the client cancelled before this reply gets no route:
        the reader may relay its shard result before :meth:`_dispatch`
        resumes to honour the cancel, so the shard's frames are dropped.
        """
        local_id = reply.get("id")
        if reply.get("type") == "event" and isinstance(local_id, int):
            pending.shard = link
            pending.local_id = local_id
            if not pending.cancel_requested:
                link.routes[local_id] = pending

    async def _finish(
        self, pending: _PendingRequest, state: str, error: Optional[str] = None
    ) -> None:
        """Deliver a router-synthesised terminal result to the client."""
        if pending.done:
            return
        pending.done = True
        pending.final_state = state
        self._counters["results"] += 1
        frame: Dict[str, object] = {
            "type": "result",
            "v": PROTOCOL_VERSION,
            "id": pending.global_id,
            "state": state,
        }
        if error is not None:
            frame["error"] = error
        await pending.connection.push(frame)

    def _on_shard_down(self, link: _ShardLink, exc: BaseException) -> None:
        """Failover: every request the dead shard held goes back on the
        ring (the dead shard is already excluded — it is marked down)."""
        routes, link.routes = link.routes, {}
        for pending in routes.values():
            if pending.done:
                continue
            pending.shard = None
            pending.local_id = None
            pending.last_error = f"shard {link.address} disconnected: {exc}"
            self._counters["failovers"] += 1
            pending.connection.spawn(self._dispatch(pending))

    # -- relay / cancel / stats ---------------------------------------------------

    async def _relay(self, link: _ShardLink, frame: dict) -> None:
        """Translate a shard's untagged frame to router-global ids."""
        local_id = frame.get("id")
        pending = link.routes.get(local_id)
        if pending is None:
            return  # a finished or cancelled-away request's late frames
        out = dict(frame)
        out["id"] = pending.global_id
        if frame.get("type") == "result":
            link.routes.pop(local_id, None)
            state = str(frame.get("state"))
            if state == "cancelled" and not pending.cancel_requested:
                # Nobody on this side asked: the shard is shedding its
                # in-flight work (draining/shutting down).  Re-route
                # instead of relaying — a graceful `kill -TERM` of one
                # shard must lose no requests, exactly like a crash.
                pending.shard = None
                pending.local_id = None
                pending.last_error = (
                    f"shard {link.address} cancelled the request while "
                    "shutting down"
                )
                self._counters["failovers"] += 1
                pending.connection.spawn(self._dispatch(pending))
                return
            pending.done = True
            pending.final_state = state
            self._counters["results"] += 1
        await pending.connection.push(out)

    async def _handle_cancel(self, conn: Connection, frame: dict, tag) -> None:
        global_id = frame.get("id")
        pending = (
            conn.owned.get(global_id) if isinstance(global_id, int) else None
        )
        if pending is None:
            raise ProtocolError(
                f"cancel: unknown request id {global_id!r} for this connection"
            )
        if pending.done:
            # Honest terminal state, never a fictitious "cancelled".
            await conn.send(
                self._tagged(
                    {
                        "type": "event",
                        "v": PROTOCOL_VERSION,
                        "id": global_id,
                        "state": pending.final_state or "done",
                        "cancelled": False,
                    },
                    tag,
                )
            )
            return
        if pending.shard is None:
            # Not bound to a shard yet (dispatch or failover in flight):
            # the dispatcher honours the flag and synthesises the result.
            pending.cancel_requested = True
            await conn.send(
                self._tagged(
                    {
                        "type": "event",
                        "v": PROTOCOL_VERSION,
                        "id": global_id,
                        "state": "queued",
                        "cancelled": True,
                    },
                    tag,
                )
            )
            return
        link, local_id = pending.shard, pending.local_id
        # Record that cancellation is the *client's* wish before the shard
        # answers: a "cancelled" result arriving for this request must be
        # relayed as the honest outcome, not mistaken for the shard
        # shedding work and revived by failover.
        pending.cancel_requested = True
        try:
            reply = await link.call(
                {"type": "cancel", "v": PROTOCOL_VERSION, "id": local_id}
            )
        except ServiceError:
            # The shard died under the cancel; failover would only revive
            # work the client just told us to kill.
            pending.cancel_requested = True
            await conn.send(
                self._tagged(
                    {
                        "type": "event",
                        "v": PROTOCOL_VERSION,
                        "id": global_id,
                        "state": "queued",
                        "cancelled": True,
                    },
                    tag,
                )
            )
            return
        await conn.send(
            self._tagged(
                {
                    "type": "event",
                    "v": PROTOCOL_VERSION,
                    "id": global_id,
                    "state": reply.get("state"),
                    "cancelled": bool(reply.get("cancelled")),
                },
                tag,
            )
        )

    def _router_counters(self) -> Dict[str, int]:
        return {
            **self._counters,
            "connections": len(self._live),
            "served_connections": self._served_connections,
        }

    def _own_snapshot(self) -> Dict[str, object]:
        """The router's counters in metric-snapshot form, so they merge
        with (and render like) the shards' ``obs`` payloads."""
        return {
            "version": SNAPSHOT_VERSION,
            "counters": {
                f"repro_router_{name}_total": {
                    "help": f"router {name}",
                    "values": {"": value},
                }
                for name, value in sorted(self._router_counters().items())
            },
            "gauges": {
                "repro_router_shards_up": {
                    "help": "shards currently reachable",
                    "values": {
                        "": sum(link.up for link in self._links.values())
                    },
                }
            },
            "histograms": {},
        }

    # Per-shard scalar keys that must NOT be summed into the aggregate
    # (versions are identities, not quantities).
    _NO_AGGREGATE = frozenset({"protocol", "stats_version"})

    async def _stats_payload(self) -> Dict[str, object]:
        aggregate: Dict[str, object] = {}
        shards: Dict[str, object] = {}
        obs_snapshots: List[Dict[str, object]] = [self._own_snapshot()]
        clients: Dict[str, object] = {}
        quotas: Dict[str, object] = {}
        for address in sorted(self._links):
            link = self._links[address]
            if not link.up:
                shards[address] = {"up": False}
                continue
            try:
                # A shard that dies (or wedges) mid-scrape must cost the
                # client its numbers only, never the reply: bound the
                # round trip and report the shard down.
                reply = await asyncio.wait_for(
                    link.call({"type": "stats", "v": PROTOCOL_VERSION}),
                    timeout=self._stats_timeout,
                )
            except (ServiceError, asyncio.TimeoutError):
                shards[address] = {"up": False}
                continue
            stats = reply.get("stats") if reply.get("type") == "stats" else None
            if not isinstance(stats, dict):
                shards[address] = {"up": True}
                continue
            shards[address] = {"up": True, **stats}
            for key, value in stats.items():
                if key in self._NO_AGGREGATE:
                    continue
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                aggregate[key] = aggregate.get(key, 0) + value
            shard_obs = stats.get("obs")
            if isinstance(shard_obs, dict):
                obs_snapshots.append(shard_obs)
            shard_clients = stats.get("clients")
            if isinstance(shard_clients, dict):
                # Shards number clients independently; the address prefix
                # keeps every series distinct in the fleet view.
                for client in sorted(shard_clients):
                    clients[f"{address}/{client}"] = shard_clients[client]
            shard_quotas = stats.get("quotas")
            if isinstance(shard_quotas, dict):
                quotas[address] = shard_quotas
        stats_frame: Dict[str, object] = dict(aggregate)
        stats_frame["stats_version"] = 2
        stats_frame["protocol"] = PROTOCOL_VERSION
        stats_frame["router"] = {
            **self._router_counters(),
            "shards_up": sum(link.up for link in self._links.values()),
            "shards_down": sum(not link.up for link in self._links.values()),
        }
        stats_frame["shards"] = shards
        stats_frame["obs"] = merge_snapshots(obs_snapshots)
        stats_frame["clients"] = clients
        # Per-shard quota configuration, keyed by address: a fleet does
        # not have one quota, each shard enforces its own.
        stats_frame["quotas"] = quotas
        return stats_frame


class RouterThread(ServerThread):
    """A router embedded in this process, on its own event-loop thread.

    The sibling of :class:`repro.service.daemon.ServiceThread` — tests
    and examples stand up a whole shard fleet in one process::

        shard_a = ServiceThread("127.0.0.1:0", jobs=2).start()
        shard_b = ServiceThread("127.0.0.1:0", jobs=2).start()
        with RouterThread("127.0.0.1:0", [shard_a.address, shard_b.address]) as front:
            with ServiceClient(front.address) as client:
                report = client.run(request)
    """

    def __init__(
        self, listen_address: str, shards: Sequence[str], **router_kwargs
    ) -> None:
        self.router = ReproRouter(shards, **router_kwargs)
        super().__init__(listen_address, self.router)
