"""repro.service — the long-lived decomposition daemon, router and clients.

Five modules put the session API on a stream socket (Unix or TCP):

* :mod:`repro.service.protocol` — the versioned JSON-lines wire protocol
  (``submit`` / ``event`` / ``result`` / ``cancel`` / ``stats`` frames)
  plus fingerprint-preserving codecs for circuits, requests and reports,
  address parsing and the size-capped :class:`FrameReader`;
* :mod:`repro.service.server` — the one listening socket and client
  frame loop under daemon and router (hello, frame reader, one-line
  ``error`` replies, connection tracking, socket-file ownership) and the
  embedding :class:`repro.service.server.ServerThread`;
* :mod:`repro.service.daemon` — :class:`ReproService`, an asyncio server
  multiplexing any number of client connections onto ONE
  :class:`repro.api.aio.AsyncSession` (one warm executor pool, one
  persistent cone cache, fair scheduling across all clients);
* :mod:`repro.service.router` — :class:`ReproRouter`, the sharded tier:
  a consistent-hash front door routing each request to one of N daemon
  shards by canonical cone signature, with failover and health probing;
* :mod:`repro.service.client` — :class:`ServiceClient`, a thin *blocking*
  client so existing synchronous scripts run unchanged against a remote
  session (``client.run(request)`` mirrors ``Session.run(request)``) —
  pointed at a daemon or a router alike.

The CLI front ends are ``step serve``, ``step route`` and ``step
client``; the protocol spec and deployment notes live in
``docs/service.md``.
"""

from repro.service.client import ServiceClient
from repro.service.daemon import ReproService, ServiceThread
from repro.service.protocol import PROTOCOL_VERSION, WIRE_LINE_LIMIT
from repro.service.router import ReproRouter, RouterThread

__all__ = [
    "PROTOCOL_VERSION",
    "WIRE_LINE_LIMIT",
    "ReproRouter",
    "ReproService",
    "RouterThread",
    "ServiceClient",
    "ServiceThread",
]
