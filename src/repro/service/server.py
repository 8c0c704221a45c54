"""The listening socket and client frame loop of every service front end.

:class:`Listener` binds a Unix path or a TCP ``host:port`` and runs one
handler task per accepted connection; it owns the stale-socket policy,
the live-connection table and the shutdown that EOFs every client and
removes the socket file it bound.  :class:`FrameServer` puts the client
side of the wire protocol on it: the ``hello`` greeting, the size-capped
:class:`repro.service.protocol.FrameReader` loop, dispatch by frame type
and the one-line ``error`` reply to anything malformed or refused.

:class:`repro.service.daemon.ReproService` and
:class:`repro.service.router.ReproRouter` are frame servers that add only
what they do with a ``submit``, a ``cancel`` and a ``stats`` request;
:class:`repro.obs.exposition.MetricsEndpoint` answers scrapes on a bare
listener.  :class:`ServerThread` embeds a frame server in-process.
"""

from __future__ import annotations

import asyncio
import os
import stat as stat_module
import threading
from typing import Awaitable, Callable, Coroutine, Dict, Optional, Tuple

from repro.errors import FrameTooLarge, ReproError, ServiceError
from repro.service.protocol import (
    PROTOCOL_VERSION,
    WIRE_LINE_LIMIT,
    FrameReader,
    check_client_frame,
    decode_frame,
    encode_frame,
    format_address,
    parse_address,
)

Handler = Callable[[asyncio.StreamReader, asyncio.StreamWriter], Awaitable[None]]


class Listener:
    """One bound stream socket and the handler task of every connection.

    A pre-existing file at a Unix path is unlinked only when it *is* a
    socket (the stale leftover of a killed server); anything else — a
    user's regular file, a directory — is refused with a one-line
    :class:`ServiceError` and survives untouched.  On close the path is
    unlinked only while it is still the socket this listener bound, so
    stopping a server never deletes the socket of a newer one that
    re-bound the same path (last starter wins).
    """

    #: What the error messages call this server.
    role = "listener"

    def __init__(self, handler: Handler) -> None:
        self._handler = handler
        self._server: Optional[asyncio.AbstractServer] = None
        self._address: Optional[str] = None
        # (path, st_dev, st_ino) of the Unix socket this listener bound.
        self._socket_id: Optional[Tuple[str, int, int]] = None
        # Handler task -> its writer, for every live connection.
        self._live: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._served_connections = 0

    @property
    def address(self) -> Optional[str]:
        """The bound address: the Unix path, or the **resolved**
        ``host:port`` (a TCP bind to port 0 reports the kernel's pick)."""
        return self._address

    async def start(self, address: str) -> asyncio.AbstractServer:
        """Bind a Unix path or ``host:port`` and start accepting."""
        if self._server is not None:
            raise ServiceError(f"the {self.role} is already serving")
        kind, host, port = parse_address(address)
        if kind == "tcp":
            self._server = await asyncio.start_server(
                self._accept, host=host or None, port=port
            )
            bound = self._server.sockets[0].getsockname()
            self._address = format_address(bound[0], bound[1])
            return self._server
        if os.path.exists(host):
            # A killed server's stale socket file blocks bind(); a live
            # one would still hold it open, so probing with connect would
            # race — keep the policy simple: last starter wins.  Anything
            # that is NOT a socket was never ours to delete.
            if not stat_module.S_ISSOCK(os.stat(host).st_mode):
                raise ServiceError(
                    f"refusing to serve on {host!r}: the path exists and is "
                    "not a socket"
                )
            os.unlink(host)
        self._server = await asyncio.start_unix_server(self._accept, path=host)
        stat = os.stat(host)
        self._socket_id = (host, stat.st_dev, stat.st_ino)
        self._address = host
        return self._server

    async def aclose(self) -> None:
        """Stop accepting, EOF every client and await its handler, then
        remove the socket file if it is still ours."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
        # EOF still-connected clients so their handlers run their own
        # cleanup and exit, instead of being cancelled (noisily) at
        # event-loop teardown.
        for writer in list(self._live.values()):
            writer.close()
        if self._live:
            await asyncio.wait(list(self._live), timeout=5)
        if server is not None:
            await server.wait_closed()
        if self._socket_id is not None:
            path, dev, ino = self._socket_id
            try:
                stat = os.stat(path)
                if (stat.st_dev, stat.st_ino) == (dev, ino):
                    os.unlink(path)
            except OSError:
                pass  # already gone
        self._socket_id = None
        self._address = None

    async def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._live[task] = writer
        self._served_connections += 1
        try:
            await self._handler(reader, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            del self._live[task]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass


class Connection:
    """One client of a frame server: its serialised writer, the requests
    it owns and the background tasks working for it."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer
        self._lock = asyncio.Lock()
        #: request id -> the server's record of it (kept after completion
        #: so a late cancel gets the honest terminal state).
        self.owned: Dict[int, object] = {}
        #: Tasks spawned for this client, held until done (the loop only
        #: keeps weak references to tasks).
        self.tasks: Dict[asyncio.Task, None] = {}

    async def send(self, frame: Dict[str, object]) -> None:
        async with self._lock:
            self._writer.write(encode_frame(frame))
            await self._writer.drain()

    async def push(self, frame: Dict[str, object]) -> None:
        """A server-initiated frame: a vanished client is not an error."""
        try:
            await self.send(frame)
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    def spawn(self, coroutine: Coroutine) -> None:
        task = asyncio.ensure_future(coroutine)
        self.tasks[task] = None
        task.add_done_callback(self.tasks.pop)


class FrameServer(Listener):
    """A listener speaking the server side of the client protocol.

    Every connection is greeted with ``hello`` (naming the server
    ``repro-<role>``), then each frame is decoded, checked and handed to
    :meth:`_handle_frame`.  A malformed, oversized or version-mismatched
    frame, and any :class:`ReproError` a handler raises, gets a one-line
    ``error`` reply carrying the frame's tag (and the error's ``code``,
    when it has one) and the connection stays up.  Subclasses implement
    :meth:`_handle_submit`, :meth:`_handle_cancel` and
    :meth:`_stats_payload`, and may keep per-connection state through
    :meth:`_connect` / :meth:`_disconnect`.
    """

    def __init__(self, line_limit: int = WIRE_LINE_LIMIT) -> None:
        super().__init__(self._serve)
        self.line_limit = line_limit

    def _connect(self, writer: asyncio.StreamWriter) -> Connection:
        """The state of a newly accepted client."""
        return Connection(writer)

    def _disconnect(self, conn: Connection) -> None:
        """Clean up after a client whose stream ended."""

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = self._connect(writer)
        frames = FrameReader(reader, limit=self.line_limit)
        try:
            server = f"repro-{self.role}"
            await conn.send({"type": "hello", "v": PROTOCOL_VERSION, "server": server})
            while True:
                tag = None
                try:
                    line = await frames.readline()
                    if not line:
                        return
                    frame = decode_frame(line)
                    tag = frame.get("tag")
                    frame_type = check_client_frame(frame)
                    await self._handle_frame(conn, frame_type, frame, tag)
                except ReproError as exc:
                    if isinstance(exc, FrameTooLarge):
                        # The oversized line was discarded through its
                        # newline, so the stream is at the next frame;
                        # answer with whatever tag could be recovered.
                        tag = exc.tag
                    await self._reply_error(conn, exc, tag)
        finally:
            self._disconnect(conn)

    async def _handle_frame(
        self, conn: Connection, frame_type: str, frame, tag
    ) -> None:
        if frame_type == "ping":
            await conn.send(self._tagged({"type": "pong", "v": PROTOCOL_VERSION}, tag))
        elif frame_type == "stats":
            stats = await self._stats_payload()
            await conn.send(
                self._tagged(
                    {"type": "stats", "v": PROTOCOL_VERSION, "stats": stats}, tag
                )
            )
        elif frame_type == "cancel":
            await self._handle_cancel(conn, frame, tag)
        else:  # submit
            await self._handle_submit(conn, frame, tag)

    async def _reply_error(self, conn: Connection, exc: ReproError, tag) -> None:
        """One line back, connection lives on.  Recoverable rejections
        carry a machine-readable ``code`` (a Backpressure reply means
        "retry later", not "broken frame")."""
        code = getattr(exc, "code", None)
        await conn.send(
            self._tagged(
                {
                    "type": "error",
                    "v": PROTOCOL_VERSION,
                    "error": str(exc),
                    **({} if code is None else {"code": code}),
                },
                tag,
            )
        )

    @staticmethod
    def _tagged(frame: Dict[str, object], tag) -> Dict[str, object]:
        if tag is not None:
            frame["tag"] = tag
        return frame


class ServerThread:
    """A frame server embedded in this process, on its own event-loop
    thread; :class:`repro.service.daemon.ServiceThread` and
    :class:`repro.service.router.RouterThread` are the two kinds."""

    def __init__(self, address: str, server: FrameServer) -> None:
        self.address = address
        self._server = server
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name=f"repro-{server.role}", daemon=True
        )

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def socket_path(self) -> str:
        """Backwards-compatible alias of :attr:`address`."""
        return self.address

    def start(self) -> "ServerThread":
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise ServiceError(
                f"{self._server.role} failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    def stop(self) -> None:
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop.set)
            self._thread.join(timeout=30)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self._server.start(self.address)
        except BaseException as exc:  # noqa: BLE001 - relayed to start()
            self._startup_error = exc
            self._started.set()
            return
        # Publish the *resolved* address (TCP port 0 → the kernel's pick)
        # before start() returns in the launching thread.
        self.address = self._server.address
        self._started.set()
        try:
            await self._stop.wait()
        finally:
            await self._server.aclose()
