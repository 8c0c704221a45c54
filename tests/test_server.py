"""Tests for the shared listener and client frame loop of the service tier.

The contracts under test:

* :class:`Listener` binds a Unix path or an ephemeral TCP port, replaces
  only a stale *socket* at its path, tracks a handler task per live
  connection and forgets it when the client goes, EOFs every client on
  close, and removes its socket file only while it is still the one it
  bound;
* :class:`FrameServer` greets with ``hello``, answers ``ping`` and
  ``stats`` itself, and turns every malformed, oversized or refused frame
  into one tagged ``error`` line (with the error's ``code`` when it has
  one) while the connection stays up;
* :class:`ServerThread` publishes the resolved address and relays a
  startup failure to the launching thread.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket

import pytest

from repro.errors import Backpressure, ServiceError
from repro.service.protocol import PROTOCOL_VERSION, encode_frame, parse_address
from repro.service.server import FrameServer, Listener, ServerThread


def run(coroutine, timeout=10.0):
    """Run one test coroutine on a fresh event loop, bounded in time."""
    return asyncio.run(asyncio.wait_for(coroutine, timeout))


async def connect(address):
    kind, host, port = parse_address(address)
    if kind == "tcp":
        return await asyncio.open_connection(host, port)
    return await asyncio.open_unix_connection(host)


async def read_frame(reader):
    line = await reader.readline()
    assert line, "server closed the connection"
    return json.loads(line)


async def send_frame(writer, frame):
    writer.write(encode_frame(frame))
    await writer.drain()


async def close(writer):
    writer.close()
    await writer.wait_closed()


@pytest.fixture
def socket_path(tmp_path):
    return str(tmp_path / "server.sock")


class EchoServer(FrameServer):
    """A frame server that echoes submits and refuses cancels."""

    role = "echo"

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.disconnected = 0

    async def _handle_submit(self, conn, frame, tag):
        if frame.get("refuse"):
            raise Backpressure("too many requests in flight")
        await conn.send(
            self._tagged(
                {"type": "echo", "v": PROTOCOL_VERSION, "payload": frame.get("payload")},
                tag,
            )
        )

    async def _handle_cancel(self, conn, frame, tag):
        raise ServiceError("nothing to cancel")

    async def _stats_payload(self):
        return {"answer": 42}

    def _disconnect(self, conn):
        self.disconnected += 1


async def echo_client(address):
    """Connect to a started server and consume its greeting."""
    reader, writer = await connect(address)
    hello = await read_frame(reader)
    assert hello["type"] == "hello"
    return reader, writer


# -- Listener -------------------------------------------------------------------


async def _idle(reader, writer):
    await reader.read()


class TestListener:
    def test_tcp_port_zero_reports_resolved_port(self):
        async def main():
            listener = Listener(_idle)
            await listener.start("127.0.0.1:0")
            try:
                kind, host, port = parse_address(listener.address)
                assert (kind, host) == ("tcp", "127.0.0.1")
                assert port > 0
                _, writer = await connect(listener.address)
                await close(writer)
            finally:
                await listener.aclose()
            assert listener.address is None

        run(main())

    def test_second_start_is_refused(self, socket_path):
        async def main():
            listener = Listener(_idle)
            await listener.start(socket_path)
            try:
                with pytest.raises(ServiceError, match="already serving"):
                    await listener.start("127.0.0.1:0")
            finally:
                await listener.aclose()

        run(main())

    def test_stale_socket_file_is_replaced(self, socket_path):
        # A socket file nothing listens on: what a killed server leaves.
        stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        stale.bind(socket_path)
        stale.close()
        assert os.path.exists(socket_path)

        async def main():
            listener = Listener(_idle)
            await listener.start(socket_path)
            try:
                _, writer = await connect(socket_path)
                await close(writer)
            finally:
                await listener.aclose()

        run(main())

    def test_non_socket_path_is_refused_and_kept(self, socket_path):
        with open(socket_path, "w") as handle:
            handle.write("precious")

        async def main():
            listener = Listener(_idle)
            with pytest.raises(ServiceError, match="not a socket"):
                await listener.start(socket_path)

        run(main())
        with open(socket_path) as handle:
            assert handle.read() == "precious"

    def test_close_removes_own_socket_file(self, socket_path):
        async def main():
            listener = Listener(_idle)
            await listener.start(socket_path)
            assert os.path.exists(socket_path)
            await listener.aclose()

        run(main())
        assert not os.path.exists(socket_path)

    def test_close_keeps_a_newer_servers_socket(self, socket_path):
        async def main():
            first = Listener(_idle)
            second = Listener(_idle)
            await first.start(socket_path)
            await second.start(socket_path)  # last starter wins the path
            try:
                await first.aclose()
                assert os.path.exists(socket_path)
                _, writer = await connect(socket_path)
                await close(writer)
            finally:
                await second.aclose()
            assert not os.path.exists(socket_path)

        run(main())

    def test_close_eofs_live_clients_and_awaits_handlers(self, socket_path):
        finished = []

        async def handler(reader, writer):
            try:
                await reader.read()
            finally:
                finished.append(True)

        async def main():
            listener = Listener(handler)
            await listener.start(socket_path)
            reader, writer = await connect(socket_path)
            while not listener._live:
                await asyncio.sleep(0.01)
            await listener.aclose()
            assert finished == [True]
            assert not listener._live
            assert await reader.read() == b""
            await close(writer)

        run(main())

    def test_departed_clients_leave_no_tracked_handler(self, socket_path):
        async def echo_once(reader, writer):
            writer.write(await reader.readline())
            await writer.drain()

        async def main():
            listener = Listener(echo_once)
            await listener.start(socket_path)
            try:
                for _ in range(5):
                    reader, writer = await connect(socket_path)
                    writer.write(b"ping\n")
                    assert await reader.readline() == b"ping\n"
                    await close(writer)
                for _ in range(100):
                    if not listener._live:
                        break
                    await asyncio.sleep(0.01)
                assert not listener._live
                assert listener._served_connections == 5
            finally:
                await listener.aclose()

        run(main())


# -- FrameServer ----------------------------------------------------------------


class TestFrameServer:
    def _serve(self, socket_path, body, **kwargs):
        async def main():
            server = EchoServer(**kwargs)
            await server.start(socket_path)
            try:
                await body(server)
            finally:
                await server.aclose()
            return server

        return run(main())

    def test_hello_names_the_role(self, socket_path):
        async def body(server):
            reader, writer = await connect(socket_path)
            hello = await read_frame(reader)
            assert hello == {
                "type": "hello",
                "v": PROTOCOL_VERSION,
                "server": "repro-echo",
            }
            await close(writer)

        self._serve(socket_path, body)

    def test_ping_echoes_tag(self, socket_path):
        async def body(server):
            reader, writer = await echo_client(socket_path)
            await send_frame(writer, {"type": "ping", "v": PROTOCOL_VERSION, "tag": 7})
            assert await read_frame(reader) == {
                "type": "pong",
                "v": PROTOCOL_VERSION,
                "tag": 7,
            }
            await send_frame(writer, {"type": "ping", "v": PROTOCOL_VERSION})
            assert "tag" not in await read_frame(reader)
            await close(writer)

        self._serve(socket_path, body)

    def test_stats_frame_carries_payload(self, socket_path):
        async def body(server):
            reader, writer = await echo_client(socket_path)
            await send_frame(
                writer, {"type": "stats", "v": PROTOCOL_VERSION, "tag": "s"}
            )
            reply = await read_frame(reader)
            assert reply["type"] == "stats"
            assert reply["stats"] == {"answer": 42}
            assert reply["tag"] == "s"
            await close(writer)

        self._serve(socket_path, body)

    def test_submit_is_dispatched_to_subclass(self, socket_path):
        async def body(server):
            reader, writer = await echo_client(socket_path)
            await send_frame(
                writer,
                {"type": "submit", "v": PROTOCOL_VERSION, "tag": 1, "payload": [1, 2]},
            )
            reply = await read_frame(reader)
            assert reply == {
                "type": "echo",
                "v": PROTOCOL_VERSION,
                "payload": [1, 2],
                "tag": 1,
            }
            await close(writer)

        self._serve(socket_path, body)

    def test_malformed_json_answered_and_connection_survives(self, socket_path):
        async def body(server):
            reader, writer = await echo_client(socket_path)
            writer.write(b"{not json\n")
            error = await read_frame(reader)
            assert error["type"] == "error"
            assert "malformed" in error["error"]
            assert "code" not in error
            await send_frame(writer, {"type": "ping", "v": PROTOCOL_VERSION})
            assert (await read_frame(reader))["type"] == "pong"
            await close(writer)

        self._serve(socket_path, body)

    def test_version_mismatch_answered_with_tag(self, socket_path):
        async def body(server):
            reader, writer = await echo_client(socket_path)
            await send_frame(writer, {"type": "ping", "v": 1, "tag": 3})
            error = await read_frame(reader)
            assert error["type"] == "error"
            assert "version mismatch" in error["error"]
            assert error["tag"] == 3
            await close(writer)

        self._serve(socket_path, body)

    def test_unknown_frame_type_answered(self, socket_path):
        async def body(server):
            reader, writer = await echo_client(socket_path)
            await send_frame(writer, {"type": "shutdown", "v": PROTOCOL_VERSION})
            error = await read_frame(reader)
            assert error["type"] == "error"
            assert "unknown frame type" in error["error"]
            await close(writer)

        self._serve(socket_path, body)

    def test_oversized_frame_answered_with_recovered_tag(self, socket_path):
        async def body(server):
            reader, writer = await echo_client(socket_path)
            await send_frame(
                writer,
                {"type": "submit", "v": PROTOCOL_VERSION, "tag": 9, "payload": "x" * 4096},
            )
            error = await read_frame(reader)
            assert error["type"] == "error"
            assert "line limit" in error["error"]
            assert error["tag"] == 9
            await send_frame(writer, {"type": "ping", "v": PROTOCOL_VERSION, "tag": 10})
            assert await read_frame(reader) == {
                "type": "pong",
                "v": PROTOCOL_VERSION,
                "tag": 10,
            }
            await close(writer)

        self._serve(socket_path, body, line_limit=1024)

    def test_handler_error_reply_carries_code(self, socket_path):
        async def body(server):
            reader, writer = await echo_client(socket_path)
            await send_frame(
                writer, {"type": "submit", "v": PROTOCOL_VERSION, "tag": 4, "refuse": True}
            )
            error = await read_frame(reader)
            assert error == {
                "type": "error",
                "v": PROTOCOL_VERSION,
                "error": "too many requests in flight",
                "code": "backpressure",
                "tag": 4,
            }
            await close(writer)

        self._serve(socket_path, body)

    def test_handler_error_without_code_has_none(self, socket_path):
        async def body(server):
            reader, writer = await echo_client(socket_path)
            await send_frame(writer, {"type": "cancel", "v": PROTOCOL_VERSION, "tag": 5})
            error = await read_frame(reader)
            assert error == {
                "type": "error",
                "v": PROTOCOL_VERSION,
                "error": "nothing to cancel",
                "tag": 5,
            }
            await send_frame(writer, {"type": "ping", "v": PROTOCOL_VERSION})
            assert (await read_frame(reader))["type"] == "pong"
            await close(writer)

        self._serve(socket_path, body)

    def test_disconnect_hook_runs_once_per_client(self, socket_path):
        async def body(server):
            for _ in range(3):
                _, writer = await echo_client(socket_path)
                await close(writer)
            for _ in range(100):
                if server.disconnected == 3:
                    break
                await asyncio.sleep(0.01)

        server = self._serve(socket_path, body)
        assert server.disconnected == 3


# -- ServerThread ---------------------------------------------------------------


class TestServerThread:
    def test_publishes_resolved_tcp_address(self):
        thread = ServerThread("127.0.0.1:0", EchoServer()).start()
        try:
            kind, _, port = parse_address(thread.address)
            assert kind == "tcp" and port > 0
            assert thread.socket_path == thread.address

            async def ping():
                reader, writer = await echo_client(thread.address)
                await send_frame(writer, {"type": "ping", "v": PROTOCOL_VERSION})
                reply = await read_frame(reader)
                await close(writer)
                return reply

            assert run(ping())["type"] == "pong"
        finally:
            thread.stop()

    def test_startup_failure_is_raised_in_caller(self, socket_path):
        with open(socket_path, "w") as handle:
            handle.write("precious")
        with pytest.raises(ServiceError, match="echo failed to start"):
            ServerThread(socket_path, EchoServer()).start()
        with open(socket_path) as handle:
            assert handle.read() == "precious"

    def test_stop_removes_socket_file(self, socket_path):
        with ServerThread(socket_path, EchoServer()) as thread:
            assert thread.address == socket_path
            assert os.path.exists(socket_path)
        assert not os.path.exists(socket_path)
