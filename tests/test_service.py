"""Tests for the decomposition service: daemon, wire protocol, clients.

The contracts under test:

* a report obtained through the daemon is **fingerprint-identical** to the
  same request run through a local ``Session`` (acceptance criterion);
* N clients share ONE warm executor pool (``stats["pools_created"]``);
* cancelling one in-flight request never perturbs concurrent requests;
* malformed and version-mismatched frames get one-line ``error`` replies
  and the connection (and daemon) live on;
* the ``step client`` CLI mirrors ``step decompose`` against a daemon.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time

import pytest

from repro.api import (
    Budgets,
    DecompositionRequest,
    EngineSpec,
    Session,
    default_registry,
)
from repro.circuits.generators import (
    decomposable_by_construction,
    mux_tree,
    parity_tree,
    ripple_carry_adder,
)
from repro.core.result import BiDecResult
from repro.core.spec import ENGINE_STEP_MG, ENGINE_STEP_QD
from repro.errors import ProtocolError, ReproError, ServiceError
from repro.service import (
    PROTOCOL_VERSION,
    RouterThread,
    ServiceClient,
    ServiceThread,
)
from repro.service.protocol import (
    decode_circuit,
    decode_report,
    decode_request,
    encode_circuit,
    encode_report,
    encode_request,
)


def request_for(aig, engines=(ENGINE_STEP_MG,), **kwargs):
    return DecompositionRequest(
        circuit=aig, operator="or", engines=tuple(engines), **kwargs
    )


@pytest.fixture
def socket_path(tmp_path):
    # AF_UNIX paths are limited to ~107 bytes; pytest tmp dirs stay well
    # under that, but keep the file name tight anyway.
    return str(tmp_path / "repro.sock")


@pytest.fixture
def daemon(socket_path):
    """An in-process daemon on the thread backend (plug-in engines and
    coverage both need the workers in this process)."""
    with ServiceThread(socket_path, jobs=2, backend="thread") as service:
        yield service


class TestWireCodecs:
    @pytest.mark.parametrize("builder", [mux_tree, ripple_carry_adder, parity_tree])
    def test_circuit_roundtrip_is_node_exact(self, builder):
        aig = builder(3)
        back = decode_circuit(json.loads(json.dumps(encode_circuit(aig))))
        assert back.name == aig.name
        assert back.num_nodes == aig.num_nodes
        assert back.outputs == aig.outputs
        for index in range(back.num_nodes):
            assert back.node_kind(index) == aig.node_kind(index)
            if aig.is_and(index):
                assert back.fanins(index) == aig.fanins(index)

    def test_latched_circuit_roundtrip(self):
        from repro.aig.aig import AIG

        aig = AIG("seq")
        a = aig.add_input("a")
        latch = aig.add_latch("l0", init_value=1)
        aig.set_latch_next(latch, aig.land(a, latch))
        aig.add_output("o", aig.lor(a, latch))
        back = decode_circuit(encode_circuit(aig))
        assert back.latches == aig.latches
        assert back.node(back.latches[0]).init_value == 1
        assert back.node(back.latches[0]).next_state is not None

    def test_tampered_circuit_is_one_line_protocol_error(self):
        wire = encode_circuit(mux_tree(2))
        wire["nodes"][0] = ["a", 2, 4]  # an input replayed as an AND
        with pytest.raises(ProtocolError, match="malformed circuit"):
            decode_circuit(wire)

    def test_request_roundtrip_preserves_the_decomposition_definition(self):
        request = request_for(
            ripple_carry_adder(2),
            engines=(ENGINE_STEP_MG, ENGINE_STEP_QD),
            budgets=Budgets(per_call=2.0, per_output=30.0, per_circuit=600.0),
            priority=2.5,
            max_outputs=2,
        )
        back = decode_request(json.loads(json.dumps(encode_request(request))))
        assert back.operator == request.operator
        assert back.engines == request.engines
        assert back.budgets == request.budgets
        assert back.priority == request.priority
        assert back.max_outputs == request.max_outputs
        assert Session().run(back).fingerprint() == Session().run(request).fingerprint()

    def test_submit_from_a_client_that_still_sends_a_seed_decodes(self):
        wire = json.loads(json.dumps(encode_request(request_for(mux_tree(2)))))
        old_client_wire = dict(wire, seed=7)
        assert (
            Session().run(decode_request(old_client_wire)).fingerprint()
            == Session().run(decode_request(wire)).fingerprint()
        )

    def test_report_roundtrip_is_fingerprint_identical(self):
        # decomposable_by_construction guarantees extracted fa/fb travel.
        aig, *_ = decomposable_by_construction("or", 3, 3, 1, seed=13)
        report = Session().run(request_for(aig, engines=(ENGINE_STEP_QD,)))
        back = decode_report(json.loads(json.dumps(encode_report(report))))
        assert back.fingerprint() == report.fingerprint()
        assert back.schedule == report.schedule
        wire_fa = back.outputs[0].results[ENGINE_STEP_QD].fa
        assert wire_fa is not None
        real = wire_fa.to_function()
        assert real.truth_table() == wire_fa.truth_table()

    def test_bad_request_payload_is_protocol_error(self):
        with pytest.raises(ProtocolError, match="missing field"):
            decode_request({"operator": "or"})
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_request([1, 2, 3])


class TestDaemonRoundTrip:
    def test_daemon_report_fingerprint_identical_to_local_session(self, daemon):
        """Acceptance: daemon result == local Session result, bit for bit."""
        request = request_for(
            ripple_carry_adder(2), engines=(ENGINE_STEP_MG, ENGINE_STEP_QD)
        )
        with ServiceClient(daemon.socket_path) as client:
            remote = client.run(request)
        local = Session().run(request)
        assert remote.fingerprint() == local.fingerprint()
        assert remote.schedule.get("live") is True

    def test_progress_events_stream_per_output(self, daemon):
        with ServiceClient(daemon.socket_path) as client:
            request_id = client.submit(request_for(ripple_carry_adder(2)))
            report = client.wait(request_id)
            outputs = {event["output"] for event in client.events(request_id)}
        assert outputs == {record.output_name for record in report.outputs}

    def test_two_concurrent_clients_share_one_pool(self, daemon):
        """Acceptance: N clients, one executor (stats is the witness)."""
        results = {}

        def run_client(key, aig):
            with ServiceClient(daemon.socket_path) as client:
                results[key] = client.run(request_for(aig))

        threads = [
            threading.Thread(target=run_client, args=("a", mux_tree(2))),
            threading.Thread(target=run_client, args=("b", ripple_carry_adder(2))),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert results["a"].circuit == "mux2"
        assert results["b"].circuit == "rca2"
        with ServiceClient(daemon.socket_path) as client:
            stats = client.stats()
        assert stats["pools_created"] == 1
        assert stats["completed"] >= 2
        assert stats["backend"] == "thread"

    def test_cancel_mid_suite_leaves_other_requests_unaffected(self, daemon):
        """Acceptance: cancelling one in-flight request perturbs nothing."""
        release = threading.Event()

        def stalling(function, operator, *, options, deadline):
            release.wait(30)
            return BiDecResult(
                engine="TEST-STALL", operator=operator, decomposed=False
            )

        default_registry().register(EngineSpec("TEST-STALL", runner=stalling))
        try:
            with ServiceClient(daemon.socket_path) as client:
                slow = client.submit(
                    request_for(ripple_carry_adder(2), engines=("TEST-STALL",))
                )
                fast = client.submit(request_for(mux_tree(2)))
                assert client.cancel(slow) is True
                release.set()  # let any in-flight stalled job finish
                report = client.wait(fast)
                with pytest.raises(ServiceError, match="cancelled"):
                    client.wait(slow)
            assert (
                report.fingerprint()
                == Session().run(request_for(mux_tree(2))).fingerprint()
            )
        finally:
            release.set()
            default_registry().unregister("TEST-STALL")

    def test_failed_request_reports_error_and_daemon_survives(self, daemon):
        def broken(function, operator, *, options, deadline):
            raise RuntimeError("engine exploded")

        default_registry().register(EngineSpec("TEST-BROKEN", runner=broken))
        try:
            with ServiceClient(daemon.socket_path) as client:
                bad = client.submit(request_for(mux_tree(2), engines=("TEST-BROKEN",)))
                with pytest.raises(ServiceError, match="engine exploded"):
                    client.wait(bad)
                # The daemon took the failure in stride.
                good = client.run(request_for(mux_tree(2)))
            assert len(good.outputs) == 1
        finally:
            default_registry().unregister("TEST-BROKEN")

    def test_daemon_over_tcp_round_trip(self):
        """A TCP daemon serves the same bits as a Unix-socket one."""
        with ServiceThread("127.0.0.1:0", jobs=2, backend="thread") as service:
            # Port 0 resolved to the kernel's pick before start() returned.
            assert service.address != "127.0.0.1:0"
            request = request_for(ripple_carry_adder(2))
            with ServiceClient(service.address) as client:
                remote = client.run(request)
        assert remote.fingerprint() == Session().run(request).fingerprint()

    def test_wait_of_unknown_id_raises_instead_of_hanging(self, daemon):
        """Regression: wait() on a foreign id used to loop on the socket
        forever — no result frame will ever arrive for it."""
        with ServiceClient(daemon.socket_path) as client:
            with pytest.raises(ServiceError, match="unknown request id"):
                client.wait(424242)
            # An id consumed by an earlier wait() can never yield another
            # result frame — waiting again must raise, not loop forever.
            request_id = client.submit(request_for(mux_tree(2)))
            client.wait(request_id)
            with pytest.raises(ServiceError, match="already waited on"):
                client.wait(request_id)

    def test_daemon_shares_one_persistent_cache_across_clients(
        self, tmp_path, socket_path
    ):
        aig, *_ = decomposable_by_construction("or", 3, 3, 1, seed=5)
        cache_dir = str(tmp_path / "cache")
        with ServiceThread(
            socket_path, jobs=2, backend="thread", cache_dir=cache_dir
        ):
            with ServiceClient(socket_path) as client:
                cold = client.run(request_for(aig))
                warm = client.run(request_for(aig))
        assert cold.schedule["persistent_saved"] >= 1
        assert warm.schedule["persistent_hits"] >= 1
        assert warm.fingerprint() == cold.fingerprint()
        with open(os.path.join(cache_dir, "cone_cache.json")) as handle:
            snapshot = json.load(handle)
        assert sum(len(v) for v in snapshot["contexts"].values()) >= 1


class TestProtocolErrors:
    def test_malformed_frame_gets_one_line_error_reply(self, daemon):
        with ServiceClient(daemon.socket_path) as client:
            client._sock.sendall(b"{not json}\n")
            frame = client._read_frame()
            assert frame["type"] == "error"
            assert "malformed frame" in frame["error"]
            assert "\n" not in frame["error"]
            # The connection survived the garbage.
            assert client.ping()

    def test_version_mismatch_gets_one_line_error_reply(self, daemon):
        with ServiceClient(daemon.socket_path) as client:
            client._sock.sendall(b'{"v": 99, "type": "stats", "tag": 1}\n')
            frame = client._read_frame()
            assert frame["type"] == "error"
            assert "version mismatch" in frame["error"]
            assert str(PROTOCOL_VERSION) in frame["error"]
            assert client.ping()

    def test_unknown_frame_type_rejected(self, daemon):
        with ServiceClient(daemon.socket_path) as client:
            client._sock.sendall(
                json.dumps({"v": PROTOCOL_VERSION, "type": "explode"}).encode() + b"\n"
            )
            frame = client._read_frame()
            assert frame["type"] == "error" and "unknown frame type" in frame["error"]

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("engines", ["NO-SUCH-ENGINE"], "unknown engine"),
            ("max_support", "4", "max_support must be an integer"),
            ("name", [1], "name must be a string"),
            ("max_outputs", 1.5, "max_outputs must be an integer"),
            ("dedup", "false", "dedup must be true or false"),
            ("verify", "no", "verify must be true or false"),
        ],
        ids=["engines", "max_support", "name", "max_outputs", "dedup", "verify"],
    )
    def test_invalid_request_relays_validation_error(
        self, daemon, field, value, message
    ):
        with ServiceClient(daemon.socket_path) as client:
            wire = encode_request(request_for(mux_tree(2)))
            wire[field] = value
            client._sock.sendall(
                json.dumps(
                    {"v": PROTOCOL_VERSION, "type": "submit", "tag": 7, "request": wire}
                ).encode()
                + b"\n"
            )
            frame = client._read_frame()
            assert frame["type"] == "error"
            assert message in frame["error"]
            assert "\n" not in frame["error"]
            assert frame["tag"] == 7
            assert client.ping()

    def test_wrong_typed_submit_fields_get_error_reply_not_disconnect(
        self, daemon
    ):
        """engines: 5 / budgets: [1] must be one-line errors, never a
        dead connection."""
        with ServiceClient(daemon.socket_path) as client:
            for request_payload in (
                {"circuit": encode_circuit(mux_tree(2)), "operator": "or", "engines": 5},
                {
                    "circuit": encode_circuit(mux_tree(2)),
                    "operator": "or",
                    "engines": ["STEP-MG"],
                    "budgets": [1],
                },
                {"circuit": "not-a-circuit", "operator": "or", "engines": ["STEP-MG"]},
            ):
                client._sock.sendall(
                    json.dumps(
                        {
                            "v": PROTOCOL_VERSION,
                            "type": "submit",
                            "request": request_payload,
                        }
                    ).encode()
                    + b"\n"
                )
                frame = client._read_frame()
                assert frame["type"] == "error", frame
                assert "\n" not in frame["error"]
            assert client.ping()  # connection still healthy

    @pytest.mark.parametrize("front", ["daemon", "router"])
    def test_oversized_frame_gets_tagged_error_and_connection_survives(
        self, socket_path, front
    ):
        """Regression: a frame past the line limit used to kill the
        connection; now it is discarded, answered (with the sniffed tag)
        and the stream keeps framing correctly — on a daemon and on a
        router alike."""
        with contextlib.ExitStack() as stack:
            server = stack.enter_context(
                ServiceThread(socket_path, jobs=1, backend="serial", line_limit=2048)
            )
            if front == "router":
                server = stack.enter_context(
                    RouterThread("127.0.0.1:0", [socket_path], line_limit=2048)
                )
            with ServiceClient(server.address) as client:
                huge = {
                    "v": PROTOCOL_VERSION,
                    "type": "ping",
                    "pad": "x" * 4096,
                    "tag": 77,
                }
                client._sock.sendall(
                    json.dumps(huge, separators=(",", ":")).encode() + b"\n"
                )
                frame = client._read_frame()
                assert frame["type"] == "error"
                assert "2048-byte line limit" in frame["error"]
                assert frame["tag"] == 77
                # The oversized line is gone *through its newline*: the
                # connection keeps serving framed traffic.
                assert client.ping()
                if front == "daemon":
                    # The reply is an error frame like any other, so the
                    # daemon counts it.
                    errors = client.stats()["obs"]["counters"][
                        "repro_service_errors_total"
                    ]
                    assert errors["values"] == {"": 1}

    def test_cancel_of_foreign_id_rejected(self, daemon):
        with ServiceClient(daemon.socket_path) as client:
            with pytest.raises(ServiceError, match="unknown request id"):
                client.cancel(424242)

    def test_connecting_to_missing_socket_is_one_line_error(self, tmp_path):
        with pytest.raises(ServiceError, match="cannot connect"):
            ServiceClient(str(tmp_path / "nowhere.sock"))


class TestClientCli:
    def test_client_subcommand_matches_local_decompose(
        self, daemon, tmp_path, capsys
    ):
        from repro.cli import main
        from repro.io.blif import write_blif

        path = str(tmp_path / "rca2.blif")
        write_blif(ripple_carry_adder(2), path)
        assert (
            main(
                [
                    "client",
                    path,
                    "--socket",
                    daemon.socket_path,
                    "--engine",
                    "STEP-MG",
                    "--fingerprint",
                ]
            )
            == 0
        )
        remote_out = capsys.readouterr().out
        assert main(["decompose", path, "--engine", "STEP-MG", "--fingerprint"]) == 0
        local_out = capsys.readouterr().out
        remote_fp = [l for l in remote_out.splitlines() if l.startswith("report fingerprint")]
        local_fp = [l for l in local_out.splitlines() if l.startswith("report fingerprint")]
        assert remote_fp == local_fp != []

    def test_client_against_dead_socket_is_exit_1(self, tmp_path, capsys):
        from repro.cli import main

        # "c17" is a library circuit, so the failure is the socket, not IO.
        assert (
            main(["client", "c17", "--socket", str(tmp_path / "dead.sock")]) == 1
        )
        err = capsys.readouterr().err
        assert "error:" in err and "cannot connect" in err

    def test_serve_flag_validation(self, capsys):
        from repro.cli import main

        assert main(["serve", "--socket", "/tmp/x.sock", "--jobs", "0"]) == 1
        assert "--jobs" in capsys.readouterr().err
        assert (
            main(["serve", "--socket", "/tmp/x.sock", "--cache-max-entries", "5"]) == 1
        )
        assert "--cache-dir" in capsys.readouterr().err


class TestServiceThreadLifecycle:
    def test_stale_socket_file_is_replaced(self, socket_path):
        import socket as socket_module

        # The leftover of a killed daemon: a bound-then-abandoned socket.
        stale = socket_module.socket(socket_module.AF_UNIX)
        stale.bind(socket_path)
        stale.close()
        assert os.path.exists(socket_path)
        with ServiceThread(socket_path, jobs=1, backend="serial"):
            with ServiceClient(socket_path) as client:
                assert client.ping()
        assert not os.path.exists(socket_path)

    def test_regular_file_socket_path_is_refused_and_survives(self, socket_path):
        """`step serve --socket some_regular_file` must not delete it."""
        with open(socket_path, "w") as handle:
            handle.write("precious user data")
        with pytest.raises(ServiceError, match="not a socket"):
            ServiceThread(socket_path, jobs=1, backend="serial").start()
        with open(socket_path) as handle:
            assert handle.read() == "precious user data"

    def test_disconnect_cancels_unfinished_requests(self, daemon):
        release = threading.Event()

        def stalling(function, operator, *, options, deadline):
            release.wait(30)
            return BiDecResult(engine="TEST-HANG", operator=operator, decomposed=False)

        default_registry().register(EngineSpec("TEST-HANG", runner=stalling))
        try:
            client = ServiceClient(daemon.socket_path)
            client.submit(request_for(ripple_carry_adder(2), engines=("TEST-HANG",)))
            client.close()  # walk away mid-request
            deadline = time.time() + 20
            session = daemon.service.session
            while time.time() < deadline:
                # Disconnect cancels the orphaned request AND forgets its
                # handle — a daemon must not accumulate abandoned state.
                if session.stats()["cancelled"] >= 1 and not session.status():
                    break
                time.sleep(0.05)
            assert session.stats()["cancelled"] >= 1
            assert session.status() == {}
        finally:
            release.set()
            default_registry().unregister("TEST-HANG")


# -- observability, quotas and backpressure (protocol v3) -----------------------


def _stall_engine(name):
    """Register a stalling engine; returns (release_event, unregister)."""
    release = threading.Event()

    def stalling(function, operator, *, options, deadline):
        release.wait(30)
        return BiDecResult(engine=name, operator=operator, decomposed=False)

    default_registry().register(EngineSpec(name, runner=stalling))
    return release, lambda: default_registry().unregister(name)


class TestStatsFrame:
    def test_stats_frame_is_versioned_and_carries_obs(self, daemon):
        with ServiceClient(daemon.socket_path) as client:
            client.run(request_for(mux_tree(2)))
            stats = client.stats()
        assert stats["stats_version"] == 2
        assert stats["protocol"] == PROTOCOL_VERSION
        assert stats["quotas"] == {
            "max_inflight_per_client": None,
            "max_pending": None,
            "cache_write_budget": None,
        }
        # Per-client accounting: this connection is c1 and submitted once.
        assert stats["clients"]["c1"]["submitted"] == 1
        assert stats["clients"]["c1"]["inflight"] == 0
        # The obs snapshot carries request-latency percentiles.
        latency = stats["obs"]["histograms"]["repro_request_latency_seconds"]
        aggregate = latency["series"][""]
        assert aggregate["count"] >= 1
        assert aggregate["p50"] is not None
        assert aggregate["p99"] >= aggregate["p50"]
        # ... a per-client series for the same span ...
        assert latency["series"]["client=c1"]["count"] >= 1
        # ... the fair-queue wait and the frame counters.
        assert (
            stats["obs"]["histograms"]["repro_fair_queue_wait_seconds"][
                "series"
            ][""]["count"]
            >= 1
        )
        frames = stats["obs"]["counters"]["repro_service_frames_total"]
        assert frames["values"]["type=submit"] == 1

    def test_stats_frame_is_json_schema_checkable(self, daemon, tmp_path):
        """The CI artifact path: a saved stats frame passes
        ``compare_bench.py --stats``."""
        import subprocess
        import sys

        with ServiceClient(daemon.socket_path) as client:
            client.run(request_for(mux_tree(2)))
            stats = client.stats()
        path = tmp_path / "stats_frame.json"
        path.write_text(json.dumps(stats))
        proc = subprocess.run(
            [sys.executable, "benchmarks/compare_bench.py", "--stats", str(path)],
            capture_output=True,
            text=True,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestQuotasAndBackpressure:
    def test_over_quota_submit_gets_typed_recoverable_backpressure(
        self, socket_path
    ):
        from repro.errors import Backpressure
        from repro.obs import QuotaPolicy

        release, unregister = _stall_engine("TEST-BP-STALL")
        try:
            with ServiceThread(
                socket_path,
                jobs=1,
                backend="thread",
                quota=QuotaPolicy(max_inflight_per_client=1),
            ) as service:
                with ServiceClient(service.address) as client:
                    slow = client.submit(
                        request_for(
                            ripple_carry_adder(2), engines=("TEST-BP-STALL",)
                        )
                    )
                    with pytest.raises(Backpressure) as excinfo:
                        client.submit(request_for(mux_tree(2)))
                    assert "retry" in str(excinfo.value)
                    # Recoverable: the connection (and the in-flight
                    # request) survive the rejection.
                    release.set()
                    client.wait(slow)
                    report = client.run(request_for(mux_tree(2)))
                    assert len(report.outputs) == 1
                    stats = client.stats()
                    assert stats["clients"]["c1"]["rejected"] == 1
                    backpressure = stats["obs"]["counters"][
                        "repro_service_backpressure_total"
                    ]
                    assert (
                        backpressure["values"]["quota=max_inflight_per_client"]
                        == 1
                    )
        finally:
            release.set()
            unregister()

    def test_max_pending_bounds_the_accept_queue_across_clients(
        self, socket_path
    ):
        from repro.errors import Backpressure
        from repro.obs import QuotaPolicy

        release, unregister = _stall_engine("TEST-PENDING-STALL")
        try:
            with ServiceThread(
                socket_path,
                jobs=1,
                backend="thread",
                quota=QuotaPolicy(max_pending=1),
            ) as service:
                with ServiceClient(service.address) as holder:
                    holder.submit(
                        request_for(
                            ripple_carry_adder(2),
                            engines=("TEST-PENDING-STALL",),
                        )
                    )
                    with ServiceClient(service.address) as other:
                        # A DIFFERENT connection is refused: the bound is
                        # service-wide, not per client.
                        with pytest.raises(Backpressure, match="accept queue"):
                            other.submit(request_for(mux_tree(2)))
                    release.set()
        finally:
            release.set()
            unregister()

    def test_rejected_client_never_perturbs_survivors_fingerprint(
        self, socket_path
    ):
        """Acceptance: requests served next to throttled clients produce
        bit-identical fingerprints to a serial local run."""
        from repro.errors import Backpressure
        from repro.obs import QuotaPolicy

        reference = Session().run(request_for(mux_tree(3))).fingerprint()
        release, unregister = _stall_engine("TEST-ISO-STALL")
        try:
            with ServiceThread(
                socket_path,
                jobs=2,
                backend="thread",
                quota=QuotaPolicy(max_inflight_per_client=1),
            ) as service:
                with ServiceClient(service.address) as noisy:
                    noisy.submit(
                        request_for(
                            ripple_carry_adder(2), engines=("TEST-ISO-STALL",)
                        )
                    )
                    rejections = 0
                    with ServiceClient(service.address) as survivor:
                        for _ in range(5):
                            # The noisy client hammers past its quota while
                            # the survivor's request runs.
                            with pytest.raises(Backpressure):
                                noisy.submit(request_for(mux_tree(2)))
                            rejections += 1
                        report = survivor.run(request_for(mux_tree(3)))
                    release.set()
                    assert rejections == 5
                    assert report.fingerprint() == reference
        finally:
            release.set()
            unregister()

    def test_cache_write_budget_throttles_writes_not_results(self, tmp_path):
        from repro.obs import QuotaPolicy

        socket_path = str(tmp_path / "repro.sock")
        cache_dir = str(tmp_path / "cones")
        reference = Session().run(request_for(mux_tree(3))).fingerprint()
        with ServiceThread(
            socket_path,
            jobs=1,
            backend="thread",
            cache_dir=cache_dir,
            quota=QuotaPolicy(cache_write_budget=1),
        ) as service:
            with ServiceClient(service.address) as client:
                first = client.run(request_for(ripple_carry_adder(2)))
                # The first run wrote persistent entries (budget spent).
                assert first.schedule["persistent_saved"] >= 1
                second = client.run(request_for(mux_tree(3)))
                # Throttled: the second ran WITHOUT the persistent cache —
                # no persistent_* schedule keys — but its report is
                # fingerprint-identical to the serial local reference.
                assert "persistent_saved" not in second.schedule
                assert second.fingerprint() == reference
                stats = client.stats()
                assert stats["clients"]["c1"]["cache_throttled"] == 1
                assert stats["clients"]["c1"]["persistent_saved"] >= 1


class TestClientTimeouts:
    def _fake_server(self, script):
        """A one-connection TCP server speaking ``script(filelike)``."""
        import socket as socket_module

        listener = socket_module.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()

        def serve():
            conn, _ = listener.accept()
            stream = conn.makefile("rwb")
            try:
                script(stream)
            finally:
                try:
                    stream.close()
                except OSError:
                    pass
                conn.close()
                listener.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        return f"127.0.0.1:{port}", thread

    def test_wait_timeout_raises_instead_of_hanging(self, socket_path):
        """Regression: a hung daemon used to block wait() forever."""
        from repro.service.protocol import encode_frame

        hold = threading.Event()

        def hung_daemon(stream):
            stream.write(
                encode_frame(
                    {"type": "hello", "v": PROTOCOL_VERSION, "server": "x"}
                )
            )
            stream.flush()
            line = stream.readline()  # the submit frame
            frame = json.loads(line)
            stream.write(
                encode_frame(
                    {
                        "type": "event",
                        "v": PROTOCOL_VERSION,
                        "id": 1,
                        "name": "m",
                        "state": "queued",
                        "tag": frame.get("tag"),
                    }
                )
            )
            stream.flush()
            hold.wait(30)  # ... and never a result frame

        address, thread = self._fake_server(hung_daemon)
        try:
            with ServiceClient(address) as client:
                request_id = client.submit(request_for(mux_tree(2)))
                started = time.time()
                with pytest.raises(ServiceError, match="timed out"):
                    client.wait(request_id, timeout=0.3)
                assert time.time() - started < 10
        finally:
            hold.set()
            thread.join(timeout=5)

    def test_wait_raises_on_server_eof(self):
        from repro.service.protocol import encode_frame

        def vanishing_daemon(stream):
            stream.write(
                encode_frame(
                    {"type": "hello", "v": PROTOCOL_VERSION, "server": "x"}
                )
            )
            stream.flush()
            line = stream.readline()
            frame = json.loads(line)
            stream.write(
                encode_frame(
                    {
                        "type": "event",
                        "v": PROTOCOL_VERSION,
                        "id": 1,
                        "name": "m",
                        "state": "queued",
                        "tag": frame.get("tag"),
                    }
                )
            )
            stream.flush()
            # close immediately: EOF mid-wait

        address, thread = self._fake_server(vanishing_daemon)
        try:
            with ServiceClient(address) as client:
                request_id = client.submit(request_for(mux_tree(2)))
                with pytest.raises(ServiceError, match="closed the connection"):
                    client.wait(request_id, timeout=5)
        finally:
            thread.join(timeout=5)

    def test_events_timeout_raises(self, daemon):
        release, unregister = _stall_engine("TEST-EV-STALL")
        try:
            with ServiceClient(daemon.socket_path) as client:
                request_id = client.submit(
                    request_for(
                        ripple_carry_adder(2), engines=("TEST-EV-STALL",)
                    )
                )
                with pytest.raises(ServiceError, match="timed out"):
                    client.events(request_id, timeout=0.3)
                release.set()
                client.wait(request_id)
        finally:
            release.set()
            unregister()

    def test_wait_timeout_leaves_the_connection_usable(self, daemon):
        """The per-call timeout must not poison later unbounded waits."""
        release, unregister = _stall_engine("TEST-TO-STALL")
        try:
            with ServiceClient(daemon.socket_path) as client:
                slow = client.submit(
                    request_for(ripple_carry_adder(2), engines=("TEST-TO-STALL",))
                )
                with pytest.raises(ServiceError, match="timed out"):
                    client.wait(slow, timeout=0.3)
                release.set()
                report = client.wait(slow)  # unbounded wait still works
                assert report.outputs
        finally:
            release.set()
            unregister()

    def test_nonpositive_timeout_rejected(self, daemon):
        with ServiceClient(daemon.socket_path) as client:
            request_id = client.submit(request_for(mux_tree(2)))
            with pytest.raises(ServiceError, match="positive"):
                client.wait(request_id, timeout=0)
            client.wait(request_id)
