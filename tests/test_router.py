"""Tests for the sharded service tier: ring, router, failover.

The contracts under test:

* the routing key is a pure function of circuit structure, and the hash
  ring is a pure function of the shard address *set* — two routers with
  the same shards (in any order) route every request identically;
* a report served through the router is **fingerprint-identical** to the
  same request run through a local ``Session``, regardless of which
  shard served it (acceptance criterion);
* the same circuit always lands on the same shard (the property the
  per-shard warm cone caches rely on);
* killing a shard mid-request fails the work over to the next shard on
  the ring and the client still gets the identical report;
* cancel / stats / protocol errors relay through the router with ids
  translated, and a returning shard is re-admitted by the health probe.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.api import DecompositionRequest, EngineSpec, Session, default_registry
from repro.circuits.generators import (
    mux_tree,
    parity_tree,
    ripple_carry_adder,
)
from repro.core.result import BiDecResult
from repro.core.spec import ENGINE_STEP_MG
from repro.errors import ServiceError
from repro.service import ReproRouter, RouterThread, ServiceClient, ServiceThread
from repro.service.protocol import encode_request
from repro.service.router import RING_REPLICAS, build_ring, request_route_key


def request_for(aig, engines=(ENGINE_STEP_MG,), **kwargs):
    return DecompositionRequest(
        circuit=aig, operator="or", engines=tuple(engines), **kwargs
    )


@pytest.fixture
def shard_pair():
    """Two daemon shards on ephemeral TCP ports, thread backend (plug-in
    engines registered in this process stay visible to the workers)."""
    a = ServiceThread("127.0.0.1:0", jobs=2, backend="thread").start()
    b = ServiceThread("127.0.0.1:0", jobs=2, backend="thread").start()
    try:
        yield (a, b)
    finally:
        a.stop()
        b.stop()


@pytest.fixture
def front(shard_pair):
    """A router over both shards, probing fast enough for tests."""
    addresses = [shard.address for shard in shard_pair]
    with RouterThread("127.0.0.1:0", addresses, probe_interval=0.2) as router:
        yield router


def wait_until(predicate, timeout=20.0, interval=0.05):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestRouting:
    def test_route_key_is_a_pure_function_of_circuit_structure(self):
        key_a, _ = request_route_key(encode_request(request_for(mux_tree(3))))
        key_b, _ = request_route_key(encode_request(request_for(mux_tree(3))))
        assert key_a == key_b  # two independent builds, one key
        assert key_a.startswith("cone:")
        # A renamed copy of the same structure routes identically: the
        # key hashes cones, never names or construction history.
        renamed = mux_tree(3)
        renamed.name = "totally-different-name"
        key_c, name = request_route_key(encode_request(request_for(renamed)))
        assert key_c == key_a
        assert name == "totally-different-name"
        # Different structure, different key (with 128-bit digests a
        # collision here would be a bug, not bad luck).
        key_d, _ = request_route_key(encode_request(request_for(parity_tree(3))))
        assert key_d != key_a

    def test_ring_is_independent_of_shard_list_order(self):
        shards = ["10.0.0.1:7000", "10.0.0.2:7000", "/var/run/shard.sock"]
        assert build_ring(shards) == build_ring(list(reversed(shards)))
        assert len(build_ring(shards)) == len(shards) * RING_REPLICAS

    def test_router_rejects_empty_and_duplicate_shard_lists(self):
        with pytest.raises(ServiceError, match="at least one shard"):
            ReproRouter([])
        with pytest.raises(ServiceError, match="duplicate shard"):
            ReproRouter(["a:1", "a:1"])

    def test_same_circuit_always_lands_on_the_same_shard(self, shard_pair, front):
        request = request_for(ripple_carry_adder(2))
        with ServiceClient(front.address) as client:
            for _ in range(3):
                client.run(request)
            stats = client.stats()
        submitted = {
            address: detail.get("submitted", 0)
            for address, detail in stats["shards"].items()
        }
        assert sorted(submitted.values()) == [0, 3]
        # The ring agrees with where the work actually went.
        key, _ = request_route_key(encode_request(request))
        home = max(submitted, key=submitted.get)
        assert front.router.shard_for(key) == home


class TestRouterRoundTrip:
    def test_reports_fingerprint_identical_to_local_session(self, front):
        """Acceptance: router result == local Session result, bit for
        bit, regardless of which shard served it."""
        requests = [
            request_for(mux_tree(3)),
            request_for(ripple_carry_adder(2)),
            request_for(parity_tree(3)),
        ]
        with ServiceClient(front.address) as client:
            for request in requests:
                remote = client.run(request)
                local = Session().run(request)
                assert remote.fingerprint() == local.fingerprint()

    def test_stats_aggregates_shards_and_reports_router_counters(self, front):
        with ServiceClient(front.address) as client:
            client.run(request_for(mux_tree(2)))
            stats = client.stats()
        assert stats["router"]["shards_up"] == 2
        assert stats["router"]["routed"] >= 1
        assert stats["router"]["results"] >= 1
        assert len(stats["shards"]) == 2
        assert all(detail["up"] for detail in stats["shards"].values())
        # Numeric session counters aggregate across the fleet.
        assert stats["completed"] >= 1

    def test_cancel_relays_through_id_translation(self, front):
        release = threading.Event()

        def stalling(function, operator, *, options, deadline):
            release.wait(10)
            return BiDecResult(
                engine="TEST-RSTALL", operator=operator, decomposed=False
            )

        default_registry().register(EngineSpec("TEST-RSTALL", runner=stalling))
        try:
            with ServiceClient(front.address) as client:
                request_id = client.submit(
                    request_for(ripple_carry_adder(2), engines=("TEST-RSTALL",))
                )
                assert client.cancel(request_id) is True
                release.set()
                with pytest.raises(ServiceError, match="cancelled"):
                    client.wait(request_id)
                # The router took it in stride.
                assert client.ping()
        finally:
            release.set()
            default_registry().unregister("TEST-RSTALL")

    def test_cancel_of_foreign_id_rejected(self, front):
        with ServiceClient(front.address) as client:
            with pytest.raises(ServiceError, match="unknown request id"):
                client.cancel(424242)

    def test_protocol_errors_relay_with_connection_intact(self, front):
        with ServiceClient(front.address) as client:
            client._sock.sendall(b"{not json}\n")
            frame = client._read_frame()
            assert frame["type"] == "error"
            assert "malformed frame" in frame["error"]
            assert client.ping()


class TestRouterConnections:
    def test_disconnected_clients_leave_no_tracked_handler(self, front):
        """Regression: the router kept the finished handler task of
        every client that ever connected."""
        for _ in range(5):
            with ServiceClient(front.address) as client:
                assert client.ping()
        assert wait_until(lambda: not front.router._live)

    def test_stopping_a_router_spares_the_socket_a_newer_one_bound(
        self, shard_pair, tmp_path
    ):
        """Regression: stopping a router unlinked its Unix path even
        after a second router had re-bound it, cutting the second one
        off from every new client."""
        path = str(tmp_path / "router.sock")
        shards = [shard.address for shard in shard_pair]
        first = RouterThread(path, shards).start()
        try:
            with RouterThread(path, shards) as second:
                first.stop()
                with ServiceClient(second.address) as client:
                    assert client.ping()
        finally:
            first.stop()


class TestFailover:
    def test_shard_death_fails_work_over_and_report_is_identical(
        self, shard_pair, front
    ):
        """Acceptance: kill the shard holding an in-flight request; the
        request completes on the survivor with the identical report."""
        release = threading.Event()

        def stalling(function, operator, *, options, deadline):
            release.wait(10)
            return BiDecResult(
                engine="TEST-FAIL-OVER", operator=operator, decomposed=False
            )

        default_registry().register(EngineSpec("TEST-FAIL-OVER", runner=stalling))
        try:
            request = request_for(
                ripple_carry_adder(2), engines=("TEST-FAIL-OVER",)
            )
            with ServiceClient(front.address) as client:
                request_id = client.submit(request)
                shards = {shard.address: shard for shard in shard_pair}
                assert wait_until(
                    lambda: any(
                        shard.service.session.stats()["submitted"] >= 1
                        for shard in shard_pair
                    )
                )
                victim = next(
                    address
                    for address, shard in shards.items()
                    if shard.service.session.stats()["submitted"] >= 1
                )
                # stop() drains the victim: its executor joins the
                # stalled worker, so release the stall shortly after.
                threading.Timer(0.7, release.set).start()
                shards[victim].stop()
                report = client.wait(request_id)
                stats = client.stats()
            assert stats["router"]["failovers"] >= 1
            assert stats["router"]["shards_down"] == 1
            local = Session().run(request)
            assert report.fingerprint() == local.fingerprint()
        finally:
            release.set()
            default_registry().unregister("TEST-FAIL-OVER")

    def test_unreachable_shard_tolerated_and_probe_readmits(self, tmp_path):
        """One shard down at start is fine; the health probe re-admits
        it once it comes back on the same address."""
        shard_path = str(tmp_path / "shard.sock")
        survivor = ServiceThread("127.0.0.1:0", jobs=1, backend="thread").start()
        try:
            with RouterThread(
                "127.0.0.1:0",
                [shard_path, survivor.address],
                probe_interval=0.1,
            ) as front:
                with ServiceClient(front.address) as client:
                    # Work still flows through the one live shard.
                    report = client.run(request_for(mux_tree(2)))
                    assert client.stats()["router"]["shards_up"] == 1
                    # The missing shard comes up; the probe re-dials it.
                    late = ServiceThread(
                        shard_path, jobs=1, backend="thread"
                    ).start()
                    try:
                        assert wait_until(
                            lambda: client.stats()["router"]["shards_up"] == 2
                        )
                    finally:
                        late.stop()
                assert len(report.outputs) == 1
        finally:
            survivor.stop()

    def test_router_with_no_reachable_shard_refuses_to_start(self, tmp_path):
        with pytest.raises(ServiceError, match="none of the configured shards"):
            RouterThread(
                "127.0.0.1:0", [str(tmp_path / "nowhere.sock")]
            ).start()


class TestRouterObservability:
    def test_stats_with_a_shard_down_mid_scrape_never_hangs(
        self, shard_pair, front
    ):
        """A shard dying between scrapes costs the client that shard's
        numbers only: the frame still arrives, the survivor's counters
        aggregate, and the victim is reported ``{"up": False}``."""
        with ServiceClient(front.address) as client:
            client.run(request_for(mux_tree(2)))
            first = client.stats()
            victim = min(
                first["shards"],
                key=lambda address: first["shards"][address].get("submitted", 0),
            )
            survivor = next(a for a in first["shards"] if a != victim)
            shards = {shard.address: shard for shard in shard_pair}
            shards[victim].stop()
            stats = client.stats()
        assert stats["shards"][victim] == {"up": False}
        assert stats["shards"][survivor]["up"] is True
        assert stats["router"]["shards_down"] == 1
        assert stats["router"]["shards_up"] == 1
        # The survivor's session counters still aggregate.
        assert stats["completed"] >= 1
        assert stats["stats_version"] == 2

    def test_stats_obs_rollup_merges_router_and_shard_series(self, front):
        with ServiceClient(front.address) as client:
            client.run(request_for(mux_tree(2)))
            stats = client.stats()
        obs = stats["obs"]
        # The router's own counters ride in the same snapshot namespace.
        assert obs["counters"]["repro_router_routed_total"]["values"][""] >= 1
        assert obs["gauges"]["repro_router_shards_up"]["values"][""] == 2
        # Shard request spans merged bucket-for-bucket: the shared bounds
        # mean nothing lands in merge_skipped.
        latency = obs["histograms"]["repro_request_latency_seconds"]
        assert latency["series"][""]["count"] >= 1
        assert "repro_request_latency_seconds" not in obs.get(
            "merge_skipped", []
        )
        # Per-client accounts are namespaced by shard address so the
        # fleet view never conflates two shards' client c1.
        assert stats["clients"]
        for name, entry in stats["clients"].items():
            assert "/" in name
            assert entry["submitted"] >= 0

    def test_shard_readmitted_by_probe_reappears_in_stats(self, tmp_path):
        """After the probe re-admits a returned shard, the very next
        scrape carries its numbers again."""
        shard_path = str(tmp_path / "shard.sock")
        survivor = ServiceThread("127.0.0.1:0", jobs=1, backend="thread").start()
        try:
            with RouterThread(
                "127.0.0.1:0",
                [shard_path, survivor.address],
                probe_interval=0.1,
            ) as front:
                with ServiceClient(front.address) as client:
                    client.run(request_for(mux_tree(2)))
                    down = client.stats()
                    assert down["shards"][shard_path] == {"up": False}
                    assert down["router"]["shards_down"] == 1
                    late = ServiceThread(
                        shard_path, jobs=1, backend="thread"
                    ).start()
                    try:
                        assert wait_until(
                            lambda: client.stats()["router"]["shards_up"] == 2
                        )
                        back = client.stats()
                        entry = back["shards"][shard_path]
                        assert entry["up"] is True
                        assert "submitted" in entry
                        assert back["router"]["shards_down"] == 0
                    finally:
                        late.stop()
        finally:
            survivor.stop()


class TestRouteCli:
    def test_route_flag_validation(self, capsys):
        from repro.cli import main

        assert (
            main(
                ["route", "--listen", "r.sock", "--shard", "s.sock", "--retries", "0"]
            )
            == 1
        )
        assert "--retries" in capsys.readouterr().err
        assert (
            main(
                [
                    "route",
                    "--listen",
                    "r.sock",
                    "--shard",
                    "s.sock",
                    "--probe-interval",
                    "0",
                ]
            )
            == 1
        )
        assert "--probe-interval" in capsys.readouterr().err

    def test_client_cli_through_router_matches_local_decompose(
        self, front, tmp_path, capsys
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
                    front.address,
                    "--engine",
                    "STEP-MG",
                    "--fingerprint",
                ]
            )
            == 0
        )
        routed_out = capsys.readouterr().out
        assert main(["decompose", path, "--engine", "STEP-MG", "--fingerprint"]) == 0
        local_out = capsys.readouterr().out
        routed_fp = [
            line
            for line in routed_out.splitlines()
            if line.startswith("report fingerprint")
        ]
        local_fp = [
            line
            for line in local_out.splitlines()
            if line.startswith("report fingerprint")
        ]
        assert routed_fp == local_fp != []
