"""Tests for the session API: typed requests, engine registry, suite streams.

Three contracts anchor the layer:

* one request run alone and the same request in a suite drain are
  fingerprint-identical;
* the registry is the single namespace for engine names — built-ins and
  plug-ins validate at *request construction*, with one-line errors;
* a suite submitted through ``Session.submit`` runs on exactly ONE shared
  worker pool and its per-circuit reports are fingerprint-identical to
  individual runs, for any jobs count, with ``as_completed()`` streaming a
  deterministic set of per-output records.
"""

import asyncio

import pytest

from repro import (
    ENGINES,
    QBF_ENGINES,
    AsyncSession,
    Budgets,
    CachePolicy,
    DecompositionRequest,
    EngineRegistry,
    EngineSpec,
    Parallelism,
    Session,
    default_registry,
)
from repro.circuits.generators import (
    decomposable_by_construction,
    mux_tree,
    parity_tree,
    ripple_carry_adder,
)
from repro.core.engine import BiDecomposer
from repro.core.result import BiDecResult
from repro.core.spec import ENGINE_LJH, ENGINE_STEP_MG, ENGINE_STEP_QD
from repro.errors import DecompositionError, ReproError


# Mistyped or out-of-range request fields, each rejected at construction.
BAD_REQUEST_FIELDS = [
    ("max_outputs", 0),
    ("max_outputs", 1.5),
    ("max_outputs", True),
    ("min_support", "2"),
    ("max_support", "4"),
    ("max_support", False),
    ("name", [1]),
    ("extract", "false"),
    ("verify", 1),
]


def request_for(aig, engines=(ENGINE_STEP_MG,), **kwargs):
    return DecompositionRequest(
        circuit=aig, operator="or", engines=tuple(engines), **kwargs
    )


def duplicated_cone_circuit(copies=4, seed=7):
    aig, *_ = decomposable_by_construction("or", 3, 3, 1, seed=seed)
    root = aig.outputs[0][1]
    for k in range(1, copies):
        aig.add_output(f"f{k}", root)
    return aig


class TestConfigValidation:
    def test_budget_defaults_mirror_engine_options(self):
        budgets = Budgets()
        assert budgets.per_call == 4.0
        assert budgets.per_output == 60.0
        assert budgets.per_circuit is None

    @pytest.mark.parametrize("field", ["per_call", "per_output", "per_circuit"])
    def test_negative_budgets_rejected(self, field):
        with pytest.raises(ReproError, match="must be >= 0"):
            Budgets(**{field: -1.5})

    def test_zero_budgets_are_legal_degenerate_deadlines(self):
        """0 = already expired, a first-class deadline state (legacy-compat)."""
        budgets = Budgets(per_call=0.0, per_output=0.0, per_circuit=0.0)
        assert (budgets.per_call, budgets.per_output, budgets.per_circuit) == (
            0.0,
            0.0,
            0.0,
        )

    def test_jobs_must_be_at_least_one(self):
        with pytest.raises(ReproError, match="jobs"):
            Parallelism(jobs=0)

    def test_unlimited_budgets_allowed(self):
        budgets = Budgets(per_call=None, per_output=None)
        assert budgets.per_call is None and budgets.per_output is None


class TestRequestValidation:
    def test_unknown_engine_rejected_with_known_engines_named(self, adder3):
        with pytest.raises(ReproError) as excinfo:
            request_for(adder3, engines=("STEP-XX",))
        message = str(excinfo.value)
        assert "unknown engine 'STEP-XX'" in message
        for name in ENGINES:
            assert name in message
        assert "\n" not in message  # one-line error

    def test_engines_must_not_be_a_bare_string(self, adder3):
        with pytest.raises(ReproError, match="bare string"):
            DecompositionRequest(circuit=adder3, operator="or", engines="STEP-MG")

    def test_engines_must_be_non_empty(self, adder3):
        with pytest.raises(ReproError, match="at least one engine"):
            request_for(adder3, engines=())

    def test_operator_normalised_and_validated(self, adder3):
        assert request_for(adder3).operator == "or"
        assert (
            DecompositionRequest(
                circuit=adder3, operator="OR", engines=(ENGINE_STEP_MG,)
            ).operator
            == "or"
        )
        with pytest.raises(ReproError):
            DecompositionRequest(
                circuit=adder3, operator="nand", engines=(ENGINE_STEP_MG,)
            )

    @pytest.mark.parametrize(
        "field, value",
        BAD_REQUEST_FIELDS,
        ids=[f"{field}={value!r}" for field, value in BAD_REQUEST_FIELDS],
    )
    def test_max_outputs_must_be_at_least_one(self, adder3, field, value):
        with pytest.raises(DecompositionError, match=f"^{field} must be"):
            request_for(adder3, **{field: value})

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_dedup_must_be_a_bool(self, value):
        with pytest.raises(DecompositionError, match="^dedup must be"):
            Parallelism(dedup=value)

    def test_cache_directory_requires_dedup(self, adder3, tmp_path):
        with pytest.raises(ReproError, match="dedup"):
            request_for(
                adder3,
                parallelism=Parallelism(dedup=False),
                cache=CachePolicy(directory=str(tmp_path)),
            )

    def test_circuit_must_be_an_aig(self):
        with pytest.raises(ReproError, match="AIG"):
            DecompositionRequest(
                circuit="adder.blif", operator="or", engines=(ENGINE_STEP_MG,)
            )

    def test_bad_extraction_method_fails_at_construction(self, adder3):
        with pytest.raises(ReproError, match="extraction"):
            request_for(adder3, extraction="magic")

    def test_roundtrip_through_engine_options(self, adder3):
        request = request_for(
            adder3,
            budgets=Budgets(per_call=2.0, per_output=10.0),
            verify=True,
        )
        options = request.to_options()
        assert options.per_call_timeout == 2.0
        assert options.output_timeout == 10.0
        assert options.verify is True

    def test_with_replaces_and_revalidates(self, adder3):
        request = request_for(adder3)
        assert request.with_(operator="and").operator == "and"
        with pytest.raises(ReproError):
            request.with_(engines=("BOGUS",))


class TestRegistry:
    def test_builtins_registered_by_default(self):
        registry = default_registry()
        for name in ENGINES:
            assert name in registry
            assert registry.get(name).builtin
        assert set(QBF_ENGINES) <= set(registry.names())

    def test_builtin_cannot_be_replaced_or_unregistered(self):
        registry = default_registry()
        with pytest.raises(ReproError, match="built-in"):
            registry.register(EngineSpec(ENGINE_STEP_QD, runner=lambda *a, **k: None))
        with pytest.raises(ReproError, match="built-in"):
            registry.unregister(ENGINE_STEP_QD)

    def test_plugin_register_and_unregister(self):
        registry = default_registry()
        spec = EngineSpec("TEST-NOOP", runner=lambda *a, **k: None)
        registry.register(spec)
        try:
            assert "TEST-NOOP" in registry
            assert not registry.get("TEST-NOOP").builtin
            with pytest.raises(ReproError, match="already"):
                registry.register(EngineSpec("TEST-NOOP", runner=lambda *a, **k: None))
        finally:
            registry.unregister("TEST-NOOP")
        assert "TEST-NOOP" not in registry

    def test_unregister_unknown_engine_rejected(self):
        with pytest.raises(ReproError, match="not registered"):
            default_registry().unregister("NO-SUCH")

    def test_spec_name_must_be_non_empty(self):
        with pytest.raises(ReproError):
            EngineSpec("")

    def test_isolated_registry_validates_independently(self, adder3):
        session = Session(registry=EngineRegistry())
        request = request_for(adder3)  # valid against the default registry
        with pytest.raises(ReproError, match="unknown engine"):
            session.run(request)


class TestPluginEngines:
    @pytest.fixture
    def never_engine(self):
        """A plug-in engine that deems every function non-decomposable."""

        def runner(function, operator, *, options, deadline):
            return BiDecResult(engine="TEST-NEVER", operator=operator, decomposed=False)

        spec = EngineSpec("TEST-NEVER", runner=runner, description="always refuses")
        default_registry().register(spec)
        yield spec
        default_registry().unregister("TEST-NEVER")

    def test_request_accepts_registered_plugin(self, adder3, never_engine):
        request = request_for(adder3, engines=(ENGINE_STEP_MG, "TEST-NEVER"))
        report = Session().run(request)
        for output in report.outputs:
            if not output.results:
                continue  # support below min_support: no engine ran
            result = output.results["TEST-NEVER"]
            assert result.engine == "TEST-NEVER" and not result.decomposed
            assert output.results[ENGINE_STEP_MG].decomposed in (True, False)

    def test_plugin_runs_through_decompose_function(self, never_engine):
        from repro.aig.function import BooleanFunction

        aig, *_ = decomposable_by_construction("or", 3, 3, 1, seed=3)
        function = BooleanFunction.from_output(aig, "f")
        result = BiDecomposer().decompose_function(function, "or", engine="TEST-NEVER")
        assert not result.decomposed

    def test_runner_returning_wrong_type_is_one_line_error(self):
        default_registry().register(
            EngineSpec("TEST-BROKEN", runner=lambda *a, **k: "oops")
        )
        try:
            from repro.aig.function import BooleanFunction

            aig, *_ = decomposable_by_construction("or", 3, 3, 1, seed=3)
            function = BooleanFunction.from_output(aig, "f")
            with pytest.raises(DecompositionError, match="BiDecResult"):
                BiDecomposer().decompose_function(function, "or", engine="TEST-BROKEN")
        finally:
            default_registry().unregister("TEST-BROKEN")


class TestLegacyShim:
    """Whole-circuit runs formerly made through the removed
    ``BiDecomposer.decompose_circuit`` shim, now on the session itself."""

    MATRIX = [
        (ripple_carry_adder, (2,), [ENGINE_STEP_MG, ENGINE_STEP_QD]),
        (mux_tree, (2,), [ENGINE_LJH, ENGINE_STEP_MG]),
        (parity_tree, (4,), [ENGINE_STEP_MG]),
    ]

    @pytest.mark.parametrize("builder,args,engines", MATRIX)
    def test_decompose_circuit_matches_session_run(self, builder, args, engines):
        """One request run alone and as a one-request suite drain."""
        aig = builder(*args)
        request = request_for(aig, engines=tuple(engines))
        (legacy,) = Session().run_suite([request])
        report = Session().run(request)
        assert legacy.fingerprint() == report.fingerprint()

    def test_shim_forwards_overrides(self, tmp_path):
        aig = duplicated_cone_circuit(copies=3)
        cache = CachePolicy(directory=str(tmp_path))
        report = Session().run(request_for(aig, cache=cache))
        assert report.schedule["persistent_saved"] == 1
        warm = Session().run(request_for(aig, cache=cache))
        assert warm.schedule["persistent_hits"] >= 1
        assert warm.fingerprint() == report.fingerprint()


def suite_requests(jobs=1):
    """Three small circuits, one engine, as a submit batch."""
    return [
        request_for(circuit, parallelism=Parallelism(jobs=jobs))
        for circuit in (mux_tree(2), ripple_carry_adder(2), parity_tree(4))
    ]


class TestSuiteStreams:
    def test_suite_uses_exactly_one_pool_and_matches_solo_runs(self):
        """Acceptance: 3+ circuits, one worker pool, solo-identical reports."""
        session = Session()
        requests = suite_requests(jobs=4)
        session.submit(requests)
        records = list(session.as_completed())
        reports = session.reports()
        assert len(reports) == 3
        total_outputs = sum(len(report.outputs) for report in reports)
        assert len(records) == total_outputs
        fallback = reports[0].schedule["fallback"]
        if fallback is None:
            # One shared pool served the whole suite (the schedule stats are
            # the witness: same pool id on every report, one pool counted).
            assert session.stats["pools_created"] == 1
            pool_ids = {report.schedule["pool_id"] for report in reports}
            assert len(pool_ids) == 1 and None not in pool_ids
            assert all(report.schedule["shared_pool"] for report in reports)
            assert all(report.schedule["suite_size"] == 3 for report in reports)
        else:
            # Environments without process pools fall back sequentially and
            # must say so on every report.
            assert fallback == "pool-unavailable"
            assert session.stats["pools_created"] == 0
        for request, report in zip(requests, reports):
            solo = Session().run(request)
            assert solo.fingerprint() == report.fingerprint()

    def test_as_completed_deterministic_across_jobs_counts(self):
        """jobs=1 and jobs=4 stream the same record set, reports identical."""
        streamed = {}
        reports = {}
        for jobs in (1, 4):
            session = Session()
            session.submit(suite_requests(jobs=jobs))
            streamed[jobs] = [
                record.fingerprint() for record in session.as_completed()
            ]
            reports[jobs] = session.reports()
        # Stream content is deterministic (order is completion order under a
        # pool, so compare as multisets) ...
        assert sorted(streamed[1]) == sorted(streamed[4])
        # ... and the assembled reports are fingerprint-identical.
        for one, four in zip(reports[1], reports[4]):
            assert one.fingerprint() == four.fingerprint()

    def test_sequential_stream_order_is_submit_then_output_order(self):
        session = Session()
        session.submit(suite_requests(jobs=1))
        names = [
            (record.circuit, record.output_name)
            for record in session.as_completed()
        ]
        assert names == [
            ("mux2", "y"),
            ("rca2", "s0"),
            ("rca2", "s1"),
            ("rca2", "cout"),
            ("parity4", "p"),
        ]

    def test_suite_dedups_within_each_circuit(self):
        aig = duplicated_cone_circuit(copies=4, seed=21)
        session = Session()
        session.submit([request_for(aig)])
        list(session.as_completed())
        (report,) = session.reports()
        assert report.schedule["unique_cones"] == 1
        assert report.schedule["cache_hits"] == 3

    def test_submit_accepts_single_request_and_counts_pending(self, adder3):
        session = Session()
        assert session.submit(request_for(adder3)) == 1
        assert session.submit(suite_requests()) == 4
        records = list(session.as_completed())
        assert len(records) == len(session.reports()[0].outputs) + 5

    def test_empty_queue_streams_nothing(self):
        session = Session()
        assert list(session.as_completed()) == []
        assert session.reports() == []

    def test_report_lookup_by_circuit_name(self):
        session = Session()
        session.submit(suite_requests())
        list(session.as_completed())
        assert session.report("rca2").circuit == "rca2"
        with pytest.raises(ReproError, match="no report"):
            session.report("missing")

    def test_run_suite_convenience(self):
        reports = Session().run_suite(suite_requests())
        assert [report.circuit for report in reports] == [
            "mux2",
            "rca2",
            "parity4",
        ]

    def test_circuit_budgets_apply_per_request(self):
        session = Session()
        exhausted = request_for(
            ripple_carry_adder(2), budgets=Budgets(per_circuit=0.0)
        )
        generous = request_for(
            mux_tree(2), budgets=Budgets(per_circuit=300.0)
        )
        session.submit([exhausted, generous])
        list(session.as_completed())
        first, second = session.reports()
        assert first.schedule["executed"] == 0
        assert first.schedule["skipped"] == ["s0", "s1", "cout"]
        assert second.schedule["skipped"] == []
        assert len(second.outputs) == 1

    def test_earlier_units_do_not_drain_later_units_budgets(self):
        """A unit's per-circuit budget starts when ITS jobs start, not at
        suite submission — earlier units' execution must not starve it."""
        import time

        def sleepy(function, operator, *, options, deadline):
            time.sleep(0.4)
            return BiDecResult(engine="TEST-SLEEP", operator=operator, decomposed=False)

        default_registry().register(EngineSpec("TEST-SLEEP", runner=sleepy))
        try:
            slow = request_for(ripple_carry_adder(2), engines=("TEST-SLEEP",))
            budgeted = request_for(
                mux_tree(2), budgets=Budgets(per_circuit=0.75)
            )
            session = Session()
            session.submit([slow, budgeted])
            list(session.as_completed())
            _, second = session.reports()
            # The slow unit ran >= 1.2 s; with the budget armed at submit
            # time the second unit would have skipped its only output.
            assert second.schedule["skipped"] == []
            assert len(second.outputs) == 1
        finally:
            default_registry().unregister("TEST-SLEEP")

    def test_submit_invalidates_previous_reports(self, adder3):
        """reports() must not answer batch N requests with batch N-1 data."""
        session = Session()
        session.submit([request_for(mux_tree(2))])
        list(session.as_completed())
        assert len(session.reports()) == 1
        session.submit([request_for(adder3, max_outputs=1)])
        with pytest.raises(ReproError, match="not been drained"):
            session.reports()
        list(session.as_completed())
        assert session.reports()[0].circuit == "rca3"

    def test_abandoned_stream_invalidates_reports(self, adder3):
        session = Session()
        session.submit(suite_requests())
        stream = session.as_completed()
        next(stream)  # start, then abandon mid-drain
        stream.close()
        with pytest.raises(ReproError, match="not been drained"):
            session.reports()
        # A fresh submit + full drain recovers.
        session.submit([request_for(adder3, max_outputs=1)])
        list(session.as_completed())
        assert len(session.reports()) == 1

    def test_suite_shares_one_persistent_snapshot(self, tmp_path):
        """Units sharing a cache dir accumulate into ONE snapshot file."""
        cache = CachePolicy(directory=str(tmp_path))
        aig_a = duplicated_cone_circuit(copies=2, seed=5)
        aig_b = ripple_carry_adder(2)
        session = Session()
        session.submit(
            [request_for(aig_a, cache=cache), request_for(aig_b, cache=cache)]
        )
        list(session.as_completed())
        saved = sum(
            report.schedule["persistent_saved"] for report in session.reports()
        )
        assert saved >= 2  # both circuits' entries survived into the snapshot
        warm_session = Session()
        warm_session.submit(
            [request_for(aig_a, cache=cache), request_for(aig_b, cache=cache)]
        )
        list(warm_session.as_completed())
        for report in warm_session.reports():
            assert report.schedule["persistent_hits"] >= 1


class TestTopLevelExports:
    def test_engine_constants_importable_from_repro(self):
        import repro

        assert repro.ENGINE_STEP_QD == "STEP-QD"
        assert repro.ENGINE_LJH == "LJH"
        assert repro.ENGINE_BDD == "BDD"
        assert set(repro.QBF_ENGINES) == {"STEP-QD", "STEP-QB", "STEP-QDB"}
        assert len(repro.ENGINES) == 6
        assert set(repro.OPERATORS) == {"or", "and", "xor"}

    def test_api_types_importable_from_repro(self):
        import repro

        for name in (
            "Session",
            "DecompositionRequest",
            "Budgets",
            "Parallelism",
            "CachePolicy",
            "EngineRegistry",
            "EngineSpec",
            "default_registry",
        ):
            assert name in repro.__all__
            assert getattr(repro, name) is not None


class TestRequestLifecycle:
    """The explicit state machine: queued -> running -> done/cancelled/failed."""

    def test_run_issues_a_done_ticket(self, adder3):
        session = Session()
        session.run(request_for(adder3, max_outputs=1))
        (ticket,) = session.tickets()
        assert ticket.state == "done"
        assert ticket.report is not None
        assert session.status() == {ticket.id: "done"}
        assert session.status(ticket.id) == "done"

    def test_submitted_requests_are_queued_then_done(self):
        session = Session()
        session.submit(suite_requests())
        assert set(session.status().values()) == {"queued"}
        list(session.as_completed())
        assert set(session.status().values()) == {"done"}
        for ticket, report in zip(session.tickets(), session.reports()):
            assert ticket.report.fingerprint() == report.fingerprint()

    def test_cancel_of_queued_request_removes_it_from_the_batch(self):
        session = Session()
        session.submit(suite_requests())
        victim = session.tickets()[1]
        assert session.cancel(victim.id) is True
        assert victim.state == "cancelled"
        list(session.as_completed())
        reports = session.reports()
        assert [report.circuit for report in reports] == ["mux2", "parity4"]
        # Cancelling a drained (terminal) request is a no-op.
        assert session.cancel(victim.id) is False
        assert session.cancel(session.tickets()[0].id) is False

    def test_unknown_ticket_id_is_one_line_error(self):
        with pytest.raises(ReproError, match="unknown request ticket"):
            Session().status(999)

    def test_illegal_transition_raises_and_terminal_is_sticky(self):
        from repro.api.lifecycle import RequestTicket

        ticket = RequestTicket(1, "x")
        with pytest.raises(ReproError, match="illegal request-state transition"):
            ticket.mark_done(None)
        ticket.mark_running()
        ticket.mark_done("report")
        # Late events after terminal are dropped, not raised (races).
        assert ticket.mark_cancelled() is False
        assert ticket.state == "done"

    def test_abandoned_stream_cancels_undrained_tickets(self):
        session = Session()
        session.submit(suite_requests())
        stream = session.as_completed()
        next(stream)
        stream.close()
        states = set(session.status().values())
        assert "cancelled" in states and "queued" not in states


class TestSessionContextManager:
    def test_close_is_deterministic_and_idempotent(self, adder3):
        with Session() as session:
            session.run(request_for(adder3, max_outputs=1))
            assert not session.closed
        assert session.closed
        session.close()  # idempotent
        with pytest.raises(ReproError, match="closed"):
            session.run(request_for(adder3, max_outputs=1))
        with pytest.raises(ReproError, match="closed"):
            session.submit(request_for(adder3, max_outputs=1))

    def test_close_cancels_pending_requests_but_keeps_reports(self):
        session = Session()
        session.submit([request_for(mux_tree(2))])
        list(session.as_completed())
        session.submit([request_for(ripple_carry_adder(2))])
        session.close()
        states = [ticket.state for ticket in session.tickets()]
        assert states == ["done", "cancelled"]

    def test_session_shares_one_persistent_cache_instance(self, tmp_path):
        """One disk read per session: both runs use the same instance."""
        cache = CachePolicy(directory=str(tmp_path))
        aig = duplicated_cone_circuit(copies=2, seed=9)
        with Session() as session:
            cold = session.run(request_for(aig, cache=cache))
            warm = session.run(request_for(aig, cache=cache))
            assert len(session._persistent_caches) == 1
        assert cold.schedule["persistent_saved"] >= 1
        assert warm.schedule["persistent_hits"] >= 1
        assert warm.fingerprint() == cold.fingerprint()


def _run_async(coroutine):
    import asyncio

    return asyncio.run(coroutine)


class TestAsyncSession:
    """Async-vs-sync differential: same requests, same fingerprints."""

    BACKENDS = ["serial", "thread"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_run_matches_sync_session(self, backend):
        import asyncio

        requests = suite_requests()

        async def go():
            async with AsyncSession(jobs=2, backend=backend) as session:
                return await asyncio.gather(
                    *(session.run(request) for request in requests)
                )

        reports = _run_async(go())
        for request, report in zip(requests, reports):
            assert report.fingerprint() == Session().run(request).fingerprint()

    def test_as_completed_streams_the_full_record_set(self):
        requests = suite_requests()

        async def go():
            async with AsyncSession(jobs=2, backend="thread") as session:
                handles = [session.submit(request) for request in requests]
                records = [record async for record in session.as_completed()]
                return handles, records

        handles, records = _run_async(go())
        sync_session = Session()
        sync_session.submit(suite_requests())
        expected = sorted(r.fingerprint() for r in sync_session.as_completed())
        assert sorted(r.fingerprint() for r in records) == expected
        assert all(handle.state == "done" for handle in handles)

    def test_records_queued_after_the_ticket_turns_terminal_are_kept(self):
        """Loop callbacks can trail the executor thread: a ticket may read
        terminal while its record callbacks are still queued.  Neither
        stream may end before they land."""

        async def go():
            async with AsyncSession(jobs=1, backend="serial") as session:
                loop = session._loop
                held = []
                loop.call_soon_threadsafe = lambda *call: held.append(call)
                handle = session.submit(request_for(ripple_carry_adder(2)))
                del loop.call_soon_threadsafe
                assert handle.ticket.terminal and held

                async def drain(stream):
                    return [item async for item in stream]

                streams = [
                    asyncio.ensure_future(drain(handle.events())),
                    asyncio.ensure_future(drain(session.as_completed())),
                ]
                await asyncio.sleep(0.01)
                for call in held:
                    loop.call_soon(*call)
                return await asyncio.gather(*streams)

        events, records = _run_async(go())
        outputs = {"s0", "s1", "cout"}
        assert {e["output"] for e in events if e["type"] == "record"} == outputs
        assert events[-1]["state"] == "done"
        assert {record.output_name for record in records} == outputs

    def test_events_stream_progress_and_terminal_state(self):
        async def go():
            async with AsyncSession(jobs=1, backend="serial") as session:
                handle = session.submit(request_for(ripple_carry_adder(2)))
                return [event async for event in handle.events()]

        events = _run_async(go())
        assert events[-1]["type"] == "state" and events[-1]["state"] == "done"
        outputs = [e["output"] for e in events if e["type"] == "record"]
        assert set(outputs) == {"s0", "s1", "cout"}

    def test_cancel_perturbs_nothing_else(self):
        import threading
        import time

        release = threading.Event()

        def stalling(function, operator, *, options, deadline):
            release.wait(30)
            return BiDecResult(engine="TEST-ASTALL", operator=operator, decomposed=False)

        default_registry().register(EngineSpec("TEST-ASTALL", runner=stalling))
        try:

            async def go():
                async with AsyncSession(jobs=1, backend="thread") as session:
                    slow = session.submit(
                        request_for(ripple_carry_adder(2), engines=("TEST-ASTALL",))
                    )
                    fast = session.submit(request_for(mux_tree(2)))
                    assert slow.cancel() is True
                    release.set()
                    report = await fast.report()
                    with pytest.raises(ReproError, match="cancelled"):
                        await slow.report()
                    return slow.state, report

            state, report = _run_async(go())
            assert state == "cancelled"
            assert (
                report.fingerprint()
                == Session().run(request_for(mux_tree(2))).fingerprint()
            )
        finally:
            release.set()
            default_registry().unregister("TEST-ASTALL")

    def test_failed_request_does_not_take_the_session_down(self):
        def broken(function, operator, *, options, deadline):
            raise RuntimeError("kaboom")

        default_registry().register(EngineSpec("TEST-ABROKEN", runner=broken))
        try:

            async def go():
                async with AsyncSession(jobs=1, backend="thread") as session:
                    bad = session.submit(
                        request_for(mux_tree(2), engines=("TEST-ABROKEN",))
                    )
                    with pytest.raises(ReproError, match="kaboom"):
                        await bad.report()
                    good = await session.run(request_for(mux_tree(2)))
                    return bad, good, session.stats()

            bad, good, stats = _run_async(go())
            assert bad.state == "failed" and "kaboom" in bad.error
            assert good.circuit == "mux2"
            assert stats["failed"] == 1 and stats["completed"] == 1
        finally:
            default_registry().unregister("TEST-ABROKEN")

    def test_live_fair_queue_interleaves_joining_units_by_priority(self):
        """Incremental WFQ: a unit joining mid-stream competes from the
        current virtual time, weighted by its priority."""
        from repro.core.scheduler import LiveFairQueue, OutputJob

        def jobs(count):
            return [
                OutputJob(
                    index=i,
                    output_name=f"o{i}",
                    num_support=2,
                    input_names=(),
                    cost=10,
                    cache_key=None,
                )
                for i in range(count)
            ]

        queue = LiveFairQueue()
        queue.add_unit(0, jobs(4), priority=1.0)
        order = [queue.pop()[0]]
        # Unit 1 (double priority) joins after one dispatch; equal-cost
        # jobs, so it gets two dispatch slots for each of unit 0's.
        queue.add_unit(1, jobs(4), priority=2.0)
        while len(queue):
            order.append(queue.pop()[0])
        assert order == [0, 1, 0, 1, 1, 0, 1, 0]
        assert queue.pop() is None

    def test_live_fair_queue_remove_unit_drops_queued_jobs(self):
        from repro.core.scheduler import LiveFairQueue, OutputJob

        def job(i):
            return OutputJob(
                index=i,
                output_name=f"o{i}",
                num_support=2,
                input_names=(),
                cost=1,
                cache_key=None,
            )

        queue = LiveFairQueue()
        queue.add_unit(0, [job(0), job(1)], priority=1.0)
        queue.add_unit(1, [job(0)], priority=1.0)
        assert queue.remove_unit(0) == 2
        remaining = []
        while len(queue):
            remaining.append(queue.pop()[0])
        assert remaining == [1]

    def test_submit_after_close_rejected(self):
        async def go():
            session = AsyncSession(jobs=1, backend="serial")
            await session.aclose()
            with pytest.raises(ReproError, match="closed"):
                session.submit(request_for(mux_tree(2)))

        _run_async(go())

    def test_async_session_requires_a_running_loop(self):
        with pytest.raises(ReproError, match="running event loop"):
            AsyncSession()


class TestLiveSchedulerInvariants:
    """Regressions for the live scheduler's daemon-grade invariants."""

    def test_queue_wait_does_not_drain_circuit_budgets(self):
        """A live request's per-circuit budget starts when ITS jobs reach
        the executor, not at submission — time spent queued behind other
        clients costs it nothing (live analogue of the suite test)."""
        import time

        def sleepy(function, operator, *, options, deadline):
            time.sleep(0.4)
            return BiDecResult(
                engine="TEST-LSLEEP", operator=operator, decomposed=False
            )

        default_registry().register(EngineSpec("TEST-LSLEEP", runner=sleepy))
        try:

            async def go():
                async with AsyncSession(jobs=1, backend="thread") as session:
                    slow = session.submit(
                        request_for(ripple_carry_adder(2), engines=("TEST-LSLEEP",))
                    )
                    budgeted = session.submit(
                        request_for(
                            mux_tree(2), budgets=Budgets(per_circuit=0.75)
                        )
                    )
                    await slow.report()
                    return await budgeted.report()

            report = _run_async(go())
            # The slow request held the only worker for >= 1.2 s; with the
            # budget armed at submit time the mux output would be skipped.
            assert report.schedule["skipped"] == []
            assert len(report.outputs) == 1
        finally:
            default_registry().unregister("TEST-LSLEEP")

    def test_forget_releases_per_request_scheduler_state(self):
        """A daemon serving an unbounded stream must not accumulate
        per-request units (or their AIGs) in the live scheduler."""

        async def go():
            async with AsyncSession(jobs=1, backend="serial") as session:
                for _ in range(5):
                    handle = session.submit(request_for(mux_tree(2)))
                    await handle.report()
                    session.forget(handle.id)
                return len(session._live._units), len(session._handles)

        units, handles = _run_async(go())
        assert units == 0 and handles == 0

    def test_failure_with_concurrent_jobs_releases_the_unit(self):
        """One job failing while siblings are in flight must still drive
        the unit to released state (no stuck inflight accounting)."""
        import threading
        import time

        gate = threading.Event()

        def first_fails(function, operator, *, options, deadline):
            if not gate.is_set():
                gate.set()
                raise RuntimeError("first job exploded")
            time.sleep(0.05)
            return BiDecResult(
                engine="TEST-HALFFAIL", operator=operator, decomposed=False
            )

        default_registry().register(
            EngineSpec("TEST-HALFFAIL", runner=first_fails)
        )
        try:

            async def go():
                async with AsyncSession(jobs=2, backend="thread") as session:
                    handle = session.submit(
                        request_for(ripple_carry_adder(2), engines=("TEST-HALFFAIL",))
                    )
                    with pytest.raises(ReproError, match="exploded"):
                        await handle.report()
                    # Give straggler completions time to land, then check
                    # the unit fully drained and released.
                    import asyncio

                    for _ in range(100):
                        units = session._live._units
                        unit = next(iter(units.values()))
                        if unit.inflight == 0 and unit.prepared is None:
                            break
                        await asyncio.sleep(0.05)
                    unit = next(iter(session._live._units.values()))
                    return handle.state, unit.inflight, unit.prepared

            state, inflight, prepared = _run_async(go())
            assert state == "failed"
            assert inflight == 0 and prepared is None
        finally:
            default_registry().unregister("TEST-HALFFAIL")
