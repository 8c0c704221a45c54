"""Tests for the pluggable executor backends and the suite features the
backend seam unlocked (fair cross-request scheduling, cross-circuit dedup).

The central contract is the differential one the acceptance criteria name:
``serial``, ``thread`` and ``process`` backends produce
fingerprint-identical :class:`CircuitReport`\\ s for any jobs count, solo
and in suites — the backend decides *where* searches run, never *what*
they compute.
"""

import pytest

from repro import (
    Budgets,
    CachePolicy,
    DecompositionRequest,
    Parallelism,
    Session,
)
from repro.circuits.generators import (
    decomposable_by_construction,
    mux_tree,
    parity_tree,
    ripple_carry_adder,
)
from repro.core.executors import (
    BACKEND_PROCESS,
    BACKEND_SERIAL,
    BACKEND_THREAD,
    BACKENDS,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    check_backend,
    create_backend,
    strongest_backend,
)
from repro.core.scheduler import LiveFairQueue, OutputJob, heaviest_first
from repro.core.spec import ENGINE_LJH, ENGINE_STEP_MG, ENGINE_STEP_QD
from repro.errors import DecompositionError, ReproError


def request_for(aig, engines=(ENGINE_STEP_MG,), jobs=1, backend=BACKEND_PROCESS, **kwargs):
    kwargs.setdefault("parallelism", Parallelism(jobs=jobs, backend=backend))
    return DecompositionRequest(
        circuit=aig, operator="or", engines=tuple(engines), **kwargs
    )


def twin_cone_circuit(name, copies=2, seed=5):
    """A named circuit whose outputs all share one decomposable cone."""
    aig, *_ = decomposable_by_construction("or", 3, 3, 1, seed=seed)
    aig.name = name
    root = aig.outputs[0][1]
    for k in range(1, copies):
        aig.add_output(f"f{k}", root)
    return aig


class TestBackendRegistry:
    def test_backend_names_and_order(self):
        assert BACKENDS == ("serial", "thread", "process")
        for name in BACKENDS:
            assert check_backend(name) == name

    def test_unknown_backend_rejected_everywhere(self):
        with pytest.raises(DecompositionError, match="unknown executor backend"):
            check_backend("gpu")
        with pytest.raises(ReproError, match="unknown executor backend"):
            Parallelism(backend="gpu")

    def test_create_backend_types_and_workers(self):
        assert isinstance(create_backend("serial", 4), SerialBackend)
        assert isinstance(create_backend("thread", 4), ThreadBackend)
        assert isinstance(create_backend("process", 4), ProcessBackend)
        # Serial means serial: the requested worker count is ignored.
        assert create_backend("serial", 4).workers == 1
        assert create_backend("thread", 4).workers == 4

    def test_strongest_backend(self):
        assert strongest_backend(["serial"]) == "serial"
        assert strongest_backend(["serial", "thread"]) == "thread"
        assert strongest_backend(["thread", "process", "serial"]) == "process"


# The differential matrix: every backend, jobs=1 and jobs=4, must match the
# serial/jobs=1 reference fingerprint exactly.
DIFF_MATRIX = [
    (ripple_carry_adder, (2,), [ENGINE_STEP_MG, ENGINE_STEP_QD]),
    (mux_tree, (2,), [ENGINE_LJH, ENGINE_STEP_MG]),
    (parity_tree, (4,), [ENGINE_STEP_MG]),
]


class TestBackendDifferential:
    @pytest.mark.parametrize("builder,args,engines", DIFF_MATRIX)
    def test_solo_fingerprints_identical_across_backends_and_jobs(
        self, builder, args, engines
    ):
        """Acceptance: the three backends yield fingerprint-identical
        reports (jobs=1 and jobs=4)."""
        aig = builder(*args)
        reference = None
        for backend in BACKENDS:
            for jobs in (1, 4):
                report = Session().run(
                    request_for(aig, engines=engines, jobs=jobs, backend=backend)
                )
                if reference is None:
                    reference = report.fingerprint()
                assert report.fingerprint() == reference, (
                    f"{backend}/jobs={jobs} diverged from the reference"
                )

    def test_suite_fingerprints_identical_across_backends(self):
        circuits = [mux_tree(2), ripple_carry_adder(2), parity_tree(4)]
        reference = None
        for backend in BACKENDS:
            session = Session()
            session.submit(
                [request_for(aig, jobs=4, backend=backend) for aig in circuits]
            )
            streamed = sorted(
                record.fingerprint() for record in session.as_completed()
            )
            fingerprints = [report.fingerprint() for report in session.reports()]
            for report in session.reports():
                assert report.schedule["backend"] == backend
            if reference is None:
                reference = (streamed, fingerprints)
            assert (streamed, fingerprints) == reference

    def test_thread_backend_reports_schedule(self):
        """The thread backend is a real parallel path: no fallback, and
        the worker count it was sized to."""
        report = Session().run(
            request_for(ripple_carry_adder(3), jobs=3, backend=BACKEND_THREAD)
        )
        assert report.schedule["fallback"] is None
        assert report.schedule["jobs"] == 3
        assert report.schedule["backend"] == "thread"

    def test_serial_backend_is_one_worker_no_fallback(self):
        report = Session().run(
            request_for(ripple_carry_adder(2), jobs=4, backend=BACKEND_SERIAL)
        )
        assert report.schedule["fallback"] is None
        assert report.schedule["jobs"] == 1
        assert report.schedule["requested_jobs"] == 4

    def test_serial_suite_budgets_arm_per_unit(self):
        """A serial-backend suite runs units strictly one after another, so
        it must take the sequential path where each unit's circuit budget
        starts when the unit does — a generous budget on the second unit
        must never be drained by the first unit's inline execution."""
        from repro import default_registry, EngineSpec
        from repro.core.result import BiDecResult
        import time

        def sleepy(function, operator, *, options, deadline):
            time.sleep(0.3)
            return BiDecResult(
                engine="TEST-SNAIL", operator=operator, decomposed=False
            )

        default_registry().register(EngineSpec("TEST-SNAIL", runner=sleepy))
        try:
            session = Session()
            session.submit(
                [
                    request_for(
                        ripple_carry_adder(2),
                        engines=("TEST-SNAIL",),
                        jobs=4,
                        backend=BACKEND_SERIAL,
                    ),
                    request_for(
                        mux_tree(2),
                        jobs=4,
                        backend=BACKEND_SERIAL,
                        budgets=Budgets(per_circuit=0.5),
                    ),
                ]
            )
            list(session.as_completed())
            first, second = session.reports()
            # The first unit ran ~0.9s inline; were budgets armed at
            # executor start, the second unit's 0.5s budget would be gone.
            assert second.schedule["skipped"] == []
            assert len(second.outputs) == 1
            assert first.schedule["backend"] == "serial"
        finally:
            default_registry().unregister("TEST-SNAIL")

    def test_pooled_suite_budgets_arm_at_first_dispatch(self):
        """On a pool, a unit queued behind another unit's searches starts
        its circuit budget when its first job reaches a worker."""
        from repro import default_registry, EngineSpec
        from repro.core.result import BiDecResult
        import time

        def sleepy(function, operator, *, options, deadline):
            time.sleep(0.6)
            return BiDecResult(
                engine="TEST-SLOTH", operator=operator, decomposed=False
            )

        default_registry().register(EngineSpec("TEST-SLOTH", runner=sleepy))
        try:
            session = Session()
            session.submit(
                [
                    request_for(
                        ripple_carry_adder(2),
                        engines=("TEST-SLOTH",),
                        jobs=2,
                        backend=BACKEND_THREAD,
                    ),
                    request_for(
                        mux_tree(2),
                        jobs=2,
                        backend=BACKEND_THREAD,
                        budgets=Budgets(per_circuit=0.3),
                    ),
                ]
            )
            circuits = [record.circuit for record in session.as_completed()]
            _, second = session.reports()
            # Both workers were busy for 0.6 s when the second unit was
            # submitted, so its job waited for a finished search; armed at
            # submit, its 0.3 s budget would have been gone by then.
            assert circuits[0] == "rca2"
            assert second.schedule["skipped"] == []
            assert len(second.outputs) == 1
            assert second.schedule["shared_pool"] is True
        finally:
            default_registry().unregister("TEST-SLOTH")

    def test_thread_backend_honours_expired_circuit_budget(self):
        report = Session().run(
            request_for(
                ripple_carry_adder(3),
                jobs=4,
                backend=BACKEND_THREAD,
                budgets=Budgets(per_circuit=0.0),
            )
        )
        assert report.schedule["executed"] == 0
        assert report.schedule["skipped"] == ["s0", "s1", "s2", "cout"]

    def test_thread_backend_works_where_fork_is_rejected(self):
        """A daemonic parent *process* cannot fork a multiprocessing pool
        ("daemonic processes are not allowed to have children"); the thread
        backend must actually fan out there — the caveat that motivated it.
        The process backend in the same environment must report the
        pool-unavailable fallback, proving the restriction was real."""
        import multiprocessing

        def run_in_daemon(queue):
            outcome = {}
            for backend in (BACKEND_THREAD, BACKEND_PROCESS):
                report = Session().run(
                    request_for(ripple_carry_adder(2), jobs=2, backend=backend)
                )
                outcome[backend] = {
                    "fallback": report.schedule["fallback"],
                    "jobs": report.schedule["jobs"],
                    "fingerprint": report.fingerprint(),
                }
            queue.put(outcome)

        try:
            context = multiprocessing.get_context("fork")
            queue = context.SimpleQueue()
            daemon = context.Process(
                target=run_in_daemon, args=(queue,), daemon=True
            )
            daemon.start()
        except (OSError, ValueError):
            pytest.skip("cannot create processes in this environment")
        daemon.join(timeout=120)
        # Diagnose a crashed/hung child instead of blocking on queue.get().
        assert daemon.exitcode == 0, f"daemon child failed (exit {daemon.exitcode})"
        assert not queue.empty(), "daemon child exited without reporting"
        outcome = queue.get()
        # The restriction is real: the process backend had to fall back ...
        assert outcome[BACKEND_PROCESS]["fallback"] == "pool-unavailable"
        # ... while the thread backend genuinely fanned out.
        assert outcome[BACKEND_THREAD]["fallback"] is None
        assert outcome[BACKEND_THREAD]["jobs"] == 2
        solo = Session().run(request_for(ripple_carry_adder(2)))
        for backend in (BACKEND_THREAD, BACKEND_PROCESS):
            assert outcome[backend]["fingerprint"] == solo.fingerprint()


def fair_dispatch(queues, priorities):
    """The live fair queue's dispatch sequence when every unit joins before
    the first pop, each queue heaviest-first as a parallel backend gets it."""
    queue = LiveFairQueue()
    for slot, jobs in enumerate(queues):
        queue.add_unit(slot, heaviest_first(jobs), priorities[slot])
    order = []
    while (item := queue.pop()) is not None:
        order.append(item)
    return order


class TestFairDispatch:
    @staticmethod
    def job(index, cost):
        return OutputJob(
            index=index,
            output_name=f"o{index}",
            num_support=3,
            input_names=(),
            cost=cost,
            seed=0,
            cache_key=None,
        )

    def test_heavy_unit_no_longer_starves_light_units(self):
        """The old global heaviest-first sort put every heavy cone ahead of
        the light unit; fair queueing dispatches the light unit first."""
        heavy = [self.job(i, 100) for i in range(3)]
        light = [self.job(i, 5) for i in range(3)]
        order = [
            (slot, job.index)
            for slot, job in fair_dispatch([heavy, light], [1.0, 1.0])
        ]
        # All light jobs precede the second heavy job.
        positions = {item: pos for pos, item in enumerate(order)}
        assert positions[(1, 2)] < positions[(0, 1)]
        assert len(order) == 6

    def test_within_a_unit_heaviest_first_is_preserved(self):
        jobs = [self.job(0, 10), self.job(1, 50), self.job(2, 30)]
        order = [job.index for _slot, job in fair_dispatch([jobs], [1.0])]
        assert order == [1, 2, 0]

    def test_priority_weights_the_interleave(self):
        """Priority 10 makes 100-cost cones as cheap as 10-cost ones: the
        units alternate instead of the light unit going first."""
        heavy = [self.job(i, 99) for i in range(4)]
        light = [self.job(i, 9) for i in range(4)]
        order = [
            slot for slot, _job in fair_dispatch([heavy, light], [10.0, 1.0])
        ]
        assert order == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_deterministic_and_complete(self):
        queues = [
            [self.job(i, (7 * i) % 13) for i in range(5)],
            [self.job(i, (5 * i) % 11) for i in range(4)],
            [self.job(i, 3) for i in range(3)],
        ]
        first = fair_dispatch(queues, [1.0, 2.0, 0.5])
        second = fair_dispatch(queues, [1.0, 2.0, 0.5])
        assert first == second
        assert len(first) == 12

    def test_request_priority_validation(self):
        with pytest.raises(ReproError, match="priority"):
            request_for(mux_tree(2), priority=0)
        with pytest.raises(ReproError, match="priority"):
            request_for(mux_tree(2), priority=-2.5)
        assert request_for(mux_tree(2), priority=3).priority == 3

    def test_priority_reported_in_suite_schedule(self):
        session = Session()
        session.submit(
            [
                request_for(mux_tree(2), priority=2.0),
                request_for(ripple_carry_adder(2)),
            ]
        )
        list(session.as_completed())
        first, second = session.reports()
        assert first.schedule["priority"] == 2.0
        assert second.schedule["priority"] == 1.0


class TestCrossCircuitDedup:
    def test_flag_requires_dedup(self):
        with pytest.raises(ReproError, match="cross_circuit_dedup"):
            request_for(
                mux_tree(2),
                parallelism=Parallelism(dedup=False),
                cache=CachePolicy(cross_circuit_dedup=True),
            )

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_cross_unit_replays_counted_and_fingerprints_stable(self, jobs):
        """Two circuits carrying structural twins of one cone: with the flag
        the second unit replays the first unit's search (counted in
        ``cross_circuit_hits``); for traversal-order-exact twins the replay
        is bit-identical, so fingerprints still match solo runs."""
        circuit_a = twin_cone_circuit("twinA", copies=2)
        circuit_b = twin_cone_circuit("twinB", copies=2)
        requests = [
            request_for(aig, jobs=jobs, cache=CachePolicy(cross_circuit_dedup=True))
            for aig in (circuit_a, circuit_b)
        ]
        session = Session()
        session.submit(requests)
        list(session.as_completed())
        reports = session.reports()
        assert all(r.schedule["cross_circuit_dedup"] is True for r in reports)
        # Exactly one unit computed the shared cone; the others replayed it
        # across the circuit boundary.
        assert sum(r.schedule["cross_circuit_hits"] for r in reports) == 1
        for request, report in zip(requests, reports):
            solo = Session().run(
                request.with_(parallelism=Parallelism(jobs=1))
            )
            assert solo.fingerprint() == report.fingerprint()

    def test_async_session_replays_twins_across_requests(self):
        """The live scheduler honours the flag too: a twin submitted while
        (or after) its provider searched replays instead of searching."""
        import asyncio

        from repro import AsyncSession

        requests = [
            request_for(aig, cache=CachePolicy(cross_circuit_dedup=True))
            for aig in (
                twin_cone_circuit("asyncTwinA", copies=2),
                twin_cone_circuit("asyncTwinB", copies=2),
            )
        ]

        async def go():
            async with AsyncSession(jobs=2, backend="thread") as session:
                handles = [session.submit(request) for request in requests]
                return [await handle.report() for handle in handles]

        reports = asyncio.run(go())
        assert all(r.schedule["cross_circuit_dedup"] is True for r in reports)
        assert sum(r.schedule["cross_circuit_hits"] for r in reports) == 1
        for request, report in zip(requests, reports):
            solo = Session().run(request.with_(parallelism=Parallelism(jobs=1)))
            assert solo.fingerprint() == report.fingerprint()

    def test_twin_of_an_in_flight_cone_waits_instead_of_searching(self):
        """The second request is planned while the first one's search is
        still running: its twin waits for that search and replays it."""
        import time

        from repro import EngineSpec, default_registry
        from repro.core.result import BiDecResult

        calls = []

        def slow(function, operator, *, options, deadline):
            calls.append(function.num_inputs)
            time.sleep(0.3)
            return BiDecResult(
                engine="TEST-SLOWTWIN", operator=operator, decomposed=False
            )

        default_registry().register(EngineSpec("TEST-SLOWTWIN", runner=slow))
        try:
            reports = Session().run_suite(
                [
                    request_for(
                        twin_cone_circuit(name, copies=2),
                        engines=("TEST-SLOWTWIN",),
                        jobs=2,
                        backend=BACKEND_THREAD,
                        cache=CachePolicy(cross_circuit_dedup=True),
                    )
                    for name in ("slowTwinA", "slowTwinB")
                ]
            )
        finally:
            default_registry().unregister("TEST-SLOWTWIN")
        assert len(calls) == 1
        assert [r.schedule["cross_circuit_hits"] for r in reports] == [0, 1]

    def test_cancelled_provider_hands_the_search_to_its_twin(self):
        """Cancelling the request whose search a twin waits on sends the
        twin back to the executor: it searches the cone itself, and the
        cancelling thread never runs a search."""
        import asyncio
        import threading
        import time

        from repro import AsyncSession, EngineSpec, default_registry
        from repro.core.result import BiDecResult

        searched_on = []

        def slow(function, operator, *, options, deadline):
            searched_on.append(threading.current_thread().name)
            time.sleep(0.3)
            return BiDecResult(
                engine="TEST-SLOWCANCEL", operator=operator, decomposed=False
            )

        async def go(requests):
            async with AsyncSession(jobs=2, backend="thread") as session:
                provider = session.submit(requests[0])
                twin = session.submit(requests[1])
                assert provider.cancel() is True
                return await twin.report()

        default_registry().register(EngineSpec("TEST-SLOWCANCEL", runner=slow))
        try:
            report = asyncio.run(
                go(
                    [
                        request_for(
                            twin_cone_circuit(name, copies=2),
                            engines=("TEST-SLOWCANCEL",),
                            cache=CachePolicy(cross_circuit_dedup=True),
                        )
                        for name in ("cancelTwinA", "cancelTwinB")
                    ]
                )
            )
        finally:
            default_registry().unregister("TEST-SLOWCANCEL")
        assert len(searched_on) == 2  # the cancelled search, then the twin's
        assert all(name.startswith("repro-exec") for name in searched_on)
        assert report.schedule["cross_circuit_hits"] == 0
        assert len(report.outputs) == 2

    def test_twins_under_thread_contention(self):
        """Many opted-in twins on more threads than cores, with frequent
        thread switches: every twin but one replays, none searches twice,
        and the drain finishes."""
        import sys
        import threading

        requests = [
            request_for(
                twin_cone_circuit(f"stressTwin{k}", copies=2),
                jobs=4,
                backend=BACKEND_THREAD,
                cache=CachePolicy(cross_circuit_dedup=True),
            )
            for k in range(8)
        ]
        outcome = {}

        def drain():
            outcome["reports"] = Session().run_suite(requests)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            worker = threading.Thread(target=drain, daemon=True)
            worker.start()
            worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive(), "the drain did not finish"
        reports = outcome["reports"]
        hits = [report.schedule["cross_circuit_hits"] for report in reports]
        assert sum(hits) == len(requests) - 1
        assert sum(report.schedule["cache_misses"] for report in reports) == len(requests)
        for request, report in zip(requests, reports):
            solo = Session().run(request.with_(parallelism=Parallelism(jobs=1)))
            assert solo.fingerprint() == report.fingerprint()

    def test_off_by_default_no_cross_stats_and_solo_identical(self):
        circuits = [twin_cone_circuit("offA"), twin_cone_circuit("offB")]
        session = Session()
        requests = [request_for(aig) for aig in circuits]
        session.submit(requests)
        list(session.as_completed())
        for request, report in zip(requests, session.reports()):
            assert "cross_circuit_dedup" not in report.schedule
            assert "cross_circuit_hits" not in report.schedule
            solo = Session().run(request)
            assert solo.fingerprint() == report.fingerprint()

    def test_mixed_optin_only_optin_units_share(self):
        """A unit that did not opt in never serves from (or reads) the
        suite-wide store, even when its twin exists there."""
        session = Session()
        session.submit(
            [
                request_for(
                    twin_cone_circuit("mixA"),
                    cache=CachePolicy(cross_circuit_dedup=True),
                ),
                request_for(twin_cone_circuit("mixB")),  # not opted in
            ]
        )
        list(session.as_completed())
        first, second = session.reports()
        assert first.schedule["cross_circuit_hits"] == 0
        assert "cross_circuit_hits" not in second.schedule

    def test_different_search_contexts_never_share(self):
        """Same cones, different per-call budgets: context strings differ,
        so no cross-unit replay may happen."""
        session = Session()
        session.submit(
            [
                request_for(
                    twin_cone_circuit("ctxA"),
                    cache=CachePolicy(cross_circuit_dedup=True),
                    budgets=Budgets(per_call=4.0),
                ),
                request_for(
                    twin_cone_circuit("ctxB"),
                    cache=CachePolicy(cross_circuit_dedup=True),
                    budgets=Budgets(per_call=2.0),
                ),
            ]
        )
        list(session.as_completed())
        for report in session.reports():
            assert report.schedule["cross_circuit_hits"] == 0

    def test_in_unit_dedup_accounting_unchanged_by_flag(self):
        """The suite-wide store must not perturb per-unit hit/miss stats."""
        aig = twin_cone_circuit("soloTwins", copies=3)
        session = Session()
        session.submit(
            [request_for(aig, cache=CachePolicy(cross_circuit_dedup=True))]
        )
        list(session.as_completed())
        (report,) = session.reports()
        assert report.schedule["unique_cones"] == 1
        assert report.schedule["cache_hits"] == 2
        assert report.schedule["cross_circuit_hits"] == 0


class TestCliBackend:
    def test_backend_flag_accepted_and_reported(self, tmp_path, capsys):
        from repro.cli import main
        from repro.io.blif import write_blif

        path = tmp_path / "rca2.blif"
        write_blif(ripple_carry_adder(2), str(path))
        outputs = {}
        for backend in BACKENDS:
            assert (
                main(
                    [
                        "decompose",
                        str(path),
                        "--engine",
                        "STEP-MG",
                        "--jobs",
                        "2",
                        "--backend",
                        backend,
                    ]
                )
                == 0
            )
            captured = capsys.readouterr().out
            assert f"backend = {backend}" in captured
            # The decomposition content (everything above the schedule
            # line, with wall-clock timings masked) is backend-independent.
            import re

            content = captured.split("schedule")[0]
            outputs[backend] = re.sub(r"\d+\.\d+\s*s", "<t>", content)
        assert outputs["serial"] == outputs["thread"] == outputs["process"]

    def test_unknown_backend_flag_rejected(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["decompose", "rca2", "--backend", "gpu"])
