"""Tests for the batch decomposition scheduler and the cone memo cache.

The scheduler's contract is *identity*: for any (jobs, dedup) combination it
must produce the same :meth:`CircuitReport.fingerprint` as the sequential,
no-dedup driver.  These tests assert that over an engine x circuit matrix,
check the dedup accounting on circuits with duplicated cones, and pin the
seed-derivation regression (``--jobs 1`` == ``--jobs 4``).
"""

import pytest

from repro.aig.aig import AIG
from repro.aig.function import BooleanFunction
from repro.aig.signature import (
    ConeCache,
    canonical_cone_signature,
    cone_signature,
)
from repro.circuits.generators import (
    decomposable_by_construction,
    mux_tree,
    parity_tree,
    ripple_carry_adder,
)
from repro.api import Budgets, DecompositionRequest, Parallelism, Session
from repro.core.engine import BiDecomposer, EngineOptions
from repro.core.scheduler import BatchScheduler
from repro.core.spec import (
    ENGINE_BDD,
    ENGINE_LJH,
    ENGINE_STEP_MG,
    ENGINE_STEP_QD,
)
from repro.core.verify import verify_decomposition
from repro.errors import DecompositionError
from repro.utils.rng import derive_seed


def run(aig, operator, engines, **kwargs):
    """One circuit through a fresh session."""
    return Session().run(
        DecompositionRequest(
            circuit=aig, operator=operator, engines=tuple(engines), **kwargs
        )
    )


def duplicated_cone_circuit(copies=4, seed=7):
    """One decomposable cone driving ``copies`` primary outputs."""
    aig, *_ = decomposable_by_construction("or", 3, 3, 1, seed=seed)
    root = aig.outputs[0][1]
    for k in range(1, copies):
        aig.add_output(f"f{k}", root)
    return aig


def renamed_cone_circuit():
    """The same cone instantiated twice over differently named inputs."""
    source, *_ = decomposable_by_construction("or", 3, 2, 1, seed=13)
    root = source.outputs[0][1]
    cone_inputs = [
        node for node in source.inputs if node in set(source.cone_nodes([root]))
    ]
    target = AIG("renamed")
    first = {node: target.add_input(f"p{pos}") for pos, node in enumerate(cone_inputs)}
    second = {node: target.add_input(f"q{pos}") for pos, node in enumerate(cone_inputs)}
    target.add_output("f_first", source.copy_cone(root, target, first))
    target.add_output("f_second", source.copy_cone(root, target, second))
    return target


def permuted_fanin_circuit():
    """Two isomorphic cones whose gates were created in opposite orders.

    Both outputs compute ``NOT((i0 AND i1) AND (i2 AND i3))`` — which is
    OR-decomposable as ``NOT(i0 AND i1) OR NOT(i2 AND i3)`` — but the second
    cone creates its lower AND gates in reverse order, so the top gate's
    strashed fanins (sorted by node index) come out commuted relative to the
    first cone and the exact DFS signature differs.
    """
    aig = AIG("permuted")
    a = [aig.add_input(f"a{k}") for k in range(4)]
    b = [aig.add_input(f"b{k}") for k in range(4)]
    g_ab = aig.add_and(a[0], a[1])
    g_cd = aig.add_and(a[2], a[3])
    aig.add_output("f_first", aig.lnot(aig.add_and(g_ab, g_cd)))
    g_rs = aig.add_and(b[2], b[3])  # lower gates in reverse creation order
    g_pq = aig.add_and(b[0], b[1])
    aig.add_output("f_second", aig.lnot(aig.add_and(g_pq, g_rs)))
    return aig


class TestConeSignature:
    def test_identical_cones_share_a_signature(self):
        aig = duplicated_cone_circuit(copies=2)
        f0 = BooleanFunction.from_output(aig, "f")
        f1 = BooleanFunction.from_output(aig, "f1")
        assert cone_signature(aig, f0.root, f0.inputs) == cone_signature(
            aig, f1.root, f1.inputs
        )

    def test_renamed_copies_share_a_signature(self):
        aig = renamed_cone_circuit()
        f0 = BooleanFunction.from_output(aig, "f_first")
        f1 = BooleanFunction.from_output(aig, "f_second")
        assert cone_signature(aig, f0.root, f0.inputs) == cone_signature(
            aig, f1.root, f1.inputs
        )

    def test_different_cones_differ(self):
        aig = ripple_carry_adder(2)
        s0 = BooleanFunction.from_output(aig, "s0")
        s1 = BooleanFunction.from_output(aig, "s1")
        assert cone_signature(aig, s0.root, s0.inputs) != cone_signature(
            aig, s1.root, s1.inputs
        )

    def test_constant_roots(self):
        aig = AIG("consts")
        aig.add_output("t", 1)
        aig.add_output("f", 0)
        assert cone_signature(aig, 1, []) != cone_signature(aig, 0, [])

    def test_cache_accounting(self):
        cache = ConeCache()
        assert cache.lookup("k") is None
        cache.store("k", 42)
        assert cache.lookup("k") == 42
        assert cache.stats() == {
            "entries": 1,
            "hits": 1,
            "misses": 1,
            "warm_hits": 0,
        }

    def test_disabled_cache_never_hits(self):
        cache = ConeCache(enabled=False)
        cache.store("k", 42)
        assert cache.lookup("k") is None
        assert cache.hits == 0 and cache.misses == 1

    def test_warm_entries_tracked_separately(self):
        cache = ConeCache()
        cache.warm("w", 1)
        cache.store("s", 2)
        assert cache.lookup("w") == 1
        assert cache.lookup("s") == 2
        assert cache.hits == 2 and cache.warm_hits == 1
        # Recomputing a warmed key demotes it to a plain in-run entry.
        cache.store("w", 3)
        assert cache.lookup("w") == 3
        assert cache.warm_hits == 1


class TestCanonicalSignature:
    def test_permuted_fanin_cones_share_canonical_signature(self):
        aig = permuted_fanin_circuit()
        f0 = BooleanFunction.from_output(aig, "f_first")
        f1 = BooleanFunction.from_output(aig, "f_second")
        # The exact DFS signature sees the commuted construction order ...
        assert cone_signature(aig, f0.root, f0.inputs) != cone_signature(
            aig, f1.root, f1.inputs
        )
        # ... the canonical (fanin-commutative) signature does not.
        assert canonical_cone_signature(
            aig, f0.root, f0.inputs
        ) == canonical_cone_signature(aig, f1.root, f1.inputs)

    def test_identical_cones_share_canonical_signature(self):
        aig = duplicated_cone_circuit(copies=2)
        f0 = BooleanFunction.from_output(aig, "f")
        f1 = BooleanFunction.from_output(aig, "f1")
        assert canonical_cone_signature(
            aig, f0.root, f0.inputs
        ) == canonical_cone_signature(aig, f1.root, f1.inputs)

    def test_different_functions_differ(self):
        aig = ripple_carry_adder(2)
        s0 = BooleanFunction.from_output(aig, "s0")
        s1 = BooleanFunction.from_output(aig, "s1")
        assert canonical_cone_signature(
            aig, s0.root, s0.inputs
        ) != canonical_cone_signature(aig, s1.root, s1.inputs)

    def test_negated_root_differs(self):
        aig = AIG("neg")
        x = aig.add_input("x")
        y = aig.add_input("y")
        g = aig.add_and(x, y)
        assert canonical_cone_signature(aig, g, [1, 2]) != canonical_cone_signature(
            aig, aig.lnot(g), [1, 2]
        )

    def test_constant_roots(self):
        aig = AIG("consts")
        assert canonical_cone_signature(aig, 1, []) != canonical_cone_signature(
            aig, 0, []
        )

    def test_shape_is_json_stable(self):
        import json

        aig = permuted_fanin_circuit()
        f0 = BooleanFunction.from_output(aig, "f_first")
        signature = canonical_cone_signature(aig, f0.root, f0.inputs)
        num_inputs, num_gates, root = signature
        assert (num_inputs, num_gates) == (4, 3)
        assert isinstance(root, str)
        assert json.loads(json.dumps(signature)) == list(signature)


# The engine x circuit identity matrix.  BDD and LJH cover the non-SAT and
# heuristic paths; STEP-MG/STEP-QD cover the core-guided and QBF paths.
MATRIX = [
    (ripple_carry_adder, (2,), [ENGINE_STEP_MG, ENGINE_STEP_QD]),
    (mux_tree, (2,), [ENGINE_LJH, ENGINE_STEP_MG]),
    (parity_tree, (4,), [ENGINE_BDD, ENGINE_STEP_MG]),
    (duplicated_cone_circuit, (3,), [ENGINE_LJH, ENGINE_STEP_MG, ENGINE_STEP_QD]),
]


class TestBatchedEqualsSequential:
    @pytest.mark.parametrize("builder,args,engines", MATRIX)
    def test_fingerprints_match_across_modes(self, builder, args, engines):
        aig = builder(*args)
        sequential = run(aig, "or", engines, parallelism=Parallelism(dedup=False))
        batched = run(aig, "or", engines, parallelism=Parallelism(dedup=True))
        assert sequential.fingerprint() == batched.fingerprint()

    def test_xor_operator_matches(self):
        aig = parity_tree(5)
        sequential = run(
            aig, "xor", [ENGINE_STEP_MG], parallelism=Parallelism(dedup=False)
        )
        batched = run(
            aig, "xor", [ENGINE_STEP_MG], parallelism=Parallelism(dedup=True)
        )
        assert sequential.fingerprint() == batched.fingerprint()

    def test_parallel_matches_sequential(self):
        aig = ripple_carry_adder(2)
        sequential = run(
            aig, "or", [ENGINE_STEP_MG], parallelism=Parallelism(dedup=False)
        )
        parallel = run(
            aig, "or", [ENGINE_STEP_MG], parallelism=Parallelism(dedup=True, jobs=3)
        )
        assert sequential.fingerprint() == parallel.fingerprint()
        # "requested_jobs" is asserted rather than the effective "jobs" so
        # the test also holds where no process pool can be created and the
        # scheduler legitimately falls back to the sequential path.
        assert parallel.schedule["requested_jobs"] == 3

    def test_jobs_1_equals_jobs_4(self):
        """Regression: per-job seeds derive from job identity, not order."""
        aig = duplicated_cone_circuit(copies=4, seed=21)
        one = run(
            aig, "or", [ENGINE_STEP_MG, ENGINE_STEP_QD],
            parallelism=Parallelism(jobs=1),
        )
        four = run(
            aig, "or", [ENGINE_STEP_MG, ENGINE_STEP_QD],
            parallelism=Parallelism(jobs=4),
        )
        assert one.fingerprint() == four.fingerprint()
        assert one.schedule["cache_hits"] == four.schedule["cache_hits"]
        assert one.schedule["cache_misses"] == four.schedule["cache_misses"]


class TestDedup:
    def test_duplicate_cones_decomposed_once(self):
        aig = duplicated_cone_circuit(copies=4)
        report = run(aig, "or", [ENGINE_STEP_MG])
        assert report.schedule["unique_cones"] == 1
        assert report.schedule["cache_hits"] == 3
        # Replayed results are flagged in SearchStatistics ...
        assert report.cache_hits() == 3
        flags = [
            output.results[ENGINE_STEP_MG].stats.cache_hits
            for output in report.outputs
        ]
        assert flags == [0, 1, 1, 1]
        # ... but carry the memoised search's counters.
        base = report.outputs[0].results[ENGINE_STEP_MG]
        for output in report.outputs[1:]:
            assert output.results[ENGINE_STEP_MG].stats.sat_calls == base.stats.sat_calls

    def test_renamed_duplicates_replay_with_renamed_partitions(self):
        aig = renamed_cone_circuit()
        report = run(aig, "or", [ENGINE_STEP_MG], verify=True)
        assert report.schedule["cache_hits"] == 1
        first = report.outputs[0].results[ENGINE_STEP_MG]
        second = report.outputs[1].results[ENGINE_STEP_MG]
        assert first.decomposed and second.decomposed
        assert all(name.startswith("p") for name in first.partition.variables)
        assert all(name.startswith("q") for name in second.partition.variables)
        # The replayed decomposition verifies against its own cone.
        function = BooleanFunction.from_output(aig, "f_second")
        assert verify_decomposition(
            function, "or", second.fa, second.fb, second.partition
        )

    def test_dedup_off_recomputes_everything(self):
        aig = duplicated_cone_circuit(copies=3)
        report = run(
            aig, "or", [ENGINE_STEP_MG], parallelism=Parallelism(dedup=False)
        )
        assert report.schedule["cache_hits"] == 0
        assert report.cache_hits() == 0

    def test_small_support_outputs_not_cached(self):
        aig = AIG("tiny")
        x = aig.add_input("x")
        aig.add_output("o1", x)
        aig.add_output("o2", x)
        report = run(aig, "or", [ENGINE_STEP_MG])
        assert len(report.outputs) == 2
        assert report.schedule["unique_cones"] == 0
        assert all(not output.results for output in report.outputs)


class TestSchedulerPlanning:
    def test_plan_orders_and_costs(self):
        aig = ripple_carry_adder(3)
        scheduler = BatchScheduler(BiDecomposer())
        jobs = scheduler.plan(aig)
        assert [job.index for job in jobs] == list(range(len(aig.outputs)))
        # Later sum bits have strictly larger cones than s0.
        costs = {job.output_name: job.cost for job in jobs}
        assert costs["s2"] > costs["s0"]

    def test_plan_respects_max_outputs(self):
        aig = ripple_carry_adder(3)
        jobs = BatchScheduler(BiDecomposer()).plan(aig, max_outputs=2)
        assert len(jobs) == 2

    def test_seeds_depend_on_identity_not_order(self):
        aig = ripple_carry_adder(2)
        jobs = BatchScheduler(BiDecomposer(), seed=5).plan(aig)
        expected = [
            derive_seed(5, aig.name, job.output_name) for job in jobs
        ]
        assert [job.seed for job in jobs] == expected
        assert len({job.seed for job in jobs}) == len(jobs)

    def test_invalid_jobs_rejected(self):
        with pytest.raises(DecompositionError):
            BatchScheduler(BiDecomposer(), jobs=0)
        with pytest.raises(DecompositionError):
            EngineOptions(jobs=0)

    def test_circuit_timeout_stops_scheduling(self):
        aig = ripple_carry_adder(3)
        report = run(
            aig, "or", [ENGINE_STEP_MG],
            parallelism=Parallelism(jobs=2),
            budgets=Budgets(per_circuit=0.0),
        )
        assert len(report.outputs) == 0

    def test_circuit_timeout_forces_identical_reports_across_jobs(self):
        """Deadline semantics must not depend on the jobs count."""
        aig = ripple_carry_adder(2)
        reports = [
            run(
                aig, "or", [ENGINE_STEP_MG],
                parallelism=Parallelism(jobs=jobs),
                budgets=Budgets(per_circuit=300.0),
            )
            for jobs in (1, 4)
        ]
        assert reports[0].fingerprint() == reports[1].fingerprint()
        assert len(reports[0].outputs) == len(aig.outputs)


class TestCanonicalDedup:
    def test_permuted_fanin_cones_share_one_search(self):
        """Acceptance: fanin-permuted isomorphic cones dedup canonically."""
        aig = permuted_fanin_circuit()
        report = run(aig, "or", [ENGINE_STEP_MG], verify=True)
        assert report.schedule["unique_cones"] == 1
        assert report.schedule["cache_hits"] == 1
        first = report.outputs[0].results[ENGINE_STEP_MG]
        second = report.outputs[1].results[ENGINE_STEP_MG]
        assert first.decomposed and second.decomposed
        # The replayed partition names live on the duplicate's own inputs
        # and verify against its own cone (verify=True above re-checked it).
        assert all(name.startswith("a") for name in first.partition.variables)
        assert all(name.startswith("b") for name in second.partition.variables)
        function = BooleanFunction.from_output(aig, "f_second")
        assert verify_decomposition(
            function, "or", second.fa, second.fb, second.partition
        )

    def test_no_dedup_still_recomputes_permuted_cones(self):
        aig = permuted_fanin_circuit()
        report = run(
            aig, "or", [ENGINE_STEP_MG], parallelism=Parallelism(dedup=False)
        )
        assert report.schedule["cache_hits"] == 0
        assert all(output.results[ENGINE_STEP_MG].decomposed for output in report.outputs)


class TestDeadlineSemantics:
    """Circuit budgets compose with the pool path (PR 2 tentpole)."""

    def test_deadline_no_longer_forces_sequential(self):
        """Acceptance: circuit_timeout + jobs=4 still uses the pool."""
        aig = ripple_carry_adder(3)
        report = run(
            aig, "or", [ENGINE_STEP_MG],
            parallelism=Parallelism(jobs=4, dedup=False),
            budgets=Budgets(per_circuit=300.0),
        )
        # In environments where no process pool can be created the scheduler
        # must say so; everywhere else the pool must actually be used.
        if report.schedule["fallback"] is None:
            assert report.schedule["jobs"] == 4
        else:
            assert report.schedule["fallback"] == "pool-unavailable"
        assert report.schedule["skipped"] == []
        assert len(report.outputs) == len(aig.outputs)

    def test_skipped_accounting_identical_across_jobs(self):
        """jobs=1 and jobs=4 report the same skipped set on a generous budget."""
        aig = duplicated_cone_circuit(copies=4, seed=33)
        reports = [
            run(
                aig, "or", [ENGINE_STEP_MG, ENGINE_STEP_QD],
                parallelism=Parallelism(jobs=jobs),
                budgets=Budgets(per_circuit=600.0),
            )
            for jobs in (1, 4)
        ]
        assert reports[0].fingerprint() == reports[1].fingerprint()
        assert reports[0].schedule["skipped"] == reports[1].schedule["skipped"] == []
        assert reports[0].schedule["cache_hits"] == reports[1].schedule["cache_hits"]

    def test_zero_budget_reports_every_output_skipped(self):
        aig = ripple_carry_adder(3)
        for jobs in (1, 4):
            report = run(
                aig, "or", [ENGINE_STEP_MG],
                parallelism=Parallelism(jobs=jobs),
                budgets=Budgets(per_circuit=0.0),
            )
            assert report.schedule["executed"] == 0
            assert report.schedule["skipped"] == [name for name, _ in aig.outputs]
            if jobs > 1:
                assert report.schedule["fallback"] == "deadline"

    def test_zero_budget_starts_no_pool(self):
        session = Session()
        report = session.run(
            DecompositionRequest(
                circuit=ripple_carry_adder(3),
                operator="or",
                engines=(ENGINE_STEP_MG,),
                parallelism=Parallelism(jobs=4),
                budgets=Budgets(per_circuit=0.0),
            )
        )
        assert report.schedule["fallback"] == "deadline"
        assert session.stats["pools_created"] == 0

    def test_single_planned_job_reports_fallback(self):
        """jobs>1 on a one-output circuit goes to the pool like any other
        request (no "single-job" fallback), with the jobs=1 result."""
        aig, *_ = decomposable_by_construction("or", 3, 3, 1, seed=9)
        report = run(aig, "or", [ENGINE_STEP_MG], parallelism=Parallelism(jobs=4))
        solo = run(aig, "or", [ENGINE_STEP_MG])
        assert report.fingerprint() == solo.fingerprint()
        assert report.schedule["executed"] == 1
        if report.schedule["fallback"] is None:
            assert report.schedule["jobs"] == 4
        else:
            assert report.schedule["fallback"] == "pool-unavailable"

    def test_skipped_respects_max_outputs(self):
        aig = ripple_carry_adder(3)
        report = run(
            aig, "or", [ENGINE_STEP_MG],
            budgets=Budgets(per_circuit=0.0),
            max_outputs=2,
        )
        # Outputs beyond max_outputs were excluded by request, not budget.
        assert report.schedule["skipped"] == [name for name, _ in aig.outputs[:2]]

    def test_workers_skip_jobs_past_expiry(self):
        """A pool worker whose job starts after expiry returns a skip marker."""
        from repro.core.executors import _worker_init, _worker_run
        from repro.utils.timer import Deadline

        aig = duplicated_cone_circuit(copies=2)
        options = EngineOptions(extract=False)
        _worker_init([(aig, "or", [ENGINE_STEP_MG], options, "dup")])
        slot, index, record = _worker_run((0, 0, "f", 7, Deadline(0.0)))
        assert (slot, index) == (0, 0) and record is None
        slot, index, record = _worker_run((0, 0, "f", 7, Deadline(60.0)))
        assert record is not None and record.results[ENGINE_STEP_MG].decomposed

    def test_workers_dispatch_by_circuit_slot(self):
        """Suite workers route jobs to the right circuit context by slot."""
        from repro.core.executors import _worker_init, _worker_run

        dup = duplicated_cone_circuit(copies=2)
        rca = ripple_carry_adder(2)
        options = EngineOptions(extract=False)
        _worker_init(
            [
                (dup, "or", [ENGINE_STEP_MG], options, "dup"),
                (rca, "or", [ENGINE_STEP_MG], options, "rca2"),
            ]
        )
        slot, index, record = _worker_run((1, 0, "s0", 7, None))
        assert (slot, index) == (1, 0)
        assert record is not None and record.circuit == "rca2"
        assert record.output_name == "s0"
