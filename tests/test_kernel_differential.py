"""Differential tests: the compiled kernel vs the pure-Python reference.

The compiled kernel (:mod:`repro.sat._ckernel`) promises *decision-for-
decision* identity with :class:`repro.sat.solver.PySolver`: same VSIDS
tie-breaking, same restart schedule, same learned clauses, same models.
These tests run both substrates over the solver-fuzz instance corpus and
demand identical verdicts, models, cores, and work counters — not merely
equisatisfiable answers.  Every model is additionally verified against
the CNF so that an agreeing-but-wrong pair cannot pass.  The lockstep runs
also compare the VSIDS order heaps: the kernel's counted items must hold
exactly the multiset of tuples in the reference's ``heapq`` list.

All kernel-backed tests skip when the extension is not built (the
pure-Python-only CI job) and run against the pure path regardless, so
``STEP_PURE_PYTHON=1`` still exercises the non-differential assertions.
"""

import os
import subprocess
import sys
from collections import Counter

import pytest

from repro.errors import SolverError
from repro.sat.cnf import CNF
from repro.sat.solver import (
    CKernelSolver,
    PURE_PYTHON_ENV,
    PySolver,
    Solver,
    active_kernel_name,
    kernel_available,
    kernel_forced_pure,
    solver_work_snapshot,
)
from repro.utils.rng import deterministic_rng
from repro.utils.timer import Deadline

from tests.test_solver_fuzz import INSTANCES, model_satisfies, random_3cnf

needs_kernel = pytest.mark.skipif(
    not kernel_available() or kernel_forced_pure(),
    reason="compiled kernel not built or disabled via STEP_PURE_PYTHON",
)


def _run(solver, clauses, assumptions=(), **solve_kwargs):
    for clause in clauses:
        solver.add_clause(clause)
    result = solver.solve(assumptions=list(assumptions), **solve_kwargs)
    observation = {
        "status": result.status,
        "conflicts": solver.conflicts,
        "decisions": solver.decisions,
        "propagations": solver.propagations,
    }
    if result.status is True:
        observation["model"] = solver.model()
    if result.status is False and assumptions:
        observation["core"] = solver.core()
    return observation


def _assert_same_heap(pure, kern):
    counts = Counter()
    for key, var, count in kern._order_heap_items:
        counts[key, var] += count
    assert counts == Counter(pure._order_heap)


def _run_lockstep(pure, kern, clauses, assumptions=(), **solve_kwargs):
    """``_run`` on both substrates, comparing the order heaps after every
    ``add_clauses`` call and after the solve; returns both observations."""
    for clause in clauses:
        pure.add_clause(clause)
        kern.add_clause(clause)
        _assert_same_heap(pure, kern)
    observations = [
        _run(solver, (), assumptions, **solve_kwargs) for solver in (pure, kern)
    ]
    _assert_same_heap(pure, kern)
    return observations


class TestFactoryDispatch:
    @needs_kernel
    def test_default_factory_returns_the_kernel(self):
        assert isinstance(Solver(), CKernelSolver)
        assert active_kernel_name() == "c"

    def test_proof_mode_forces_the_pure_path(self):
        # Proof logging is a pure-Python feature; the factory must never
        # hand back the kernel when a resolution proof was requested.
        solver = Solver(proof=True)
        assert isinstance(solver, PySolver)
        solver.add_clause([1])
        solver.add_clause([-1])
        assert solver.solve().status is False
        assert solver.proof().has_refutation

    def test_env_override_forces_the_pure_path(self, monkeypatch):
        monkeypatch.setenv(PURE_PYTHON_ENV, "1")
        assert kernel_forced_pure()
        assert isinstance(Solver(), PySolver)
        assert active_kernel_name() == "python"
        monkeypatch.setenv(PURE_PYTHON_ENV, "0")
        assert not kernel_forced_pure()


@needs_kernel
class TestFuzzMatrix:
    @pytest.mark.parametrize("label,num_vars,clauses", INSTANCES)
    def test_identical_verdicts_models_and_counters(self, label, num_vars, clauses):
        pure, kern = _run_lockstep(PySolver(), CKernelSolver(), clauses)
        assert kern == pure, f"substrates diverged on {label}"
        if pure["status"] is True:
            assert model_satisfies(pure["model"], clauses)

    @pytest.mark.parametrize("label,num_vars,clauses", INSTANCES[:12])
    def test_identical_assumption_cores(self, label, num_vars, clauses):
        rng = deterministic_rng(f"assume-{label}")
        assumptions = [
            v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, num_vars + 1), 3)
        ]
        pure, kern = _run_lockstep(PySolver(), CKernelSolver(), clauses, assumptions)
        assert kern == pure, f"substrates diverged on {label} under assumptions"
        if pure["status"] is True:
            augmented = list(clauses) + [(lit,) for lit in assumptions]
            assert model_satisfies(pure["model"], augmented)

    def test_identical_incremental_trajectories(self):
        label, num_vars, clauses = INSTANCES[0]
        half = len(clauses) // 2
        pure, kern = PySolver(), CKernelSolver()
        first = _run_lockstep(pure, kern, clauses[:half])
        second = _run_lockstep(pure, kern, clauses[half:])
        assert first[1] == first[0]
        assert second[1] == second[0]

    @pytest.mark.parametrize("label,num_vars,clauses", INSTANCES[:12])
    def test_incremental_runs_under_changing_assumptions(self, label, num_vars, clauses):
        rng = deterministic_rng(f"incremental-{label}")
        pure, kern = PySolver(), CKernelSolver()
        quarter = len(clauses) // 4
        for start in range(0, 4 * quarter, quarter):
            assumptions = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, num_vars + 1), 2)
            ]
            batch = clauses[start : start + quarter]
            observed = _run_lockstep(pure, kern, batch, assumptions)
            assert observed[1] == observed[0], f"substrates diverged on {label}"


@needs_kernel
class TestOrderHeapMultiset:
    def test_conflict_free_resolves_share_counted_items(self):
        # Each assumption implies two variables and the last assumption
        # contradicts one of them, so every solve fails on an assumption
        # without a conflict and no activity moves.  The search stops
        # before the heap drains, and the backtrack pushes the same twelve
        # tuples again: the spec appends them, the kernel counts them.
        clauses = [(-a, b) for a in range(1, 9) for b in (a + 8, a + 16)]
        pure, kern = PySolver(), CKernelSolver()
        _run_lockstep(pure, kern, clauses)
        for _ in range(25):
            observed = _run_lockstep(pure, kern, (), [1, 3, 5, 7, -15])
            assert observed[1] == observed[0]
            assert observed[0]["core"] == (-15, 7)
        assert kern.conflicts == pure.conflicts == 0
        assert len(kern._order_heap_items) <= kern.num_vars
        assert len(pure._order_heap) > 4 * kern.num_vars


@needs_kernel
class TestBudgetsAndDeadlines:
    def _pigeonhole(self, holes):
        pigeons = holes + 1
        var = lambda p, h: p * holes + h + 1
        clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    clauses.append([-var(p1, h), -var(p2, h)])
        return clauses

    def test_conflict_budget_stops_both_substrates_at_the_same_point(self):
        clauses = self._pigeonhole(6)
        pure = _run(PySolver(), clauses, conflict_budget=5)
        kern = _run(CKernelSolver(), clauses, conflict_budget=5)
        assert pure["status"] is None
        assert kern == pure

    def test_expired_deadline_returns_unknown_on_both(self):
        clauses = [[1, 2], [-1, 2]]
        pure = _run(PySolver(), clauses, deadline=Deadline(0.0))
        kern = _run(CKernelSolver(), clauses, deadline=Deadline(0.0))
        assert pure["status"] is None
        assert kern == pure


@needs_kernel
class TestLbdReductionDifferential:
    @pytest.mark.parametrize("trial", range(6))
    def test_tiny_reduce_base_keeps_the_substrates_in_lockstep(self, trial):
        # A reduce base far below the default forces many reduction
        # rounds; any divergence in LBD scoring, the stable worst-first
        # sort, or locked/glue retention shows up as a counter mismatch.
        num_vars = 40 + 5 * trial
        clauses = random_3cnf(num_vars, int(num_vars * 4.3), f"lbd-diff-{trial}")
        pure, kern = PySolver(), CKernelSolver()
        pure._reduce_base = 30
        kern._reduce_base = 30
        assert kern._reduce_base == 30
        expected, observed = _run_lockstep(pure, kern, clauses)
        assert observed == expected


@needs_kernel
class TestActivityRescaleDifferential:
    @pytest.mark.parametrize("trial", range(4))
    def test_activity_rescales_keep_the_substrates_in_lockstep(self, trial):
        # Every round starts both substrates two orders of magnitude below
        # the 1e100 activity ceiling, so a few dozen conflicts rescale
        # every activity (and the increment) by 1e-100.  Any divergence in
        # the rescale or the heap order it feeds shows up as a mismatch.
        num_vars = 80
        clauses = random_3cnf(num_vars, int(num_vars * 4.2), f"rescale-diff-{trial}")
        rng = deterministic_rng(f"rescale-assumptions-{trial}")
        start, rounds = int(num_vars * 3.6), 4
        chunk = (len(clauses) - start) // rounds
        batches = [clauses[:start]] + [
            clauses[start + i * chunk : start + (i + 1) * chunk] for i in range(rounds)
        ]
        pure, kern = PySolver(), CKernelSolver()
        added = []
        rescaled_rounds = 0
        for batch in batches:
            added.extend(batch)
            pure._var_inc = kern._var_inc = 1e98
            assert kern._var_inc == 1e98
            assumptions = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, num_vars + 1), 3)
            ]
            expected, observed = _run_lockstep(pure, kern, batch, assumptions)
            assert observed == expected
            assert kern._var_inc == pure._var_inc
            if expected["status"] is True:
                augmented = added + [(lit,) for lit in assumptions]
                assert model_satisfies(expected["model"], augmented)
            # Without a rescale the increment only grows.
            rescaled_rounds += pure._var_inc < 1e98
        assert rescaled_rounds >= 2


FINGERPRINT_SCRIPT = """
import json

from repro.api import Budgets, DecompositionRequest, Session
from repro.circuits.generators import decomposable_by_construction

aig, *_ = decomposable_by_construction("or", 6, 6, 2, seed="kernel-diff")
report = Session().run(
    DecompositionRequest(
        circuit=aig,
        operator="or",
        engines=("STEP-MG", "STEP-QD"),
        budgets=Budgets(per_output=120.0),
    )
)
print(json.dumps({
    "kernel": report.schedule["solver_kernel"],
    "stats": report.schedule["solver_stats"],
    "fingerprint": report.fingerprint_hex(),
}))
"""


@needs_kernel
def test_engine_fingerprints_identical_across_substrates():
    """The tentpole acceptance check: kernel-on and kernel-off runs of the
    same schedule must produce bit-identical report fingerprints and
    identical aggregate solver statistics."""
    outputs = {}
    for substrate, forced in (("c", "0"), ("python", "1")):
        env = dict(os.environ)
        env[PURE_PYTHON_ENV] = forced
        env["PYTHONPATH"] = "src"
        proc = subprocess.run(
            [sys.executable, "-c", FINGERPRINT_SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        import json

        outputs[substrate] = json.loads(proc.stdout)
    assert outputs["c"]["kernel"] == "c"
    assert outputs["python"]["kernel"] == "python"
    assert outputs["c"]["stats"] == outputs["python"]["stats"]
    assert outputs["c"]["stats"]["propagations"] > 0
    assert outputs["c"]["fingerprint"] == outputs["python"]["fingerprint"]


# --------------------------------------------------------------------------
# The coarse boundary: bulk ingest, hygiene, model bytes, deadlines in C
# --------------------------------------------------------------------------


def _both():
    return PySolver(), CKernelSolver()


def _state(solver):
    return (
        solver.num_vars,
        solver.ok,
        solver.conflicts,
        solver.decisions,
        solver.propagations,
    )


def _ingest_corpus():
    """Fuzz instances plus the hygiene features a bulk ingest must mirror:
    duplicates, tautologies, level-0 units and a padded num_vars."""
    cases = []
    for label, num_vars, clauses in INSTANCES:
        cnf = CNF(num_vars + 3)
        cnf.add_clauses(clauses)
        cases.append((label, cnf))
    cnf = CNF(12)
    cnf.add_clauses(
        [(1, 1, 2), (3, -3), (-1,), (1, 4, 5), (5, -6, 5), (7, 8, -7), (-2, 9), (9, 10, 11)]
    )
    cases.append(("hygiene", cnf))
    cnf = CNF(4)
    cnf.add_clauses([(1,), (-1, 2), (-2,), (3, 4)])
    cases.append(("level0-conflict", cnf))
    return cases


INGEST = _ingest_corpus()


@needs_kernel
class TestBulkIngest:
    @pytest.mark.parametrize("label,cnf", INGEST, ids=[c[0] for c in INGEST])
    def test_add_cnf_matches_the_reference(self, label, cnf):
        pure, kern = _both()
        assert kern.add_cnf(cnf) == pure.add_cnf(cnf)
        assert _state(kern) == _state(pure)
        results = [solver.solve() for solver in (pure, kern)]
        assert _state(kern) == _state(pure)
        assert results[1] == results[0]
        assert kern.model() == pure.model()
        if results[0].status is True:
            assert model_satisfies(pure.model(), cnf.clauses)

    def test_bulk_and_per_clause_ingest_agree(self):
        label, num_vars, clauses = INSTANCES[3]
        cnf = CNF(num_vars)
        cnf.add_clauses(clauses)
        bulk, single = CKernelSolver(), CKernelSolver()
        cids = bulk.add_cnf(cnf)
        assert [single.add_clause(clause) for clause in clauses] == cids
        assert bulk.solve() == single.solve()
        assert _state(bulk) == _state(single)

    def test_work_counters_follow_level0_ingest(self):
        cnf = CNF()
        cnf.add_clauses([(-1, 2), (-2, 3), (-3, 4), (1,)])
        deltas = []
        for solver in _both():
            before = solver_work_snapshot()
            solver.add_cnf(cnf)
            deltas.append(tuple(b - a for a, b in zip(before, solver_work_snapshot())))
        assert deltas[0] == deltas[1] == (0, 0, 3)


class TestHygieneEdgeCases:
    """Run on both substrates (pure only when the kernel is absent)."""

    def _solvers(self):
        solvers = [PySolver()]
        if kernel_available():
            solvers.append(CKernelSolver())
        return solvers

    def test_tautology_grows_num_vars_to_the_scanned_literal(self):
        for solver in self._solvers():
            assert solver.add_clause([2, 5, -2, 9]) is None
            assert solver.num_vars == 5
            assert solver.add_clause([1]) == 0

    def test_duplicates_are_dropped(self):
        for solver in self._solvers():
            assert solver.add_clause([3, 3, -4, 3]) == 0
            assert solver.solve(assumptions=[-3]).status is True
            assert solver.model_value(-4) is True

    @pytest.mark.parametrize("bad", [0, True, False, "x", 1.5, None])
    def test_invalid_clause_literals_fail_identically(self, bad):
        errors = set()
        for solver in self._solvers():
            with pytest.raises(SolverError) as info:
                solver.add_clause([4, bad, 7])
            errors.add((type(info.value), str(info.value), solver.num_vars))
        assert errors == {(SolverError, f"invalid literal {bad!r}", 4)}

    @pytest.mark.parametrize("bad", [0, True, "x", 1.5, None])
    def test_invalid_assumptions_fail_identically(self, bad):
        errors = set()
        for solver in self._solvers():
            solver.add_clause([1, 2])
            with pytest.raises(SolverError) as info:
                solver.solve(assumptions=[6, bad])
            errors.add((type(info.value), str(info.value), solver.num_vars))
            assert solver.model() == {}
        assert errors == {(SolverError, f"invalid literal {bad!r}", 6)}

    def test_unsat_database_skips_assumption_validation(self):
        for solver in self._solvers():
            solver.add_clause([1])
            solver.add_clause([-1])
            assert solver.solve(assumptions=["x"]).status is False
            assert solver.num_vars == 1


@needs_kernel
class TestModelBytes:
    @pytest.mark.parametrize("label,num_vars,clauses", INSTANCES[:10])
    def test_values_model_and_model_value_identical(self, label, num_vars, clauses):
        pure, kern = _both()
        for solver in (pure, kern):
            solver.add_cnf(CNF(num_vars + 2, clauses))
        results = [solver.solve() for solver in (pure, kern)]
        assert results[1].values == results[0].values
        assert results[1].model == results[0].model
        assert kern.model() == pure.model()
        probes = list(range(-num_vars - 3, num_vars + 4))
        assert [kern.model_value(l) for l in probes] == [
            pure.model_value(l) for l in probes
        ]
        if results[0].status is True:
            assert isinstance(results[0].values, bytes)
            assert len(results[0].values) == num_vars + 3
            assert results[0].model == {
                v: results[0].values[v] == 1 for v in range(1, num_vars + 3)
            }
        else:
            assert results[0].values == b"" and results[0].model == {}


class _CountingDeadline:
    """Never expires; counts how often ``expired`` is read."""

    def __init__(self):
        self.reads = 0

    @property
    def expired(self):
        self.reads += 1
        return False


class _ScriptedDeadline:
    """``expired`` is False for the first ``quota`` reads, then True."""

    def __init__(self, quota):
        self.quota = quota
        self.reads = 0

    @property
    def expired(self):
        self.reads += 1
        self.quota -= 1
        return self.quota < 0


@needs_kernel
class TestDeadlineChecks:
    def _hard(self):
        return TestBudgetsAndDeadlines()._pigeonhole(5)

    def test_duck_typed_deadlines_are_read_at_the_same_points(self):
        counts = []
        for solver in _both():
            counter = _CountingDeadline()
            observation = _run(solver, self._hard(), deadline=counter)
            counts.append((counter.reads, observation))
        assert counts[1] == counts[0]
        assert counts[0][0] > 10

    @pytest.mark.parametrize("quota", [0, 1, 7, 40])
    def test_scripted_deadline_stops_both_at_the_same_read(self, quota):
        outcomes = []
        for solver in _both():
            deadline = _ScriptedDeadline(quota)
            observation = _run(solver, self._hard(), deadline=deadline)
            outcomes.append((deadline.reads, observation))
        assert outcomes[1] == outcomes[0]
        assert outcomes[0][1]["status"] is None
        assert outcomes[0][0] == quota + 1

    def test_real_deadlines_are_checked_in_the_kernel(self):
        clauses = self._hard()
        assert _run(CKernelSolver(), clauses, deadline=Deadline(None)) == _run(
            PySolver(), clauses
        )
        assert _run(CKernelSolver(), clauses, deadline=Deadline(600.0)) == _run(
            PySolver(), clauses
        )
        expired = Deadline(0.05)
        expired._start -= 1.0
        assert _run(CKernelSolver(), clauses, deadline=expired)["status"] is None
