"""Tests for the CDCL SAT solver."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SolverError
from repro.sat.cnf import CNF
from repro.sat.solver import (
    GLUE_LBD,
    PySolver,
    Solver,
    SolveResult,
    _Clause,
    _luby,
)
from repro.utils.timer import Deadline

from tests.reference import brute_force_sat


def _solve(clauses, assumptions=()):
    solver = Solver()
    for clause in clauses:
        solver.add_clause(clause)
    return solver, solver.solve(assumptions=assumptions)


class TestBasicSolving:
    def test_empty_formula_is_sat(self):
        _, result = _solve([])
        assert result.status is True

    def test_single_unit(self):
        solver, result = _solve([[1]])
        assert result.status is True
        assert result.model[1] is True

    def test_contradictory_units(self):
        _, result = _solve([[1], [-1]])
        assert result.status is False

    def test_simple_implication_chain(self):
        solver, result = _solve([[-1, 2], [-2, 3], [1]])
        assert result.status is True
        assert result.model[3] is True

    def test_unsat_triangle(self):
        _, result = _solve([[1, 2], [1, -2], [-1, 2], [-1, -2]])
        assert result.status is False

    def test_model_satisfies_formula(self):
        clauses = [[1, 2, 3], [-1, -2], [-2, -3], [-1, -3], [2, 3]]
        solver, result = _solve(clauses)
        assert result.status is True
        cnf = CNF(clauses=clauses)
        assert cnf.evaluate({v: result.model.get(v, False) for v in range(1, 4)})

    def test_tautological_clause_ignored(self):
        solver = Solver()
        assert solver.add_clause([1, -1]) is None
        assert solver.solve().status is True

    def test_duplicate_literals_collapse(self):
        solver, result = _solve([[1, 1, 1]])
        assert result.status is True
        assert result.model[1] is True

    def test_invalid_literal_rejected(self):
        with pytest.raises(SolverError):
            Solver().add_clause([0])

    def test_solver_state_after_unsat_stays_unsat(self):
        solver, result = _solve([[1], [-1]])
        assert result.status is False
        assert solver.solve().status is False
        assert solver.ok is False

    def test_empty_clause_makes_unsat(self):
        solver = Solver()
        solver.add_clause([])
        assert solver.solve().status is False

    def test_solve_cnf_helper(self):
        solver = Solver()
        solver.add_cnf(CNF(clauses=[[1, 2], [-1]]))
        result = solver.solve()
        assert result.status is True
        assert result.model[2] is True

    def test_result_is_truthy_only_when_sat(self):
        assert bool(SolveResult(status=True)) is True
        assert bool(SolveResult(status=False)) is False
        assert bool(SolveResult(status=None)) is False


class TestPigeonhole:
    def _pigeonhole(self, holes):
        """PHP(holes+1, holes): unsatisfiable, forces real conflict analysis."""
        pigeons = holes + 1
        var = lambda p, h: p * holes + h + 1
        clauses = []
        for p in range(pigeons):
            clauses.append([var(p, h) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    clauses.append([-var(p1, h), -var(p2, h)])
        return clauses

    @pytest.mark.parametrize("holes", [2, 3, 4])
    def test_pigeonhole_unsat(self, holes):
        _, result = _solve(self._pigeonhole(holes))
        assert result.status is False

    def test_satisfiable_when_equal(self):
        # n pigeons into n holes is satisfiable (drop one pigeon's clauses).
        clauses = self._pigeonhole(3)
        # Remove the at-least-one clause of the last pigeon.
        clauses = [c for c in clauses if c != [10, 11, 12]]
        _, result = _solve(clauses)
        assert result.status is True


class TestAssumptions:
    def test_assumption_forces_value(self):
        solver, result = _solve([[1, 2]], assumptions=[-1])
        assert result.status is True
        assert result.model[2] is True

    def test_conflicting_assumptions_give_core(self):
        solver = Solver()
        solver.add_clause([-1, -2])
        result = solver.solve(assumptions=[1, 2])
        assert result.status is False
        assert set(result.core) <= {1, 2}
        assert len(result.core) >= 1

    def test_core_is_sufficient(self):
        solver = Solver()
        solver.add_clause([-1, 2])
        solver.add_clause([-2, 3])
        solver.add_clause([-3, -1])
        result = solver.solve(assumptions=[1, 4, 5])
        assert result.status is False
        assert 1 in result.core
        assert 4 not in result.core and 5 not in result.core

    def test_incremental_reuse(self):
        solver = Solver()
        solver.add_clause([1, 2])
        assert solver.solve(assumptions=[-1]).status is True
        assert solver.solve(assumptions=[-2]).status is True
        assert solver.solve(assumptions=[-1, -2]).status is False
        assert solver.solve().status is True

    def test_adding_clauses_between_solves(self):
        solver = Solver()
        solver.add_clause([1, 2])
        assert solver.solve().status is True
        solver.add_clause([-1])
        solver.add_clause([-2])
        assert solver.solve().status is False

    def test_assumption_zero_rejected(self):
        solver = Solver()
        solver.add_clause([1])
        with pytest.raises(SolverError):
            solver.solve(assumptions=[0])

    def test_model_value_helper(self):
        solver = Solver()
        solver.add_clause([1])
        solver.add_clause([-2])
        assert solver.solve().status is True
        assert solver.model_value(1) is True
        assert solver.model_value(-1) is False
        assert solver.model_value(2) is False


class TestBudgets:
    def test_conflict_budget_returns_unknown(self):
        # A hard pigeonhole instance with a tiny conflict budget.
        solver = Solver()
        holes = 6
        pigeons = holes + 1
        var = lambda p, h: p * holes + h + 1
        for p in range(pigeons):
            solver.add_clause([var(p, h) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    solver.add_clause([-var(p1, h), -var(p2, h)])
        result = solver.solve(conflict_budget=5)
        assert result.status is None

    def test_expired_deadline_returns_unknown(self):
        solver = Solver()
        solver.add_clause([1, 2])
        solver.add_clause([-1, 2])
        result = solver.solve(deadline=Deadline(0.0))
        assert result.status is None


class TestLuby:
    def test_prefix(self):
        assert [_luby(i) for i in range(15)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


class TestRandomAgainstBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_3sat_matches_brute_force(self, data):
        num_vars = data.draw(st.integers(min_value=1, max_value=6))
        num_clauses = data.draw(st.integers(min_value=1, max_value=20))
        clauses = []
        for _ in range(num_clauses):
            width = data.draw(st.integers(min_value=1, max_value=3))
            clause = [
                data.draw(st.integers(min_value=1, max_value=num_vars))
                * data.draw(st.sampled_from([1, -1]))
                for _ in range(width)
            ]
            clauses.append(clause)
        expected = brute_force_sat(clauses, num_vars)
        solver = Solver()
        for clause in clauses:
            solver.add_clause(clause)
        result = solver.solve()
        assert result.status is (expected is not None)
        if result.status:
            cnf = CNF(clauses=clauses)
            model = {v: result.model.get(v, False) for v in range(1, num_vars + 1)}
            assert cnf.evaluate(model)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_assumption_core_reproduces_unsat(self, data):
        num_vars = data.draw(st.integers(min_value=2, max_value=5))
        num_clauses = data.draw(st.integers(min_value=2, max_value=12))
        clauses = []
        for _ in range(num_clauses):
            clause = [
                data.draw(st.integers(min_value=1, max_value=num_vars))
                * data.draw(st.sampled_from([1, -1]))
                for _ in range(data.draw(st.integers(min_value=1, max_value=3)))
            ]
            clauses.append(clause)
        assumptions = [
            v * data.draw(st.sampled_from([1, -1])) for v in range(1, num_vars + 1)
        ]
        solver = Solver()
        for clause in clauses:
            solver.add_clause(clause)
        result = solver.solve(assumptions=assumptions)
        if result.status is False:
            # The reported core must itself be unsatisfiable with the clauses.
            units = [[lit] for lit in result.core]
            assert brute_force_sat(clauses + units, num_vars) is None


class TestPropagationCounting:
    def test_propagations_count_enqueues_not_dequeues(self):
        """``propagations`` counts *derived* assignments (enqueues by unit
        propagation), never the root units or decisions themselves."""
        solver = Solver()
        solver.add_clause([-1, 2])
        solver.add_clause([-2, 3])
        assert solver.propagations == 0
        # The level-0 unit enqueues 1 (a root fact, not counted) and
        # propagation then derives 2 and 3 (counted).
        solver.add_clause([1])
        assert solver.propagations == 2
        result = solver.solve()
        assert result.status is True
        assert result.propagations == solver.propagations == 2

    def test_result_carries_the_work_counters(self):
        solver = Solver()
        solver.add_clause([1, 2])
        solver.add_clause([-1, 2])
        result = solver.solve()
        assert result.status is True
        assert result.conflicts == solver.conflicts
        assert result.decisions == solver.decisions >= 1
        assert result.propagations == solver.propagations


class TestLbdReduction:
    """Unit tests for :meth:`PySolver._reduce_db` retention policy."""

    def _learned(self, solver, variables, lbd, cid):
        clause = _Clause([2 * v for v in variables], learned=True, cid=cid)
        clause.lbd = lbd
        solver._learnts.append(clause)
        return clause

    def test_glue_survives_and_locked_is_never_dropped(self):
        solver = PySolver()
        solver._ensure_var(8)
        # Six droppable clauses with distinct LBDs (3..8) and four glue
        # clauses.  Worst-first ordering puts the high-LBD clauses in the
        # discarded half; the highest-LBD one is pinned as a reason.
        droppable = [
            self._learned(solver, (1, 2, 3), lbd=3 + i, cid=100 + i)
            for i in range(6)
        ]
        glue = [
            self._learned(solver, (4, 5, 6), lbd=GLUE_LBD, cid=200 + i)
            for i in range(4)
        ]
        locked = droppable[-1]  # lbd 8: sorts into the worst half
        solver._reason[3] = locked
        solver._reduce_db()
        assert all(clause.lits is not None for clause in glue)
        assert locked.lits is not None
        assert locked.locked is False  # the lock is scoped to the reduction
        dead = [clause for clause in droppable if clause.lits is None]
        assert dead, "reduction dropped nothing"
        assert locked not in dead
        assert all(clause.lbd > GLUE_LBD for clause in dead)
        # The survivor list is compacted; dead clauses are only marked
        # (lits=None) and left for lazy watcher cleanup.
        assert len(solver._learnts) == 10 - len(dead)
        assert all(clause.lits is not None for clause in solver._learnts)

    def test_binary_learned_clauses_survive(self):
        solver = PySolver()
        solver._ensure_var(6)
        binary = [
            self._learned(solver, (1, 2), lbd=5, cid=300 + i) for i in range(4)
        ]
        for i in range(4):
            self._learned(solver, (3, 4, 5), lbd=4, cid=400 + i)
        solver._reduce_db()
        assert all(clause.lits is not None for clause in binary)

    def test_lazy_cleanup_reaps_dead_clauses_during_propagation(self):
        solver = PySolver()
        solver.add_clause([1, 2, 3])
        solver.add_clause([1, 2, -3])
        target = solver._clauses[0]
        watch_lists = [
            watch for watch in solver._watches if target in watch
        ]
        assert watch_lists
        target.lits = None  # simulate a reduction marking it dead
        solver.add_clause([-1])
        solver.add_clause([-2])  # forces propagation past the dead clause
        assert all(target not in watch for watch in solver._watches)
