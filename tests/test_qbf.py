"""Tests for the CEGAR 2QBF solver."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.aig.aig import AIG
from repro.aig.function import BooleanFunction
from repro.errors import SolverError
from repro.qbf.cegar import CegarTwoQbfSolver
from repro.sat.cnf import CNF


def _matrix_function(builder, exist_names, universal_names):
    """Build an AIG matrix over named inputs using a lambda of literals."""
    aig = AIG("matrix")
    lits = {name: aig.add_input(name) for name in exist_names + universal_names}
    root = builder(aig, lits)
    aig.add_output("m", root)
    return BooleanFunction(aig, root, [aig.input_by_name(n) for n in exist_names + universal_names])


class TestCegarTwoQbf:
    def test_simple_true_formula(self):
        # exists e forall u . (e OR u) AND (e OR NOT u)  ==> e must be 1.
        matrix = _matrix_function(
            lambda aig, lits: aig.add_and(
                aig.lor(lits["e"], lits["u"]), aig.lor(lits["e"], lits["u"] ^ 1)
            ),
            ["e"],
            ["u"],
        )
        solver = CegarTwoQbfSolver(matrix, ["e"], ["u"])
        result = solver.solve()
        assert result.status is True
        assert result.model["e"] is True

    def test_simple_false_formula(self):
        # exists e forall u . (e XOR u) is false.
        matrix = _matrix_function(
            lambda aig, lits: aig.lxor(lits["e"], lits["u"]), ["e"], ["u"]
        )
        result = CegarTwoQbfSolver(matrix, ["e"], ["u"]).solve()
        assert result.status is False

    def test_two_existentials(self):
        # exists e1 e2 forall u . (e1 AND e2) OR (u AND NOT u) -> needs e1=e2=1.
        matrix = _matrix_function(
            lambda aig, lits: aig.add_and(lits["e1"], lits["e2"]), ["e1", "e2"], ["u"]
        )
        result = CegarTwoQbfSolver(matrix, ["e1", "e2"], ["u"]).solve()
        assert result.status is True
        assert result.model == {"e1": True, "e2": True}

    def test_add_exist_cnf(self):
        matrix = _matrix_function(
            lambda aig, lits: aig.lor(lits["e1"], lits["e2"]), ["e1", "e2"], ["u"]
        )
        solver = CegarTwoQbfSolver(matrix, ["e1", "e2"], ["u"])
        side = CNF()
        v1, v2 = side.new_vars(2)
        side.add_clause([-v1])
        side.add_clause([-v2])
        solver.add_exist_cnf(side, {"e1": v1, "e2": v2})
        result = solver.solve()
        assert result.status is False

    def test_unquantified_input_rejected(self):
        matrix = _matrix_function(lambda aig, lits: lits["e"], ["e"], ["u"])
        with pytest.raises(SolverError):
            CegarTwoQbfSolver(matrix, ["e"], [])

    def test_iteration_budget(self):
        matrix = _matrix_function(
            lambda aig, lits: aig.lxor(lits["e"], lits["u"]), ["e"], ["u"]
        )
        result = CegarTwoQbfSolver(matrix, ["e"], ["u"]).solve(max_iterations=1)
        # One iteration is not enough to refute; the result is unknown.
        assert result.status is None or result.status is False

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**16 - 1))
    def test_agrees_with_expansion_solver(self, table):
        """Random 4-variable matrices: exists x0 x1 forall x2 x3 . f."""
        function = BooleanFunction.from_truth_table(table, 4)
        names = function.input_names
        cegar = CegarTwoQbfSolver(function, names[:2], names[2:]).solve()

        # Reference answer by explicit enumeration of the truth table.
        expected = False
        for e_bits in range(4):
            holds = True
            for u_bits in range(4):
                pattern = (e_bits & 1) | ((e_bits >> 1) & 1) << 1 | (u_bits & 1) << 2 | (
                    (u_bits >> 1) & 1
                ) << 3
                if not (table >> pattern) & 1:
                    holds = False
                    break
            if holds:
                expected = True
                break
        assert cegar.status is expected
