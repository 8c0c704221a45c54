"""Tests for the gate-level Tseitin encoders (checked against truth tables)."""

from itertools import product

from repro.sat.cnf import CNF
from repro.sat.solver import Solver
from repro.sat.tseitin import encode_relaxed_equiv, encode_xor


def _consistent_assignments(cnf, variables):
    """All total assignments to ``variables`` satisfying ``cnf`` (brute force)."""
    result = []
    for bits in product([False, True], repeat=len(variables)):
        assignment = dict(zip(variables, bits))
        full = {v: assignment.get(v, False) for v in range(1, cnf.num_vars + 1)}
        # Auxiliary variables beyond ``variables`` do not exist for these
        # encoders, so evaluation over ``variables`` is total.
        if cnf.evaluate(full):
            result.append(assignment)
    return result


class TestXorEquiv:
    def test_xor(self):
        cnf = CNF()
        a, b, out = cnf.new_vars(3)
        encode_xor(cnf, out, a, b)
        for assignment in _consistent_assignments(cnf, [a, b, out]):
            assert assignment[out] == (assignment[a] != assignment[b])


class TestRelaxedEquiv:
    def test_equality_enforced_when_control_false(self):
        cnf = CNF()
        a, b, relax = cnf.new_vars(3)
        encode_relaxed_equiv(cnf, a, b, relax)
        for assignment in _consistent_assignments(cnf, [a, b, relax]):
            if not assignment[relax]:
                assert assignment[a] == assignment[b]

    def test_relaxed_when_control_true(self):
        cnf = CNF()
        a, b, relax = cnf.new_vars(3)
        encode_relaxed_equiv(cnf, a, b, relax)
        solver = Solver()
        solver.add_cnf(cnf)
        assert solver.solve(assumptions=[relax, a, -b]).status is True
        assert solver.solve(assumptions=[-relax, a, -b]).status is False
