"""Tests for the cardinality-constraint encodings.

Each encoding is checked exhaustively for small sizes: the CNF must accept
exactly the assignments whose true-literal count respects the bound.
"""

from itertools import product

import pytest

from repro.errors import CnfError
from repro.sat.cardinality import (
    at_least_one,
    at_most_k,
    at_most_one,
    totalizer_outputs,
)
from repro.sat.cnf import CNF
from repro.sat.solver import Solver


def _accepted_counts(build, n):
    """Which true-counts admit a satisfying extension of the encoding."""
    cnf = CNF()
    lits = cnf.new_vars(n)
    build(cnf, lits)
    accepted = set()
    for bits in product([False, True], repeat=n):
        solver = Solver()
        solver.add_cnf(cnf)
        assumptions = [l if v else -l for l, v in zip(lits, bits)]
        if solver.solve(assumptions=assumptions).status:
            accepted.add(sum(bits))
    return accepted


class TestAtLeastOne:
    def test_accepts_counts_ge_one(self):
        accepted = _accepted_counts(lambda cnf, lits: at_least_one(cnf, lits), 3)
        assert accepted == {1, 2, 3}

    def test_empty_set_rejected(self):
        with pytest.raises(CnfError):
            at_least_one(CNF(), [])


class TestAtMostOne:
    def test_accepts_counts_le_one(self):
        accepted = _accepted_counts(lambda cnf, lits: at_most_one(cnf, lits), 4)
        assert accepted == {0, 1}

    def test_single_literal_unconstrained(self):
        accepted = _accepted_counts(lambda cnf, lits: at_most_one(cnf, lits), 1)
        assert accepted == {0, 1}


class TestAtMostK:
    @pytest.mark.parametrize("encoding", ["seqcounter", "totalizer"])
    @pytest.mark.parametrize("n,k", [(3, 0), (3, 1), (4, 2), (5, 3), (4, 4)])
    def test_exact_semantics(self, encoding, n, k):
        accepted = _accepted_counts(
            lambda cnf, lits: at_most_k(cnf, lits, k, encoding=encoding), n
        )
        assert accepted == set(range(0, min(k, n) + 1))

    def test_negative_bound_unsatisfiable(self):
        cnf = CNF()
        lits = cnf.new_vars(2)
        at_most_k(cnf, lits, -1)
        solver = Solver()
        solver.add_cnf(cnf)
        assert solver.solve().status is False

    def test_bound_larger_than_set_is_noop(self):
        cnf = CNF()
        lits = cnf.new_vars(2)
        at_most_k(cnf, lits, 5)
        assert len(cnf) == 0

    def test_unknown_encoding_rejected(self):
        cnf = CNF()
        lits = cnf.new_vars(3)
        with pytest.raises(CnfError):
            at_most_k(cnf, lits, 1, encoding="magic")

    def test_pairwise_alias(self):
        accepted = _accepted_counts(
            lambda cnf, lits: at_most_k(cnf, lits, 1, encoding="pairwise"), 3
        )
        assert accepted == {0, 1}


class TestTotalizerOutputs:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_outputs_are_exact_unary_counts(self, n):
        cnf = CNF()
        lits = cnf.new_vars(n)
        outputs = totalizer_outputs(cnf, lits)
        assert len(outputs) == n
        for bits in product([False, True], repeat=n):
            count = sum(bits)
            assumptions = [l if v else -l for l, v in zip(lits, bits)]
            for index, out in enumerate(outputs):
                expected = count >= index + 1
                solver = Solver()
                solver.add_cnf(cnf)
                wrong = -out if expected else out
                assert solver.solve(assumptions=assumptions + [wrong]).status is False

    def test_empty_input(self):
        assert totalizer_outputs(CNF(), []) == []
