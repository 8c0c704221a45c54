"""Tests for the CNF container."""

import pytest

from repro.errors import CnfError
from repro.sat.cnf import CNF, check_literal


class TestCheckLiteral:
    def test_positive_literal_ok(self):
        assert check_literal(3) == 3

    def test_negative_literal_ok(self):
        assert check_literal(-7) == -7

    def test_zero_rejected(self):
        with pytest.raises(CnfError):
            check_literal(0)

    def test_bool_rejected(self):
        with pytest.raises(CnfError):
            check_literal(True)

    def test_non_int_rejected(self):
        with pytest.raises(CnfError):
            check_literal("x")


class TestCnfConstruction:
    def test_new_var_increments(self):
        cnf = CNF()
        assert cnf.new_var() == 1
        assert cnf.new_var() == 2
        assert cnf.num_vars == 2

    def test_new_vars_bulk(self):
        cnf = CNF()
        assert cnf.new_vars(3) == [1, 2, 3]

    def test_new_vars_negative_count(self):
        with pytest.raises(CnfError):
            CNF().new_vars(-1)

    def test_add_clause_grows_num_vars(self):
        cnf = CNF()
        cnf.add_clause([5, -2])
        assert cnf.num_vars == 5
        assert len(cnf) == 1

    def test_add_unit(self):
        cnf = CNF()
        cnf.add_unit(-4)
        assert cnf.clauses == [(-4,)]

    def test_add_clauses(self):
        cnf = CNF()
        cnf.add_clauses([[1], [2, 3]])
        assert len(cnf) == 2

    def test_constructor_with_clauses(self):
        cnf = CNF(clauses=[[1, 2], [-1]])
        assert len(cnf) == 2
        assert cnf.num_vars == 2

    def test_negative_num_vars_rejected(self):
        with pytest.raises(CnfError):
            CNF(num_vars=-1)

    def test_zero_literal_rejected(self):
        with pytest.raises(CnfError):
            CNF().add_clause([1, 0])

    def test_extend_shares_variables(self):
        a = CNF(clauses=[[1, 2]])
        b = CNF(clauses=[[3]])
        a.extend(b)
        assert len(a) == 2
        assert a.num_vars == 3

    def test_copy_is_independent(self):
        a = CNF(clauses=[[1]])
        b = a.copy()
        b.add_clause([2])
        assert len(a) == 1
        assert len(b) == 2

    def test_variables(self):
        cnf = CNF(clauses=[[1, -3], [5]])
        assert cnf.variables() == {1, 3, 5}

    def test_iteration(self):
        cnf = CNF(clauses=[[1], [2]])
        assert list(cnf) == [(1,), (2,)]


class TestEvaluate:
    def test_satisfied(self):
        cnf = CNF(clauses=[[1, 2], [-1, 2]])
        assert cnf.evaluate({1: False, 2: True})

    def test_falsified(self):
        cnf = CNF(clauses=[[1], [-1]])
        assert not cnf.evaluate({1: True})
