"""Tests for the BDD manager."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.aig.function import BooleanFunction
from repro.bdd.bdd import BDD, FALSE_NODE, TRUE_NODE
from repro.errors import BddError


class TestBasics:
    def test_terminals(self):
        bdd = BDD()
        assert bdd.apply_and(TRUE_NODE, FALSE_NODE) == FALSE_NODE
        assert bdd.apply_or(TRUE_NODE, FALSE_NODE) == TRUE_NODE
        assert bdd.apply_not(TRUE_NODE) == FALSE_NODE

    def test_variable_nodes_are_shared(self):
        bdd = BDD(["x"])
        assert bdd.var("x") == bdd.var("x")

    def test_duplicate_variable_rejected(self):
        bdd = BDD(["x"])
        with pytest.raises(BddError):
            bdd.add_var("x")

    def test_unknown_variable_rejected(self):
        with pytest.raises(BddError):
            BDD().var("x")

    def test_reduction_no_redundant_nodes(self):
        bdd = BDD(["x", "y"])
        x = bdd.var("x")
        # x AND (y OR NOT y) reduces to x.
        y = bdd.var("y")
        assert bdd.apply_and(x, bdd.apply_or(y, bdd.apply_not(y))) == x

    def test_idempotent_operations(self):
        bdd = BDD(["x", "y"])
        x, y = bdd.var("x"), bdd.var("y")
        f = bdd.apply_and(x, y)
        assert bdd.apply_and(f, f) == f
        assert bdd.apply_or(f, f) == f
        assert bdd.apply_xor(f, f) == FALSE_NODE


class TestSemantics:
    def _eval_all(self, bdd, node, names):
        values = {}
        for pattern in range(1 << len(names)):
            assignment = {n: bool((pattern >> i) & 1) for i, n in enumerate(names)}
            values[pattern] = bdd.evaluate(node, assignment)
        return values

    def test_and_or_xor_tables(self):
        bdd = BDD(["a", "b"])
        a, b = bdd.var("a"), bdd.var("b")
        assert self._eval_all(bdd, bdd.apply_and(a, b), ["a", "b"]) == {
            0: False, 1: False, 2: False, 3: True
        }
        assert self._eval_all(bdd, bdd.apply_or(a, b), ["a", "b"]) == {
            0: False, 1: True, 2: True, 3: True
        }
        assert self._eval_all(bdd, bdd.apply_xor(a, b), ["a", "b"]) == {
            0: False, 1: True, 2: True, 3: False
        }

    def test_ite(self):
        bdd = BDD(["s", "t", "e"])
        node = bdd.ite(bdd.var("s"), bdd.var("t"), bdd.var("e"))
        for pattern in range(8):
            assignment = {
                "s": bool(pattern & 1),
                "t": bool(pattern & 2),
                "e": bool(pattern & 4),
            }
            expected = assignment["t"] if assignment["s"] else assignment["e"]
            assert bdd.evaluate(node, assignment) == expected

    def test_implies_check(self):
        bdd = BDD(["a", "b"])
        a, b = bdd.var("a"), bdd.var("b")
        assert bdd.implies(bdd.apply_and(a, b), a)
        assert not bdd.implies(a, bdd.apply_and(a, b))

    def test_restrict(self):
        bdd = BDD(["a", "b"])
        a, b = bdd.var("a"), bdd.var("b")
        f = bdd.apply_xor(a, b)
        assert bdd.restrict(f, "a", True) == bdd.apply_not(b)
        assert bdd.restrict(f, "a", False) == b

    def test_quantification(self):
        bdd = BDD(["a", "b"])
        a, b = bdd.var("a"), bdd.var("b")
        f = bdd.apply_and(a, b)
        assert bdd.exists(f, ["a"]) == b
        assert bdd.forall(f, ["a"]) == FALSE_NODE
        g = bdd.apply_or(a, b)
        assert bdd.forall(g, ["a"]) == b

    def test_support(self):
        bdd = BDD(["a", "b", "c"])
        f = bdd.apply_and(bdd.var("a"), bdd.var("c"))
        assert bdd.support(f) == ["a", "c"]


class TestConversions:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**16 - 1))
    def test_from_function_matches_truth_table(self, table):
        function = BooleanFunction.from_truth_table(table, 4)
        bdd = BDD()
        node = bdd.from_function(function)
        for pattern in range(16):
            assignment = {
                name: bool((pattern >> i) & 1)
                for i, name in enumerate(function.input_names)
            }
            assert bdd.evaluate(node, assignment) == bool((table >> pattern) & 1)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**16 - 1))
    def test_roundtrip_through_function(self, table):
        function = BooleanFunction.from_truth_table(table, 4)
        bdd = BDD()
        node = bdd.from_function(function)
        back = bdd.to_function(node, function.input_names)
        assert back.semantically_equal(function)

    def test_to_function_missing_support_rejected(self):
        bdd = BDD(["a", "b"])
        f = bdd.apply_and(bdd.var("a"), bdd.var("b"))
        with pytest.raises(BddError):
            bdd.to_function(f, ["a"])
