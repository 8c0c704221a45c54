"""Tests for BooleanFunction (evaluation, cofactors, quantification, CNF)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.aig.aig import AIG, FALSE_LIT, TRUE_LIT
from repro.aig.function import BooleanFunction
from repro.errors import AigError

from tests.reference import cofactor_table
from tests.test_aig import aig_recipes, build_aig


def _xor3():
    aig = AIG()
    a, b, c = (aig.add_input(n) for n in "abc")
    root = aig.lxor(aig.lxor(a, b), c)
    aig.add_output("f", root)
    return BooleanFunction.from_output(aig, "f")


def _majority3():
    aig = AIG()
    a, b, c = (aig.add_input(n) for n in "abc")
    root = aig.lor(aig.lor(aig.add_and(a, b), aig.add_and(a, c)), aig.add_and(b, c))
    aig.add_output("maj", root)
    return BooleanFunction.from_output(aig, "maj")


class TestConstruction:
    def test_from_output_by_name_and_index(self):
        f = _xor3()
        g = BooleanFunction.from_output(f.aig, 0)
        assert g.truth_table() == f.truth_table()

    def test_unknown_output_rejected(self):
        f = _xor3()
        with pytest.raises(AigError):
            BooleanFunction.from_output(f.aig, "nope")

    def test_inputs_must_cover_cone(self):
        aig = AIG()
        a, b = aig.add_input("a"), aig.add_input("b")
        g = aig.add_and(a, b)
        with pytest.raises(AigError):
            BooleanFunction(aig, g, [aig.input_by_name("a")])

    def test_constant_functions(self):
        assert BooleanFunction.constant(True).truth_table() == 1
        assert BooleanFunction.constant(False).truth_table() == 0

    def test_from_truth_table_roundtrip(self):
        table = 0b01101001  # 3-input XNOR-ish pattern
        f = BooleanFunction.from_truth_table(table, 3)
        assert f.truth_table() == table

    def test_from_truth_table_input_names(self):
        f = BooleanFunction.from_truth_table(0b0110, 2, input_names=["p", "q"])
        assert f.input_names == ["p", "q"]

    def test_from_truth_table_validation(self):
        with pytest.raises(AigError):
            BooleanFunction.from_truth_table(1 << 20, 2)
        with pytest.raises(AigError):
            BooleanFunction.from_truth_table(0, 2, input_names=["onlyone"])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**16 - 1))
    def test_from_truth_table_is_exact(self, table):
        f = BooleanFunction.from_truth_table(table, 4)
        assert f.truth_table() == table


class TestEvaluation:
    def test_positional_evaluation(self):
        f = _xor3()
        assert f.evaluate([True, False, False]) is True
        assert f.evaluate([True, True, False]) is False

    def test_named_evaluation(self):
        f = _xor3()
        assert f.evaluate({"a": True, "b": True, "c": True}) is True

    def test_wrong_arity_rejected(self):
        with pytest.raises(AigError):
            _xor3().evaluate([True])

    def test_truth_table_and_minterms(self):
        maj = _majority3()
        assert maj.truth_table() == 0b11101000
        assert maj.count_minterms() == 4

    def test_support_names(self):
        assert _majority3().support_names() == ["a", "b", "c"]


class TestCofactorsAndQuantification:
    def test_cofactor_values(self):
        maj = _majority3()
        pos = maj.cofactor("a", True)
        neg = maj.cofactor("a", False)
        # maj(1,b,c) = b OR c; maj(0,b,c) = b AND c
        assert pos.truth_table() == 0b1110
        assert neg.truth_table() == 0b1000

    def test_cofactor_removes_input(self):
        f = _xor3().cofactor("b", True)
        assert f.input_names == ["a", "c"]

    def test_exists_and_forall(self):
        maj = _majority3()
        exists_a = maj.exists(["a"])
        forall_a = maj.forall(["a"])
        assert exists_a.truth_table() == 0b1110  # b OR c
        assert forall_a.truth_table() == 0b1000  # b AND c

    def test_quantify_all_gives_constant(self):
        maj = _majority3()
        assert maj.exists(["a", "b", "c"]).truth_table() == 1
        assert maj.forall(["a", "b", "c"]).truth_table() == 0

    def test_negate(self):
        f = _xor3()
        assert f.negate().truth_table() == (~f.truth_table()) & 0xFF

    def test_restrict_inputs_superset(self):
        aig = AIG()
        a, b, c = (aig.add_input(n) for n in "abc")
        g = aig.add_and(a, b)
        f = BooleanFunction(aig, g, [aig.input_by_name(n) for n in "ab"])
        widened = f.restrict_inputs(["a", "b", "c"])
        assert widened.num_inputs == 3


class TestCombination:
    def test_combine_or(self):
        f = _xor3()
        g = _majority3()
        combined = f.combine(g, "or")
        for pattern in range(8):
            values = {"a": bool(pattern & 1), "b": bool(pattern & 2), "c": bool(pattern & 4)}
            assert combined.evaluate(values) == (f.evaluate(values) or g.evaluate(values))

    def test_combine_and_xor(self):
        f = _xor3()
        g = _majority3()
        for op, fn in [("and", lambda x, y: x and y), ("xor", lambda x, y: x != y)]:
            combined = f.combine(g, op)
            for pattern in range(8):
                values = {
                    "a": bool(pattern & 1),
                    "b": bool(pattern & 2),
                    "c": bool(pattern & 4),
                }
                assert combined.evaluate(values) == fn(f.evaluate(values), g.evaluate(values))

    def test_combine_disjoint_inputs(self):
        f = BooleanFunction.from_truth_table(0b0110, 2, input_names=["x", "y"])
        g = BooleanFunction.from_truth_table(0b1000, 2, input_names=["u", "v"])
        combined = f.combine(g, "or")
        assert set(combined.input_names) == {"x", "y", "u", "v"}

    def test_combine_unknown_operator(self):
        with pytest.raises(AigError):
            _xor3().combine(_majority3(), "nand")


class TestEquality:
    def test_semantically_equal_same_structure(self):
        assert _xor3().semantically_equal(_xor3())

    def test_semantically_equal_different_structure(self):
        aig = AIG()
        a, b, c = (aig.add_input(n) for n in "abc")
        # (a XOR b) XOR c written as c XOR (b XOR a)
        root = aig.lxor(c, aig.lxor(b, a))
        aig.add_output("g", root)
        g = BooleanFunction.from_output(aig, "g")
        assert _xor3().semantically_equal(g)

    def test_not_equal(self):
        assert not _xor3().semantically_equal(_majority3())

    def test_equal_with_extra_irrelevant_input(self):
        aig = AIG()
        a, b, c, d = (aig.add_input(n) for n in "abcd")
        root = aig.lxor(aig.lxor(a, b), c)
        aig.add_output("f", root)
        g = BooleanFunction(aig, root, [aig.input_by_name(n) for n in "abcd"])
        assert _xor3().semantically_equal(g)


class TestCnfExport:
    def test_to_cnf_respects_given_input_vars(self):
        from repro.sat.cnf import CNF
        from repro.sat.solver import Solver

        f = _majority3()
        cnf = CNF()
        name_vars = {name: cnf.new_var() for name in f.input_names}
        mapping = f.to_cnf(
            cnf, input_vars={f.aig.input_by_name(n): v for n, v in name_vars.items()}
        )
        solver = Solver()
        solver.add_cnf(cnf)
        for pattern in range(8):
            values = {"a": bool(pattern & 1), "b": bool(pattern & 2), "c": bool(pattern & 4)}
            expected = f.evaluate(values)
            assumptions = [
                name_vars[n] if values[n] else -name_vars[n] for n in f.input_names
            ]
            assumptions.append(mapping.output_literal if expected else -mapping.output_literal)
            assert solver.solve(assumptions=assumptions).status is True


def _node_table(aig):
    return [
        aig.fanins(index) if aig.is_and(index) else aig.node_kind(index)
        for index in range(aig.num_nodes)
    ]


class TestCofactorProperties:
    @settings(max_examples=80, deadline=None)
    @given(aig_recipes(), st.data())
    def test_cofactor_matches_a_full_cone_copy(self, recipe, data):
        # Two identical graphs: one cofactors in place, the other copies the
        # whole cone onto itself.  Same literal, same nodes in the same order.
        fanout_only, full_copy = build_aig(recipe), build_aig(recipe)
        output = data.draw(st.integers(0, len(full_copy.outputs) - 1))
        f = BooleanFunction.from_output(fanout_only, output)
        reference = BooleanFunction.from_output(full_copy, output)
        if f.num_inputs == 0:
            return
        position = data.draw(st.integers(0, f.num_inputs - 1))
        value = data.draw(st.booleans())
        table = f.truth_table()

        cofactor = f.cofactor(f.input_names[position], value)
        node = reference.inputs[position]
        input_map = {i: 2 * i for i in reference.inputs}
        input_map[node] = TRUE_LIT if value else FALSE_LIT
        copied = full_copy.copy_cone(reference.root, full_copy, input_map)

        assert cofactor.root == copied
        assert _node_table(fanout_only) == _node_table(full_copy)
        assert cofactor.truth_table() == cofactor_table(
            table, f.num_inputs, position, value
        )[0]

    @settings(max_examples=40, deadline=None)
    @given(aig_recipes())
    def test_quantifiers_do_not_walk_cones(self, recipe):
        # Cofactors, support checks and the functions they derive read
        # the per-node support masks; only simulation walks a cone.
        aig = build_aig(recipe)
        f = BooleanFunction.from_output(aig, 0)
        original = AIG.cone_nodes

        def walk(self, roots):
            raise AssertionError(f"cone walk from {roots}")

        AIG.cone_nodes = walk
        try:
            g = f.exists(f.input_names[:1]).forall(f.input_names[1:2])
            g.support(functional=False)
            BooleanFunction.from_output(aig, 0)
        finally:
            AIG.cone_nodes = original


def test_truth_table_is_simulated_once():
    f = _majority3()
    assert f.truth_table() == 0b11101000
    f.aig = None  # a second simulation would need the graph
    assert f.truth_table() == 0b11101000
    assert f.count_minterms() == 4
