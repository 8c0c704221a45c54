"""Tests for the SAT decomposability checks (Proposition 1 and friends).

The checks are validated against the truth-table reference oracle and the
BDD implementation on random functions and on structured known cases.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.aig.function import BooleanFunction
from repro.circuits.generators import (
    decomposable_by_construction,
    majority,
    parity_tree,
)
from repro.core.checks import RelaxationChecker
from repro.core.partition import VariablePartition
from repro.errors import DecompositionError

from tests.reference import decomposable as reference_decomposable


def _partition_from_positions(names, xa, xb):
    xc = [i for i in range(len(names)) if i not in set(xa) | set(xb)]
    return VariablePartition(
        tuple(names[i] for i in xa),
        tuple(names[i] for i in xb),
        tuple(names[i] for i in xc),
    )


class TestKnownCases:
    def test_or_of_disjoint_conjunctions(self):
        # f = (x0 AND x1) OR (x2 AND x3)
        table = 0
        for pattern in range(16):
            bits = [(pattern >> i) & 1 for i in range(4)]
            if (bits[0] and bits[1]) or (bits[2] and bits[3]):
                table |= 1 << pattern
        f = BooleanFunction.from_truth_table(table, 4)
        names = f.input_names
        good = VariablePartition((names[0], names[1]), (names[2], names[3]), ())
        assert RelaxationChecker(f, "or").check_partition(good).decomposable
        # The same partition is not AND-decomposable.
        assert RelaxationChecker(f, "and").check_partition(good).decomposable is False

    def test_and_of_disjoint_disjunctions(self):
        table = 0
        for pattern in range(16):
            bits = [(pattern >> i) & 1 for i in range(4)]
            if (bits[0] or bits[1]) and (bits[2] or bits[3]):
                table |= 1 << pattern
        f = BooleanFunction.from_truth_table(table, 4)
        names = f.input_names
        good = VariablePartition((names[0], names[1]), (names[2], names[3]), ())
        assert RelaxationChecker(f, "and").check_partition(good).decomposable
        assert RelaxationChecker(f, "or").check_partition(good).decomposable is False

    def test_parity_xor_everywhere(self):
        f = BooleanFunction.from_output(parity_tree(4), "p")
        names = f.input_names
        for split in range(1, 4):
            partition = VariablePartition(tuple(names[:split]), tuple(names[split:]), ())
            assert RelaxationChecker(f, "xor").check_partition(partition).decomposable

    def test_two_input_xor_not_or_decomposable(self):
        f = BooleanFunction.from_truth_table(0b0110, 2)
        names = f.input_names
        partition = VariablePartition((names[0],), (names[1],), ())
        assert RelaxationChecker(f, "or").check_partition(partition).decomposable is False
        assert RelaxationChecker(f, "xor").check_partition(partition).decomposable

    def test_single_input_function_rejected(self):
        f = BooleanFunction.from_truth_table(0b10, 1)
        with pytest.raises(DecompositionError):
            RelaxationChecker(f, "or")

    def test_constructed_instances(self):
        for operator in ("or", "and", "xor"):
            aig, xa, xb, xc = decomposable_by_construction(operator, 2, 2, 1, seed=21)
            f = BooleanFunction.from_output(aig, "f")
            present = set(f.input_names)
            partition = VariablePartition(
                tuple(n for n in xa if n in present),
                tuple(n for n in xb if n in present),
                tuple(n for n in xc if n in present),
            )
            if partition.is_trivial:
                continue
            assert RelaxationChecker(f, operator).check_partition(partition).decomposable


class TestRelaxationChecker:
    def test_incremental_reuse_over_partitions(self):
        aig, xa, xb, xc = decomposable_by_construction("or", 2, 2, 1, seed=4)
        f = BooleanFunction.from_output(aig, "f")
        checker = RelaxationChecker(f, "or")
        names = checker.variables
        partitions = [
            VariablePartition((names[0],), (names[1],), tuple(names[2:])),
            VariablePartition((names[1],), (names[0],), tuple(names[2:])),
            VariablePartition(tuple(names[:2]), tuple(names[2:4]), tuple(names[4:])),
        ]
        results = [checker.check_partition(p).decomposable for p in partitions]
        assert all(isinstance(r, bool) for r in results)
        assert checker.sat_calls == len(partitions)

    def test_witness_difference_sets_on_sat(self):
        # 2-input XOR is not OR-decomposable: the witness must differ on at
        # least one relaxed variable per copy.
        f = BooleanFunction.from_truth_table(0b0110, 2)
        checker = RelaxationChecker(f, "or")
        names = checker.variables
        outcome = checker.check_partition(
            VariablePartition((names[0],), (names[1],), ())
        )
        assert outcome.decomposable is False
        # Differences are positions in ``checker.variables``.
        assert set(outcome.witness_diff_a) <= {0}
        assert set(outcome.witness_diff_b) <= {1}
        assert outcome.witness_diff_a or outcome.witness_diff_b

    def test_witness_differences_listed_in_name_order(self):
        # Eleven inputs: "x10" sorts before "x2", apart from the input
        # order.  Blocking clauses built from the differences follow name
        # order, so the differences must too.
        aig = majority(11)
        f = BooleanFunction.from_output(aig, aig.outputs[0][0])
        checker = RelaxationChecker(f, "or")
        names = checker.variables
        outcome = checker.check_partition(
            VariablePartition((names[0],), tuple(names[1:]), ())
        )
        assert outcome.decomposable is False
        diff = outcome.witness_diff_b
        assert list(diff) == sorted(diff, key=names.__getitem__)
        assert list(diff) != sorted(diff)

    def test_check_accepts_bytes_and_bools_alike(self):
        aig, xa, xb, xc = decomposable_by_construction("or", 2, 2, 1, seed=4)
        f = BooleanFunction.from_output(aig, "f")
        checker = RelaxationChecker(f, "or")
        n = len(checker.variables)
        for a_pos, b_pos in [(0, 1), (1, 2), (0, n - 1)]:
            alpha = [i == a_pos for i in range(n)]
            beta = [i == b_pos for i in range(n)]
            as_bools = checker.check_alpha_beta(alpha, beta)
            as_bytes = checker.fresh().check_alpha_beta(bytes(alpha), bytes(beta))
            assert as_bools == as_bytes
        # One entry per variable: a short sequence is an error, not "shared".
        with pytest.raises(ValueError):
            checker.check_alpha_beta([True] + [False] * (n - 2), [False, True])

    def test_fresh_checker_repeats_a_new_checkers_answers(self):
        f = BooleanFunction.from_output(parity_tree(4), "p")
        used = RelaxationChecker(f, "or")
        names = used.variables
        partition = VariablePartition((names[0],), (names[1],), tuple(names[2:]))
        first = used.check_partition(partition)
        twin = used.fresh()
        assert twin.sat_calls == 0
        assert twin.check_partition(partition) == first
        assert RelaxationChecker(f, "or").check_partition(partition) == first

    def test_needed_equalities_on_unsat(self):
        aig, xa, xb, xc = decomposable_by_construction("or", 2, 2, 2, seed=8)
        f = BooleanFunction.from_output(aig, "f")
        checker = RelaxationChecker(f, "or")
        present = set(f.input_names)
        partition = VariablePartition(
            tuple(n for n in xa if n in present),
            tuple(n for n in xb if n in present),
            tuple(n for n in xc if n in present),
        )
        if partition.is_trivial:
            pytest.skip("degenerate random instance")
        outcome = checker.check_partition(partition)
        assert outcome.decomposable is True
        # Needed equalities can only mention variables whose equality was
        # actually assumed (i.e. variables not relaxed on that side).
        assert outcome.needed_alpha <= set(partition.xb) | set(partition.xc)
        assert outcome.needed_beta <= set(partition.xa) | set(partition.xc)

    def test_partition_must_match_inputs(self):
        f = BooleanFunction.from_truth_table(0b0110, 2)
        checker = RelaxationChecker(f, "or")
        with pytest.raises(DecompositionError):
            checker.check_partition(VariablePartition(("x0",), ("zzz",), ()))


class TestAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**16 - 1),
        st.sampled_from(["or", "and", "xor"]),
        st.integers(min_value=0, max_value=255),
    )
    def test_random_functions_match_reference(self, table, operator, partition_code):
        n = 4
        f = BooleanFunction.from_truth_table(table, n)
        names = f.input_names
        assignment = [(partition_code >> (2 * i)) & 3 for i in range(n)]
        xa = [i for i, a in enumerate(assignment) if a == 0]
        xb = [i for i, a in enumerate(assignment) if a == 1]
        if not xa or not xb:
            return
        expected = reference_decomposable(table, n, operator, xa, xb)
        partition = _partition_from_positions(names, xa, xb)
        assert RelaxationChecker(f, operator).check_partition(partition).decomposable == expected

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**8 - 1))
    def test_or_check_agrees_with_bdd(self, table):
        from repro.bdd.bidec_bdd import bdd_check_decomposable

        f = BooleanFunction.from_truth_table(table, 3)
        names = f.input_names
        partition = VariablePartition((names[0],), (names[1],), (names[2],))
        sat_answer = RelaxationChecker(f, "or").check_partition(partition).decomposable
        bdd_answer = bdd_check_decomposable(
            f, "or", [names[0]], [names[1]], [names[2]]
        )
        assert sat_answer == bdd_answer
