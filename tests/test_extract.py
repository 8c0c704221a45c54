"""Tests for fA/fB extraction (quantification, interpolation, BDD back-ends)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.aig.function import BooleanFunction
from repro.circuits.generators import decomposable_by_construction, parity_tree
from repro.core.extract import extract_functions
from repro.core.partition import VariablePartition
from repro.core.verify import verify_decomposition
from repro.errors import DecompositionError, VerificationError

from tests.reference import decomposable as reference_decomposable

METHODS = ["quantification", "interpolation", "bdd"]


def _partition_for(f, xa, xb, xc):
    present = set(f.input_names)
    return VariablePartition(
        tuple(n for n in xa if n in present),
        tuple(n for n in xb if n in present),
        tuple(n for n in xc if n in present),
    )


class TestConstructedInstances:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("operator", ["or", "and", "xor"])
    def test_extraction_verifies(self, operator, method):
        aig, xa, xb, xc = decomposable_by_construction(operator, 2, 2, 1, seed=17)
        f = BooleanFunction.from_output(aig, "f")
        partition = _partition_for(f, xa, xb, xc)
        if partition.is_trivial:
            pytest.skip("degenerate random instance")
        fa, fb = extract_functions(f, operator, partition, method=method)
        assert verify_decomposition(f, operator, fa, fb, partition)

    @pytest.mark.parametrize("method", METHODS)
    def test_parity_xor_extraction(self, method):
        f = BooleanFunction.from_output(parity_tree(4), "p")
        names = f.input_names
        partition = VariablePartition(tuple(names[:2]), tuple(names[2:]), ())
        fa, fb = extract_functions(f, "xor", partition, method=method)
        assert verify_decomposition(f, "xor", fa, fb, partition)

    def test_extracted_supports_respect_partition(self):
        aig, xa, xb, xc = decomposable_by_construction("or", 3, 2, 1, seed=23)
        f = BooleanFunction.from_output(aig, "f")
        partition = _partition_for(f, xa, xb, xc)
        if partition.is_trivial:
            pytest.skip("degenerate random instance")
        fa, fb = extract_functions(f, "or", partition, method="interpolation")
        assert set(fa.support_names()) <= set(partition.xa) | set(partition.xc)
        assert set(fb.support_names()) <= set(partition.xb) | set(partition.xc)

    def test_trivial_partition_rejected(self):
        f = BooleanFunction.from_truth_table(0b0110, 2)
        names = f.input_names
        with pytest.raises(DecompositionError):
            extract_functions(f, "or", VariablePartition(tuple(names), (), ()))

    def test_non_decomposable_interpolation_rejected(self):
        f = BooleanFunction.from_truth_table(0b0110, 2)  # XOR: not OR-decomposable
        names = f.input_names
        partition = VariablePartition((names[0],), (names[1],), ())
        with pytest.raises(DecompositionError):
            extract_functions(f, "or", partition, method="interpolation")

    def test_non_decomposable_bdd_rejected(self):
        f = BooleanFunction.from_truth_table(0b0110, 2)
        names = f.input_names
        partition = VariablePartition((names[0],), (names[1],), ())
        with pytest.raises(DecompositionError):
            extract_functions(f, "or", partition, method="bdd")

    def test_unknown_method_rejected(self):
        f = BooleanFunction.from_truth_table(0b1000, 2)
        names = f.input_names
        with pytest.raises(DecompositionError):
            extract_functions(
                f, "or", VariablePartition((names[0],), (names[1],), ()), method="magic"
            )


class TestVerification:
    def test_verify_detects_wrong_operator(self):
        aig, xa, xb, xc = decomposable_by_construction("or", 2, 2, 0, seed=31)
        f = BooleanFunction.from_output(aig, "f")
        partition = _partition_for(f, xa, xb, xc)
        if partition.is_trivial:
            pytest.skip("degenerate random instance")
        fa, fb = extract_functions(f, "or", partition)
        if fa.combine(fb, "and").semantically_equal(f):
            pytest.skip("degenerate instance where AND also matches")
        with pytest.raises(VerificationError):
            verify_decomposition(f, "and", fa, fb, partition)
        assert not verify_decomposition(
            f, "and", fa, fb, partition, raise_on_failure=False
        )

    def test_verify_detects_support_violation(self):
        f = BooleanFunction.from_output(parity_tree(3), "p")
        names = f.input_names
        partition = VariablePartition((names[0],), (names[1], names[2]), ())
        fa, fb = extract_functions(f, "xor", partition)
        # Swap the roles: fb depends on two variables not allowed for fA.
        with pytest.raises(VerificationError):
            verify_decomposition(f, "xor", fb, fa, partition)


class TestRandomAgainstReference:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**16 - 1),
        st.sampled_from(["or", "and", "xor"]),
        st.sampled_from(METHODS),
    )
    def test_random_decomposable_functions_extract_correctly(self, table, operator, method):
        n = 4
        xa_positions, xb_positions = [0, 1], [2, 3]
        if not reference_decomposable(table, n, operator, xa_positions, xb_positions):
            return
        f = BooleanFunction.from_truth_table(table, n)
        names = f.input_names
        partition = VariablePartition(tuple(names[:2]), tuple(names[2:]), ())
        fa, fb = extract_functions(f, operator, partition, method=method)
        assert verify_decomposition(f, operator, fa, fb, partition)
