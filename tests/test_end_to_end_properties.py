"""Cross-cutting property-based tests over the whole pipeline.

These tests tie the layers together on randomly generated functions: every
engine's output must verify against the original function, the QBF engines
must dominate the heuristics on their target metric, and the generic 2QBF
machinery must agree with the expansion solver on the paper's formula (4).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.aig.function import BooleanFunction
from repro.core.checks import RelaxationChecker
from repro.core.engine import BiDecomposer, EngineOptions
from repro.core.extract import extract_functions
from repro.core.ljh import ljh_find_partition
from repro.core.mus_partition import mus_find_partition
from repro.core.qbf_bidec import metric_value, qbf_decompose
from repro.core.verify import verify_decomposition

from tests.reference import all_nontrivial_partitions, best_metric, decomposable


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**16 - 1),
    st.sampled_from(["or", "and", "xor"]),
)
def test_full_pipeline_on_random_functions(table, operator):
    """Engines + extraction + verification agree with brute force."""
    n = 4
    f = BooleanFunction.from_truth_table(table, n)
    step = BiDecomposer(EngineOptions(verify=True, output_timeout=30.0))
    exists = any(
        decomposable(table, n, operator, xa, xb)
        for xa, xb, _ in all_nontrivial_partitions(n)
    )
    for engine in ("STEP-MG", "STEP-QD"):
        result = step.decompose_function(f, operator, engine=engine)
        assert result.decomposed == exists
        if result.decomposed:
            names = f.input_names
            xa = [names.index(x) for x in result.partition.xa]
            xb = [names.index(x) for x in result.partition.xb]
            assert decomposable(table, n, operator, xa, xb)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**16 - 1))
def test_qbf_engines_dominate_heuristics(table):
    """STEP-QD/QB can never be beaten by LJH or STEP-MG on their metric."""
    n = 4
    operator = "or"
    f = BooleanFunction.from_truth_table(table, n)
    checker = RelaxationChecker(f, operator)
    ljh = ljh_find_partition(RelaxationChecker(f, operator))
    mg = mus_find_partition(RelaxationChecker(f, operator))
    if mg is None:
        return
    qd = qbf_decompose(checker, "disjointness", bootstrap=mg)
    qb = qbf_decompose(RelaxationChecker(f, operator), "balancedness", bootstrap=mg)
    assert qd.decomposed and qb.decomposed
    for heuristic in (ljh, mg):
        if heuristic is None:
            continue
        assert metric_value(qd.partition, "disjointness") <= metric_value(
            heuristic, "disjointness"
        )
        assert metric_value(qb.partition, "balancedness") <= metric_value(
            heuristic, "balancedness"
        )


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**16 - 1),
    st.sampled_from(["or", "and", "xor"]),
)
def test_every_decomposable_partition_extracts_and_verifies(table, operator):
    """For a fixed partition: check == reference, and extraction verifies."""
    n = 4
    xa, xb = [0, 1], [2, 3]
    f = BooleanFunction.from_truth_table(table, n)
    names = f.input_names
    from repro.core.partition import VariablePartition

    partition = VariablePartition(tuple(names[:2]), tuple(names[2:]), ())
    expected = decomposable(table, n, operator, xa, xb)
    assert RelaxationChecker(f, operator).check_partition(partition).decomposable == expected
    if expected:
        fa, fb = extract_functions(f, operator, partition)
        assert verify_decomposition(f, operator, fa, fb, partition)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**16 - 1))
def test_specialised_qbf_optimum_equals_brute_force(table):
    """The specialised CEGAR loop reaches the true disjointness optimum."""
    n = 4
    f = BooleanFunction.from_truth_table(table, n)
    expected = best_metric(table, n, "or", "shared")
    checker = RelaxationChecker(f, "or")
    result = qbf_decompose(checker, "disjointness", bootstrap=mus_find_partition(checker))
    if expected is None:
        assert not result.decomposed
    else:
        assert result.decomposed and result.optimum_proven
        assert metric_value(result.partition, "disjointness") == expected
