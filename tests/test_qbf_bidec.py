"""Tests for the QBF engines STEP-QD / STEP-QB / STEP-QDB.

The central property: on functions small enough for brute force, the QBF
engines must return partitions achieving the *exact optimum* of their target
metric (disjointness for STEP-QD, balancedness for STEP-QB, the combined sum
for STEP-QDB) over all non-trivial decomposable partitions.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.aig.function import BooleanFunction
from repro.circuits.generators import decomposable_by_construction, parity_tree
from repro.core import qbf_bidec
from repro.core.checks import RelaxationChecker
from repro.core.mus_partition import mus_find_partition
from repro.core.qbf_bidec import (
    GenericQbfPartitionSolver,
    QbfPartitionSolver,
    metric_value,
    qbf_decompose,
)
from repro.core.qbf_models import (
    ControlVariables,
    add_nontrivial_constraint,
    add_target_constraint,
    maximum_bound,
)
from repro.core.spec import ENGINE_STEP_QB, ENGINE_STEP_QD, ENGINE_STEP_QDB
from repro.errors import DecompositionError
from repro.sat.cnf import CNF
from repro.utils.timer import Deadline

from tests.reference import best_metric

TARGET_TO_METRIC = {
    "disjointness": "shared",
    "balancedness": "imbalance",
    "combined": "combined",
}


def _run_engine(f, operator, target, backend="specialised", strategy="auto"):
    checker = RelaxationChecker(f, operator)
    bootstrap = mus_find_partition(checker)
    return qbf_decompose(
        checker,
        target,
        bootstrap=bootstrap,
        strategy=strategy,
        per_call_timeout=10.0,
        deadline=Deadline(60.0),
        backend=backend,
    )


class TestBoundQueries:
    def test_query_true_and_false_bounds(self):
        aig, xa, xb, xc = decomposable_by_construction("or", 2, 2, 1, seed=7)
        f = BooleanFunction.from_output(aig, "f")
        checker = RelaxationChecker(f, "or")
        solver = QbfPartitionSolver(checker, "disjointness")
        table, n = f.truth_table(), f.num_inputs
        optimum = best_metric(table, n, "or", "shared")
        assert optimum is not None
        feasible = solver.query(optimum, deadline=Deadline(30.0))
        assert feasible.status is True
        assert feasible.partition is not None
        assert metric_value(feasible.partition, "disjointness") <= optimum
        if optimum > 0:
            infeasible = solver.query(optimum - 1, deadline=Deadline(30.0))
            assert infeasible.status is False

    def test_returned_partition_is_decomposable(self):
        aig, *_ = decomposable_by_construction("or", 2, 2, 1, seed=9)
        f = BooleanFunction.from_output(aig, "f")
        checker = RelaxationChecker(f, "or")
        solver = QbfPartitionSolver(checker, "balancedness")
        answer = solver.query(1, deadline=Deadline(30.0))
        if answer.status:
            assert RelaxationChecker(f, "or").check_partition(answer.partition).decomposable

    def test_blocking_clauses_shared_across_bounds(self):
        f = BooleanFunction.from_output(parity_tree(4), "p")
        checker = RelaxationChecker(f, "or")
        solver = QbfPartitionSolver(checker, "disjointness")
        first = solver.query(2, deadline=Deadline(30.0))
        assert (first.status, first.iterations, solver.stats.refinements) == (
            False,
            13,
            12,
        )
        # The second identical query starts from the twelve stored blocking
        # clauses: its candidate CNF is UNSAT at once, with no new refinement.
        second = solver.query(2, deadline=Deadline(30.0))
        assert (second.status, second.iterations, solver.stats.refinements) == (
            False,
            1,
            12,
        )

    @pytest.mark.parametrize("target", qbf_bidec.TARGETS)
    def test_candidate_cnf_equals_a_fresh_build(self, target):
        f = BooleanFunction.from_output(parity_tree(5), "p")
        solver = QbfPartitionSolver(RelaxationChecker(f, "or"), target)
        solver.query(1, deadline=Deadline(30.0))
        assert solver.stats.refinements > 0
        names = solver.variables
        for bound in range(maximum_bound(target, len(names)) + 1):
            expected = CNF()
            controls = ControlVariables.allocate(expected, names)
            add_nontrivial_constraint(expected, controls)
            add_target_constraint(expected, controls, target, bound)
            for clause in solver._blocking:
                expected.add_clause(clause)
            built = solver.candidate_cnf(bound)
            assert built.clauses == expected.clauses
            assert built.num_vars == expected.num_vars

    def test_unknown_target_rejected(self):
        f = BooleanFunction.from_truth_table(0b1000, 2)
        checker = RelaxationChecker(f, "or")
        with pytest.raises(DecompositionError):
            QbfPartitionSolver(checker, "area")


class TestEngineResults:
    @pytest.mark.parametrize(
        "target,engine_name",
        [
            ("disjointness", ENGINE_STEP_QD),
            ("balancedness", ENGINE_STEP_QB),
            ("combined", ENGINE_STEP_QDB),
        ],
    )
    def test_engine_names_and_validity(self, target, engine_name):
        aig, *_ = decomposable_by_construction("or", 2, 2, 1, seed=37)
        f = BooleanFunction.from_output(aig, "f")
        result = _run_engine(f, "or", target)
        assert result.engine == engine_name
        assert result.decomposed
        assert RelaxationChecker(f, "or").check_partition(result.partition).decomposable

    def test_not_decomposable_function(self):
        f = BooleanFunction.from_truth_table(0b0110, 2)  # XOR
        result = _run_engine(f, "or", "disjointness")
        assert not result.decomposed

    def test_never_worse_than_bootstrap(self):
        aig, *_ = decomposable_by_construction("or", 3, 3, 1, seed=3)
        f = BooleanFunction.from_output(aig, "f")
        checker = RelaxationChecker(f, "or")
        bootstrap = mus_find_partition(checker)
        assert bootstrap is not None
        result = qbf_decompose(
            checker, "disjointness", bootstrap=bootstrap, deadline=Deadline(60.0)
        )
        assert result.decomposed
        assert metric_value(result.partition, "disjointness") <= metric_value(
            bootstrap, "disjointness"
        )

    def test_invalid_strategy_rejected(self):
        f = BooleanFunction.from_truth_table(0b1000, 2)
        checker = RelaxationChecker(f, "or")
        with pytest.raises(DecompositionError):
            qbf_decompose(checker, "disjointness", strategy="random-walk")

    def test_invalid_backend_rejected(self):
        f = BooleanFunction.from_truth_table(0b1000, 2)
        checker = RelaxationChecker(f, "or")
        with pytest.raises(DecompositionError):
            qbf_decompose(checker, "disjointness", backend="oracle")


class TestOptimality:
    @pytest.mark.parametrize("strategy", ["auto", "mi", "md", "bin"])
    def test_strategies_reach_the_same_optimum(self, strategy):
        aig, *_ = decomposable_by_construction("or", 2, 2, 1, seed=55)
        f = BooleanFunction.from_output(aig, "f")
        table, n = f.truth_table(), f.num_inputs
        expected = best_metric(table, n, "or", "shared")
        result = _run_engine(f, "or", "disjointness", strategy=strategy)
        assert result.decomposed
        assert result.optimum_proven
        assert metric_value(result.partition, "disjointness") == expected

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**16 - 1),
        st.sampled_from(["or", "and", "xor"]),
        st.sampled_from(["disjointness", "balancedness", "combined"]),
    )
    def test_optimum_matches_brute_force(self, table, operator, target):
        n = 4
        expected = best_metric(table, n, operator, TARGET_TO_METRIC[target])
        f = BooleanFunction.from_truth_table(table, n)
        result = _run_engine(f, operator, target)
        if expected is None:
            assert not result.decomposed
            return
        assert result.decomposed
        assert result.optimum_proven
        assert metric_value(result.partition, target) == expected
        names = f.input_names
        assert RelaxationChecker(f, operator).check_partition(result.partition).decomposable

    def test_generic_backend_agrees_with_specialised(self):
        aig, *_ = decomposable_by_construction("or", 2, 2, 0, seed=77)
        f = BooleanFunction.from_output(aig, "f")
        specialised = _run_engine(f, "or", "disjointness", backend="specialised")
        generic = _run_engine(f, "or", "disjointness", backend="generic")
        assert specialised.decomposed == generic.decomposed
        if specialised.decomposed:
            assert metric_value(specialised.partition, "disjointness") == metric_value(
                generic.partition, "disjointness"
            )
