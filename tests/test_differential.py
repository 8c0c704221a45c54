"""Property-based differential tests: engines vs. truth-table oracles.

Random small AIGs (from :mod:`repro.circuits.generators`) are decomposed
with the heuristic, core-guided, QBF and BDD engines; every claimed
decomposition is cross-checked against brute-force truth-table simulation,
independently of the SAT/QBF machinery under test:

* ``fA <op> fB`` must equal ``f`` (recombination check),
* the claimed partition must pass the reference decomposability predicate
  (:mod:`tests.reference`),
* proven optima must match the brute-force optimum of the metric.
"""

import pytest

from tests.reference import best_metric, decomposable, evaluate_table
from repro.aig.function import BooleanFunction
from repro.api import Budgets, DecompositionRequest, Parallelism, Session
from repro.circuits.generators import random_aig, random_dnf
from repro.core.engine import BiDecomposer, EngineOptions
from repro.core.spec import (
    ENGINE_BDD,
    ENGINE_LJH,
    ENGINE_STEP_MG,
    ENGINE_STEP_QD,
)

ENGINES = [ENGINE_LJH, ENGINE_STEP_MG, ENGINE_STEP_QD, ENGINE_BDD]
OPERATORS = ["or", "and", "xor"]


def random_functions():
    """A deterministic population of small random functions (2-6 inputs)."""
    functions = []
    for trial in range(6):
        aig = random_aig(5, 14, 2, seed=f"diff-aig-{trial}")
        for name, _ in aig.outputs:
            function = BooleanFunction.from_output(aig, name)
            if 2 <= function.num_inputs <= 6:
                functions.append((f"aig-{trial}-{name}", function))
    for trial in range(4):
        aig = random_dnf(5, 6, 3, seed=f"diff-dnf-{trial}")
        function = BooleanFunction.from_output(aig, "f")
        if function.num_inputs >= 2:
            functions.append((f"dnf-{trial}", function))
    return functions


FUNCTIONS = random_functions()


def positions_of(partition, function):
    """Map a named partition onto input positions of ``function``."""
    index = {name: pos for pos, name in enumerate(function.input_names)}
    xa = [index[name] for name in partition.xa]
    xb = [index[name] for name in partition.xb]
    return xa, xb


@pytest.fixture(scope="module")
def step():
    return BiDecomposer(EngineOptions(output_timeout=30.0))


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("operator", OPERATORS)
def test_engines_agree_with_truth_table_oracle(step, engine, operator):
    checked = 0
    for label, function in FUNCTIONS:
        table = function.truth_table()
        result = step.decompose_function(function, operator, engine=engine)
        if not result.decomposed:
            continue
        checked += 1
        xa, xb = positions_of(result.partition, function)
        # The claimed partition must be decomposable per the reference
        # predicate (worked out directly on the truth table).
        assert decomposable(table, function.num_inputs, operator, xa, xb), (
            f"{engine}/{operator} on {label}: partition "
            f"{result.partition} rejected by the reference predicate"
        )
        # Recombination: fA <op> fB == f on every input pattern.
        combined = result.fa.combine(result.fb, operator)
        combined_table = combined._table_over(function.input_names)
        assert combined_table == table, (
            f"{engine}/{operator} on {label}: fA {operator} fB differs from f"
        )
    # The population always contains decomposable cases for every operator.
    assert checked > 0


def test_qbf_optimum_matches_brute_force(step):
    """STEP-QD's proven optima equal the brute-force disjointness optimum."""
    verified = 0
    for label, function in FUNCTIONS:
        if function.num_inputs > 5:
            continue
        table = function.truth_table()
        result = step.decompose_function(function, "or", engine=ENGINE_STEP_QD)
        if not result.decomposed or not result.optimum_proven:
            continue
        reference_best = best_metric(table, function.num_inputs, "or", "shared")
        assert reference_best is not None, f"{label}: oracle finds no partition"
        assert len(result.partition.xc) == reference_best, (
            f"{label}: STEP-QD proved |XC|={len(result.partition.xc)} optimal "
            f"but brute force finds {reference_best}"
        )
        verified += 1
    assert verified > 0


def test_nondecomposable_verdicts_are_sound(step):
    """When the exact engine denies a function, the oracle agrees.

    Every STEP-QD denial on the random population must be confirmed by
    exhaustive enumeration of all non-trivial partitions.
    """
    denials = 0
    for label, function in FUNCTIONS:
        if function.num_inputs > 4:
            continue
        table = function.truth_table()
        result = step.decompose_function(function, "or", engine=ENGINE_STEP_QD)
        if result.decomposed or result.timed_out:
            continue
        denials += 1
        assert best_metric(table, function.num_inputs, "or", "shared") is None, (
            f"{label}: STEP-QD found nothing but a decomposable partition exists"
        )
    # Denials may legitimately be rare; the loop above must at least run.
    assert len(FUNCTIONS) > 0


def test_batched_circuit_results_verify_against_simulation():
    """End-to-end: batched multi-output decomposition vs. direct evaluation."""
    aig = random_aig(6, 18, 3, seed="diff-batch")
    report = Session().run(
        DecompositionRequest(
            circuit=aig,
            operator="or",
            engines=(ENGINE_STEP_MG, ENGINE_STEP_QD),
            budgets=Budgets(per_output=30.0),
            parallelism=Parallelism(jobs=1, dedup=True),
        )
    )
    for output in report.outputs:
        function = BooleanFunction.from_output(aig, output.output_name)
        table = function.truth_table()
        for engine, result in output.results.items():
            if not result.decomposed:
                continue
            combined = result.fa.combine(result.fb, "or")
            assert combined._table_over(function.input_names) == table
            xa, xb = positions_of(result.partition, function)
            for pattern in range(1 << function.num_inputs):
                # Spot-check the semantics of the oracle itself.
                assert evaluate_table(table, pattern) == bool(
                    (table >> pattern) & 1
                )
            assert decomposable(table, function.num_inputs, "or", xa, xb)
