"""The LJH baseline (Lee–Jiang–Hung, DAC'08) — heuristic partition search.

The original ``Bi-dec`` tool derives a variable partition with SAT: it seeds
``XA``/``XB`` with a pair of variables, keeps everything else shared, and
greedily grows the private sets while the decomposability check stays
unsatisfiable, steering the growth with information from the unsatisfiable
cores.  The result is a *valid* but not necessarily optimal partition — the
behaviour the paper's Table I/II quantifies against the QBF engines.

This reimplementation follows that scheme:

1. enumerate seed pairs ``(xi, xj)`` (in support order);
2. for the first decomposable seed, greedily move shared variables into
   ``XA`` or ``XB`` whenever the check remains UNSAT, preferring the larger
   quality gain and skipping variables whose equality the last core proved
   necessary;
3. return the grown partition (or report the function non-decomposable when
   no seed pair works).
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.core.checks import CheckOutcome, RelaxationChecker
from repro.core.partition import VariablePartition
from repro.core.result import BiDecResult, SearchStatistics
from repro.core.spec import ENGINE_LJH, check_operator
from repro.utils.timer import Deadline, Stopwatch, TruncationWitness


def ljh_find_partition(
    checker: RelaxationChecker,
    deadline: Optional[Deadline] = None,
    stats: Optional[SearchStatistics] = None,
    witness: Optional[TruncationWitness] = None,
) -> Optional[VariablePartition]:
    """Search for a non-trivial decomposable partition, LJH style.

    ``witness`` (when given) records whether the search was cut short by
    the deadline, so the caller can distinguish a truncated search from one
    that completed just before expiry.
    """
    variables = checker.variables
    stats = stats if stats is not None else SearchStatistics()
    witness = witness if witness is not None else TruncationWitness()

    seed = _find_seed(checker, variables, deadline, stats, witness)
    if seed is None:
        return None
    xa, xb = {seed[0]}, {seed[1]}
    xc = [name for name in variables if name not in (seed[0], seed[1])]

    blocked_a: Set[str] = set()
    blocked_b: Set[str] = set()
    for name in list(xc):
        if witness.check(deadline):
            break
        # Try the block that currently improves balancedness the most first.
        order = ("A", "B") if len(xa) <= len(xb) else ("B", "A")
        placed = False
        for block in order:
            if block == "A" and name in blocked_a:
                continue
            if block == "B" and name in blocked_b:
                continue
            candidate_a = xa | {name} if block == "A" else xa
            candidate_b = xb | {name} if block == "B" else xb
            outcome = _check(checker, variables, candidate_a, candidate_b, deadline, stats)
            if outcome.decomposable:
                xa, xb = set(candidate_a), set(candidate_b)
                _absorb_core_hints(outcome, blocked_a, blocked_b)
                placed = True
                break
            if outcome.decomposable is None:
                # Budget-induced unknown from the SAT call: truncated too.
                witness.mark()
                return _partition(variables, xa, xb)
        if not placed:
            continue
    return _partition(variables, xa, xb)


def _find_seed(
    checker: RelaxationChecker,
    variables: List[str],
    deadline: Optional[Deadline],
    stats: SearchStatistics,
    witness: TruncationWitness,
) -> Optional[Tuple[str, str]]:
    for i, first in enumerate(variables):
        for second in variables[i + 1 :]:
            if witness.check(deadline):
                return None
            outcome = _check(checker, variables, {first}, {second}, deadline, stats)
            if outcome.decomposable:
                return first, second
            if outcome.decomposable is None:
                # A budget-truncated check: a later "no seed found" verdict
                # is not definitive, so record the truncation.
                witness.mark()
    return None


def _check(
    checker: RelaxationChecker,
    variables: List[str],
    xa: Set[str],
    xb: Set[str],
    deadline: Optional[Deadline],
    stats: SearchStatistics,
) -> CheckOutcome:
    stats.sat_calls += 1
    alpha = [name in xa for name in variables]
    beta = [name in xb for name in variables]
    return checker.check_alpha_beta(alpha, beta, deadline=deadline)


def _absorb_core_hints(
    outcome: CheckOutcome, blocked_a: Set[str], blocked_b: Set[str]
) -> None:
    # Variables whose equality on the first (resp. second) copy is needed in
    # the refutation cannot be relaxed on that side later.
    blocked_a.update(outcome.needed_alpha)
    blocked_b.update(outcome.needed_beta)


def _partition(variables: List[str], xa: Set[str], xb: Set[str]) -> VariablePartition:
    ordered_a = tuple(name for name in variables if name in xa)
    ordered_b = tuple(name for name in variables if name in xb)
    ordered_c = tuple(name for name in variables if name not in xa and name not in xb)
    return VariablePartition(ordered_a, ordered_b, ordered_c)


def ljh_decompose(
    checker: RelaxationChecker,
    deadline: Optional[Deadline] = None,
) -> BiDecResult:
    """Run the LJH engine and package the outcome (partition only).

    Function extraction and verification are handled by the caller
    (:class:`repro.core.engine.BiDecomposer`), which is shared by every
    engine.
    """
    stopwatch = Stopwatch().start()
    stats = SearchStatistics()
    witness = TruncationWitness()
    partition = ljh_find_partition(
        checker, deadline=deadline, stats=stats, witness=witness
    )
    elapsed = stopwatch.stop()
    # Only an actually truncated search is a timeout; completing just
    # before expiry is a full (memoisable) result.
    timed_out = witness.truncated
    return BiDecResult(
        engine=ENGINE_LJH,
        operator=checker.operator,
        decomposed=partition is not None,
        partition=partition,
        optimum_proven=False,
        cpu_seconds=elapsed,
        timed_out=timed_out,
        stats=stats,
    )
