"""MUS-based partition derivation — the STEP-MG baseline.

The approach (Chen & Marques-Silva, VLSI-SoC'11) observes that the
decomposability check formula with *all* equality constraints enforced
(``X = X' = X''``) is trivially unsatisfiable, and that a (group) minimal
unsatisfiable subset of those equality constraints directly induces a
partition:

* a variable whose equality group is *outside* the MUS can be relaxed on
  both instantiated copies — the refutation never needed it — so it may be
  placed in ``XA`` or ``XB`` freely;
* a variable whose group is *inside* the MUS must keep its equalities, so it
  stays shared (``XC``).

Because enforcing a superset of a sufficient-for-UNSAT equality set keeps
the formula unsatisfiable, the derived partition is always valid; it is
merely not guaranteed optimal, which is the gap the QBF engines close.  The
engine performs deletion-based group-MUS extraction driven by UNSAT cores
(one SAT call per surviving group plus the refinement calls), which is what
makes STEP-MG the fastest of the engines — matching the paper's Table III
ordering.

When fewer than two variables turn out to be fully relaxable the group-MUS
cannot produce a non-trivial partition on its own; the engine then falls
back to a single-sided greedy pass (relax one copy at a time), mirroring the
original tool's engineering fallback.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.checks import RelaxationChecker
from repro.core.partition import VariablePartition
from repro.core.result import BiDecResult, SearchStatistics
from repro.core.spec import ENGINE_STEP_MG
from repro.utils.timer import Deadline, Stopwatch, TruncationWitness


def mus_find_partition(
    checker: RelaxationChecker,
    deadline: Optional[Deadline] = None,
    stats: Optional[SearchStatistics] = None,
    witness: Optional[TruncationWitness] = None,
) -> Optional[VariablePartition]:
    """Derive a partition from a deletion group-MUS over equality groups.

    ``witness`` (when given) records whether the search was cut short by
    the deadline, so the caller can tell a truncated negative apart from a
    definitive one.
    """
    variables = checker.variables
    stats = stats if stats is not None else SearchStatistics()
    witness = witness if witness is not None else TruncationWitness()

    free: Set[str] = set()          # relaxable on both copies
    needed: Set[str] = set(variables)  # groups currently enforced

    # Initial call with every equality enforced: trivially UNSAT; its core
    # already rules many groups out of the MUS (clause-set refinement).
    outcome = _check(checker, variables, relaxed=free, deadline=deadline, stats=stats)
    if outcome.decomposable is None:
        # Budget-induced unknown: this negative is truncated, not proven.
        witness.mark()
        return None
    if not outcome.decomposable:
        # Cannot happen for a well-formed completely specified function, but
        # guard against budget-induced inconsistencies.
        return None
    core = outcome.needed_alpha | outcome.needed_beta
    if core:
        free = set(variables) - core
        needed = set(core)

    # Deletion loop over the surviving groups.
    for name in [v for v in variables if v in needed]:
        if witness.check(deadline):
            break
        if name in free:
            continue
        candidate = free | {name}
        outcome = _check(checker, variables, relaxed=candidate, deadline=deadline, stats=stats)
        if outcome.decomposable is None:
            witness.mark()
            break
        if outcome.decomposable:
            free = candidate
            core = outcome.needed_alpha | outcome.needed_beta
            if core:
                # Refinement: anything outside the new core is also free.
                free |= set(variables) - core
        # Otherwise the group is part of the MUS: the variable stays in XC.

    if len(free) >= 2:
        return _assign_free(variables, free)

    # Fallback: single-sided greedy growth (the group-MUS found at most one
    # fully relaxable variable, but one-sided relaxations may still work).
    return _greedy_fallback(checker, variables, deadline, stats, witness)


def _check(
    checker: RelaxationChecker,
    variables: Sequence[str],
    relaxed: Set[str],
    deadline: Optional[Deadline],
    stats: SearchStatistics,
):
    stats.sat_calls += 1
    alpha = [name in relaxed for name in variables]
    return checker.check_alpha_beta(alpha, alpha, deadline=deadline)


def _assign_free(variables: Sequence[str], free: Set[str]) -> VariablePartition:
    """Distribute fully relaxable variables alternately over XA and XB."""
    xa: List[str] = []
    xb: List[str] = []
    xc: List[str] = []
    toggle = True
    for name in variables:
        if name in free:
            if toggle:
                xa.append(name)
            else:
                xb.append(name)
            toggle = not toggle
        else:
            xc.append(name)
    return VariablePartition(tuple(xa), tuple(xb), tuple(xc))


def _greedy_fallback(
    checker: RelaxationChecker,
    variables: Sequence[str],
    deadline: Optional[Deadline],
    stats: SearchStatistics,
    witness: TruncationWitness,
) -> Optional[VariablePartition]:
    """One-sided relaxation pass used when the group-MUS is too coarse."""
    xa: Set[str] = set()
    xb: Set[str] = set()

    def attempt(candidate_a: Set[str], candidate_b: Set[str]) -> bool:
        stats.sat_calls += 1
        outcome = checker.check_alpha_beta(
            [v in candidate_a for v in variables],
            [v in candidate_b for v in variables],
            deadline=deadline,
        )
        if outcome.decomposable is None:
            # A budget-truncated check counts as truncation: the "no"
            # answer it degrades to is not definitive.
            witness.mark()
        return bool(outcome.decomposable)

    # Explicit seed-pair search (bounded by the first success).
    for i, first in enumerate(variables):
        for second in variables[i + 1 :]:
            if witness.check(deadline):
                return None
            if attempt({first}, {second}):
                xa, xb = {first}, {second}
                break
        if xa:
            break
    if not xa:
        return None
    for name in variables:
        if name in xa or name in xb:
            continue
        if witness.check(deadline):
            break
        target_first = "A" if len(xa) <= len(xb) else "B"
        for block in (target_first, "B" if target_first == "A" else "A"):
            candidate_a = xa | {name} if block == "A" else xa
            candidate_b = xb | {name} if block == "B" else xb
            if attempt(candidate_a, candidate_b):
                xa, xb = set(candidate_a), set(candidate_b)
                break
    ordered_a = tuple(name for name in variables if name in xa)
    ordered_b = tuple(name for name in variables if name in xb)
    ordered_c = tuple(name for name in variables if name not in xa and name not in xb)
    return VariablePartition(ordered_a, ordered_b, ordered_c)


def mus_decompose(
    checker: RelaxationChecker,
    deadline: Optional[Deadline] = None,
) -> BiDecResult:
    """Run the STEP-MG engine and package the outcome (partition only)."""
    stopwatch = Stopwatch().start()
    stats = SearchStatistics()
    witness = TruncationWitness()
    partition = mus_find_partition(
        checker, deadline=deadline, stats=stats, witness=witness
    )
    elapsed = stopwatch.stop()
    # Only an actually truncated search is a timeout; completing just
    # before expiry is a full (memoisable) result.
    timed_out = witness.truncated
    return BiDecResult(
        engine=ENGINE_STEP_MG,
        operator=checker.operator,
        decomposed=partition is not None,
        partition=partition,
        optimum_proven=False,
        cpu_seconds=elapsed,
        timed_out=timed_out,
        stats=stats,
    )
