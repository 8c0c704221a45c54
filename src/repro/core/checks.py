"""SAT-based decomposability checks.

The foundation is Proposition 1 of the paper (Lee–Jiang, DAC'08): for a
non-trivial partition ``{XA | XB | XC}``, ``f`` is OR bi-decomposable iff

    f(XA, XB, XC)  AND  NOT f(XA', XB, XC)  AND  NOT f(XA, XB', XC)

is unsatisfiable.  The AND case is the dual (apply the OR check to ``NOT f``)
and the XOR case uses the four-copy "rectangle" condition.

Rather than rebuilding a formula per candidate partition, the
:class:`RelaxationChecker` encodes the paper's formula (2) once — every
input variable gets relaxation controls ``alpha_x`` / ``beta_x`` guarding the
equalities between the original and the instantiated copies — and each
partition check becomes a single incremental SAT call under assumptions.
This is the engine behind all partition-search strategies (LJH, STEP-MG and
the QBF refinement loop) as well as the source of:

* *needed equalities* (from UNSAT cores): variables whose equality was used
  in the refutation, which the heuristic engines use to grow partitions; and
* *counterexample difference sets* (from SAT models): variables whose copies
  differ in a falsifying witness, which become the QBF blocking clauses.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from repro.aig.function import BooleanFunction
from repro.core.partition import VariablePartition
from repro.core.spec import AND, OR, check_operator
from repro.errors import DecompositionError
from repro.sat.cnf import CNF
from repro.sat.solver import Solver
from repro.sat.tseitin import encode_relaxed_equiv, encode_xor
from repro.utils.timer import Deadline


@dataclass
class CheckOutcome:
    """Result of one decomposability check.

    ``decomposable`` is ``True`` (the check formula is UNSAT), ``False``
    (a falsifying witness exists) or ``None`` (budget exhausted).  The
    witness differences are positions in ``RelaxationChecker.variables``,
    listed in name order.
    """

    decomposable: Optional[bool]
    needed_alpha: Set[str] = field(default_factory=set)
    needed_beta: Set[str] = field(default_factory=set)
    witness_diff_a: Tuple[int, ...] = ()
    witness_diff_b: Tuple[int, ...] = ()


class RelaxationChecker:
    """Incremental decomposability checker for one function and operator.

    The assumption pairs, copy variables and core-literal names are index
    tables over :attr:`variables`, built once; :meth:`fresh` reuses them.
    """

    def __init__(self, function: BooleanFunction, operator: str) -> None:
        self.function = function
        self.operator = check_operator(operator)
        self.variables: List[str] = list(function.input_names)
        if len(self.variables) < 2:
            raise DecompositionError(
                "bi-decomposition requires a function with at least two inputs"
            )
        self.sat_calls = 0

        cnf = CNF()
        # Shared (original) copy of the inputs plus one instantiated copy per
        # formula instantiation.
        x0 = [cnf.new_var() for _ in self.variables]
        x1 = [cnf.new_var() for _ in self.variables]
        x2 = [cnf.new_var() for _ in self.variables]
        alpha = [cnf.new_var() for _ in self.variables]
        beta = [cnf.new_var() for _ in self.variables]
        x3: List[int] = []

        out0 = self._encode_copy(cnf, x0)
        out1 = self._encode_copy(cnf, x1)
        out2 = self._encode_copy(cnf, x2)
        for i in range(len(self.variables)):
            encode_relaxed_equiv(cnf, x0[i], x1[i], alpha[i])
            encode_relaxed_equiv(cnf, x0[i], x2[i], beta[i])

        if self.operator == OR:
            cnf.add_unit(out0)
            cnf.add_unit(-out1)
            cnf.add_unit(-out2)
        elif self.operator == AND:
            # AND decomposability of f == OR decomposability of NOT f.
            cnf.add_unit(-out0)
            cnf.add_unit(out1)
            cnf.add_unit(out2)
        else:  # XOR: the rectangle condition needs the doubly instantiated copy.
            x3 = [cnf.new_var() for _ in self.variables]
            out3 = self._encode_copy(cnf, x3)
            for i in range(len(self.variables)):
                encode_relaxed_equiv(cnf, x1[i], x3[i], beta[i])
                encode_relaxed_equiv(cnf, x2[i], x3[i], alpha[i])
            parity01 = cnf.new_var()
            parity23 = cnf.new_var()
            parity = cnf.new_var()
            encode_xor(cnf, parity01, out0, out1)
            encode_xor(cnf, parity23, out2, out3)
            encode_xor(cnf, parity, parity01, parity23)
            cnf.add_unit(parity)

        self._cnf = cnf
        # _assume[i][a][b]: the assumptions for alpha_i = a, beta_i = b.
        self._assume = [
            (((-a, -b), (-a, b)), ((a, -b), (a, b))) for a, b in zip(alpha, beta)
        ]
        # (i, x0, x1, x2, x3) in name order (blocking clauses list names
        # sorted); x3 is 0 outside XOR.
        self._copies = tuple(
            (i, x0[i], x1[i], x2[i], x3[i] if x3 else 0)
            for i in sorted(range(len(self.variables)), key=self.variables.__getitem__)
        )
        self._needed_alpha = {-a: name for a, name in zip(alpha, self.variables)}
        self._needed_beta = {-b: name for b, name in zip(beta, self.variables)}
        self._solver = Solver()
        self._solver.add_cnf(cnf)

    def fresh(self) -> "RelaxationChecker":
        """This encoding on a new solver: it answers as a newly built checker
        would, where a shared solver's learned clauses could change ties."""
        twin = copy.copy(self)
        twin.sat_calls = 0
        twin._solver = Solver()
        twin._solver.add_cnf(self._cnf)
        return twin

    def _encode_copy(self, cnf: CNF, input_vars: Sequence[int]) -> int:
        mapping = self.function.to_cnf(cnf, dict(zip(self.function.inputs, input_vars)))
        return mapping.output_literal

    # -- checks -------------------------------------------------------------------

    def check_partition(
        self,
        partition: VariablePartition,
        deadline: Optional[Deadline] = None,
        conflict_budget: Optional[int] = None,
    ) -> CheckOutcome:
        """Check decomposability under an explicit partition."""
        partition.validate_against(self.variables)
        xa = set(partition.xa)
        xb = set(partition.xb)
        return self.check_alpha_beta(
            [name in xa for name in self.variables],
            [name in xb for name in self.variables],
            deadline=deadline,
            conflict_budget=conflict_budget,
        )

    def check_alpha_beta(
        self,
        alpha: Sequence[int],
        beta: Sequence[int],
        deadline: Optional[Deadline] = None,
        conflict_budget: Optional[int] = None,
    ) -> CheckOutcome:
        """Check decomposability under a relaxation assignment.

        ``alpha[i]`` / ``beta[i]`` (0/1 or bool, e.g. a ``bytes`` slice) is
        the control of ``variables[i]``: alpha relaxes the first instantiated
        copy (``XA``), beta the second (``XB``); neither means shared (``XC``).
        """
        self.sat_calls += 1
        assumptions: List[int] = []
        for pairs, a, b in zip(self._assume, alpha, beta, strict=True):
            assumptions += pairs[a][b]
        result = self._solver.solve(
            assumptions=assumptions,
            deadline=deadline,
            conflict_budget=conflict_budget,
        )
        if result.status is None:
            return CheckOutcome(decomposable=None)
        if result.status is False:
            alpha_names = self._needed_alpha
            beta_names = self._needed_beta
            return CheckOutcome(
                decomposable=True,
                needed_alpha={alpha_names[l] for l in result.core if l in alpha_names},
                needed_beta={beta_names[l] for l in result.core if l in beta_names},
            )
        values = result.values
        diff_a: List[int] = []
        diff_b: List[int] = []
        for i, v0, v1, v2, v3 in self._copies:
            base, first, second = values[v0], values[v1], values[v2]
            if first != base or v3 and values[v3] != second:
                diff_a.append(i)
            if second != base or v3 and values[v3] != first:
                diff_b.append(i)
        return CheckOutcome(
            decomposable=False,
            witness_diff_a=tuple(diff_a),
            witness_diff_b=tuple(diff_b),
        )


def check_decomposable(
    function: BooleanFunction,
    operator: str,
    partition: VariablePartition,
    deadline: Optional[Deadline] = None,
) -> bool:
    """One-shot decomposability check (builds a fresh checker)."""
    if partition.is_trivial:
        raise DecompositionError("the check requires a non-trivial partition")
    checker = RelaxationChecker(function, operator)
    outcome = checker.check_partition(partition, deadline=deadline)
    if outcome.decomposable is None:
        raise DecompositionError("decomposability check exhausted its budget")
    return outcome.decomposable
