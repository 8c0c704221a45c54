"""Conjunctive normal form containers.

Literals follow the DIMACS convention: a variable is a positive integer and
its negation is the corresponding negative integer.  Zero is never a valid
literal.  :class:`CNF` is a lightweight mutable container used to assemble
problem encodings before handing them to :class:`repro.sat.solver.Solver`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.errors import CnfError

Clause = Tuple[int, ...]


def check_literal(lit: int) -> int:
    """Validate a DIMACS literal (non-zero integer) and return it."""
    if not isinstance(lit, int) or isinstance(lit, bool) or lit == 0:
        raise CnfError(f"invalid literal: {lit!r}")
    return lit


class CNF:
    """A CNF formula: a clause list plus a variable counter.

    The variable counter grows monotonically; :meth:`new_var` hands out fresh
    variables for Tseitin encodings and cardinality networks, and
    :meth:`add_clause` bumps the counter when a clause mentions a larger
    variable than seen so far.
    """

    def __init__(self, num_vars: int = 0, clauses: Iterable[Iterable[int]] = ()) -> None:
        if num_vars < 0:
            raise CnfError("num_vars must be non-negative")
        self.num_vars = num_vars
        self.clauses: List[Clause] = []
        for clause in clauses:
            self.add_clause(clause)

    # -- construction -------------------------------------------------------

    def new_var(self) -> int:
        """Allocate and return a fresh variable."""
        self.num_vars += 1
        return self.num_vars

    def new_vars(self, count: int) -> List[int]:
        """Allocate ``count`` fresh variables and return them in order."""
        if count < 0:
            raise CnfError("count must be non-negative")
        return [self.new_var() for _ in range(count)]

    def add_clause(self, lits: Iterable[int]) -> None:
        """Append a clause (a disjunction of DIMACS literals)."""
        clause = tuple(check_literal(l) for l in lits)
        for lit in clause:
            if abs(lit) > self.num_vars:
                self.num_vars = abs(lit)
        self.clauses.append(clause)

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    def add_unit(self, lit: int) -> None:
        self.add_clause((lit,))

    def extend(self, other: "CNF") -> None:
        """Append all clauses of ``other`` (variables are shared, not shifted)."""
        self.num_vars = max(self.num_vars, other.num_vars)
        self.clauses.extend(other.clauses)

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.clauses)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def variables(self) -> set[int]:
        """The set of variables actually occurring in some clause."""
        return {abs(lit) for clause in self.clauses for lit in clause}

    def copy(self) -> "CNF":
        out = CNF(self.num_vars)
        out.clauses = list(self.clauses)
        return out

    def evaluate(self, assignment: dict[int, bool]) -> bool:
        """Evaluate under a total assignment (mapping var -> bool)."""
        for clause in self.clauses:
            if not any(
                assignment[abs(lit)] if lit > 0 else not assignment[abs(lit)]
                for lit in clause
            ):
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CNF(num_vars={self.num_vars}, num_clauses={len(self.clauses)})"
