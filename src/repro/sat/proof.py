"""Resolution proof recording.

When :class:`repro.sat.solver.Solver` runs with ``proof=True`` it records,
for every learned clause, the *resolution chain* that derives it: the
conflict clause followed by the reason clauses it was resolved against and
the pivot variables of those resolutions.  A refutation ends with a chain
deriving the empty clause.  :mod:`repro.sat.interpolate` replays these chains
to compute Craig interpolants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import SolverError

ORIGINAL = "original"
LEARNED = "learned"


@dataclass
class ResolutionChain:
    """A linear resolution derivation.

    The derived clause is obtained by starting from ``antecedents[0]`` and
    resolving, in order, with ``antecedents[i + 1]`` on variable
    ``pivots[i]``.
    """

    antecedents: List[int] = field(default_factory=list)
    pivots: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.antecedents and len(self.pivots) != len(self.antecedents) - 1:
            # Chains are built incrementally by the solver; only fully built
            # chains satisfy the invariant, so the check happens in Proof.
            pass


@dataclass
class ProofClause:
    """A clause participating in a proof, with its provenance."""

    cid: int
    lits: Tuple[int, ...]
    kind: str
    chain: Optional[ResolutionChain] = None


class Proof:
    """A resolution proof: original clauses, learned clauses and chains."""

    def __init__(self) -> None:
        self._clauses: List[ProofClause] = []
        self._empty_chain: Optional[ResolutionChain] = None

    # -- construction (used by the solver) -----------------------------------

    def add_original(self, lits: Sequence[int]) -> int:
        cid = len(self._clauses)
        self._clauses.append(ProofClause(cid, tuple(lits), ORIGINAL))
        return cid

    def add_learned(self, lits: Sequence[int], chain: ResolutionChain) -> int:
        cid = len(self._clauses)
        self._clauses.append(ProofClause(cid, tuple(lits), LEARNED, chain))
        return cid

    def set_empty_clause(self, chain: ResolutionChain) -> None:
        self._empty_chain = chain

    # -- queries --------------------------------------------------------------

    @property
    def has_refutation(self) -> bool:
        return self._empty_chain is not None

    @property
    def empty_chain(self) -> ResolutionChain:
        if self._empty_chain is None:
            raise SolverError("the proof does not contain a refutation")
        return self._empty_chain

    def clause(self, cid: int) -> ProofClause:
        return self._clauses[cid]

    def __len__(self) -> int:
        return len(self._clauses)

    def __iter__(self):
        return iter(self._clauses)

    def original_clauses(self) -> List[ProofClause]:
        return [c for c in self._clauses if c.kind == ORIGINAL]

    # -- validation ------------------------------------------------------------

    def replay_chain(self, chain: ResolutionChain) -> Set[int]:
        """Replay a chain and return the derived clause as a literal set.

        Raises :class:`SolverError` if any resolution step is ill-formed
        (pivot missing from one of the operands).
        """
        if not chain.antecedents:
            raise SolverError("empty resolution chain")
        if len(chain.pivots) != len(chain.antecedents) - 1:
            raise SolverError("chain pivot/antecedent length mismatch")
        current: Set[int] = set(self._clauses[chain.antecedents[0]].lits)
        for cid, pivot in zip(chain.antecedents[1:], chain.pivots):
            other = set(self._clauses[cid].lits)
            current = resolve(current, other, pivot)
        return current

    def check(self) -> bool:
        """Verify every recorded chain, including the final refutation.

        Returns ``True`` when every learned clause is derived exactly by its
        chain and the empty-clause chain derives the empty clause.  Intended
        for tests; linear in the proof size.
        """
        for clause in self._clauses:
            if clause.kind != LEARNED:
                continue
            derived = self.replay_chain(clause.chain)
            if derived != set(clause.lits):
                raise SolverError(
                    f"chain of clause {clause.cid} derives {sorted(derived)} "
                    f"but the clause is {sorted(clause.lits)}"
                )
        if self._empty_chain is not None:
            derived = self.replay_chain(self._empty_chain)
            if derived:
                raise SolverError(
                    f"refutation chain derives {sorted(derived)}, not the empty clause"
                )
        return True


def resolve(clause_a: Set[int], clause_b: Set[int], pivot: int) -> Set[int]:
    """Resolve two clauses (literal sets) on ``pivot`` (a variable)."""
    if pivot in clause_a and -pivot in clause_b:
        positive, negative = clause_a, clause_b
    elif -pivot in clause_a and pivot in clause_b:
        positive, negative = clause_b, clause_a
    else:
        raise SolverError(f"pivot {pivot} does not occur with both polarities")
    result = (positive - {pivot}) | (negative - {-pivot})
    return result
