"""CNF encodings of cardinality constraints.

The paper's quality-target constraints ``fT`` (formulas (5), (6) and (8)) and
the non-triviality constraint ``fN`` are cardinality constraints over the
partition control variables ``alpha_x`` / ``beta_x``:

* ``AtLeast1`` over the alpha (resp. beta) literals forbids trivial
  partitions (section IV.A.1),
* ``AtMost-k`` over the "x belongs to XC" indicators bounds disjointness
  (formula (5)),
* a difference bound over "x in XA" / "x in XB" indicators bounds
  balancedness (formula (6)), which we encode with two AtMost-k constraints
  over complementary selections.

Two AtMost-k encodings are provided: the classic *sequential counter*
(Sinz 2005), used by default, and a *totalizer* (Bailleux & Boutilier 2003)
kept for the encoding ablation benchmark.  Both produce auxiliary variables
through the :class:`repro.sat.cnf.CNF` variable counter.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import CnfError
from repro.sat.cnf import CNF, check_literal


def at_least_one(cnf: CNF, lits: Sequence[int]) -> None:
    """Assert that at least one of ``lits`` is true."""
    lits = [check_literal(l) for l in lits]
    if not lits:
        raise CnfError("AtLeast1 over an empty literal set is unsatisfiable")
    cnf.add_clause(lits)


def at_most_one(cnf: CNF, lits: Sequence[int]) -> None:
    """Pairwise AtMost1 encoding (quadratic, fine for small sets)."""
    lits = [check_literal(l) for l in lits]
    for i in range(len(lits)):
        for j in range(i + 1, len(lits)):
            cnf.add_clause((-lits[i], -lits[j]))


def at_most_k(cnf: CNF, lits: Sequence[int], k: int, encoding: str = "seqcounter") -> None:
    """Assert that at most ``k`` of ``lits`` are true."""
    lits = [check_literal(l) for l in lits]
    if k < 0:
        # "At most a negative count" can never hold (the true-count is always
        # at least zero); encode a fresh contradiction.
        fresh = cnf.new_var()
        cnf.add_unit(fresh)
        cnf.add_unit(-fresh)
        return
    if k >= len(lits):
        return
    if k == 0:
        for lit in lits:
            cnf.add_unit(-lit)
        return
    if encoding == "seqcounter":
        _seqcounter_at_most_k(cnf, lits, k)
    elif encoding == "totalizer":
        outputs = _totalizer(cnf, lits)
        # outputs[i] is true iff at least i+1 inputs are true.
        cnf.add_unit(-outputs[k])
    elif encoding == "pairwise":
        if k == 1:
            at_most_one(cnf, lits)
        else:
            _seqcounter_at_most_k(cnf, lits, k)
    else:
        raise CnfError(f"unknown cardinality encoding: {encoding!r}")


def at_least_k(cnf: CNF, lits: Sequence[int], k: int, encoding: str = "seqcounter") -> None:
    """Assert that at least ``k`` of ``lits`` are true."""
    lits = [check_literal(l) for l in lits]
    if k <= 0:
        return
    if k > len(lits):
        # Unsatisfiable: encode a fresh contradiction.
        fresh = cnf.new_var()
        cnf.add_unit(fresh)
        cnf.add_unit(-fresh)
        return
    # at_least_k(lits, k) == at_most_k(~lits, n - k)
    at_most_k(cnf, [-l for l in lits], len(lits) - k, encoding=encoding)


def _seqcounter_at_most_k(cnf: CNF, lits: Sequence[int], k: int) -> None:
    """Sinz's sequential (unary) counter encoding of AtMost-k.

    Auxiliary variable ``s[i][j]`` means "among the first i+1 literals at
    least j+1 are true"; the final constraint forbids the counter reaching
    ``k + 1`` anywhere.  ``lits`` were validated by the caller and every
    other literal is fresh, so the clauses are appended unchecked.
    """
    n = len(lits)
    # s[i][j] for i in 0..n-1, j in 0..k-1
    s = [[cnf.new_var() for _ in range(k)] for _ in range(n)]
    clauses = cnf.clauses
    clauses.append((-lits[0], s[0][0]))
    for j in range(1, k):
        clauses.append((-s[0][j],))
    for i in range(1, n):
        clauses.append((-lits[i], s[i][0]))
        clauses.append((-s[i - 1][0], s[i][0]))
        for j in range(1, k):
            clauses.append((-lits[i], -s[i - 1][j - 1], s[i][j]))
            clauses.append((-s[i - 1][j], s[i][j]))
        clauses.append((-lits[i], -s[i - 1][k - 1]))
    # The counter for the last position may not exceed k either; the clause
    # above already covers i = n-1 because it forbids lits[i] when the prefix
    # already holds k.  Inputs beyond the counter grow it, as
    # CNF.add_clause would have.
    cnf.num_vars = max(cnf.num_vars, *map(abs, lits))


def totalizer_outputs(cnf: CNF, lits: Sequence[int]) -> List[int]:
    """Build a totalizer over ``lits`` and return its unary output vector.

    The returned list ``out`` has ``len(lits)`` entries; ``out[i]`` is true
    iff at least ``i + 1`` of the inputs are true, and the encoding forces
    the outputs to be monotone (``out[i+1] -> out[i]``).
    """
    return _totalizer(cnf, [check_literal(l) for l in lits])


def _totalizer(cnf: CNF, lits: List[int]) -> List[int]:
    """:func:`totalizer_outputs` over literals validated once at entry."""
    if len(lits) <= 1:
        return lits
    mid = len(lits) // 2
    left = _totalizer(cnf, lits[:mid])
    right = _totalizer(cnf, lits[mid:])
    n = len(lits)
    out = [cnf.new_var() for _ in range(n)]
    # An input literal may lie beyond the counter; account for it exactly
    # where validating add_clause would have (before the next fresh var).
    cnf.num_vars = max(cnf.num_vars, abs(left[0]), abs(right[0]))
    clauses = cnf.clauses
    # Merge clauses.  Lower direction: if at least ``alpha`` left inputs and
    # ``beta`` right inputs are true then at least ``alpha + beta`` outputs
    # are true.  Upper direction: if at most ``alpha`` left and ``beta``
    # right inputs are true then at most ``alpha + beta`` outputs are true.
    for alpha in range(0, len(left) + 1):
        for beta in range(0, len(right) + 1):
            sigma = alpha + beta
            if sigma > 0:
                antecedents = []
                if alpha > 0:
                    antecedents.append(-left[alpha - 1])
                if beta > 0:
                    antecedents.append(-right[beta - 1])
                clauses.append((*antecedents, out[sigma - 1]))
            if sigma <= n - 1:
                consequents = []
                if alpha < len(left):
                    consequents.append(left[alpha])
                if beta < len(right):
                    consequents.append(right[beta])
                clauses.append((*consequents, -out[sigma]))
    # Monotonicity of the output vector.
    for i in range(n - 1):
        clauses.append((-out[i + 1], out[i]))
    return out
