"""Support computation for AIG literals.

Two notions of support are relevant to the paper's experiments:

* the *structural* support — inputs reachable in the transitive fanin of an
  output — which defines the paper's ``#InM`` statistic (maximum number of
  support variables among the primary outputs); and
* the *functional* support — inputs the function actually depends on — which
  is what bi-decomposition partitions.  Structural support over-approximates
  functional support; the difference matters for redundantly built circuits.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.aig.aig import AIG, AigLiteral
from repro.aig.simulate import exhaustive_patterns, simulate_words


def structural_support(aig: AIG, lit: AigLiteral) -> List[int]:
    """Input/latch node indices in the transitive fanin of ``lit``.

    The result is sorted by node index, i.e. by input creation order.
    """
    return aig.mask_nodes(aig.support_mask(lit))


def functional_support(aig: AIG, lit: AigLiteral, max_inputs: int = 20) -> List[int]:
    """Inputs the function of ``lit`` truly depends on.

    Computed exactly from one exhaustive bit-parallel simulation over the
    structural support, which is practical for cones with at most
    ``max_inputs`` structural support variables (the default of 20 gives
    one-million-bit words).  For wider cones the structural support is
    returned unchanged, mirroring what SAT-based tools do in practice.

    Input ``i`` (word ``w``, period ``2 ** i``) is essential iff some
    pattern ``p`` with bit ``i`` clear has ``T[p] != T[p + 2 ** i]``, i.e.
    iff ``((T >> 2 ** i) ^ T) & ~w`` is non-zero within the mask.
    """
    support = structural_support(aig, lit)
    if len(support) > max_inputs:
        return support
    words, mask = exhaustive_patterns(len(support))
    (table,) = simulate_words(aig, dict(zip(support, words)), [lit], mask)
    return [
        node
        for i, (node, word) in enumerate(zip(support, words))
        if ((table >> (1 << i)) ^ table) & (mask ^ word)
    ]


def max_output_support(aig: AIG) -> int:
    """The paper's ``#InM``: the largest structural support over all POs."""
    best = 0
    for _, lit in aig.outputs:
        best = max(best, len(structural_support(aig, lit)))
    return best
