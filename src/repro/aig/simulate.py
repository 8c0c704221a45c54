"""AIG simulation.

Two entry points are provided:

* :func:`simulate` — evaluate output literals under a single Boolean
  assignment to the inputs; and
* :func:`simulate_words` — bit-parallel simulation where every input carries
  an arbitrary-precision integer whose bits encode many assignment at once.
  Python integers act as unbounded machine words, so a single pass evaluates
  an entire (small) truth table or a random sample of patterns.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.errors import AigError
from repro.aig.aig import (
    AIG,
    AigLiteral,
    NODE_AND,
    lit_is_complemented,
    lit_var,
)


def simulate(aig: AIG, assignment: Mapping[int, bool], lits: Sequence[AigLiteral]) -> List[bool]:
    """Evaluate ``lits`` under ``assignment`` (input node index -> bool)."""
    width_mask = 1
    words = {index: (1 if value else 0) for index, value in assignment.items()}
    results = simulate_words(aig, words, lits, width_mask)
    return [bool(value & 1) for value in results]


def simulate_words(
    aig: AIG,
    input_words: Mapping[int, int],
    lits: Sequence[AigLiteral],
    mask: int,
) -> List[int]:
    """Bit-parallel evaluation of ``lits``.

    Parameters
    ----------
    input_words:
        Maps input (or latch) node indices to integers; bit ``i`` of the word
        is the value of that input in pattern ``i``.
    mask:
        An all-ones integer as wide as the number of patterns; complemented
        edges are computed as ``word XOR mask``.
    """
    values: Dict[int, int] = {0: 0}
    for index in aig.cone_nodes(lits):
        node = aig.node(index)
        if node.kind == NODE_AND:
            f0 = _edge_value(values, node.fanin0, mask)
            f1 = _edge_value(values, node.fanin1, mask)
            values[index] = f0 & f1
        else:
            if index not in input_words:
                raise AigError(
                    f"no simulation value supplied for input {aig.input_name(index)}"
                )
            values[index] = input_words[index] & mask
    return [_edge_value(values, lit, mask) for lit in lits]


def _edge_value(values: Dict[int, int], lit: AigLiteral, mask: int) -> int:
    value = values[lit_var(lit)]
    return (value ^ mask) if lit_is_complemented(lit) else value


@lru_cache(maxsize=None)
def exhaustive_patterns(num_inputs: int) -> Tuple[Tuple[int, ...], int]:
    """Input words and mask enumerating all ``2 ** num_inputs`` patterns.

    Returns a tuple with one word per input (input ``k`` toggles with period
    ``2 ** k``) and the all-ones mask over ``2 ** num_inputs`` bits.  The
    words follow the usual truth-table convention: pattern index ``p`` assigns
    input ``k`` the value of bit ``k`` of ``p``.  Word ``k`` is one block of
    ``2 ** (k + 1)`` bits, its upper half set, repeated across the mask.
    The result is memoised and immutable.
    """
    if num_inputs < 0:
        raise AigError("num_inputs must be non-negative")
    mask = (1 << (1 << num_inputs)) - 1
    words = []
    for k in range(num_inputs):
        half = 1 << k
        block = ((1 << half) - 1) << half
        repunit = mask // ((1 << (2 * half)) - 1)
        words.append(block * repunit)
    return tuple(words), mask
