"""Structurally hashed And-Inverter Graphs.

The representation follows the AIGER convention:

* every node has an index ``i``; the *literal* ``2 * i`` denotes the node and
  ``2 * i + 1`` its complement;
* node 0 is the constant false, so literal ``0`` is FALSE and ``1`` is TRUE;
* a node is either a primary input, a latch output (treated as a free input
  until the circuit is made combinational) or a two-input AND node.

Structural hashing (one AND node per unordered fanin pair) and the usual
constant/complement simplifications are applied on construction, which keeps
the three instantiated circuit copies required by the paper's formula (2)
compact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import AigError

AigLiteral = int

FALSE_LIT: AigLiteral = 0
TRUE_LIT: AigLiteral = 1

NODE_CONST = "const"
NODE_INPUT = "input"
NODE_LATCH = "latch"
NODE_AND = "and"


@dataclass
class _Node:
    """Internal node record."""

    kind: str
    name: Optional[str] = None
    fanin0: AigLiteral = 0
    fanin1: AigLiteral = 0
    next_state: Optional[AigLiteral] = None  # latches only
    init_value: int = 0  # latches only


def lit_neg(lit: AigLiteral) -> AigLiteral:
    """Complement an AIG literal."""
    return lit ^ 1


def lit_var(lit: AigLiteral) -> int:
    """Node index of a literal."""
    return lit >> 1

def lit_is_complemented(lit: AigLiteral) -> bool:
    return bool(lit & 1)


def lit_make(node: int, complemented: bool = False) -> AigLiteral:
    return 2 * node + (1 if complemented else 0)


class AIG:
    """A mutable, structurally hashed And-Inverter Graph.

    The class exposes both the raw node-level interface (``add_input``,
    ``add_and``) and convenience operators (``lor``, ``lxor``, ``mux``, ...)
    that build balanced sub-graphs out of AND nodes and complemented edges.
    """

    def __init__(self, name: str = "aig") -> None:
        self.name = name
        self._nodes: List[_Node] = [_Node(NODE_CONST)]
        self._strash: Dict[Tuple[AigLiteral, AigLiteral], int] = {}
        self._inputs: List[int] = []
        self._latches: List[int] = []
        # Inputs and latches together, in creation order: bit ``k`` of a
        # support mask stands for ``self._sources[k]``.
        self._sources: List[int] = []
        # One support mask per node: the inputs/latches in its fanin.
        self._masks: List[int] = [0]
        self._outputs: List[Tuple[str, AigLiteral]] = []
        self._input_names: Dict[str, int] = {}

    # -- structure queries -----------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_ands(self) -> int:
        return sum(1 for node in self._nodes if node.kind == NODE_AND)

    @property
    def inputs(self) -> List[int]:
        """Primary input node indices, in creation order."""
        return list(self._inputs)

    @property
    def latches(self) -> List[int]:
        """Latch output node indices, in creation order."""
        return list(self._latches)

    @property
    def outputs(self) -> List[Tuple[str, AigLiteral]]:
        """(name, literal) pairs for the primary outputs."""
        return list(self._outputs)

    def node(self, index: int) -> _Node:
        return self._nodes[index]

    def node_kind(self, index: int) -> str:
        return self._nodes[index].kind

    def input_name(self, index: int) -> str:
        node = self._nodes[index]
        if node.kind not in (NODE_INPUT, NODE_LATCH):
            raise AigError(f"node {index} is not an input or latch")
        return node.name or f"n{index}"

    def input_by_name(self, name: str) -> int:
        if name not in self._input_names:
            raise AigError(f"unknown input name: {name!r}")
        return self._input_names[name]

    def fanins(self, index: int) -> Tuple[AigLiteral, AigLiteral]:
        node = self._nodes[index]
        if node.kind != NODE_AND:
            raise AigError(f"node {index} is not an AND node")
        return node.fanin0, node.fanin1

    def is_input(self, index: int) -> bool:
        return self._nodes[index].kind in (NODE_INPUT, NODE_LATCH)

    def is_and(self, index: int) -> bool:
        return self._nodes[index].kind == NODE_AND

    # -- construction -----------------------------------------------------------

    def add_input(self, name: Optional[str] = None) -> AigLiteral:
        """Create a primary input and return its (positive) literal."""
        index = len(self._nodes)
        if name is None:
            name = f"i{len(self._inputs)}"
        if name in self._input_names:
            raise AigError(f"duplicate input name: {name!r}")
        self._nodes.append(_Node(NODE_INPUT, name=name))
        self._inputs.append(index)
        self._add_source(index)
        self._input_names[name] = index
        return lit_make(index)

    def add_latch(self, name: Optional[str] = None, init_value: int = 0) -> AigLiteral:
        """Create a latch output node (driven later via :meth:`set_latch_next`)."""
        index = len(self._nodes)
        if name is None:
            name = f"l{len(self._latches)}"
        if name in self._input_names:
            raise AigError(f"duplicate latch name: {name!r}")
        self._nodes.append(_Node(NODE_LATCH, name=name, init_value=init_value))
        self._latches.append(index)
        self._add_source(index)
        self._input_names[name] = index
        return lit_make(index)

    def _add_source(self, index: int) -> None:
        self._masks.append(1 << len(self._sources))
        self._sources.append(index)

    def set_latch_next(self, latch_lit: AigLiteral, next_state: AigLiteral) -> None:
        index = lit_var(latch_lit)
        node = self._nodes[index]
        if node.kind != NODE_LATCH:
            raise AigError(f"node {index} is not a latch")
        node.next_state = next_state

    def add_output(self, name: str, lit: AigLiteral) -> None:
        self._check_literal(lit)
        self._outputs.append((name, lit))

    def add_and(self, a: AigLiteral, b: AigLiteral) -> AigLiteral:
        """Create (or reuse) an AND node computing ``a AND b``."""
        self._check_literal(a)
        self._check_literal(b)
        # Constant and trivial simplifications.
        if a == FALSE_LIT or b == FALSE_LIT:
            return FALSE_LIT
        if a == TRUE_LIT:
            return b
        if b == TRUE_LIT:
            return a
        if a == b:
            return a
        if a == lit_neg(b):
            return FALSE_LIT
        key = (a, b) if a <= b else (b, a)
        existing = self._strash.get(key)
        if existing is not None:
            return lit_make(existing)
        index = len(self._nodes)
        self._nodes.append(_Node(NODE_AND, fanin0=key[0], fanin1=key[1]))
        self._masks.append(self._masks[a >> 1] | self._masks[b >> 1])
        self._strash[key] = index
        return lit_make(index)

    # -- derived operators ------------------------------------------------------

    def lnot(self, a: AigLiteral) -> AigLiteral:
        self._check_literal(a)
        return lit_neg(a)

    def land(self, *lits: AigLiteral) -> AigLiteral:
        """AND of any number of literals (TRUE for the empty conjunction)."""
        result = TRUE_LIT
        for lit in lits:
            result = self.add_and(result, lit)
        return result

    def lor(self, *lits: AigLiteral) -> AigLiteral:
        """OR of any number of literals (FALSE for the empty disjunction)."""
        result = FALSE_LIT
        for lit in lits:
            result = lit_neg(self.add_and(lit_neg(result), lit_neg(lit)))
        return result

    def lxor(self, a: AigLiteral, b: AigLiteral) -> AigLiteral:
        return self.lor(self.add_and(a, lit_neg(b)), self.add_and(lit_neg(a), b))

    def lxnor(self, a: AigLiteral, b: AigLiteral) -> AigLiteral:
        return lit_neg(self.lxor(a, b))

    def implies(self, a: AigLiteral, b: AigLiteral) -> AigLiteral:
        return self.lor(lit_neg(a), b)

    def mux(self, sel: AigLiteral, then_lit: AigLiteral, else_lit: AigLiteral) -> AigLiteral:
        """``sel ? then_lit : else_lit``."""
        return self.lor(self.add_and(sel, then_lit), self.add_and(lit_neg(sel), else_lit))

    def land_list(self, lits: Sequence[AigLiteral]) -> AigLiteral:
        """Balanced AND tree over a literal list."""
        lits = list(lits)
        if not lits:
            return TRUE_LIT
        while len(lits) > 1:
            nxt = []
            for i in range(0, len(lits) - 1, 2):
                nxt.append(self.add_and(lits[i], lits[i + 1]))
            if len(lits) % 2:
                nxt.append(lits[-1])
            lits = nxt
        return lits[0]

    def lor_list(self, lits: Sequence[AigLiteral]) -> AigLiteral:
        """Balanced OR tree over a literal list."""
        return lit_neg(self.land_list([lit_neg(l) for l in lits]))

    def lxor_list(self, lits: Sequence[AigLiteral]) -> AigLiteral:
        """XOR of a literal list (FALSE for the empty list)."""
        result = FALSE_LIT
        for lit in lits:
            result = self.lxor(result, lit)
        return result

    # -- support masks -----------------------------------------------------------

    def support_mask(self, lit: AigLiteral) -> int:
        """Bit mask of the inputs/latches in the transitive fanin of ``lit``.

        Bit ``k`` stands for the ``k``-th input or latch created; use
        :meth:`mask_nodes` to decode a mask into node indices.
        """
        return self._masks[lit_var(lit)]

    def mask_nodes(self, mask: int) -> List[int]:
        """Input/latch node indices of a support mask, in creation order."""
        sources = self._sources
        nodes = []
        while mask:
            low = mask & -mask
            nodes.append(sources[low.bit_length() - 1])
            mask ^= low
        return nodes

    # -- traversal ---------------------------------------------------------------

    def cone_nodes(self, roots: Iterable[AigLiteral]) -> List[int]:
        """Node indices in the transitive fanin of ``roots``, topologically ordered.

        Inputs and latch outputs are included; the constant node is not.
        """
        visited: Dict[int, bool] = {}
        order: List[int] = []
        stack: List[Tuple[int, bool]] = [(lit_var(r), False) for r in roots]
        while stack:
            index, processed = stack.pop()
            if index == 0:
                continue
            if processed:
                order.append(index)
                continue
            if index in visited:
                continue
            visited[index] = True
            node = self._nodes[index]
            if node.kind == NODE_AND:
                stack.append((index, True))
                stack.append((lit_var(node.fanin0), False))
                stack.append((lit_var(node.fanin1), False))
            else:
                order.append(index)
        return order

    def copy_cone(
        self,
        root: AigLiteral,
        target: "AIG",
        input_map: Dict[int, AigLiteral],
    ) -> AigLiteral:
        """Copy the cone of ``root`` into ``target``.

        ``input_map`` maps this AIG's input/latch node indices to literals of
        ``target``; every input in the cone must be mapped.  Returns the
        literal of the copied root in ``target``.
        """
        cache: Dict[int, AigLiteral] = {}
        for index in self.cone_nodes([root]):
            node = self._nodes[index]
            if node.kind in (NODE_INPUT, NODE_LATCH):
                if index not in input_map:
                    raise AigError(
                        f"input {self.input_name(index)} of the cone is not mapped"
                    )
                cache[index] = input_map[index]
            else:
                f0 = self._map_literal(node.fanin0, cache)
                f1 = self._map_literal(node.fanin1, cache)
                cache[index] = target.add_and(f0, f1)
        return self._map_literal(root, cache)

    def cofactor(self, root: AigLiteral, index: int, value: bool) -> AigLiteral:
        """``root`` with the input/latch node ``index`` fixed to ``value``.

        Only the nodes whose support contains ``index`` are re-created; every
        other node is reused as it is.  They are created in the order
        :meth:`copy_cone` would create them, so structural hashing returns
        the literal a full copy of the cone onto itself would.
        """
        masks = self._masks
        bit = masks[index]
        if not masks[lit_var(root)] & bit:
            return root
        nodes = self._nodes
        cache: Dict[int, AigLiteral] = {index: TRUE_LIT if value else FALSE_LIT}

        def rebuilt(lit: AigLiteral) -> AigLiteral:
            if masks[lit >> 1] & bit:
                return cache[lit >> 1] ^ (lit & 1)
            return lit

        visited = {index}
        # The traversal of :meth:`cone_nodes`, pruned at nodes outside the
        # fanout of ``index``.
        stack: List[Tuple[int, bool]] = [(lit_var(root), False)]
        while stack:
            current, processed = stack.pop()
            node = nodes[current]
            if processed:
                cache[current] = self.add_and(rebuilt(node.fanin0), rebuilt(node.fanin1))
            elif current not in visited:
                visited.add(current)
                stack.append((current, True))
                for fanin in (node.fanin0, node.fanin1):
                    if masks[fanin >> 1] & bit:
                        stack.append((fanin >> 1, False))
        return rebuilt(root)

    @staticmethod
    def _map_literal(lit: AigLiteral, cache: Dict[int, AigLiteral]) -> AigLiteral:
        if lit_var(lit) == 0:
            return lit
        mapped = cache[lit_var(lit)]
        return lit_neg(mapped) if lit_is_complemented(lit) else mapped

    # -- sequential handling -------------------------------------------------------

    def make_combinational(self) -> "AIG":
        """Return a combinational copy (the ABC ``comb`` command).

        Every latch output becomes a fresh primary input and every latch's
        next-state function becomes a fresh primary output.  Combinational
        circuits are returned unchanged (as a copy).
        """
        result = AIG(self.name)
        mapping: Dict[int, AigLiteral] = {}
        for index in self._inputs:
            mapping[index] = result.add_input(self.input_name(index))
        for index in self._latches:
            mapping[index] = result.add_input(self.input_name(index))
        roots = [lit for _, lit in self._outputs]
        for index in self._latches:
            next_state = self._nodes[index].next_state
            if next_state is not None:
                roots.append(next_state)
        for index in self.cone_nodes(roots):
            node = self._nodes[index]
            if node.kind == NODE_AND:
                f0 = self._map_literal(node.fanin0, mapping)
                f1 = self._map_literal(node.fanin1, mapping)
                mapping[index] = result.add_and(f0, f1)
            elif index not in mapping:
                mapping[index] = result.add_input(self.input_name(index))
        for name, lit in self._outputs:
            result.add_output(name, self._map_literal(lit, mapping))
        for index in self._latches:
            next_state = self._nodes[index].next_state
            if next_state is not None:
                result.add_output(
                    f"{self.input_name(index)}__next",
                    self._map_literal(next_state, mapping),
                )
        return result

    # -- misc -----------------------------------------------------------------------

    def _check_literal(self, lit: AigLiteral) -> None:
        if not isinstance(lit, int) or lit < 0 or lit_var(lit) >= len(self._nodes):
            raise AigError(f"invalid AIG literal: {lit!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AIG(name={self.name!r}, inputs={len(self._inputs)}, "
            f"latches={len(self._latches)}, ands={self.num_ands}, "
            f"outputs={len(self._outputs)})"
        )
