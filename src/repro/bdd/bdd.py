"""A small Reduced Ordered BDD manager.

Nodes are integers: ``0`` and ``1`` are the terminals and every other node
has a variable level, a low child (variable = 0) and a high child
(variable = 1).  Reduction (no redundant tests, shared subgraphs) is enforced
by the unique table.  The manager supports the operations the bi-
decomposition baseline needs: conjunction, disjunction, negation, XOR,
cofactors, existential and universal quantification, satisfying-assignment
counting and conversion from/to :class:`repro.aig.function.BooleanFunction`.

The variable order is the creation order of the named variables; dynamic
reordering is out of scope (and is one of the BDD weaknesses the paper
motivates moving away from).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.aig.aig import AIG, NODE_AND
from repro.aig.function import BooleanFunction
from repro.errors import BddError

BddNode = int

FALSE_NODE: BddNode = 0
TRUE_NODE: BddNode = 1


class BDD:
    """A shared, reduced, ordered BDD manager."""

    def __init__(self, var_names: Optional[Sequence[str]] = None) -> None:
        # node id -> (level, low, high); terminals use level = +infinity marker
        self._level: List[int] = [2**31, 2**31]
        self._low: List[BddNode] = [0, 1]
        self._high: List[BddNode] = [0, 1]
        self._unique: Dict[Tuple[int, BddNode, BddNode], BddNode] = {}
        self._ite_cache: Dict[Tuple[BddNode, BddNode, BddNode], BddNode] = {}
        self._var_names: List[str] = []
        self._name_to_level: Dict[str, int] = {}
        if var_names:
            for name in var_names:
                self.add_var(name)

    # -- variables -----------------------------------------------------------

    def add_var(self, name: str) -> BddNode:
        """Declare a variable (appended to the order) and return its node."""
        if name in self._name_to_level:
            raise BddError(f"variable {name!r} already declared")
        level = len(self._var_names)
        self._var_names.append(name)
        self._name_to_level[name] = level
        return self._mk(level, FALSE_NODE, TRUE_NODE)

    def var(self, name: str) -> BddNode:
        """The BDD of an already declared variable."""
        if name not in self._name_to_level:
            raise BddError(f"unknown variable {name!r}")
        return self._mk(self._name_to_level[name], FALSE_NODE, TRUE_NODE)

    @property
    def var_names(self) -> List[str]:
        return list(self._var_names)

    @property
    def num_nodes(self) -> int:
        return len(self._level)

    # -- core construction -----------------------------------------------------

    def _mk(self, level: int, low: BddNode, high: BddNode) -> BddNode:
        if low == high:
            return low
        key = (level, low, high)
        node = self._unique.get(key)
        if node is not None:
            return node
        node = len(self._level)
        self._level.append(level)
        self._low.append(low)
        self._high.append(high)
        self._unique[key] = node
        return node

    def ite(self, f: BddNode, g: BddNode, h: BddNode) -> BddNode:
        """If-then-else: ``f ? g : h`` — the universal BDD operation."""
        if f == TRUE_NODE:
            return g
        if f == FALSE_NODE:
            return h
        if g == h:
            return g
        if g == TRUE_NODE and h == FALSE_NODE:
            return f
        key = (f, g, h)
        cached = self._ite_cache.get(key)
        if cached is not None:
            return cached
        level = min(self._level[f], self._level[g], self._level[h])
        f0, f1 = self._cofactors(f, level)
        g0, g1 = self._cofactors(g, level)
        h0, h1 = self._cofactors(h, level)
        low = self.ite(f0, g0, h0)
        high = self.ite(f1, g1, h1)
        result = self._mk(level, low, high)
        self._ite_cache[key] = result
        return result

    def _cofactors(self, node: BddNode, level: int) -> Tuple[BddNode, BddNode]:
        if self._level[node] != level:
            return node, node
        return self._low[node], self._high[node]

    # -- Boolean operations --------------------------------------------------------

    def apply_not(self, f: BddNode) -> BddNode:
        return self.ite(f, FALSE_NODE, TRUE_NODE)

    def apply_and(self, f: BddNode, g: BddNode) -> BddNode:
        return self.ite(f, g, FALSE_NODE)

    def apply_or(self, f: BddNode, g: BddNode) -> BddNode:
        return self.ite(f, TRUE_NODE, g)

    def apply_xor(self, f: BddNode, g: BddNode) -> BddNode:
        return self.ite(f, self.apply_not(g), g)

    def implies(self, f: BddNode, g: BddNode) -> bool:
        """Semantic implication check ``f -> g``."""
        return self.apply_and(f, self.apply_not(g)) == FALSE_NODE

    def equal(self, f: BddNode, g: BddNode) -> bool:
        return f == g

    # -- cofactors and quantification -------------------------------------------------

    def restrict(self, f: BddNode, name: str, value: bool) -> BddNode:
        level = self._name_to_level[name]
        return self._restrict(f, level, value, {})

    def _restrict(
        self, f: BddNode, level: int, value: bool, cache: Dict[BddNode, BddNode]
    ) -> BddNode:
        if f in (FALSE_NODE, TRUE_NODE) or self._level[f] > level:
            return f
        if f in cache:
            return cache[f]
        if self._level[f] == level:
            result = self._high[f] if value else self._low[f]
        else:
            low = self._restrict(self._low[f], level, value, cache)
            high = self._restrict(self._high[f], level, value, cache)
            result = self._mk(self._level[f], low, high)
        cache[f] = result
        return result

    def exists(self, f: BddNode, names: Iterable[str]) -> BddNode:
        result = f
        for name in names:
            result = self.apply_or(
                self.restrict(result, name, False), self.restrict(result, name, True)
            )
        return result

    def forall(self, f: BddNode, names: Iterable[str]) -> BddNode:
        result = f
        for name in names:
            result = self.apply_and(
                self.restrict(result, name, False), self.restrict(result, name, True)
            )
        return result

    # -- analysis -------------------------------------------------------------------------

    def support(self, f: BddNode) -> List[str]:
        """Names of the variables appearing in the BDD of ``f``."""
        seen_levels = set()
        stack = [f]
        visited = set()
        while stack:
            node = stack.pop()
            if node in visited or node in (FALSE_NODE, TRUE_NODE):
                continue
            visited.add(node)
            seen_levels.add(self._level[node])
            stack.append(self._low[node])
            stack.append(self._high[node])
        return [self._var_names[level] for level in sorted(seen_levels)]

    def evaluate(self, f: BddNode, assignment: Mapping[str, bool]) -> bool:
        node = f
        while node not in (FALSE_NODE, TRUE_NODE):
            name = self._var_names[self._level[node]]
            node = self._high[node] if assignment[name] else self._low[node]
        return node == TRUE_NODE

    # -- conversions -------------------------------------------------------------------------

    def from_function(self, function: BooleanFunction) -> BddNode:
        """Build the BDD of an AIG-backed function (declaring missing vars)."""
        for name in function.input_names:
            if name not in self._name_to_level:
                self.add_var(name)
        aig = function.aig
        cache: Dict[int, BddNode] = {}
        for index in aig.cone_nodes([function.root]):
            node = aig.node(index)
            if node.kind == NODE_AND:
                f0 = self._edge_bdd(cache, node.fanin0)
                f1 = self._edge_bdd(cache, node.fanin1)
                cache[index] = self.apply_and(f0, f1)
            else:
                cache[index] = self.var(aig.input_name(index))
        return self._edge_bdd(cache, function.root)

    def _edge_bdd(self, cache: Dict[int, BddNode], lit: int) -> BddNode:
        if lit >> 1 == 0:
            return TRUE_NODE if lit & 1 else FALSE_NODE
        value = cache[lit >> 1]
        return self.apply_not(value) if lit & 1 else value

    def to_function(self, f: BddNode, input_names: Optional[Sequence[str]] = None) -> BooleanFunction:
        """Convert a BDD back to an AIG-backed :class:`BooleanFunction`."""
        names = list(input_names) if input_names is not None else self.support(f)
        aig = AIG("from_bdd")
        lits = {name: aig.add_input(name) for name in names}
        cache: Dict[BddNode, int] = {}

        def build(node: BddNode) -> int:
            if node == FALSE_NODE:
                return 0
            if node == TRUE_NODE:
                return 1
            if node in cache:
                return cache[node]
            name = self._var_names[self._level[node]]
            if name not in lits:
                raise BddError(
                    f"BDD depends on {name!r} which is not among the requested inputs"
                )
            result = aig.mux(lits[name], build(self._high[node]), build(self._low[node]))
            cache[node] = result
            return result

        root = build(f)
        aig.add_output("f", root)
        return BooleanFunction(aig, root, [aig.input_by_name(n) for n in names])
