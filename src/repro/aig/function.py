"""Single-output completely specified Boolean functions.

A :class:`BooleanFunction` bundles an AIG, a root literal inside it and an
ordered list of input nodes.  It is the object the bi-decomposition engine
manipulates: the paper's ``f(X)`` as well as the extracted ``fA`` and ``fB``
are all instances of this class.  The class offers evaluation, truth tables,
cofactors, Boolean quantification, composition with other functions and CNF
encoding — the services that ABC provides to the original STEP tool.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.aig.aig import AIG, AigLiteral, FALSE_LIT, NODE_LATCH, TRUE_LIT, lit_neg
from repro.aig.cnf import CnfMapping, cone_to_cnf
from repro.aig.simulate import exhaustive_patterns, simulate, simulate_words
from repro.aig.support import functional_support, structural_support
from repro.errors import AigError
from repro.sat.cnf import CNF


class BooleanFunction:
    """A completely specified function ``f : B^n -> B`` backed by an AIG cone."""

    def __init__(self, aig: AIG, root: AigLiteral, inputs: Sequence[int]) -> None:
        self.aig = aig
        self.root = root
        self.inputs: List[int] = list(inputs)
        # Memo of truth_table(): the AIG is append-only, so the cone of
        # ``root`` never changes.
        self._table: Optional[int] = None
        missing = set(structural_support(aig, root)).difference(self.inputs)
        if missing:
            names = ", ".join(sorted(aig.input_name(i) for i in missing))
            raise AigError(f"function inputs do not cover the cone (missing: {names})")

    # -- constructors --------------------------------------------------------------

    @classmethod
    def from_output(cls, aig: AIG, output: int | str) -> "BooleanFunction":
        """Wrap a primary output of ``aig`` (by index or by name).

        The input list is restricted to the output's structural support, in
        the AIG's input creation order, which matches how STEP decomposes
        each PO over its own support.
        """
        if isinstance(output, str):
            candidates = [lit for name, lit in aig.outputs if name == output]
            if not candidates:
                raise AigError(f"no output named {output!r}")
            root = candidates[0]
        else:
            root = aig.outputs[output][1]
        # Inputs first, then latches, each in creation order.
        ordered = sorted(
            structural_support(aig, root), key=lambda i: aig.node_kind(i) == NODE_LATCH
        )
        return cls(aig, root, ordered)

    @classmethod
    def from_truth_table(
        cls, table: int, num_inputs: int, input_names: Optional[Sequence[str]] = None
    ) -> "BooleanFunction":
        """Build a function from a truth table given as a bit mask.

        Bit ``p`` of ``table`` is the value of the function on the input
        pattern whose bit ``k`` is the value of input ``k``.
        """
        if num_inputs < 0:
            raise AigError("num_inputs must be non-negative")
        if table < 0 or table >= (1 << (1 << num_inputs)):
            raise AigError("truth table does not fit the declared input count")
        aig = AIG("tt")
        names = list(input_names) if input_names else [f"x{i}" for i in range(num_inputs)]
        if len(names) != num_inputs:
            raise AigError("input_names length must match num_inputs")
        lits = [aig.add_input(name) for name in names]
        root = _shannon_from_table(aig, table, lits, num_inputs)
        aig.add_output("f", root)
        return cls(aig, root, aig.inputs)

    @classmethod
    def constant(cls, value: bool) -> "BooleanFunction":
        aig = AIG("const")
        root = TRUE_LIT if value else FALSE_LIT
        aig.add_output("f", root)
        return cls(aig, root, [])

    # -- basic queries ----------------------------------------------------------------

    @property
    def num_inputs(self) -> int:
        return len(self.inputs)

    @property
    def input_names(self) -> List[str]:
        return [self.aig.input_name(i) for i in self.inputs]

    def support(self, functional: bool = True) -> List[int]:
        """Input node indices the function depends on."""
        if functional:
            return functional_support(self.aig, self.root)
        return structural_support(self.aig, self.root)

    def support_names(self, functional: bool = True) -> List[str]:
        return [self.aig.input_name(i) for i in self.support(functional=functional)]

    # -- evaluation --------------------------------------------------------------------

    def evaluate(self, values: Sequence[bool] | Mapping[str, bool]) -> bool:
        """Evaluate under an assignment (positional list or name -> value map)."""
        assignment = self._assignment_from(values)
        (result,) = simulate(self.aig, assignment, [self.root])
        return result

    def truth_table(self) -> int:
        """Exhaustive truth table as an integer bit mask (inputs in order)."""
        if self._table is None:
            if self.num_inputs > 24:
                raise AigError("truth table requested for a function with > 24 inputs")
            words, mask = exhaustive_patterns(self.num_inputs)
            input_words = {node: words[i] for i, node in enumerate(self.inputs)}
            (self._table,) = simulate_words(self.aig, input_words, [self.root], mask)
        return self._table

    def count_minterms(self) -> int:
        """Number of satisfying input patterns (onset size)."""
        return bin(self.truth_table()).count("1")

    def _assignment_from(
        self, values: Sequence[bool] | Mapping[str, bool]
    ) -> Dict[int, bool]:
        if isinstance(values, Mapping):
            assignment = {}
            for name, value in values.items():
                assignment[self.aig.input_by_name(name)] = bool(value)
            return assignment
        if len(values) != self.num_inputs:
            raise AigError(
                f"expected {self.num_inputs} input values, got {len(values)}"
            )
        return {node: bool(v) for node, v in zip(self.inputs, values)}

    # -- functional operations ------------------------------------------------------------

    def cofactor(self, input_name: str, value: bool) -> "BooleanFunction":
        """Shannon cofactor with respect to the named input."""
        node = self.aig.input_by_name(input_name)
        new_root = self.aig.cofactor(self.root, node, value)
        remaining = [i for i in self.inputs if i != node]
        return BooleanFunction(self.aig, new_root, remaining)

    def exists(self, input_names: Iterable[str]) -> "BooleanFunction":
        """Existential quantification over the named inputs."""
        return self._quantify(input_names, universal=False)

    def forall(self, input_names: Iterable[str]) -> "BooleanFunction":
        """Universal quantification over the named inputs."""
        return self._quantify(input_names, universal=True)

    def _quantify(self, input_names: Iterable[str], universal: bool) -> "BooleanFunction":
        result = self
        for name in input_names:
            positive = result.cofactor(name, True)
            negative = result.cofactor(name, False)
            if universal:
                combined_root = result.aig.add_and(positive.root, negative.root)
            else:
                combined_root = result.aig.lor(positive.root, negative.root)
            remaining = [i for i in result.inputs if result.aig.input_name(i) != name]
            result = BooleanFunction(result.aig, combined_root, remaining)
        return result

    def negate(self) -> "BooleanFunction":
        return BooleanFunction(self.aig, lit_neg(self.root), self.inputs)

    def restrict_inputs(self, input_names: Sequence[str]) -> "BooleanFunction":
        """Re-declare the input list (must still cover the cone)."""
        nodes = [self.aig.input_by_name(name) for name in input_names]
        return BooleanFunction(self.aig, self.root, nodes)

    # -- combination -----------------------------------------------------------------------

    def combine(self, other: "BooleanFunction", operator: str) -> "BooleanFunction":
        """Combine with another function through a two-input gate.

        Inputs are matched *by name*; the result lives in a fresh AIG whose
        inputs are the union of both operands' inputs (this function's inputs
        first).  ``operator`` is one of ``"or"``, ``"and"``, ``"xor"``.
        """
        target = AIG(f"{self.aig.name}_{operator}")
        name_to_lit: Dict[str, AigLiteral] = {}
        ordered_names: List[str] = []
        for source in (self, other):
            for node in source.inputs:
                name = source.aig.input_name(node)
                if name not in name_to_lit:
                    name_to_lit[name] = target.add_input(name)
                    ordered_names.append(name)
        left = self.copy_into(target, name_to_lit)
        right = other.copy_into(target, name_to_lit)
        if operator == "or":
            root = target.lor(left, right)
        elif operator == "and":
            root = target.add_and(left, right)
        elif operator == "xor":
            root = target.lxor(left, right)
        else:
            raise AigError(f"unsupported operator {operator!r}")
        target.add_output("f", root)
        return BooleanFunction(
            target, root, [target.input_by_name(name) for name in ordered_names]
        )

    def copy_into(self, target: AIG, name_to_lit: Mapping[str, AigLiteral]) -> AigLiteral:
        """Copy this function's cone into ``target`` using named input literals."""
        input_map = {}
        for node in self.inputs:
            name = self.aig.input_name(node)
            if name not in name_to_lit:
                raise AigError(f"target AIG does not define input {name!r}")
            input_map[node] = name_to_lit[name]
        return self.aig.copy_cone(self.root, target, input_map)

    # -- CNF -------------------------------------------------------------------------------

    def to_cnf(
        self, cnf: CNF, input_vars: Optional[Dict[int, int]] = None
    ) -> CnfMapping:
        """Tseitin-encode the function into ``cnf`` (see :func:`cone_to_cnf`)."""
        return cone_to_cnf(self.aig, self.root, cnf, input_vars=input_vars)

    # -- comparisons ------------------------------------------------------------------------

    def semantically_equal(self, other: "BooleanFunction") -> bool:
        """Check functional equivalence (inputs matched by name).

        Uses truth tables for small supports and a SAT miter otherwise.
        """
        union_names = sorted(set(self.input_names) | set(other.input_names))
        if len(union_names) <= 16:
            return self._table_over(union_names) == other._table_over(union_names)
        from repro.sat.solver import Solver  # local import to avoid cycles at import time

        cnf = CNF()
        name_vars = {name: cnf.new_var() for name in union_names}
        lit_self = self._cnf_over(cnf, name_vars)
        lit_other = other._cnf_over(cnf, name_vars)
        xor_out = cnf.new_var()
        from repro.sat.tseitin import encode_xor

        encode_xor(cnf, xor_out, lit_self, lit_other)
        cnf.add_unit(xor_out)
        solver = Solver()
        solver.add_cnf(cnf)
        return solver.solve().status is False

    def _table_over(self, names: Sequence[str]) -> int:
        """Truth table with respect to an explicit (possibly larger) input order."""
        if list(names) == self.input_names:
            return self.truth_table()
        own = set(self.input_names)
        words, mask = exhaustive_patterns(len(names))
        input_words = {}
        for i, name in enumerate(names):
            if name in own:
                input_words[self.aig.input_by_name(name)] = words[i]
        order = set(names)
        for node in self.inputs:
            if self.aig.input_name(node) not in order:
                raise AigError(
                    f"input {self.aig.input_name(node)} missing from comparison order"
                )
        (value,) = simulate_words(self.aig, input_words, [self.root], mask)
        return value

    def _cnf_over(self, cnf: CNF, name_vars: Mapping[str, int]) -> int:
        input_vars = {
            node: name_vars[self.aig.input_name(node)] for node in self.inputs
        }
        mapping = self.to_cnf(cnf, input_vars=input_vars)
        return mapping.output_literal

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BooleanFunction(inputs={self.input_names}, "
            f"aig_nodes={self.aig.num_nodes})"
        )


def _shannon_from_table(aig: AIG, table: int, lits: List[AigLiteral], num_inputs: int) -> AigLiteral:
    """Recursive Shannon expansion of a truth table into AND/INV nodes."""
    if num_inputs == 0:
        return TRUE_LIT if table & 1 else FALSE_LIT
    half = 1 << (num_inputs - 1)
    low_mask = (1 << half) - 1
    # The top input is the one with the longest period: input num_inputs-1.
    negative = table & low_mask
    positive = (table >> half) & low_mask
    hi = _shannon_from_table(aig, positive, lits, num_inputs - 1)
    lo = _shannon_from_table(aig, negative, lits, num_inputs - 1)
    return aig.mux(lits[num_inputs - 1], hi, lo)
