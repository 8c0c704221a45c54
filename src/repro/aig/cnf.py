"""Tseitin encoding of AIG cones into CNF.

The bi-decomposition formulas of the paper instantiate the function under
decomposition several times (``f(X)``, ``f(X')``, ``f(X'')``); each
instantiation is an independent Tseitin copy of the same cone over a fresh
set of CNF variables for the internal nodes, sharing or renaming the input
variables as the formula requires.  :func:`cone_to_cnf` performs one such
copy and reports the variable mapping so callers can wire copies together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.aig.aig import AIG, AigLiteral, NODE_AND, lit_is_complemented, lit_var
from repro.errors import AigError
from repro.sat.cnf import CNF, check_literal


@dataclass
class CnfMapping:
    """Mapping produced by one Tseitin copy of a cone.

    Attributes
    ----------
    output_literal:
        DIMACS literal equivalent to the copied root (may be negative when
        the root edge is complemented, or ``0``/``None``-like constants never
        occur — constant roots are encoded through a fresh fixed variable).
    input_vars:
        Maps AIG input node index -> CNF variable used for it in this copy.
    node_vars:
        Maps AIG AND-node index -> CNF variable of its Tseitin definition.
    """

    output_literal: int
    input_vars: Dict[int, int] = field(default_factory=dict)
    node_vars: Dict[int, int] = field(default_factory=dict)


def cone_to_cnf(
    aig: AIG,
    root: AigLiteral,
    cnf: CNF,
    input_vars: Optional[Dict[int, int]] = None,
) -> CnfMapping:
    """Encode the cone of ``root`` into ``cnf`` and return the mapping.

    Parameters
    ----------
    input_vars:
        Optional pre-assigned CNF variables for (some) input nodes; inputs
        not present are given fresh variables.  Passing the same dictionary
        to several calls shares those inputs between the copies, passing
        fresh dictionaries creates the instantiated (primed) copies of the
        paper's formulas.
    """
    mapping = CnfMapping(output_literal=0)
    mapping.input_vars = dict(input_vars) if input_vars else {}
    node_lits: Dict[int, int] = {}
    clauses = cnf.clauses

    # Every clause literal is a fresh variable or an input variable checked
    # when its node is visited, so clauses are appended unvalidated.
    for index in aig.cone_nodes([root]):
        node = aig.node(index)
        if node.kind == NODE_AND:
            a = _edge_literal(node_lits, mapping.input_vars, node.fanin0)
            b = _edge_literal(node_lits, mapping.input_vars, node.fanin1)
            out = cnf.new_var()
            mapping.node_vars[index] = out
            node_lits[index] = out
            clauses.append((-out, a))
            clauses.append((-out, b))
            clauses.append((out, -a, -b))
        elif index in mapping.input_vars:
            var = check_literal(mapping.input_vars[index])
            cnf.num_vars = max(cnf.num_vars, abs(var))
            node_lits[index] = var
        else:
            node_lits[index] = mapping.input_vars[index] = cnf.new_var()

    if lit_var(root) == 0:
        # Constant root: introduce a variable fixed to the constant so callers
        # can still refer to "the output literal".  Literal 0 is FALSE and
        # literal 1 is TRUE.
        const_var = cnf.new_var()
        cnf.add_unit(const_var if root == 1 else -const_var)
        mapping.output_literal = const_var
        return mapping

    if lit_var(root) not in node_lits:
        raise AigError("root literal was not encoded (unmapped input?)")
    base = node_lits[lit_var(root)]
    mapping.output_literal = -base if lit_is_complemented(root) else base
    return mapping


def _edge_literal(
    node_lits: Dict[int, int], input_vars: Dict[int, int], lit: AigLiteral
) -> int:
    if lit_var(lit) == 0:
        raise AigError(
            "constant fanin encountered during CNF encoding; AIG construction "
            "should have propagated constants"
        )
    index = lit_var(lit)
    base = node_lits.get(index) or input_vars.get(index)
    if base is None:
        raise AigError(f"fanin node {index} encoded before its definition")
    return -base if lit_is_complemented(lit) else base
