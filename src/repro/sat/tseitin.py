"""Clausal (Tseitin) encodings of the gates the AIG encoding lacks.

Each function receives DIMACS literals and appends to a :class:`CNF` the
clauses of one gate.  AND gates come from :mod:`repro.aig.cnf`; these two
cover the XOR miter and the relaxation clauses of the bi-decomposition
matrix (formula (2) of the paper).
"""

from __future__ import annotations

from repro.sat.cnf import CNF, check_literal


def encode_xor(cnf: CNF, out: int, a: int, b: int) -> None:
    """Assert ``out <-> a XOR b``."""
    check_literal(out)
    check_literal(a)
    check_literal(b)
    cnf.add_clause((-out, a, b))
    cnf.add_clause((-out, -a, -b))
    cnf.add_clause((out, -a, b))
    cnf.add_clause((out, a, -b))


def encode_relaxed_equiv(cnf: CNF, a: int, b: int, relax: int) -> None:
    """Assert ``(a <-> b) OR relax`` — the paper's relaxation clauses.

    Formula (2) of the paper attaches a control variable to each pair of
    original/instantiated circuit inputs: when the control variable is false
    the two copies are forced equal, when it is true the equality is relaxed
    and the variable may differ between the copies.
    """
    check_literal(a)
    check_literal(b)
    check_literal(relax)
    cnf.add_clause((-a, b, relax))
    cnf.add_clause((a, -b, relax))
