"""Quantified Boolean formula substrate.

The paper solves its bi-decomposition models with the 2QBF abstraction-
refinement algorithm AReQS (Janota & Marques-Silva, SAT'11).  This subpackage
reimplements that machinery as :class:`repro.qbf.cegar.CegarTwoQbfSolver`,
the AReQS-style CEGAR solver for 2QBF formulas ``exists E forall U . phi``
whose matrix ``phi`` is given as an AIG cone (so both the matrix and its
negation have compact CNF encodings, exactly the trick the paper describes
in section IV.A.5).
"""

from repro.qbf.cegar import CegarTwoQbfSolver, CegarResult

__all__ = [
    "CegarTwoQbfSolver",
    "CegarResult",
]
