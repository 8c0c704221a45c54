"""Boolean satisfiability substrate.

This subpackage contains everything the paper's tool STEP obtains from
MiniSAT-class solvers:

* :mod:`repro.sat.cnf` — CNF formula container.
* :mod:`repro.sat.tseitin` — clausal XOR and relaxation encodings.
* :mod:`repro.sat.cardinality` — AtLeast-1 / AtMost-k constraint encodings
  used for the paper's ``fN`` and ``fT`` constraints.
* :mod:`repro.sat.solver` — a CDCL SAT solver (watched literals, VSIDS,
  clause learning, restarts, incremental solving under assumptions) with
  optional resolution-proof logging.
* :mod:`repro.sat.proof` / :mod:`repro.sat.interpolate` — resolution proofs
  and McMillan interpolation, used to extract the decomposition functions
  ``fA`` and ``fB``.
"""

from repro.sat.cnf import CNF, Clause
from repro.sat.solver import Solver, SolveResult
from repro.sat.cardinality import (
    at_least_one,
    at_most_one,
    at_most_k,
)

__all__ = [
    "CNF",
    "Clause",
    "Solver",
    "SolveResult",
    "at_least_one",
    "at_most_one",
    "at_most_k",
]
