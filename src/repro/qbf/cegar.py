"""Abstraction-refinement (AReQS-style) solver for 2QBF with a circuit matrix.

The paper's QBF models have the shape ``exists alpha,beta forall X,X',X'' .
phi`` where ``phi`` is a propositional formula (not CNF).  Encoding ``phi``
to CNF would add an innermost existential block (a 3QCNF formula); the paper
instead follows Janota & Marques-Silva's AReQS and works with the matrix as a
circuit so that both the matrix and its negation stay cheap to encode.  This
module reimplements that counterexample-guided loop:

1. *Candidate*: a SAT solver over the existential variables — constrained by
   one instantiated copy of the matrix per counterexample seen so far —
   proposes an assignment ``e``.
2. *Verification*: a second SAT solver checks ``exists U . NOT phi(e, U)``.
   If unsatisfiable, ``e`` is a winning move and the formula is true.
3. *Refinement*: otherwise the universal counterexample ``u`` is used to add
   the copy ``phi(E, u)`` to the candidate solver, and the loop repeats.

If the candidate solver becomes unsatisfiable the formula is false.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.aig.function import BooleanFunction
from repro.errors import SolverError
from repro.sat.cnf import CNF
from repro.sat.solver import Solver
from repro.utils.timer import Deadline


@dataclass
class CegarResult:
    """Outcome of a CEGAR 2QBF solve.

    ``status`` is ``True`` (formula valid, ``model`` holds the existential
    witness), ``False`` (invalid) or ``None`` (budget exhausted).
    """

    status: Optional[bool]
    model: Dict[str, bool] = field(default_factory=dict)
    iterations: int = 0
    counterexamples: List[Dict[str, bool]] = field(default_factory=list)


class CegarTwoQbfSolver:
    """CEGAR solver for ``exists E forall U . matrix(E, U)``.

    Parameters
    ----------
    matrix:
        The matrix as an AIG-backed function; its inputs must be exactly the
        union of ``exist_inputs`` and ``universal_inputs`` (by name).
    exist_inputs / universal_inputs:
        Names of the existential and universal variables.
    """

    def __init__(
        self,
        matrix: BooleanFunction,
        exist_inputs: Sequence[str],
        universal_inputs: Sequence[str],
    ) -> None:
        self.matrix = matrix
        self.exist_inputs = list(exist_inputs)
        self.universal_inputs = list(universal_inputs)
        declared = set(self.exist_inputs) | set(self.universal_inputs)
        if set(matrix.input_names) - declared:
            missing = sorted(set(matrix.input_names) - declared)
            raise SolverError(f"matrix inputs not quantified: {missing}")
        if set(self.exist_inputs) & set(self.universal_inputs):
            raise SolverError("a variable cannot be both existential and universal")

        # Candidate (abstraction) solver: one persistent variable per
        # existential input; refinement adds instantiated matrix copies.
        self._candidate_solver = Solver()
        self._exist_vars: Dict[str, int] = {
            name: self._candidate_solver.new_var() for name in self.exist_inputs
        }

        # Verification solver: one persistent encoding of NOT matrix with both
        # E and U free; E is fixed through assumptions on each call.
        self._verify_solver = Solver()
        verify_cnf = CNF()
        self._verify_exist_vars = {name: verify_cnf.new_var() for name in self.exist_inputs}
        self._verify_universal_vars = {
            name: verify_cnf.new_var() for name in self.universal_inputs
        }
        input_vars = {}
        for node in matrix.inputs:
            name = matrix.aig.input_name(node)
            if name in self._verify_exist_vars:
                input_vars[node] = self._verify_exist_vars[name]
            else:
                input_vars[node] = self._verify_universal_vars[name]
        mapping = matrix.to_cnf(verify_cnf, input_vars=input_vars)
        verify_cnf.add_unit(-mapping.output_literal)
        self._verify_solver.add_cnf(verify_cnf)

    # -- candidate constraints --------------------------------------------------

    def add_exist_cnf(self, cnf: CNF, var_map: Dict[str, int]) -> None:
        """Add a CNF over existential inputs (plus fresh auxiliaries).

        ``var_map`` maps existential input names to the CNF's variables; all
        other CNF variables are treated as auxiliary and renamed into the
        candidate solver.
        """
        rename: Dict[int, int] = {}
        for name, var in var_map.items():
            rename[var] = self._exist_vars[name]
        for clause in cnf.clauses:
            lits = []
            for lit in clause:
                var = abs(lit)
                if var not in rename:
                    rename[var] = self._candidate_solver.new_var()
                mapped = rename[var]
                lits.append(mapped if lit > 0 else -mapped)
            self._candidate_solver.add_clause(lits)

    # -- main loop -----------------------------------------------------------------

    def solve(
        self,
        deadline: Optional[Deadline] = None,
        max_iterations: Optional[int] = None,
        conflict_budget: Optional[int] = None,
    ) -> CegarResult:
        """Run the CEGAR loop until a verdict or until the budget expires."""
        result = CegarResult(status=None)
        while True:
            if max_iterations is not None and result.iterations >= max_iterations:
                return result
            if deadline is not None and deadline.expired:
                return result
            result.iterations += 1

            candidate_answer = self._candidate_solver.solve(
                conflict_budget=conflict_budget, deadline=deadline
            )
            if candidate_answer.status is None:
                return result
            if candidate_answer.status is False:
                result.status = False
                return result
            candidate = {
                name: candidate_answer.model.get(var, False)
                for name, var in self._exist_vars.items()
            }

            assumptions = [
                var if candidate[name] else -var
                for name, var in self._verify_exist_vars.items()
            ]
            verify_answer = self._verify_solver.solve(
                assumptions=assumptions,
                conflict_budget=conflict_budget,
                deadline=deadline,
            )
            if verify_answer.status is None:
                return result
            if verify_answer.status is False:
                result.status = True
                result.model = candidate
                return result

            counterexample = {
                name: verify_answer.model.get(var, False)
                for name, var in self._verify_universal_vars.items()
            }
            result.counterexamples.append(counterexample)
            self._refine(counterexample)

    # -- refinement --------------------------------------------------------------------

    def _refine(self, counterexample: Dict[str, bool]) -> None:
        """Add the matrix instantiated at the counterexample to the candidates."""
        cnf = CNF(num_vars=self._candidate_solver.num_vars)
        input_vars: Dict[int, int] = {}
        fixed_units: List[int] = []
        for node in self.matrix.inputs:
            name = self.matrix.aig.input_name(node)
            if name in self._exist_vars:
                input_vars[node] = self._exist_vars[name]
            else:
                fresh = cnf.new_var()
                input_vars[node] = fresh
                fixed_units.append(fresh if counterexample[name] else -fresh)
        mapping = self.matrix.to_cnf(cnf, input_vars=input_vars)
        cnf.add_unit(mapping.output_literal)
        for unit in fixed_units:
            cnf.add_unit(unit)
        self._candidate_solver.add_cnf(cnf)
