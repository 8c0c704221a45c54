"""The paper's QBF models: matrix construction and the fN / fT constraints.

Two consumers exist:

* the *specialised* engine (:mod:`repro.core.qbf_bidec`) keeps the
  existential side (the control variables ``alpha_x`` / ``beta_x`` plus the
  ``fN`` / ``fT`` constraints) in a plain SAT solver and uses the
  :class:`repro.core.checks.RelaxationChecker` as the universal-player
  oracle — the counterexample-guided instantiation of formula (9);
* the *generic* path builds the full matrix of formula (4) as an AIG and
  hands it to :class:`repro.qbf.cegar.CegarTwoQbfSolver`; it is slower but
  exercises the general 2QBF machinery and backs the ablation benchmark.

The constraint builders implement:

* ``fN`` — non-trivial partitions: ``AtLeast1(alpha)``, ``AtLeast1(beta)``
  and the exclusion of ``(alpha_x, beta_x) = (1, 1)``;
* ``fT`` for disjointness (formula (5)): ``|XC| <= k``;
* ``fT`` for balancedness (formula (6)): ``0 <= |XA| - |XB| <= k``, which
  also breaks the XA/XB symmetry;
* ``fT`` for the combined cost (formula (8)): ``|XC| + |XA| - |XB| <= k``
  under the same symmetry assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.aig.aig import AIG
from repro.aig.function import BooleanFunction
from repro.core.spec import AND, OR, XOR, check_operator
from repro.errors import DecompositionError
from repro.sat.cardinality import at_least_one, at_most_k, totalizer_outputs
from repro.sat.cnf import CNF


@dataclass
class ControlVariables:
    """CNF variables for the partition controls of each input variable."""

    names: Tuple[str, ...]
    alpha: Dict[str, int]
    beta: Dict[str, int]

    @classmethod
    def allocate(cls, cnf: CNF, names: Sequence[str]) -> "ControlVariables":
        alpha = {name: cnf.new_var() for name in names}
        beta = {name: cnf.new_var() for name in names}
        return cls(tuple(names), alpha, beta)

    def alpha_literals(self) -> List[int]:
        return [self.alpha[name] for name in self.names]

    def beta_literals(self) -> List[int]:
        return [self.beta[name] for name in self.names]


# ---------------------------------------------------------------------------
# fN — non-trivial partitions
# ---------------------------------------------------------------------------


def add_nontrivial_constraint(cnf: CNF, controls: ControlVariables) -> None:
    """Require ``XA`` and ``XB`` to be non-empty and exclude ``(1, 1)`` codes."""
    for name in controls.names:
        cnf.add_clause((-controls.alpha[name], -controls.beta[name]))
    at_least_one(cnf, controls.alpha_literals())
    at_least_one(cnf, controls.beta_literals())


# ---------------------------------------------------------------------------
# fT — quality targets
# ---------------------------------------------------------------------------


def _shared_indicators(cnf: CNF, controls: ControlVariables) -> List[int]:
    """Fresh variables ``c_x`` with ``c_x <-> (NOT alpha_x AND NOT beta_x)``."""
    indicators = []
    for name in controls.names:
        c = cnf.new_var()
        a = controls.alpha[name]
        b = controls.beta[name]
        cnf.add_clause((a, b, c))
        cnf.add_clause((-c, -a))
        cnf.add_clause((-c, -b))
        indicators.append(c)
    return indicators


def add_disjointness_target(cnf: CNF, controls: ControlVariables, bound: int) -> None:
    """Formula (5): at most ``bound`` shared variables (``|XC| <= k``)."""
    add_target_constraint(cnf, controls, "disjointness", bound)


def add_balancedness_target(cnf: CNF, controls: ControlVariables, bound: int) -> None:
    """Formula (6): ``0 <= |XA| - |XB| <= k`` (breaking the XA/XB symmetry)."""
    add_target_constraint(cnf, controls, "balancedness", bound)


def add_combined_target(cnf: CNF, controls: ControlVariables, bound: int) -> None:
    """Formula (8): ``|XC| + |XA| - |XB| <= k`` with ``|XA| >= |XB|``."""
    add_target_constraint(cnf, controls, "combined", bound)


def add_target_prefix(
    cnf: CNF, controls: ControlVariables, target: str
) -> Callable[[CNF, int], None]:
    """Add the part of ``fT`` no bound changes (indicators, totalizers,
    ``|XA| >= |XB|``); return the step that bounds the metric by ``k`` in
    ``cnf`` or any copy of it."""
    if target not in ("disjointness", "balancedness", "combined"):
        raise DecompositionError(f"unknown target metric {target!r}")

    def checked(bound: int) -> int:
        if bound < 0:
            raise DecompositionError(f"the {target} bound must be non-negative")
        return bound

    indicators: List[int] = []
    if target != "balancedness":
        indicators = _shared_indicators(cnf, controls)
    if target == "disjointness":
        return lambda out, bound: at_most_k(out, indicators, checked(bound))
    out_a = totalizer_outputs(cnf, controls.alpha_literals())
    out_b = totalizer_outputs(cnf, controls.beta_literals())
    _add_unary_geq(cnf, out_a, out_b)
    # Balancedness bounds |XA| - |XB|; the combined cost (|XC| + |XA|) - |XB|.
    minuend = out_a
    if target == "combined":
        minuend = totalizer_outputs(cnf, indicators + controls.alpha_literals())
    return lambda out, bound: _add_unary_difference_bound(
        out, minuend, out_b, checked(bound)
    )


def _add_unary_geq(cnf: CNF, bigger: Sequence[int], smaller: Sequence[int]) -> None:
    """Unary comparison ``count(bigger) >= count(smaller)``."""
    for i, lit in enumerate(smaller):
        if i < len(bigger):
            cnf.add_clause((-lit, bigger[i]))
        else:
            cnf.add_unit(-lit)


def _add_unary_difference_bound(
    cnf: CNF, minuend: Sequence[int], subtrahend: Sequence[int], bound: int
) -> None:
    """Unary constraint ``count(minuend) - count(subtrahend) <= bound``."""
    for i in range(len(minuend)):
        threshold = i + bound
        if threshold >= len(minuend):
            continue
        # If at least threshold+1 of the minuend are true then at least i+1 of
        # the subtrahend must be true as well.
        if i < len(subtrahend):
            cnf.add_clause((-minuend[threshold], subtrahend[i]))
        else:
            cnf.add_unit(-minuend[threshold])


def add_target_constraint(
    cnf: CNF, controls: ControlVariables, target: str, bound: int
) -> None:
    """Add ``fT`` for a target metric name: its prefix, then its bound step."""
    add_target_prefix(cnf, controls, target)(cnf, bound)


def maximum_bound(target: str, num_variables: int) -> int:
    """The largest meaningful bound for a target metric over ``n`` inputs."""
    if num_variables < 2:
        raise DecompositionError("bi-decomposition needs at least two inputs")
    if target == "disjointness":
        return num_variables - 2
    if target == "balancedness":
        return num_variables - 2
    if target == "combined":
        return 2 * (num_variables - 1) - 2
    raise DecompositionError(f"unknown target metric {target!r}")


# ---------------------------------------------------------------------------
# Full matrix of formula (4) as a circuit (generic CEGAR path)
# ---------------------------------------------------------------------------


def build_matrix_function(
    function: BooleanFunction, operator: str
) -> Tuple[BooleanFunction, List[str], List[str]]:
    """Build the matrix of formula (4) as an AIG-backed function.

    Returns ``(matrix, existential_names, universal_names)`` where the matrix
    inputs are named ``alpha:<x>`` / ``beta:<x>`` (existential) and ``x:<x>``,
    ``xp:<x>``, ``xpp:<x>`` (plus ``xppp:<x>`` for XOR; universal).  The
    matrix evaluates to true iff the check formula — the part inside the
    negation of formula (3) — is *false*, i.e. the candidate partition defeats
    this particular universal assignment.
    """
    operator = check_operator(operator)
    source = function
    names = list(source.input_names)
    aig = AIG(f"qbf_matrix_{operator}")
    alpha = {name: aig.add_input(f"alpha:{name}") for name in names}
    beta = {name: aig.add_input(f"beta:{name}") for name in names}
    x0 = {name: aig.add_input(f"x:{name}") for name in names}
    x1 = {name: aig.add_input(f"xp:{name}") for name in names}
    x2 = {name: aig.add_input(f"xpp:{name}") for name in names}
    x3: Dict[str, int] = {}
    if operator == XOR:
        x3 = {name: aig.add_input(f"xppp:{name}") for name in names}

    def copy_f(assignment: Dict[str, int]) -> int:
        name_to_lit = {name: assignment[name] for name in names}
        return source.copy_into(aig, name_to_lit)

    out0 = copy_f(x0)
    out1 = copy_f(x1)
    out2 = copy_f(x2)

    conjuncts: List[int] = []
    if operator == OR:
        conjuncts.extend([out0, out1 ^ 1, out2 ^ 1])
    elif operator == AND:
        conjuncts.extend([out0 ^ 1, out1, out2])
    else:
        out3 = copy_f(x3)
        parity = aig.lxor(aig.lxor(out0, out1), aig.lxor(out2, out3))
        conjuncts.append(parity)

    for name in names:
        eq01 = aig.lxnor(x0[name], x1[name])
        eq02 = aig.lxnor(x0[name], x2[name])
        conjuncts.append(aig.lor(eq01, alpha[name]))
        conjuncts.append(aig.lor(eq02, beta[name]))
        if operator == XOR:
            eq13 = aig.lxnor(x1[name], x3[name])
            eq23 = aig.lxnor(x2[name], x3[name])
            conjuncts.append(aig.lor(eq13, beta[name]))
            conjuncts.append(aig.lor(eq23, alpha[name]))

    check_formula = aig.land_list(conjuncts)
    matrix_root = check_formula ^ 1  # the negation in formula (3)/(4)
    aig.add_output("matrix", matrix_root)

    existential = [f"alpha:{name}" for name in names] + [f"beta:{name}" for name in names]
    universal = (
        [f"x:{name}" for name in names]
        + [f"xp:{name}" for name in names]
        + [f"xpp:{name}" for name in names]
    )
    if operator == XOR:
        universal += [f"xppp:{name}" for name in names]
    ordered_inputs = [aig.input_by_name(n) for n in existential + universal]
    matrix = BooleanFunction(aig, matrix_root, ordered_inputs)
    return matrix, existential, universal
