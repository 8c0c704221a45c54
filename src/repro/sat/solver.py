"""A CDCL SAT solver with a pure-Python reference and an optional C kernel.

The solver implements the standard conflict-driven clause learning loop:

* two-literal watching for unit propagation,
* first-UIP conflict analysis with clause learning,
* VSIDS-style variable activities with phase saving,
* Luby-sequence restarts,
* literal-block-distance (LBD) based learned-clause reduction with lazy
  watcher cleanup (deleted clauses are dropped from watcher lists as
  propagation encounters them instead of by an eager sweep),
* incremental solving under assumptions with failed-assumption (core)
  extraction, and
* optional resolution-proof logging, used by
  :mod:`repro.sat.interpolate` to compute Craig interpolants which the
  bi-decomposition engine turns into the functions ``fA`` and ``fB``.

Two interchangeable substrates implement the loop:

* :class:`PySolver` — the pure-Python reference.  It favours clarity but is
  careful about the usual hot spots: literals are encoded as small integers
  internally (``2*var`` for the positive literal, ``2*var + 1`` for the
  negative one) and propagation is a tight loop over watcher lists.  Binary
  clauses — the majority in Tseitin encodings — are propagated from
  dedicated ``(other, clause)`` watch lists that need no watch moves; long
  clauses use the classic two-watched-literal scheme with in-place
  watcher-list compaction.
* :class:`CKernelSolver` — a thin wrapper over the optional compiled
  extension :mod:`repro.sat._ckernel` (built by
  ``python setup.py build_ext --inplace``), which implements the identical
  state machine in C.  The boundary is coarse: one kernel call ingests a
  whole :class:`CNF` and one runs a whole ``solve``; the model comes back
  as ``bytes``.  The kernel is *decision-for-decision identical* to
  the Python path — same VSIDS tie-breaking (bit-exact IEEE-754 activity
  arithmetic and ``heapq`` semantics), same Luby restarts, same LBD
  reduction — so kernel-on and kernel-off runs produce bit-identical
  reports; ``tests/test_kernel_differential.py`` holds it to that.

:func:`Solver` picks the substrate: the compiled kernel when it is
importable, the pure path when the build is absent, when
``STEP_PURE_PYTHON=1`` is set, and always when proof logging is requested
(the proof machinery stays pure Python by design).
"""

from __future__ import annotations

import os
import threading
from array import array
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import SolverError
from repro.sat.cnf import CNF
from repro.sat.proof import Proof, ResolutionChain
from repro.utils.timer import Deadline

try:  # pragma: no cover - exercised only when the extension is built
    from repro.sat import _ckernel
except ImportError:  # pragma: no cover - the pure fallback is always valid
    _ckernel = None

TRUE = 1
FALSE = 0
UNASSIGNED = -1

#: Environment variable forcing the pure-Python path even when the compiled
#: kernel is importable.  Checked at :func:`Solver` construction time so a
#: test (or a CI job) can flip substrates without re-importing the module.
PURE_PYTHON_ENV = "STEP_PURE_PYTHON"

#: Learned clauses with an LBD at or below this are "glue" clauses
#: (Audemard & Simon): they connect few decision levels and are kept
#: forever by :meth:`PySolver._reduce_db` (and by the kernel's twin).
GLUE_LBD = 2

#: Learned-clause count that triggers a database reduction.
REDUCE_BASE = 4000


def kernel_available() -> bool:
    """True when the compiled kernel extension imported successfully."""
    return _ckernel is not None


def kernel_forced_pure() -> bool:
    """True when ``STEP_PURE_PYTHON`` requests the pure-Python path."""
    return os.environ.get(PURE_PYTHON_ENV, "") not in ("", "0")


def active_kernel_name() -> str:
    """The substrate :func:`Solver` would pick right now (``c``/``python``).

    Surfaced as ``schedule["solver_kernel"]`` so every report says which
    substrate produced it.  Proof-logging solvers are always ``python``
    regardless of this value.
    """
    if kernel_available() and not kernel_forced_pure():
        return "c"
    return "python"


# --------------------------------------------------------------- work counters

# Per-thread totals of solver work (conflicts, decisions, propagations)
# across every solver instance.  The engine driver samples this around each
# partition search to attribute solver work to the result's
# SearchStatistics; thread-local storage keeps concurrently running jobs
# (thread backend) from bleeding into each other's counts.
_work = threading.local()


def _work_cells() -> List[int]:
    cells = getattr(_work, "cells", None)
    if cells is None:
        cells = _work.cells = [0, 0, 0]
    return cells


_WORK_COUNTERS = None


def _obs_work_counters():
    """Process-wide obs counters for solver work (lazy; never hot-path)."""
    global _WORK_COUNTERS
    if _WORK_COUNTERS is None:
        from repro.obs.registry import default_registry

        registry = default_registry()
        _WORK_COUNTERS = tuple(
            registry.counter(
                f"repro_solver_{kind}_total",
                f"total solver {kind} across every substrate in this process",
            )
            for kind in ("conflicts", "decisions", "propagations")
        )
    return _WORK_COUNTERS


def solver_work_snapshot() -> Tuple[int, int, int]:
    """Cumulative (conflicts, decisions, propagations) for this thread.

    Sampling also flushes this thread's un-reported work into the
    process-wide :mod:`repro.obs` counters — the engine driver samples
    around every partition search, so the metrics surface tracks solver
    work without touching the CDCL hot loop itself.  (Process-backend
    workers flush into *their own* process's registry; cross-process
    totals come from ``schedule["solver_stats"]``, which rides on the
    results.)
    """
    cells = _work_cells()
    flushed = getattr(_work, "flushed", None)
    if flushed is None:
        flushed = _work.flushed = [0, 0, 0]
    counters = _obs_work_counters()
    for index in range(3):
        delta = cells[index] - flushed[index]
        if delta:
            counters[index].inc(delta)
            flushed[index] = cells[index]
    return (cells[0], cells[1], cells[2])


def _internal(lit: int) -> int:
    """DIMACS literal -> internal index (2*var positive, 2*var+1 negative)."""
    var = abs(lit)
    return 2 * var + (1 if lit < 0 else 0)


def _external(ilit: int) -> int:
    var = ilit >> 1
    return -var if ilit & 1 else var


def _neg(ilit: int) -> int:
    return ilit ^ 1


def _model_dict(values: bytes) -> Dict[int, bool]:
    return {var: values[var] == 1 for var in range(1, len(values))}


def _model_value(values: bytes, lit: int) -> Optional[bool]:
    var = abs(lit)
    if not 0 < var < len(values):
        return None
    return (values[var] == 1) == (lit > 0)


@dataclass
class SolveResult:
    """Outcome of a :meth:`PySolver.solve` call.

    ``status`` is ``True`` for SAT, ``False`` for UNSAT and ``None`` when a
    conflict budget or deadline expired before a verdict was reached.  For
    SAT answers ``values[var]`` is 1 when ``var`` is true and 0 when false
    (byte 0 is unused); :attr:`model` is the same assignment as a dict.  For
    UNSAT answers obtained under assumptions, ``core`` holds a subset of the
    assumption literals whose conjunction with the clause database is already
    unsatisfiable.
    """

    status: Optional[bool]
    values: bytes = b""
    core: Tuple[int, ...] = ()
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0

    @property
    def model(self) -> Dict[int, bool]:
        """The satisfying assignment as ``{var: bool}`` (built on demand)."""
        return _model_dict(self.values)

    def __bool__(self) -> bool:
        return self.status is True


class _Clause:
    """Internal clause record (original or learned).

    ``lits`` is set to ``None`` when the clause is discarded by database
    reduction: the watcher lists are *not* swept eagerly — propagation drops
    dead clauses as it walks past them (lazy watcher cleanup), which turns
    the old O(all watcher lists) purge into work that is amortised into the
    hot loop's existing compaction.
    """

    __slots__ = ("lits", "learned", "activity", "cid", "lbd", "locked")

    def __init__(self, lits: List[int], learned: bool, cid: int) -> None:
        self.lits: Optional[List[int]] = lits
        self.learned = learned
        self.activity = 0.0
        self.cid = cid
        # Literal-block distance: distinct decision levels among the
        # clause's literals at learning time (0 for original clauses).
        self.lbd = 0
        # Scratch flag used by _reduce_db (reason clauses survive).
        self.locked = False


class PySolver:
    """Incremental CDCL solver over DIMACS-style integer literals.

    This is the pure-Python reference implementation; construct solvers via
    the :func:`Solver` factory, which transparently substitutes the compiled
    kernel when one is available.

    Parameters
    ----------
    proof:
        When true the solver records a resolution chain for every learned
        clause and, upon a top-level refutation, a derivation of the empty
        clause.  Clause-database reduction is disabled in this mode so that
        every recorded antecedent stays available, and input clauses are
        never shortened so that their recorded literals match the clauses
        actually used during search.
    """

    def __init__(self, proof: bool = False) -> None:
        self.proof_logging = proof
        self._num_vars = 0
        self._clauses: List[_Clause] = []
        self._learnts: List[_Clause] = []
        # _watches[ilit] holds the long clauses watching the negation of ilit
        # (clauses to inspect when ilit becomes true).  Binary clauses live in
        # _bin_watches[ilit] as (other, clause) tuples: when ilit becomes
        # true, ``other`` is the only literal that can still satisfy the
        # clause, so propagation needs no watch moves and never touches the
        # clause's literal array.
        self._watches: List[List[_Clause]] = [[], []]
        self._bin_watches: List[List[Tuple[int, _Clause]]] = [[], []]
        # The assignment store stays a plain list on purpose: an
        # array('b')/bytearray variant (8x denser) was measured on
        # benchmarks/bench_solver_hotpath.py and LOST ~30% end to end —
        # CPython boxes every typed-array read, while list reads return
        # cached references, and the propagation loop reads _assigns
        # several times per visited clause.  Numbers in
        # docs/architecture.md; do not redo without re-measuring — typed
        # assignment stores belong in the compiled kernel (_ckernel.c uses
        # a plain int8 array), where reads cost a load, not a boxing.
        self._assigns: List[int] = [UNASSIGNED]
        self._level: List[int] = [0]
        self._reason: List[Optional[_Clause]] = [None]
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._activity: List[float] = [0.0]
        # Saved phases tolerate the typed-array read tax (one write per
        # enqueue, one read per decision — far colder than _assigns) in
        # exchange for one byte per variable.
        self._phase = array("b", [0])
        self._var_inc = 1.0
        self._var_inc_growth = 1.0 / 0.95  # reciprocal of the VSIDS decay
        self._cla_inc = 1.0
        self._cla_inc_growth = 1.0 / 0.999  # reciprocal of the clause decay
        self._order_heap: List[Tuple[float, int]] = []
        self._ok = True
        self._proof: Optional[Proof] = Proof() if proof else None
        self._next_cid = 0
        self._seen: List[int] = [0]
        self._reduce_base = REDUCE_BASE
        # statistics
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self._values = b""
        self._core: Tuple[int, ...] = ()

    # ------------------------------------------------------------------ API

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def ok(self) -> bool:
        """False once the clause database is unsatisfiable on its own."""
        return self._ok

    def new_var(self) -> int:
        """Allocate a fresh variable and return its (positive) index."""
        self._num_vars += 1
        var = self._num_vars
        self._assigns.append(UNASSIGNED)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._phase.append(False)
        self._seen.append(0)
        self._watches.append([])  # 2*var
        self._watches.append([])  # 2*var + 1
        self._bin_watches.append([])
        self._bin_watches.append([])
        heappush(self._order_heap, (0.0, var))
        return var

    def _ensure_var(self, var: int) -> None:
        while self._num_vars < var:
            self.new_var()

    def add_clause(self, lits: Iterable[int]) -> Optional[int]:
        """Add a clause (an iterable of DIMACS literals).

        Returns the clause's proof identifier, or ``None`` when the clause is
        a tautology and was dropped.  Clauses may only be added at decision
        level 0 (the solver always returns to level 0 between ``solve``
        calls).
        """
        if self._trail_lim:
            raise SolverError("add_clause called while the solver holds decisions")
        seen: Set[int] = set()
        clause: List[int] = []
        for lit in lits:
            if not isinstance(lit, int) or isinstance(lit, bool) or lit == 0:
                raise SolverError(f"invalid literal {lit!r}")
            self._ensure_var(abs(lit))
            ilit = _internal(lit)
            if _neg(ilit) in seen:
                return None  # tautology
            if ilit in seen:
                continue
            seen.add(ilit)
            clause.append(ilit)
        cid = self._new_cid([_external(l) for l in clause])
        if not self._ok:
            return cid

        if any(self._value(l) == TRUE for l in clause):
            # Satisfied by the level-0 assignment: the clause can never be an
            # antecedent, so it is safe to drop it even under proof logging.
            return cid
        if self._proof is None:
            # Simplify against the level-0 assignment.
            working = [
                l
                for l in clause
                if not (self._value(l) == FALSE and self._level[l >> 1] == 0)
            ]
        else:
            working = list(clause)

        record = _Clause(working, learned=False, cid=cid if cid is not None else -1)

        non_false = [l for l in working if self._value(l) != FALSE]
        if not non_false:
            # Conflicting at level 0: the database is unsatisfiable.
            self._ok = False
            if self._proof is not None:
                self._derive_empty(record)
            return cid
        if len(non_false) == 1 and self._value(non_false[0]) == UNASSIGNED:
            self._enqueue(non_false[0], record)
            conflict = self._propagate()
            if conflict is not None:
                self._ok = False
                if self._proof is not None:
                    self._derive_empty(conflict)
            if len(working) > 1:
                self._clauses.append(record)
            return cid
        if len(working) == 1:
            # Single-literal clause already satisfied at level 0.
            return cid
        # Choose two non-false literals as watchers so propagation stays
        # complete even when earlier units already falsified some literals.
        self._move_to_front(working, non_false)
        self._attach(record)
        self._clauses.append(record)
        return cid

    def add_cnf(self, cnf: CNF) -> List[Optional[int]]:
        """Add every clause of a :class:`CNF`; returns their proof ids."""
        self._ensure_var(cnf.num_vars)
        return [self.add_clause(clause) for clause in cnf.clauses]

    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_budget: Optional[int] = None,
        deadline: Optional[Deadline] = None,
    ) -> SolveResult:
        """Run the CDCL loop and return a :class:`SolveResult`."""
        self._values = b""
        self._core = ()
        if not self._ok:
            return self._result(False)
        for lit in assumptions:
            if not isinstance(lit, int) or isinstance(lit, bool) or lit == 0:
                raise SolverError(f"invalid literal {lit!r}")
            self._ensure_var(abs(lit))
        self._cancel_until(0)
        int_assumptions = [_internal(l) for l in assumptions]
        conflicts_at_start = self.conflicts
        restart_index = 0
        restart_budget = 64 * _luby(restart_index)
        conflicts_this_restart = 0

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                _work_cells()[0] += 1
                conflicts_this_restart += 1
                if self._decision_level() == 0:
                    if self._proof is not None:
                        self._derive_empty(conflict)
                    self._ok = False
                    return self._result(False)
                learned, backtrack_level, chain, lbd = self._analyze(conflict)
                self._cancel_until(backtrack_level)
                self._record_learned(learned, chain, lbd)
                self._decay_activities()
                if (
                    conflict_budget is not None
                    and self.conflicts - conflicts_at_start >= conflict_budget
                ):
                    self._cancel_until(0)
                    return self._result(None)
                if deadline is not None and deadline.expired:
                    self._cancel_until(0)
                    return self._result(None)
                if conflicts_this_restart >= restart_budget:
                    restart_index += 1
                    restart_budget = 64 * _luby(restart_index)
                    conflicts_this_restart = 0
                    self._cancel_until(0)
                continue

            if deadline is not None and deadline.expired:
                self._cancel_until(0)
                return self._result(None)

            if self._decision_level() < len(int_assumptions):
                # Place the next assumption as a pseudo-decision.
                ilit = int_assumptions[self._decision_level()]
                value = self._value(ilit)
                if value == TRUE:
                    self._new_decision_level()
                    continue
                if value == FALSE:
                    self._core = self._analyze_final(ilit, int_assumptions)
                    self._cancel_until(0)
                    return self._result(False)
                self._new_decision_level()
                self._enqueue(ilit, None)
                continue

            if self._proof is None and len(self._learnts) > self._reduce_base:
                self._reduce_db()

            ilit = self._pick_branch()
            if ilit is None:
                self._values = bytes(a == TRUE for a in self._assigns)
                self._cancel_until(0)
                return self._result(True)
            self.decisions += 1
            _work_cells()[1] += 1
            self._new_decision_level()
            self._enqueue(ilit, None)

    def model(self) -> Dict[int, bool]:
        """The satisfying assignment from the most recent SAT answer."""
        return _model_dict(self._values)

    def model_value(self, lit: int) -> Optional[bool]:
        """Value of a DIMACS literal in the last model (``None`` if absent)."""
        return _model_value(self._values, lit)

    def core(self) -> Tuple[int, ...]:
        """Failed assumptions responsible for the last UNSAT answer."""
        return self._core

    def proof(self) -> Proof:
        """The recorded resolution proof (requires ``proof=True``)."""
        if self._proof is None:
            raise SolverError("proof logging was not enabled")
        return self._proof

    # ----------------------------------------------------------- internals

    def _result(self, status: Optional[bool]) -> SolveResult:
        return SolveResult(
            status=status,
            values=self._values,
            core=self._core,
            conflicts=self.conflicts,
            decisions=self.decisions,
            propagations=self.propagations,
        )

    def _new_cid(self, external_lits: List[int]) -> Optional[int]:
        if self._proof is not None:
            return self._proof.add_original(external_lits)
        cid = self._next_cid
        self._next_cid += 1
        return cid

    def _value(self, ilit: int) -> int:
        val = self._assigns[ilit >> 1]
        if val == UNASSIGNED:
            return UNASSIGNED
        return val ^ (ilit & 1)

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _new_decision_level(self) -> None:
        self._trail_lim.append(len(self._trail))

    def _enqueue(self, ilit: int, reason: Optional[_Clause]) -> bool:
        value = self._value(ilit)
        if value != UNASSIGNED:
            return value == TRUE
        var = ilit >> 1
        self._assigns[var] = 1 ^ (ilit & 1)
        self._level[var] = self._decision_level()
        self._reason[var] = reason
        self._phase[var] = not (ilit & 1)
        self._trail.append(ilit)
        return True

    def _cancel_until(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        boundary = self._trail_lim[level]
        for ilit in reversed(self._trail[boundary:]):
            var = ilit >> 1
            self._assigns[var] = UNASSIGNED
            self._reason[var] = None
            heappush(self._order_heap, (-self._activity[var], var))
        del self._trail[boundary:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)

    @staticmethod
    def _move_to_front(working: List[int], non_false: List[int]) -> None:
        """Reorder ``working`` so two non-false literals occupy slots 0 and 1."""
        first, second = non_false[0], non_false[1]
        i = working.index(first)
        working[0], working[i] = working[i], working[0]
        j = working.index(second)
        working[1], working[j] = working[j], working[1]

    def _attach(self, clause: _Clause) -> None:
        lits = clause.lits
        if len(lits) == 2:
            self._bin_watches[lits[0] ^ 1].append((lits[1], clause))
            self._bin_watches[lits[1] ^ 1].append((lits[0], clause))
            return
        self._watches[lits[0] ^ 1].append(clause)
        self._watches[lits[1] ^ 1].append(clause)

    def _propagate(self) -> Optional[_Clause]:
        # The propagation loop is the solver's hot path: every container and
        # value test is kept local and inlined (no _value or _enqueue calls,
        # no attribute chasing), binary clauses are propagated from their own
        # immutable watch lists, and long-clause watcher lists are compacted
        # in place instead of being rebuilt.  ``propagations`` counts the
        # assignments this loop *enqueues* (derived facts), not the trail
        # literals it dequeues — decisions and assumptions are never counted.
        qhead = self._qhead
        trail = self._trail
        if qhead == len(trail):
            return None
        watches = self._watches
        bin_watches = self._bin_watches
        assigns = self._assigns
        levels = self._level
        reasons = self._reason
        phases = self._phase
        level = len(self._trail_lim)
        propagated = 0
        conflict: Optional[_Clause] = None
        while conflict is None and qhead < len(trail):
            ilit = trail[qhead]
            qhead += 1

            # Binary clauses: the other literal is unit unless already true.
            for other, clause in bin_watches[ilit]:
                other_val = assigns[other >> 1]
                if other_val < 0:
                    var = other >> 1
                    assigns[var] = 1 ^ (other & 1)
                    levels[var] = level
                    reasons[var] = clause
                    phases[var] = not (other & 1)
                    trail.append(other)
                    propagated += 1
                elif other_val == (other & 1):
                    conflict = clause
                    qhead = len(trail)
                    break
            if conflict is not None:
                break

            watch_list = watches[ilit]
            false_lit = ilit ^ 1
            i = j = 0
            count = len(watch_list)
            while i < count:
                clause = watch_list[i]
                i += 1
                lits = clause.lits
                if lits is None:
                    # Reduced away: lazy watcher cleanup drops the dead
                    # clause here instead of sweeping every watcher list
                    # at reduction time.
                    continue
                if lits[0] == false_lit:
                    lits[0] = lits[1]
                    lits[1] = false_lit
                first = lits[0]
                first_val = assigns[first >> 1]
                if first_val == 1 ^ (first & 1):
                    watch_list[j] = clause
                    j += 1
                    continue
                for k in range(2, len(lits)):
                    other = lits[k]
                    if assigns[other >> 1] != (other & 1):
                        # Not false: move the watch to this literal.
                        lits[1] = other
                        lits[k] = false_lit
                        watches[other ^ 1].append(clause)
                        break
                else:
                    watch_list[j] = clause
                    j += 1
                    if first_val == (first & 1):
                        # Every literal false: conflict.
                        while i < count:
                            watch_list[j] = watch_list[i]
                            j += 1
                            i += 1
                        conflict = clause
                        qhead = len(trail)
                        break
                    # Unit: enqueue (the inlined unassigned case of _enqueue).
                    var = first >> 1
                    assigns[var] = 1 ^ (first & 1)
                    levels[var] = level
                    reasons[var] = clause
                    phases[var] = not (first & 1)
                    trail.append(first)
                    propagated += 1
            del watch_list[j:]
        self._qhead = qhead
        self.propagations += propagated
        _work_cells()[2] += propagated
        return conflict

    def _analyze(
        self, conflict: _Clause
    ) -> Tuple[List[int], int, ResolutionChain, int]:
        """First-UIP conflict analysis.

        Returns the learned clause (asserting literal first), the backtrack
        level, the resolution chain when proof logging is enabled (level-0
        literals are resolved away so the chain reproduces the learned clause
        exactly) and the clause's literal-block distance (distinct decision
        levels among its literals, measured before backtracking).
        """
        learned: List[int] = [0]
        seen = self._seen
        counter = 0
        resolved_lit: Optional[int] = None
        clause: Optional[_Clause] = conflict
        index = len(self._trail) - 1
        chain = ResolutionChain(antecedents=[], pivots=[])
        zero_lits: Set[int] = set()
        if self._proof is not None:
            chain.antecedents.append(conflict.cid)

        while True:
            assert clause is not None
            if clause.learned:
                self._bump_clause(clause)
            for lit in clause.lits:
                if resolved_lit is not None and lit == resolved_lit:
                    continue
                var = lit >> 1
                if seen[var] or self._value(lit) == TRUE:
                    continue
                if self._level[var] == 0:
                    zero_lits.add(lit)
                    continue
                seen[var] = 1
                self._bump_var(var)
                if self._level[var] >= self._decision_level():
                    counter += 1
                else:
                    learned.append(lit)
            while not seen[self._trail[index] >> 1]:
                index -= 1
            resolved_lit = self._trail[index]
            index -= 1
            var = resolved_lit >> 1
            seen[var] = 0
            counter -= 1
            if counter == 0:
                learned[0] = _neg(resolved_lit)
                break
            clause = self._reason[var]
            if self._proof is not None:
                chain.antecedents.append(clause.cid)
                chain.pivots.append(var)

        for lit in learned[1:]:
            seen[lit >> 1] = 0

        if self._proof is not None and zero_lits:
            self._resolve_zero_literals(zero_lits, chain)

        if len(learned) == 1:
            backtrack_level = 0
        else:
            max_i = 1
            for i in range(2, len(learned)):
                if self._level[learned[i] >> 1] > self._level[learned[max_i] >> 1]:
                    max_i = i
            learned[1], learned[max_i] = learned[max_i], learned[1]
            backtrack_level = self._level[learned[1] >> 1]
        # LBD must be measured while the conflicting assignment is still in
        # place: after backtracking the levels of the learned literals are
        # stale.  Proof mode never reduces the database, so it skips the
        # (per-conflict) set build.
        lbd = 0
        if self._proof is None:
            levels = self._level
            lbd = len({levels[l >> 1] for l in learned})
        return learned, backtrack_level, chain, lbd

    def _resolve_zero_literals(self, zero_lits: Set[int], chain: ResolutionChain) -> None:
        """Extend a chain with resolutions eliminating level-0 literals."""
        pending = set(zero_lits)
        for ilit in reversed(self._trail):
            if not pending:
                break
            if _neg(ilit) not in pending:
                continue
            var = ilit >> 1
            reason = self._reason[var]
            pending.discard(_neg(ilit))
            if reason is None:
                continue
            for other in reason.lits:
                if (other >> 1) != var:
                    pending.add(other)
            chain.antecedents.append(reason.cid)
            chain.pivots.append(var)

    def _record_learned(
        self, learned: List[int], chain: ResolutionChain, lbd: int
    ) -> None:
        cid = -1
        if self._proof is not None:
            cid = self._proof.add_learned([_external(l) for l in learned], chain)
        clause = _Clause(learned, learned=True, cid=cid)
        clause.lbd = lbd
        if len(learned) == 1:
            self._learnts.append(clause)
            self._enqueue(learned[0], clause)
            return
        self._attach(clause)
        self._learnts.append(clause)
        self._bump_clause(clause)
        self._enqueue(learned[0], clause)

    def _analyze_final(self, failed: int, assumptions: List[int]) -> Tuple[int, ...]:
        """Compute a subset of assumptions implying the failed assumption."""
        assumption_set = set(assumptions)
        core: List[int] = [_external(failed)]
        stack = [_neg(failed)]
        visited: Set[int] = set()
        while stack:
            lit = stack.pop()
            var = lit >> 1
            if var in visited:
                continue
            visited.add(var)
            if self._level[var] == 0:
                continue
            reason = self._reason[var]
            true_lit = lit if self._value(lit) == TRUE else _neg(lit)
            if reason is None:
                if true_lit in assumption_set:
                    core.append(_external(true_lit))
                continue
            stack.extend(l for l in reason.lits if (l >> 1) != var)
        return tuple(dict.fromkeys(core))

    def _pick_branch(self) -> Optional[int]:
        while self._order_heap:
            _, var = heappop(self._order_heap)
            if self._assigns[var] == UNASSIGNED:
                return 2 * var + (0 if self._phase[var] else 1)
        for var in range(1, self._num_vars + 1):
            if self._assigns[var] == UNASSIGNED:
                return 2 * var + (0 if self._phase[var] else 1)
        return None

    def _bump_var(self, var: int) -> None:
        activity = self._activity
        activity[var] += self._var_inc
        if activity[var] > 1e100:
            for v in range(1, self._num_vars + 1):
                activity[v] *= 1e-100
            self._var_inc *= 1e-100
        # Assigned variables are pushed by _cancel_until when they become
        # selectable again (with their then-current activity), so pushing here
        # would only add stale heap entries.
        if self._assigns[var] == UNASSIGNED:
            heappush(self._order_heap, (-activity[var], var))

    def _bump_clause(self, clause: _Clause) -> None:
        clause.activity += self._cla_inc
        if clause.activity > 1e20:
            for c in self._learnts:
                c.activity *= 1e-20
            self._cla_inc *= 1e-20

    def _decay_activities(self) -> None:
        # Decay by growing the increment (one multiplication per conflict)
        # instead of rescaling stored activities.
        self._var_inc *= self._var_inc_growth
        self._cla_inc *= self._cla_inc_growth

    def _reduce_db(self) -> None:
        """LBD-based learned-clause reduction (glue and locked clauses stay).

        The learned clauses are ordered worst-first — highest literal-block
        distance, then lowest activity (stable, so insertion order breaks
        remaining ties) — and the worst half is discarded, except:

        * *glue* clauses (LBD <= ``GLUE_LBD``) survive unconditionally:
          they connect few decision levels and re-deriving them is what
          makes restarts expensive;
        * *locked* clauses (the reason of a currently assigned variable)
          survive — conflict analysis may still need them as antecedents;
        * binary clauses survive (their (other, clause) watch pairs live in
          the dedicated binary lists, which are never compacted — and a
          learned binary clause has LBD <= 2 anyway).

        Discarded clauses are only *marked* dead (``lits = None``); the
        watcher lists shed them lazily as propagation walks past (see
        :meth:`_propagate`), replacing the old eager sweep over every
        watcher list in the database.
        """
        reasons = self._reason
        for var in range(1, self._num_vars + 1):
            reason = reasons[var]
            if reason is not None and reason.learned:
                reason.locked = True
        learnts = self._learnts
        learnts.sort(key=lambda c: (-c.lbd, c.activity))
        half = len(learnts) // 2
        kept: List[_Clause] = []
        dropped = 0
        for i, clause in enumerate(learnts):
            if (
                i < half
                and clause.lbd > GLUE_LBD
                and not clause.locked
                and len(clause.lits) > 2
            ):
                clause.lits = None  # reaped lazily by _propagate
                dropped += 1
            else:
                kept.append(clause)
        for var in range(1, self._num_vars + 1):
            reason = reasons[var]
            if reason is not None and reason.learned:
                reason.locked = False
        if dropped:
            self._learnts = kept

    # -------------------------------------------------------------- proofs

    def _derive_empty(self, conflict: _Clause) -> None:
        """Derive the empty clause from a clause falsified at level 0."""
        if self._proof is None:
            return
        chain = ResolutionChain(antecedents=[conflict.cid], pivots=[])
        pending: Set[int] = set(conflict.lits)
        self._resolve_zero_literals(pending, chain)
        self._proof.set_empty_clause(chain)


class CKernelSolver:
    """The compiled-kernel substrate behind :func:`Solver`.

    The public surface mirrors :class:`PySolver` exactly (minus proof
    logging, which the factory routes to the pure path).  Each method is
    one call into :mod:`repro.sat._ckernel`: clause hygiene (literal
    validation with the reference's exception types and messages,
    tautology and duplicate elimination, ``num_vars`` growth), the level-0
    tail, assumption conversion, the search loop and deadline checks all
    run in C.
    """

    proof_logging = False

    def __init__(self) -> None:
        if _ckernel is None:  # pragma: no cover - factory guards this
            raise SolverError("the compiled solver kernel is not available")
        self._c = _ckernel.Solver()
        self._values = b""
        self._core: Tuple[int, ...] = ()

    # ------------------------------------------------------------------ API

    num_vars = property(lambda self: self._c.num_vars)
    conflicts = property(lambda self: self._c.conflicts)
    decisions = property(lambda self: self._c.decisions)
    propagations = property(lambda self: self._c.propagations)

    @property
    def ok(self) -> bool:
        return bool(self._c.ok)

    @property
    def _reduce_base(self) -> int:
        # Test hook, mirroring PySolver._reduce_base (the learned-clause
        # count that triggers an LBD reduction).
        return self._c.reduce_base

    @_reduce_base.setter
    def _reduce_base(self, value: int) -> None:
        self._c.reduce_base = value

    @property
    def _var_inc(self) -> float:
        # Test hook, mirroring PySolver._var_inc (the VSIDS activity
        # increment; activities rescale once one exceeds 1e100).
        return self._c.var_inc

    @_var_inc.setter
    def _var_inc(self, value: float) -> None:
        self._c.var_inc = value

    @property
    def _order_heap_items(self) -> List[Tuple[float, int, int]]:
        # Test hook, the counterpart of PySolver._order_heap: the kernel
        # holds the same multiset of (key, var) tuples as (key, var, count)
        # items, identical tuples sharing one item.
        return self._c.order_heap

    def new_var(self) -> int:
        return self._c.new_var()

    def add_clause(self, lits: Iterable[int]) -> Optional[int]:
        """Add a clause; ``None`` for dropped tautologies (see PySolver)."""
        return self._add((lits,), 0)[0]

    def add_cnf(self, cnf: CNF) -> List[Optional[int]]:
        return self._add(cnf.clauses, cnf.num_vars)

    def _add(
        self, clauses: Sequence[Iterable[int]], num_vars: int
    ) -> List[Optional[int]]:
        # Level-0 propagation triggered by new clauses counts as solver work
        # exactly like in-search propagation (the reference counts it
        # through the same _propagate loop).
        kernel = self._c
        before = kernel.propagations
        try:
            return kernel.add_clauses(clauses, num_vars)
        finally:
            _work_cells()[2] += kernel.propagations - before

    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_budget: Optional[int] = None,
        deadline: Optional[Deadline] = None,
    ) -> SolveResult:
        kernel = self._c
        self._values = b""
        self._core = ()
        before = (kernel.conflicts, kernel.decisions, kernel.propagations)
        try:
            status, self._values, self._core = kernel.solve(
                assumptions, conflict_budget, deadline
            )
        finally:
            cells = _work_cells()
            cells[0] += kernel.conflicts - before[0]
            cells[1] += kernel.decisions - before[1]
            cells[2] += kernel.propagations - before[2]
        return SolveResult(
            status,
            self._values,
            self._core,
            kernel.conflicts,
            kernel.decisions,
            kernel.propagations,
        )

    def model(self) -> Dict[int, bool]:
        return _model_dict(self._values)

    def model_value(self, lit: int) -> Optional[bool]:
        return _model_value(self._values, lit)

    def core(self) -> Tuple[int, ...]:
        return self._core

    def proof(self) -> Proof:
        raise SolverError("proof logging was not enabled")


def Solver(proof: bool = False):
    """Construct a solver on the fastest substrate that fits the request.

    The compiled kernel (:class:`CKernelSolver`) is used when the optional
    :mod:`repro.sat._ckernel` extension imported successfully, unless

    * ``proof=True`` — proof logging (and the interpolation machinery on
      top of it) stays pure Python by design, or
    * ``STEP_PURE_PYTHON=1`` is set — the escape hatch for differential
      testing and for environments where a stale build is suspect.

    Both substrates are decision-for-decision identical, so the choice
    never changes a result — only how fast it arrives.
    """
    if proof or _ckernel is None or kernel_forced_pure():
        _count_solver_created("python")
        return PySolver(proof=proof)
    _count_solver_created("c")
    return CKernelSolver()


_SOLVERS_CREATED = None


def _count_solver_created(kernel: str) -> None:
    """Per-substrate creation counter + "which kernel is live" gauge."""
    global _SOLVERS_CREATED
    if _SOLVERS_CREATED is None:
        from repro.obs.registry import default_registry

        registry = default_registry()
        _SOLVERS_CREATED = (
            registry.counter(
                "repro_solvers_created_total",
                "solver instances constructed, by substrate",
            ),
            registry.gauge(
                "repro_solver_kernel_active",
                "1 for the substrate Solver() currently picks",
            ),
        )
    counter, gauge = _SOLVERS_CREATED
    counter.inc(kernel=kernel)
    gauge.set(1 if kernel == active_kernel_name() else 0, kernel=kernel)


def _luby(index: int) -> int:
    """The Luby restart sequence 1, 1, 2, 1, 1, 2, 4, ... (0-based index)."""
    size = 1
    level = 0
    while size < index + 1:
        level += 1
        size = 2 * size + 1
    while size - 1 != index:
        size = (size - 1) // 2
        level -= 1
        index %= size
    return 1 << level
