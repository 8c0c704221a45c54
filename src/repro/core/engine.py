"""The top-level bi-decomposition driver (the `STEP` tool).

:class:`BiDecomposer` glues the pieces together the way the paper's flow
does: per primary output it extracts the cone as a
:class:`repro.aig.function.BooleanFunction`, searches for a variable
partition with the requested engine(s), extracts the sub-functions ``fA`` /
``fB`` and (optionally) verifies the result.  The paper's engines map to:

==============  ==========================================================
Engine          Partition search
==============  ==========================================================
``LJH``         seed pair + greedy growth (Lee–Jiang DAC'08 / Bi-dec)
``STEP-MG``     group-MUS over the equality constraints (VLSI-SoC'11)
``STEP-QD``     QBF, optimum disjointness (this paper)
``STEP-QB``     QBF, optimum balancedness (this paper)
``STEP-QDB``    QBF, optimum disjointness + balancedness (this paper)
``BDD``         classic quantification-based greedy growth (related work)
==============  ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.aig.aig import AIG
from repro.aig.function import BooleanFunction
from repro.bdd.bdd import BDD
from repro.core import qbf_bidec
from repro.core.checks import RelaxationChecker
from repro.core.extract import extract_functions
from repro.core.ljh import ljh_decompose
from repro.core.mus_partition import mus_decompose, mus_find_partition
from repro.core.partition import VariablePartition
from repro.core.result import BiDecResult, OutputResult, SearchStatistics
from repro.core.spec import (
    ENGINE_BDD,
    ENGINE_LJH,
    ENGINE_STEP_MG,
    ENGINE_STEP_QB,
    ENGINE_STEP_QD,
    ENGINE_STEP_QDB,
    ENGINES,
    EXTRACT_QUANTIFICATION,
    check_engine,
    check_extraction,
    check_operator,
)
from repro.core.verify import verify_decomposition
from repro.errors import DecompositionError
from repro.sat.solver import solver_work_snapshot
from repro.utils.timer import Deadline, Stopwatch

QBF_ENGINES = (ENGINE_STEP_QD, ENGINE_STEP_QB, ENGINE_STEP_QDB)

TARGET_BY_ENGINE = {
    ENGINE_STEP_QD: qbf_bidec.TARGET_DISJOINTNESS,
    ENGINE_STEP_QB: qbf_bidec.TARGET_BALANCEDNESS,
    ENGINE_STEP_QDB: qbf_bidec.TARGET_COMBINED,
}


@dataclass
class EngineOptions:
    """Knobs shared by all engines.

    The defaults mirror the paper's experimental setup scaled to this
    substrate: 4 seconds per QBF call and a per-output budget instead of the
    paper's 6000 second per-circuit budget.
    """

    per_call_timeout: Optional[float] = 4.0
    output_timeout: Optional[float] = 60.0
    extraction: str = EXTRACT_QUANTIFICATION
    extract: bool = True
    verify: bool = False
    qbf_strategy: str = qbf_bidec.STRATEGY_AUTO
    qbf_backend: str = "specialised"
    min_support: int = 2
    max_support: Optional[int] = None
    # Batch-scheduler knobs (see repro.core.scheduler): worker processes per
    # circuit, structural dedup of identical cones, the run seed from which
    # per-output job seeds are derived, and an optional directory for the
    # persistent (cross-run) cone cache.
    jobs: int = 1
    dedup: bool = True
    seed: int = 0
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        self.extraction = check_extraction(self.extraction)
        if self.qbf_strategy not in qbf_bidec.STRATEGIES:
            raise DecompositionError(f"unknown QBF strategy {self.qbf_strategy!r}")
        if self.jobs < 1:
            raise DecompositionError("jobs must be at least 1")

    def search_fingerprint(self) -> str:
        """Stable key of every option that can change a partition search.

        Part of the persistent cone cache's context key: a snapshot taken
        under one set of search budgets/strategies must never be replayed
        under another.  Extraction/verification options are excluded —
        replay re-runs them against the actual cone — as are the scheduler
        knobs (jobs, dedup, seed, cache_dir), which never change results.
        """
        return (
            f"pct={self.per_call_timeout}|ot={self.output_timeout}"
            f"|strategy={self.qbf_strategy}|backend={self.qbf_backend}"
            f"|min={self.min_support}|max={self.max_support}"
        )


def extract_and_verify(
    function: BooleanFunction,
    operator: str,
    partition: VariablePartition,
    options: "EngineOptions",
) -> Tuple[BooleanFunction, BooleanFunction]:
    """Extract ``fA``/``fB`` for a found partition, verifying if configured.

    The single extraction policy shared by the sequential driver, the batch
    scheduler's parent-side extraction of worker results and its cache
    replay — keeping all three result paths byte-identical.
    """
    fa, fb = extract_functions(
        function, operator, partition, method=options.extraction
    )
    if options.verify:
        verify_decomposition(function, operator, fa, fb, partition)
    return fa, fb


class BiDecomposer:
    """Decompose functions or single outputs with selected engines.

    Whole circuits go through :class:`repro.api.Session`, whose scheduler
    calls :meth:`decompose_output` once per planned job.
    """

    def __init__(self, options: Optional[EngineOptions] = None) -> None:
        self.options = options or EngineOptions()

    # -- single function -----------------------------------------------------------

    def decompose_function(
        self,
        function: BooleanFunction,
        operator: str,
        engine: str = ENGINE_STEP_QD,
        bootstrap: Optional[VariablePartition] = None,
        deadline: Optional[Deadline] = None,
        extract: Optional[bool] = None,
    ) -> BiDecResult:
        """Decompose one function with one engine.

        ``extract`` overrides ``options.extract`` for this call; the driver
        uses it to skip sub-function extraction on bootstrap-only passes
        whose ``fA``/``fB`` nobody will read.
        """
        operator = check_operator(operator)
        engine = check_engine(engine)
        if extract is None:
            extract = self.options.extract
        deadline = deadline or Deadline(self.options.output_timeout)
        if function.num_inputs < self.options.min_support:
            return BiDecResult(engine=engine, operator=operator, decomposed=False)

        # Attribute solver work (conflicts/decisions/propagations) to this
        # result by sampling the thread-local solver counters around the
        # search.  The window deliberately closes *before* extraction:
        # extraction runs parent-side under the parallel backends, so
        # counting it would break the serial-vs-parallel fingerprint
        # identity.  Thread-local sampling keeps concurrent jobs (thread
        # backend) from bleeding into each other's counts.
        work_before = solver_work_snapshot()
        if engine == ENGINE_BDD:
            result = self._bdd_decompose(function, operator, deadline)
        elif engine not in ENGINES:
            result = self._plugin_decompose(function, operator, engine, deadline)
        else:
            checker = RelaxationChecker(function, operator)
            if engine == ENGINE_LJH:
                result = ljh_decompose(checker, deadline=deadline)
            elif engine == ENGINE_STEP_MG:
                result = mus_decompose(checker, deadline=deadline)
            else:
                if bootstrap is None:
                    bootstrap_stats = SearchStatistics()
                    bootstrap = mus_find_partition(
                        checker, deadline=deadline, stats=bootstrap_stats
                    )
                result = qbf_bidec.qbf_decompose(
                    checker,
                    TARGET_BY_ENGINE[engine],
                    bootstrap=bootstrap,
                    strategy=self.options.qbf_strategy,
                    per_call_timeout=self.options.per_call_timeout,
                    deadline=deadline,
                    backend=self.options.qbf_backend,
                )
        work_after = solver_work_snapshot()
        result.stats.conflicts += work_after[0] - work_before[0]
        result.stats.decisions += work_after[1] - work_before[1]
        result.stats.propagations += work_after[2] - work_before[2]
        if result.decomposed and result.partition is not None and extract:
            result.fa, result.fb = extract_and_verify(
                function, operator, result.partition, self.options
            )
        return result

    def decompose_function_all(
        self,
        function: BooleanFunction,
        operator: str,
        engines: Sequence[str],
        deadline: Optional[Deadline] = None,
    ) -> Dict[str, BiDecResult]:
        """Decompose one function with several engines, sharing the bootstrap.

        ``deadline`` is the enclosing *circuit* budget: each engine call runs
        under ``deadline.sub_deadline(output_timeout)``, i.e. its usual
        per-output budget capped by whatever the circuit has left.  Without
        one, every engine gets a fresh per-output budget (legacy behaviour).
        """
        engines = [check_engine(e) for e in engines]
        results: Dict[str, BiDecResult] = {}
        bootstrap: Optional[VariablePartition] = None
        ordered = sorted(engines, key=lambda e: 0 if e == ENGINE_STEP_MG else 1)
        needs_bootstrap = any(engine in QBF_ENGINES for engine in ordered)
        if needs_bootstrap and ENGINE_STEP_MG not in ordered:
            ordered.insert(0, ENGINE_STEP_MG)
        for engine in ordered:
            engine_deadline = None
            if deadline is not None:
                engine_deadline = deadline.sub_deadline(self.options.output_timeout)
            result = self.decompose_function(
                function,
                operator,
                engine,
                bootstrap=bootstrap,
                deadline=engine_deadline,
                # A bootstrap-only pass (STEP-MG inserted for the QBF
                # engines) only contributes its partition; extracting
                # fA/fB for it would be thrown away immediately.
                extract=None if engine in engines else False,
            )
            if engine == ENGINE_STEP_MG and result.decomposed:
                bootstrap = result.partition
            if engine in engines:
                results[engine] = result
        return results

    # -- outputs ----------------------------------------------------------------------

    def decompose_output(
        self,
        aig: AIG,
        output: int | str,
        operator: str,
        engines: Sequence[str],
        circuit_name: Optional[str] = None,
        function: Optional[BooleanFunction] = None,
        deadline: Optional[Deadline] = None,
    ) -> OutputResult:
        """Decompose one primary output with the requested engines.

        ``function`` optionally supplies the output's already-extracted cone
        (the batch scheduler builds it during planning) to avoid a second
        support traversal.  ``deadline`` is the circuit budget the scheduler
        plumbs through (including into pool workers); each engine runs under
        its per-output budget capped by the circuit's remaining time.
        """
        if function is None:
            function = BooleanFunction.from_output(aig, output)
        name = output if isinstance(output, str) else aig.outputs[output][0]
        record = OutputResult(
            circuit=circuit_name or aig.name,
            output_name=name,
            num_support=function.num_inputs,
        )
        if function.num_inputs < self.options.min_support:
            return record
        if (
            self.options.max_support is not None
            and function.num_inputs > self.options.max_support
        ):
            return record
        record.results = self.decompose_function_all(
            function, operator, engines, deadline=deadline
        )
        return record

    # -- third-party engines ----------------------------------------------------------

    def _plugin_decompose(
        self,
        function: BooleanFunction,
        operator: str,
        engine: str,
        deadline: Optional[Deadline],
    ) -> BiDecResult:
        """Dispatch to a registered third-party engine (see repro.api.registry)."""
        from repro.api.registry import default_registry

        spec = default_registry().get(engine)
        stopwatch = Stopwatch().start()
        result = spec.runner(
            function, operator, options=self.options, deadline=deadline
        )
        if not isinstance(result, BiDecResult):
            raise DecompositionError(
                f"engine {engine!r} returned {type(result).__name__}; "
                "a registered runner must return a BiDecResult"
            )
        if result.cpu_seconds == 0.0:
            result.cpu_seconds = stopwatch.stop()
        return result

    # -- BDD baseline -----------------------------------------------------------------

    def _bdd_decompose(
        self, function: BooleanFunction, operator: str, deadline: Optional[Deadline]
    ) -> BiDecResult:
        """Classic BDD-based greedy partition search (related-work baseline)."""
        from repro.bdd.bidec_bdd import bdd_check_decomposable

        stopwatch = Stopwatch().start()
        stats = SearchStatistics()
        variables = list(function.input_names)
        manager = BDD()
        manager.from_function(function)

        def check(xa: Set[str], xb: Set[str]) -> bool:
            stats.sat_calls += 1
            xc = [v for v in variables if v not in xa and v not in xb]
            return bdd_check_decomposable(
                function, operator, sorted(xa), sorted(xb), xc, bdd=manager
            )

        # ``truncated`` records whether the deadline actually cut a search
        # loop short.  Reporting ``deadline.expired`` at result-construction
        # time would flag runs whose search completed just before expiry as
        # timed out — and make the scheduler refuse to memoise a perfectly
        # good result (see ``repro.core.scheduler._replayable``).
        truncated = False
        partition: Optional[VariablePartition] = None
        seed: Optional[Tuple[str, str]] = None
        for i, first in enumerate(variables):
            for second in variables[i + 1 :]:
                if deadline is not None and deadline.expired:
                    truncated = True
                    break
                if check({first}, {second}):
                    seed = (first, second)
                    break
            if seed or truncated:
                break
        if seed is not None:
            xa, xb = {seed[0]}, {seed[1]}
            for name in variables:
                if name in xa or name in xb:
                    continue
                if deadline is not None and deadline.expired:
                    truncated = True
                    break
                order = ("A", "B") if len(xa) <= len(xb) else ("B", "A")
                for block in order:
                    candidate_a = xa | {name} if block == "A" else xa
                    candidate_b = xb | {name} if block == "B" else xb
                    if check(candidate_a, candidate_b):
                        xa, xb = candidate_a, candidate_b
                        break
            partition = VariablePartition(
                tuple(v for v in variables if v in xa),
                tuple(v for v in variables if v in xb),
                tuple(v for v in variables if v not in xa and v not in xb),
            )
        elapsed = stopwatch.stop()
        return BiDecResult(
            engine=ENGINE_BDD,
            operator=operator,
            decomposed=partition is not None,
            partition=partition,
            optimum_proven=False,
            cpu_seconds=elapsed,
            timed_out=truncated,
            stats=stats,
        )
