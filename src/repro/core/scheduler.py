"""Multi-output decomposition scheduling: one planner, one live driver.

The paper's STEP flow decomposes every primary output independently, which
makes the circuit driver embarrassingly parallel and highly redundant:
multi-output circuits routinely drive several outputs with structurally
identical cones.  Two classes exploit both properties while preserving the
sequential driver's results exactly:

* :class:`BatchScheduler` is the **per-request planner**.  Every primary
  output becomes an :class:`OutputJob` carrying its cone's canonical
  structural signature and a cost estimate (cone size).  Jobs whose cones
  are structurally identical up to a
  position-respecting input renaming share one partition search: the first
  job computes, the rest *replay* the memoised result with input names
  mapped positionally (extraction and verification re-run against the
  actual cone, so the replayed ``fA``/``fB`` are exactly what a fresh run
  would build).  It also owns the persistent snapshot and report assembly.
* :class:`LiveSuiteScheduler` is the **only driver**.  Requests join at any
  time; each request's unique cones enter a weighted fair queue
  (:class:`LiveFairQueue`) and are dispatched to one pluggable
  :class:`repro.core.executors.ExecutorBackend` (``serial``, ``thread``
  or ``process``), which is opened at the first dispatch.  The blocking
  :class:`repro.api.session.Session` runs each call on a fresh one, the
  asyncio session and the service daemon keep one for their lifetime.
  Every backend produces identical
  :meth:`repro.core.result.CircuitReport.fingerprint` values, which the
  differential tests assert.

Further properties of the live path:

* **Deadlines** — a circuit budget (``circuit_timeout``) starts when the
  request's first job dispatches, so queue wait behind other requests
  costs it nothing.  Every engine call runs under a sub-deadline capped by
  the circuit's remaining time (the :class:`repro.utils.timer.Deadline` is
  shipped to pool workers, whose monotonic clock is shared with the
  parent), a job that starts after expiry is skipped, and the report names
  every budget-skipped output in ``schedule["skipped"]``.
* **Persistence** — with ``cache_dir`` set, replayable cache entries are
  snapshotted to ``<cache_dir>/cone_cache.json`` keyed by (canonical
  signature, operator, engine set, options fingerprint); the next run over
  the same configuration warms its cache from the snapshot and reports the
  reuse in ``schedule["persistent_hits"]``.
* **Fair interleaving** — each request's own jobs go heaviest-first on a
  parallel backend (output order on the serial one), and requests take
  turns in proportion to their ``priority``, so one huge circuit does not
  monopolise every worker while small requests starve.
* **Cross-circuit dedup** — requests that opt in
  (``CachePolicy(cross_circuit_dedup=True)``) share one canonical-signature
  cone store per scheduler: a cone solved for circuit A replays for its
  structural twin in circuit B (same search context), even while A's
  search is still queued or in flight, reported in
  ``schedule["cross_circuit_hits"]``.  Off by default so solo fingerprints
  stay bit-identical.

The identity guarantee is stated for runs whose engine calls finish within
their wall-clock budgets: a search truncated by ``per_call_timeout`` /
``output_timeout`` / ``circuit_timeout`` reflects machine load, and load
differs between runs regardless of jobs count — timed-out results (and
searches completed near the budget) can therefore differ run to run on the
serial backend too.  Dedup is keyed by the *canonical* (fanin-commutative)
cone signature: for traversal-order-exact duplicates the replay is
bit-for-bit what a fresh search would produce, while for merely
fanin-permuted duplicates it is a valid partition of the same function that
a fresh search over the permuted encoding might not have chosen.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from dataclasses import dataclass, field, replace
from heapq import heappop, heappush
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.aig.aig import AIG
from repro.aig.function import BooleanFunction
from repro.aig.signature import (
    ConeCache,
    PersistentConeCache,
    canonical_cone_signature,
)
from repro.core.engine import BiDecomposer, EngineOptions, extract_and_verify
from repro.core.executors import (
    BACKEND_PROCESS,
    BACKEND_SERIAL,
    ExecutorBackend,
    check_backend,
    create_backend,
)
from repro.core.partition import VariablePartition
from repro.core.result import BiDecResult, CircuitReport, OutputResult
from repro.core.spec import check_engine, check_operator
from repro.errors import DecompositionError
from repro.obs.registry import MetricsRegistry
from repro.obs.registry import default_registry as obs_registry
from repro.sat.solver import active_kernel_name
from repro.utils.timer import Deadline, Stopwatch, monotonic

# File name of the persistent cone cache inside ``cache_dir``.
PERSISTENT_CACHE_FILENAME = "cone_cache.json"

# Fallback reasons recorded in ``CircuitReport.schedule["fallback"]`` when a
# jobs>1 request ends up running inline (never reported for jobs == 1).
FALLBACK_DEADLINE = "deadline"
FALLBACK_POOL_UNAVAILABLE = "pool-unavailable"
FALLBACK_WARM_CACHE = "warm-cache"

# Template stored in the cone cache: the primary job's input names (for the
# positional rename) and its fully computed per-engine record.
_CacheEntry = Tuple[Tuple[str, ...], OutputResult]


def _replayable(record: OutputResult) -> bool:
    """Only complete searches are memoised: replaying a budget-truncated
    result would amplify one transient timeout across every duplicate cone,
    where recomputing gives each duplicate its own fresh budget."""
    return all(not result.timed_out for result in record.results.values())


def _aggregate_solver_stats(report: CircuitReport) -> Dict[str, int]:
    """Total solver work behind a report, for ``schedule["solver_stats"]``."""
    conflicts = decisions = propagations = 0
    for record in report.outputs:
        for result in record.results.values():
            conflicts += result.stats.conflicts
            decisions += result.stats.decisions
            propagations += result.stats.propagations
    return {
        "conflicts": conflicts,
        "decisions": decisions,
        "propagations": propagations,
    }


#: schedule key -> process-wide cache counter fed from every finalized run.
_CACHE_COUNTERS = (
    ("cache_hits", "repro_cone_cache_hits_total", "in-memory cone-cache hits"),
    ("cache_misses", "repro_cone_cache_misses_total", "in-memory cone-cache misses"),
    ("persistent_hits", "repro_persistent_cache_hits_total", "persistent cone-cache hits"),
    ("persistent_saved", "repro_persistent_cache_saved_total", "persistent cone-cache entries written"),
)


def _count_cache_activity(schedule: Dict[str, object]) -> None:
    """Fold one finalized run's cache numbers into the obs registry.

    Counting from the already-assembled schedule dict (instead of inside
    the cache hot path) keeps observability strictly downstream of the
    fingerprinted execution: the report is complete before any metric
    moves.
    """
    registry = obs_registry()
    for key, name, help_text in _CACHE_COUNTERS:
        amount = schedule.get(key, 0)
        if isinstance(amount, int) and amount > 0:
            registry.counter(name, help_text).inc(amount)


@dataclass
class OutputJob:
    """One primary output scheduled for decomposition.

    ``function`` carries the cone extracted during planning so the in-process
    execution paths do not traverse the support again; workers rebuild it in
    their own process (only the job identity crosses the pipe).
    """

    index: int
    output_name: str
    num_support: int
    input_names: Tuple[str, ...]
    cost: int
    cache_key: Optional[tuple]
    function: Optional[BooleanFunction] = None


@dataclass
class PreparedRun:
    """One circuit's run state between planning and report assembly.

    Produced by :meth:`BatchScheduler.prepare`, consumed by
    :class:`LiveSuiteScheduler` and :meth:`BatchScheduler.finalize`.  The
    split lets the live scheduler interleave *several* circuits' jobs on
    one executor and still finalize each circuit's report exactly as a
    standalone run would.
    """

    aig: AIG
    operator: str
    engines: List[str]
    report: CircuitReport
    deadline: Optional[Deadline]
    jobs: List[OutputJob]
    cache: ConeCache
    persistent: Optional[PersistentConeCache]
    context: str
    warmed: int
    max_outputs: Optional[int]


class BatchScheduler:
    """Plan one circuit's per-output jobs and assemble its report.

    The per-request planner under :class:`LiveSuiteScheduler`, which
    executes what it plans.

    Parameters
    ----------
    decomposer:
        The :class:`BiDecomposer` whose options and per-output pipeline the
        planner delegates to.
    jobs:
        The request's worker count; ``schedule["requested_jobs"]``
        reports it, and above 1 planning computes dispatch costs.
    dedup:
        Memoise structurally identical cones (see module docstring).
    cache_dir:
        Directory for the persistent (cross-run) cone cache; ``None`` keeps
        the cache in-memory only.  Only meaningful with ``dedup``.
    cache_max_entries:
        Persistent-cache compaction bound: at save time the snapshot is
        evicted down to this many entries, least-recently-hit first
        (``None`` = unbounded; see
        :class:`repro.aig.signature.PersistentConeCache`).
    cache_provider:
        Optional ``(path, max_entries) -> PersistentConeCache`` factory.
        A session passes one returning **shared** instances so every run
        against the same snapshot path reuses one in-memory cache (one
        disk read per session instead of per run, cumulative saves, and a
        deterministic flush point at ``Session.close()``); ``None`` opens
        a fresh instance per run, the standalone behaviour.
    """

    def __init__(
        self,
        decomposer: BiDecomposer,
        jobs: int = 1,
        dedup: bool = True,
        cache_dir: Optional[str] = None,
        cache_max_entries: Optional[int] = None,
        cache_provider=None,
    ) -> None:
        if jobs < 1:
            raise DecompositionError("jobs must be at least 1")
        self._decomposer = decomposer
        self.jobs = jobs
        self.dedup = dedup
        self.cache_dir = cache_dir
        self.cache_max_entries = cache_max_entries
        self._cache_provider = cache_provider

    # -- planning -----------------------------------------------------------------

    def plan(
        self,
        aig: AIG,
        max_outputs: Optional[int] = None,
        deadline: Optional[Deadline] = None,
    ) -> List[OutputJob]:
        """Build the job list: one entry per primary output, in output order.

        Planning stops at the circuit ``deadline``: outputs past it could
        never be executed, so their cones are not even extracted.  Planning
        itself (one linear cone traversal per output, before any search
        runs) consumes an O(circuit-size) slice of the budget that the old
        interleaved driver spent output by output.
        """
        options = self._decomposer.options
        jobs: List[OutputJob] = []
        for index, (name, _) in enumerate(aig.outputs):
            if max_outputs is not None and index >= max_outputs:
                break
            if deadline is not None and deadline.expired:
                break
            function = BooleanFunction.from_output(aig, name)
            names = tuple(function.input_names)
            searchable = function.num_inputs >= options.min_support and (
                options.max_support is None
                or function.num_inputs <= options.max_support
            )
            cache_key = None
            cost = 0
            # The signature serves dedup keys and parallel dispatch costs;
            # a one-job no-dedup run needs neither.
            if searchable and (self.dedup or self.jobs > 1):
                signature = canonical_cone_signature(
                    function.aig, function.root, function.inputs
                )
                # Cone size (inputs + gates), read off the signature.
                cost = signature[0] + signature[1]
                if self.dedup:
                    # The engines iterate variables in input order but sort
                    # name sets in a few places (QBF blocking clauses, BDD
                    # cofactor order), so memoised results are only replayed
                    # for cones whose input names sort in the same relative
                    # order — then the search is literally the same
                    # computation.
                    sort_perm = tuple(
                        sorted(range(len(names)), key=names.__getitem__)
                    )
                    cache_key = (signature, sort_perm)
            jobs.append(
                OutputJob(
                    index=index,
                    output_name=name,
                    num_support=function.num_inputs,
                    input_names=names,
                    cost=cost,
                    cache_key=cache_key,
                    function=function,
                )
            )
        return jobs

    # -- prepare / finalize -------------------------------------------------------

    def prepare(
        self,
        aig: AIG,
        operator: str,
        engines: Sequence[str],
        circuit_timeout: Optional[float] = None,
        max_outputs: Optional[int] = None,
        circuit_name: Optional[str] = None,
    ) -> PreparedRun:
        """Validate, normalise and plan one circuit run (no search yet)."""
        operator = check_operator(operator)
        engines = [check_engine(engine) for engine in engines]
        if aig.latches:
            aig = aig.make_combinational()
        report = CircuitReport(circuit=circuit_name or aig.name, operator=operator)
        deadline = Deadline(circuit_timeout) if circuit_timeout is not None else None
        jobs = self.plan(aig, max_outputs=max_outputs, deadline=deadline)
        cache = ConeCache(enabled=self.dedup)
        persistent, context = self._open_persistent_cache(operator, engines)
        warmed = persistent.warm(cache, context) if persistent is not None else 0
        return PreparedRun(
            aig=aig,
            operator=operator,
            engines=engines,
            report=report,
            deadline=deadline,
            jobs=jobs,
            cache=cache,
            persistent=persistent,
            context=context,
            warmed=warmed,
            max_outputs=max_outputs,
        )

    def finalize(
        self,
        prepared: PreparedRun,
        records: Dict[int, OutputResult],
        used_workers: int,
        fallback: Optional[str],
        extra_schedule: Optional[Dict[str, object]] = None,
    ) -> CircuitReport:
        """Assemble the circuit report from executed records."""
        report = prepared.report
        for index in sorted(records):
            records[index].circuit = report.circuit
            report.outputs.append(records[index])
        totals: Dict[str, float] = {engine: 0.0 for engine in prepared.engines}
        for record in report.outputs:
            for engine, result in record.results.items():
                totals[engine] = totals.get(engine, 0.0) + result.cpu_seconds
        report.total_cpu = totals
        executed_names = {record.output_name for record in report.outputs}
        considered = [name for name, _ in prepared.aig.outputs]
        if prepared.max_outputs is not None:
            considered = considered[: prepared.max_outputs]
        cache = prepared.cache
        report.schedule = {
            # "jobs" is the worker count the run actually used: the pool
            # size when its jobs went to a pooled executor, 1 whenever
            # they ran (or replayed) inline.
            "jobs": used_workers or 1,
            "requested_jobs": self.jobs,
            "planned": len(prepared.jobs),
            "executed": len(records),
            # Outputs the circuit budget cut off (never planned, or planned
            # but not started before expiry), in output order.
            "skipped": [name for name in considered if name not in executed_names],
            # Why a jobs>1 request ran inline (None when it did not).
            "fallback": fallback,
            "unique_cones": len(cache),
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
            # Which solver substrate produced this report ("c" when the
            # compiled kernel is active, "python" otherwise).  Lives in the
            # schedule, which fingerprints exclude: both substrates are
            # decision-for-decision identical, so the fingerprint must not
            # depend on which one ran.
            "solver_kernel": active_kernel_name(),
            # Aggregate solver work across every executed result (cache
            # replays included — their memoised search counters replay with
            # them, keeping the aggregate independent of cache state).
            "solver_stats": _aggregate_solver_stats(report),
        }
        if extra_schedule:
            report.schedule.update(extra_schedule)
        if prepared.persistent is not None:
            saved = prepared.persistent.absorb(cache, prepared.context)
            if saved or prepared.persistent.dirty:
                # dirty without new entries = recency bumps under a
                # max_entries bound; they must reach disk for LRU
                # compaction to see them.
                prepared.persistent.save()
            report.schedule["persistent_hits"] = cache.warm_hits
            report.schedule["persistent_loaded"] = prepared.warmed
            report.schedule["persistent_saved"] = saved
        _count_cache_activity(report.schedule)
        return report

    def _open_persistent_cache(
        self, operator: str, engines: List[str]
    ) -> Tuple[Optional[PersistentConeCache], str]:
        """The cross-run snapshot (if configured) and this run's context key.

        The context key ties entries to everything that determines a
        partition search besides the cone itself: the gate operator, the
        engine *set* (order never changes results — the driver always runs
        STEP-MG first and shares its bootstrap) and the search-relevant
        engine options.  Without dedup there is nothing to warm or absorb,
        so the snapshot is not even opened.
        """
        context = (
            f"op={operator}|engines={','.join(sorted(set(engines)))}"
            f"|{self._decomposer.options.search_fingerprint()}"
        )
        if self.cache_dir is None or not self.dedup:
            return None, context
        path = os.path.join(self.cache_dir, PERSISTENT_CACHE_FILENAME)
        if self._cache_provider is not None:
            return self._cache_provider(path, self.cache_max_entries), context
        return PersistentConeCache(path, max_entries=self.cache_max_entries), context

    def _execute_job(
        self,
        aig: AIG,
        job: OutputJob,
        operator: str,
        engines: List[str],
        circuit_name: str,
        cache: ConeCache,
        deadline: Optional[Deadline] = None,
    ) -> OutputResult:
        """Run one job, consulting and feeding the cone memo cache."""
        if job.cache_key is not None:
            entry = cache.lookup(job.cache_key)
            if entry is not None:
                return self._replay(aig, job, operator, entry)
        record = self._decomposer.decompose_output(
            aig,
            job.output_name,
            operator,
            engines,
            circuit_name=circuit_name,
            function=job.function,
            deadline=deadline,
        )
        if job.cache_key is not None and _replayable(record):
            cache.store(job.cache_key, (job.input_names, record))
        return record

    # -- execution plumbing for the live driver ----------------------------------

    def split_for_pool(
        self, prepared: PreparedRun
    ) -> Tuple[List[OutputJob], List[OutputJob]]:
        """Partition jobs into pool-dispatched primaries and local followers.

        A follower is an in-run duplicate of an earlier job's cone, or a
        cone the warmed persistent snapshot already answers: it replays
        locally and is never dispatched.
        """
        primaries: List[OutputJob] = []
        followers: List[OutputJob] = []
        seen: set = set()
        for job in prepared.jobs:
            if job.cache_key is not None and (
                job.cache_key in seen or prepared.cache.contains(job.cache_key)
            ):
                followers.append(job)
                continue
            if job.cache_key is not None:
                seen.add(job.cache_key)
            primaries.append(job)
        return primaries, followers

    def worker_options(self) -> EngineOptions:
        """The options a pool worker runs under: search only, no recursion.

        Workers run the partition search but never extract, verify or
        persist — those happen in the parent against its own AIG, so results
        do not ship whole worker-side AIG copies through the pipe.
        """
        return replace(self._decomposer.options, extract=False, verify=False)

    def absorb_worker_record(
        self, prepared: PreparedRun, job: OutputJob, record: OutputResult
    ) -> None:
        """Parent-side completion of a worker-computed record.

        Extracts (and optionally verifies) ``fA``/``fB`` against the
        parent's AIG and mirrors :meth:`_execute_job`'s cache accounting
        (one miss, then the store) so hit/miss counters are identical for
        any backend and jobs count.
        """
        if self._decomposer.options.extract:
            self._extract_record(prepared.aig, job, prepared.operator, record)
        if job.cache_key is not None:
            prepared.cache.lookup(job.cache_key)
            if _replayable(record):
                prepared.cache.store(job.cache_key, (job.input_names, record))

    def execute_local(
        self,
        prepared: PreparedRun,
        jobs: Sequence[OutputJob],
        records: Dict[int, OutputResult],
    ) -> Iterator[OutputResult]:
        """Run jobs in-process in the given order, yielding each record.

        The follower replay once a request's dispatched jobs are back:
        ``_execute_job`` replays on a cache hit; when a follower's primary
        record was not cached (budget-truncated or skipped), it recomputes
        with a fresh budget — exactly as a fresh run would.
        """
        for job in jobs:
            if prepared.deadline is not None and prepared.deadline.expired:
                break
            record = self._execute_job(
                prepared.aig,
                job,
                prepared.operator,
                prepared.engines,
                prepared.report.circuit,
                prepared.cache,
                prepared.deadline,
            )
            records[job.index] = record
            yield record

    def _extract_record(
        self, aig: AIG, job: OutputJob, operator: str, record: OutputResult
    ) -> None:
        """Extract (and optionally verify) fA/fB for a worker-computed record."""
        options = self._decomposer.options
        function = job.function
        for result in record.results.values():
            if not result.decomposed or result.partition is None:
                continue
            if function is None:
                function = BooleanFunction.from_output(aig, job.output_name)
            result.fa, result.fb = extract_and_verify(
                function, operator, result.partition, options
            )

    # -- cache replay -------------------------------------------------------------

    def _replay(
        self, aig: AIG, job: OutputJob, operator: str, entry: _CacheEntry
    ) -> OutputResult:
        """Reconstruct a memoised record for a structurally identical cone.

        Partition names are mapped positionally from the primary cone's
        inputs to this cone's; extraction and verification are re-run against
        the actual cone so the sub-functions are the ones a fresh
        decomposition would have produced.
        """
        template_names, template = entry
        options = self._decomposer.options
        function = job.function  # planned cone; only consumed when extracting
        mapping = dict(zip(template_names, job.input_names))
        record = OutputResult(
            circuit=template.circuit,
            output_name=job.output_name,
            num_support=job.num_support,
        )
        for engine, result in template.results.items():
            stopwatch = Stopwatch().start()
            partition = None
            if result.partition is not None:
                partition = VariablePartition(
                    tuple(mapping[name] for name in result.partition.xa),
                    tuple(mapping[name] for name in result.partition.xb),
                    tuple(mapping[name] for name in result.partition.xc),
                )
            stats = result.stats.copy()
            stats.cache_hits += 1
            replayed = BiDecResult(
                engine=result.engine,
                operator=result.operator,
                decomposed=result.decomposed,
                partition=partition,
                optimum_proven=result.optimum_proven,
                timed_out=result.timed_out,
                stats=stats,
            )
            if replayed.decomposed and partition is not None and options.extract:
                if function is None:
                    function = BooleanFunction.from_output(aig, job.output_name)
                replayed.fa, replayed.fb = extract_and_verify(
                    function, operator, partition, options
                )
            replayed.cpu_seconds = stopwatch.stop()
            record.results[engine] = replayed
        return record


@dataclass
class SuiteUnit:
    """One request as the live scheduler sees it: a planner plus run
    parameters.

    Each request is deliberately coupled to its *own*
    :class:`BatchScheduler` (options, dedup cache, persistent snapshot)
    so it stays fingerprint-identical to running it alone — only the
    executor backend is shared.

    ``priority`` weights the unit in the fair queue: a unit of priority 2
    is charged half as much virtual time per cone as a unit of priority 1,
    so its jobs reach workers roughly twice as often.  ``cross_dedup``
    opts the unit into the scheduler-wide cone store (a cone solved by any
    opted-in unit with the same search context replays for this unit's
    structural twins).
    """

    scheduler: BatchScheduler
    aig: AIG
    operator: str
    engines: Sequence[str]
    circuit_timeout: Optional[float] = None
    max_outputs: Optional[int] = None
    circuit_name: Optional[str] = None
    priority: float = 1.0
    cross_dedup: bool = False


class _CrossUnitCache:
    """A unit's cone-cache view coupled to a scheduler-wide shared store.

    Wraps the unit's own :class:`repro.aig.signature.ConeCache` (all
    per-unit accounting — hits, misses, warm hits, entry count — still
    lives there, so solo-comparable stats survive) and adds a second
    lookup level: entries any opted-in unit stored under the same search
    ``context``.  A lookup that misses the unit's own cache but hits the
    shared store is a **cross-circuit replay**, counted in
    ``cross_hits`` and reported as ``schedule["cross_circuit_hits"]``;
    the unit-local miss counter still increments, keeping per-unit
    counters identical to a solo run.

    The shared key includes the unit's persistent-cache context string
    (operator, engine set, search-relevant options), so two units only
    ever exchange cones their searches would have computed identically.
    """

    def __init__(self, base: ConeCache, shared: Dict[tuple, object], context: str) -> None:
        self.base = base
        self._shared = shared
        self._context = context
        self.cross_hits = 0
        # Entries the unit already holds when it joins the shared store —
        # cones warmed from its persistent snapshot during prepare() —
        # become cross-circuit replayable too (only replayable entries are
        # ever persisted, so publishing them is always safe).
        if base.enabled:
            for key, value in base.items():
                shared.setdefault((context, key), value)

    @property
    def enabled(self) -> bool:
        return self.base.enabled

    @property
    def hits(self) -> int:
        return self.base.hits

    @property
    def misses(self) -> int:
        return self.base.misses

    @property
    def warm_hits(self) -> int:
        return self.base.warm_hits

    @property
    def hit_keys(self) -> set:
        return self.base.hit_keys

    def __len__(self) -> int:
        return len(self.base)

    def contains(self, key) -> bool:
        return self.base.contains(key) or (
            self.base.enabled and (self._context, key) in self._shared
        )

    def lookup(self, key):
        value = self.base.lookup(key)
        if value is not None or not self.base.enabled:
            return value
        value = self._shared.get((self._context, key))
        if value is not None:
            self.cross_hits += 1
            # Adopt the entry locally: the cross replay now plays the role
            # of this unit's primary, so the unit's *own* later duplicates
            # hit its own cache — per-unit dedup counters stay exactly
            # what a solo run reports (one miss for the first sight of the
            # cone, hits for the rest).
            self.base.store(key, value)
        return value

    def store(self, key, value) -> None:
        self.base.store(key, value)
        if self.base.enabled:
            # First writer wins: entries are deterministic per context, so
            # keeping the earliest preserves "one search, many replays".
            self._shared.setdefault((self._context, key), value)

    def warm(self, key, value) -> None:
        self.base.warm(key, value)
        if self.base.enabled:
            self._shared.setdefault((self._context, key), value)

    def computed_items(self):
        # Own entries only: persistent-snapshot absorption must not
        # re-serialise cones another unit computed (that unit absorbs them).
        return self.base.computed_items()

    def stats(self) -> Dict[str, int]:
        merged = self.base.stats()
        merged["cross_hits"] = self.cross_hits
        return merged


def heaviest_first(jobs: Sequence[OutputJob]) -> List[OutputJob]:
    """A unit's dispatch order on a parallel backend: heaviest cone first
    (stragglers start early), ties by output index."""
    return sorted(jobs, key=lambda job: (-job.cost, job.index))


class LiveFairQueue:
    """Incremental weighted fair queueing over per-unit job queues.

    Dispatching a job charges its unit ``(cost + 1) / priority`` units of
    virtual time, and the next job dispatched is always the one with the
    smallest virtual finish time anywhere (ties broken by slot).  Units
    *join* (and leave) while dispatch is in flight; a unit that joins
    mid-stream starts its virtual clock at the **current** global virtual
    time, so it competes fairly from now on instead of retroactively (it
    can neither starve incumbents by back-dating its backlog nor be starved
    by theirs).  When every unit joins before the first pop, the sequence
    is a pure function of (costs, order, priorities).

    Not thread-safe on its own; :class:`LiveSuiteScheduler` serialises
    access under its lock.
    """

    def __init__(self) -> None:
        self._virtual = 0.0
        self._heap: List[Tuple[float, int, int]] = []
        self._queues: Dict[int, Deque[OutputJob]] = {}
        self._priorities: Dict[int, float] = {}
        self._seq = 0

    def __len__(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def add_unit(
        self, slot: int, jobs: Sequence[OutputJob], priority: float
    ) -> None:
        """Enqueue a unit's jobs (kept in the given order, behind any it
        still has queued) at weight ``priority``."""
        if not jobs:
            return
        queued = self._queues.get(slot)
        if queued is not None:
            queued.extend(jobs)
            return
        self._queues[slot] = deque(jobs)
        self._priorities[slot] = priority
        self._seq += 1
        finish = self._virtual + (jobs[0].cost + 1) / priority
        heappush(self._heap, (finish, slot, self._seq))

    def pop(self) -> Optional[Tuple[int, OutputJob]]:
        """The next ``(slot, job)`` under WFQ order, or ``None`` when empty.

        Entries whose unit was removed (cancelled) are skipped lazily.
        """
        while self._heap:
            finish, slot, _seq = heappop(self._heap)
            queue = self._queues.get(slot)
            if queue is None:
                continue  # unit cancelled after this entry was pushed
            job = queue.popleft()
            self._virtual = max(self._virtual, finish)
            if queue:
                self._seq += 1
                next_finish = finish + (queue[0].cost + 1) / self._priorities[slot]
                heappush(self._heap, (next_finish, slot, self._seq))
            else:
                del self._queues[slot]
                del self._priorities[slot]
            return slot, job
        return None

    def remove_unit(self, slot: int) -> int:
        """Drop a unit's queued jobs (cooperative cancel); returns how many."""
        queue = self._queues.pop(slot, None)
        self._priorities.pop(slot, None)
        return len(queue) if queue is not None else 0


@dataclass
class _LiveUnit:
    """One live request's execution state inside :class:`LiveSuiteScheduler`."""

    unit: Optional[SuiteUnit]
    prepared: Optional[PreparedRun]
    ticket: object  # RequestTicket (typed loosely: api imports core, not back)
    followers: List[OutputJob]
    job_of: Dict[int, OutputJob]
    records: Dict[int, OutputResult]
    inflight: int = 0
    queued: int = 0
    dispatched: bool = False  # any primary reached the executor
    finished: bool = False
    # Remaining circuit budget right after planning; armed at first
    # dispatch so queue wait behind other clients costs the unit nothing.
    budget_left: Optional[float] = None
    armed: bool = False
    # Monotonic timestamp of fair-queue entry; the arming point observes
    # the difference as this request's fair-queue wait (obs only).
    enqueued_at: Optional[float] = None
    # forget() was requested while jobs were still in flight; the entry
    # is dropped when the last one lands.
    forgotten: bool = False
    # Cross-circuit dedup: shared-store keys this unit's queued or
    # in-flight jobs will provide (by output index), and keys whose
    # providers (other units' jobs) it waits on before it can complete.
    provides: Dict[int, tuple] = field(default_factory=dict)
    needs: Set[tuple] = field(default_factory=set)

    def release(self) -> None:
        """Drop the heavy per-run state once the request is terminal (a
        daemon keeps tickets for its lifetime; it must not keep AIGs)."""
        self.unit = None
        self.prepared = None
        self.followers = []
        self.job_of = {}
        self.records = {}


class LiveSuiteScheduler:
    """An incrementally fed fair scheduler over ONE executor.

    The only driver of the library: the blocking session runs every call
    on a fresh instance, the asyncio session and the service daemon keep
    one for their lifetime.  Its executor backend
    (:meth:`repro.core.executors.ExecutorBackend.open`) comes up at the
    first dispatch — a request that dispatches nothing never starts a
    pool — and stays warm until :meth:`close`, while requests

    * **join** at any time (:meth:`add_request`) — the unit is planned,
      its unique cones enter the live fair queue
      (:class:`LiveFairQueue`) and start competing for workers
      immediately, interleaved with every other in-flight request;
    * **cancel** cooperatively (:meth:`cancel`) — queued jobs are
      dropped, in-flight jobs finish but their results are discarded,
      and no other request is perturbed;
    * **complete** independently — once a unit's primaries are back (and
      every cross-circuit twin it waits on) its followers replay locally
      and its report finalizes exactly as a standalone run's would (same
      per-unit cache and deadline machinery, so fingerprints match
      solo runs).

    On the serial backend a request runs to completion inside
    :meth:`add_request`, so requests submitted one after another plan
    after the previous one finalized and warm from its snapshot entries.

    Results are pushed, not pulled: job completions arrive through the
    executor's non-blocking hook, and the scheduler surfaces them through
    the per-request :class:`repro.api.lifecycle.RequestTicket` (state
    transitions, final report, failure) plus an optional ``on_record``
    callback per finished output.  Callbacks fire from executor threads,
    some under the scheduler lock — they must not block.

    One request's failure marks *its* ticket ``failed`` and releases its
    state; the executor, the other requests and the daemon all keep
    going.
    """

    def __init__(
        self,
        jobs: int = 1,
        backend: str = BACKEND_PROCESS,
        pool_id: int = 0,
        on_record=None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if jobs < 1:
            raise DecompositionError("jobs must be at least 1")
        self.jobs = jobs
        self.backend = check_backend(backend)
        self.pool_id = pool_id
        self.pools_created = 0
        self.worker_count = 0
        self._on_record = on_record
        # Observability sink.  The daemon passes its own registry so two
        # services in one process keep separate per-client series; the
        # sessions default to the process-wide registry.
        self.metrics = metrics if metrics is not None else obs_registry()
        self._queue_wait = self.metrics.histogram(
            "repro_fair_queue_wait_seconds",
            "submit-to-first-dispatch wait in the live fair queue",
        )
        self._jobs_dispatched = self.metrics.counter(
            "repro_jobs_dispatched_total",
            "primary jobs handed to the live executor, by backend",
        )
        self._lock = threading.RLock()
        self._backend_impl: Optional[ExecutorBackend] = None
        self._fallback: Optional[str] = None
        self._queue = LiveFairQueue()
        self._units: Dict[int, _LiveUnit] = {}
        self._next_slot = 0
        self._inflight_total = 0
        self._pumping = False
        self._closed = False
        # Cross-circuit dedup: the scheduler-wide cone store, and for every
        # store key whose provider job is queued or in flight, the slots of
        # the units waiting on it.
        self._shared_cones: Dict[tuple, object] = {}
        self._providers: Dict[tuple, List[int]] = {}
        self.stats: Dict[str, int] = {
            "submitted": 0,
            "completed": 0,
            "cancelled": 0,
            "failed": 0,
            "records": 0,
        }

    # -- lifecycle ----------------------------------------------------------------

    def _open_backend(self) -> None:
        """Start the executor (lock held): called at the first dispatch."""
        backend = create_backend(self.backend, self.jobs)
        if backend.open(self._on_job_done):
            if self.backend != BACKEND_SERIAL:
                self.pools_created += 1
        else:
            # No process pool in this environment: degrade to inline
            # execution and report it per request.
            self._fallback = FALLBACK_POOL_UNAVAILABLE
            backend = create_backend(BACKEND_SERIAL, 1)
            backend.open(self._on_job_done)
        self._backend_impl = backend
        self.worker_count = backend.workers

    def close(self) -> None:
        """Shut the executor down; cancels everything still pending."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            backend = self._backend_impl
            self._backend_impl = None
            for slot, unit in self._units.items():
                if not unit.ticket.terminal:
                    self._queue.remove_unit(slot)
                    if unit.ticket.mark_cancelled():
                        self.stats["cancelled"] += 1
                    unit.release()
        # Outside the lock: pooled backends wait for in-flight jobs, whose
        # completion hooks need the lock (they see _closed and return).
        if backend is not None:
            backend.shutdown()

    # -- submission ---------------------------------------------------------------

    def add_request(self, unit: SuiteUnit, ticket) -> int:
        """Plan one request and enter it into the live dispatch stream.

        Returns the request's slot.  Planning (cone extraction, dedup
        splitting, persistent-cache warm) happens here, on the caller's
        thread — **outside** the scheduler lock, so a large circuit's
        planning never stalls other requests' completion hooks (the shared
        persistent cache has its own lock); only queue entry is
        serialised.
        """
        if not unit.priority > 0:
            raise DecompositionError(
                f"unit priority must be > 0 (got {unit.priority!r})"
            )
        self._check_open()
        prepared = unit.scheduler.prepare(
            unit.aig,
            unit.operator,
            unit.engines,
            circuit_timeout=unit.circuit_timeout,
            max_outputs=unit.max_outputs,
            circuit_name=unit.circuit_name,
        )
        # The circuit budget must not pay for queue wait behind other
        # clients: snapshot what planning left and re-arm the deadline when
        # the unit's jobs actually reach the executor (_arm).
        budget_left = (
            None if prepared.deadline is None else prepared.deadline.remaining()
        )
        with self._lock:
            self._check_open()
            if unit.cross_dedup and prepared.cache.enabled:
                prepared.cache = _CrossUnitCache(
                    prepared.cache, self._shared_cones, prepared.context
                )
            primaries, followers = unit.scheduler.split_for_pool(prepared)
            if budget_left == 0.0:
                # Planning consumed the budget: nothing may run, and no
                # executor starts just to skip every job.
                primaries = []
            slot = self._next_slot
            self._next_slot += 1
            state = _LiveUnit(
                unit=unit,
                prepared=prepared,
                ticket=ticket,
                followers=followers,
                job_of={},
                records={},
                budget_left=budget_left,
                enqueued_at=monotonic(),
            )
            dispatch = self._cross_dedup(state, slot, primaries)
            # Cross twins replay before the unit's own duplicates of them.
            followers.sort(key=lambda job: job.index)
            if self.jobs > 1 and self.backend != BACKEND_SERIAL:
                dispatch = heaviest_first(dispatch)
            state.job_of = {job.index: job for job in dispatch}
            state.queued = len(dispatch)
            self._units[slot] = state
            self.stats["submitted"] += 1
            if dispatch:
                self._queue.add_unit(slot, dispatch, unit.priority)
                self._pump()
                return slot
            if state.needs:
                return slot  # completes when the providers land
        # Nothing to fan out (all followers/warm hits, or nothing
        # planned): the request completes synchronously — outside the
        # lock, like every other completion.
        self._complete_unit(slot)
        return slot

    def _check_open(self) -> None:
        if self._closed:
            raise DecompositionError(
                "the live scheduler is closed; no further requests"
            )

    def _cross_dedup(
        self, state: _LiveUnit, slot: int, primaries: List[OutputJob]
    ) -> List[OutputJob]:
        """Pull cross-circuit twins of queued or in-flight cones out of
        ``primaries`` (lock held); returns the jobs to dispatch.

        The first opted-in job of each ``(search context, cone key)`` pair
        is the provider; a later twin from another unit becomes a follower
        of its own unit, which waits for the provider before it completes
        and then replays the provider's entry from the shared store.
        Units that did not opt in pass through untouched.
        """
        prepared = state.prepared
        if not isinstance(prepared.cache, _CrossUnitCache):
            return primaries
        dispatch: List[OutputJob] = []
        for job in primaries:
            if job.cache_key is not None:
                key = (prepared.context, job.cache_key)
                waiting = self._providers.get(key)
                if waiting is not None:
                    waiting.append(slot)
                    state.needs.add(key)
                    state.followers.append(job)
                    continue
                self._providers[key] = []
                state.provides[job.index] = key
            dispatch.append(job)
        return dispatch

    def cancel(self, slot: int) -> bool:
        """Cooperatively cancel a request; ``True`` if it was cancellable.

        Queued jobs are dropped immediately; jobs already on the executor
        run to completion but their results are discarded.  Terminal
        requests (and unknown slots) return ``False``.
        """
        with self._lock:
            unit = self._units.get(slot)
            if unit is None or unit.ticket.terminal:
                return False
            removed = self._queue.remove_unit(slot)
            unit.queued -= removed
            cancelled = unit.ticket.mark_cancelled()
            if cancelled:
                self.stats["cancelled"] += 1
            self._abandon_providers(unit)
            if unit.inflight == 0:
                unit.release()
            self._pump()
        return cancelled

    def forget(self, slot: int) -> None:
        """Drop a terminal request's unit entirely (daemon hygiene: a
        service fed an unbounded request stream must not keep per-request
        entries forever).  Non-terminal requests are kept — their jobs
        may still be in flight."""
        with self._lock:
            unit = self._units.get(slot)
            if unit is None or not unit.ticket.terminal:
                return
            if unit.inflight == 0:
                del self._units[slot]
            else:
                unit.forgotten = True  # dropped when the last job lands

    def ticket(self, slot: int):
        with self._lock:
            unit = self._units.get(slot)
            return unit.ticket if unit is not None else None

    def tickets(self) -> List[object]:
        """Every request's ticket, in submission order."""
        with self._lock:
            return [self._units[slot].ticket for slot in sorted(self._units)]

    # -- executor plumbing --------------------------------------------------------

    def _arm(self, unit: _LiveUnit) -> None:
        """Start the unit's circuit budget now, from the post-planning
        snapshot (lock held): its jobs reach the executor, or replay, from
        here on."""
        unit.armed = True
        if unit.budget_left is not None:
            unit.prepared.deadline = Deadline(unit.budget_left)
        if unit.enqueued_at is not None:
            self._queue_wait.observe(monotonic() - unit.enqueued_at)

    def _pump(self) -> None:
        """Keep the executor saturated (lock held by the caller).

        Iterative, with a reentrancy latch: the serial backend completes
        jobs synchronously inside ``submit``, so the completion hook runs
        *during* the loop body — it processes the result and returns, and
        this loop (not a recursive pump) dispatches the next job.
        """
        if self._pumping or self._closed:
            return
        self._pumping = True
        try:
            while True:
                if self._backend_impl is None:
                    if not len(self._queue):
                        break
                    self._open_backend()
                if self._inflight_total >= self.worker_count:
                    break
                item = self._queue.pop()
                if item is None:
                    break
                slot, job = item
                unit = self._units[slot]
                prepared = unit.prepared
                if not unit.armed:
                    self._backend_impl.add_context(
                        slot,
                        (
                            prepared.aig,
                            prepared.operator,
                            prepared.engines,
                            unit.unit.scheduler.worker_options(),
                            prepared.report.circuit,
                        ),
                    )
                    self._arm(unit)
                unit.queued -= 1
                unit.inflight += 1
                unit.dispatched = True
                self._inflight_total += 1
                self._jobs_dispatched.inc(backend=self.backend)
                unit.ticket.mark_running()
                self._backend_impl.submit(
                    (slot, job.index, job.output_name, prepared.deadline),
                    job.function,
                )
        finally:
            self._pumping = False

    def _on_job_done(self, slot, index, record, error) -> None:
        """Executor completion hook (any thread; serialised by the lock)."""
        ready: List[int] = []
        with self._lock:
            if self._closed:
                return
            self._inflight_total -= 1
            unit = self._units.get(slot)
            if unit is not None:
                unit.inflight -= 1
                if unit.finished or unit.ticket.terminal:
                    # Cancelled or failed with jobs in flight: discard the
                    # result, release once the last one lands.
                    if unit.inflight == 0:
                        unit.release()
                        if unit.forgotten:
                            del self._units[slot]
                elif error is not None:
                    self._fail_unit(slot, unit, error)
                else:
                    if record is not None:
                        job = unit.job_of[index]
                        try:
                            unit.unit.scheduler.absorb_worker_record(
                                unit.prepared, job, record
                            )
                        except Exception as exc:  # extraction/verify failed
                            self._fail_unit(slot, unit, exc)
                        else:
                            unit.records[index] = record
                            self._emit_record(unit, record)
                    ready = self._release_provider(unit, index)
                    if self._ready(unit):
                        ready.append(slot)
            self._pump()
        for ready_slot in ready:
            self._complete_unit(ready_slot)

    def _ready(self, unit: _LiveUnit) -> bool:
        """Whether the unit has nothing left to wait for."""
        return (
            not unit.finished
            and not unit.ticket.terminal
            and unit.inflight == 0
            and unit.queued == 0
            and not unit.needs
        )

    def _release_provider(self, unit: _LiveUnit, index: int) -> List[int]:
        """The unit's job ``index`` came back (lock held).  If it provided
        a shared cone, the twins waiting on it replay it now — or search
        it themselves when it was skipped or truncated; returns the slots
        of waiters that are ready to complete."""
        key = unit.provides.pop(index, None)
        ready: List[int] = []
        for waiter_slot in self._providers.pop(key, ()) if key else ():
            waiter = self._units.get(waiter_slot)
            if waiter is not None:
                waiter.needs.discard(key)
                if self._ready(waiter):
                    ready.append(waiter_slot)
        return ready

    def _abandon_providers(self, unit: _LiveUnit) -> None:
        """The unit was cancelled or failed (lock held), so its pending
        provider jobs will deliver nothing: each twin waiting on one goes
        back into its own request's queue and searches the cone itself, on
        the executor rather than on the thread that cancelled."""
        for key in unit.provides.values():
            for waiter_slot in self._providers.pop(key, ()):
                waiter = self._units.get(waiter_slot)
                if waiter is None or waiter.finished or waiter.ticket.terminal:
                    continue
                # The twin is the waiter's first job on this cone; its own
                # later duplicates stay followers and replay its result.
                job = next(
                    job for job in waiter.followers if job.cache_key == key[1]
                )
                waiter.followers.remove(job)
                waiter.needs.discard(key)
                waiter.job_of[job.index] = job
                waiter.queued += 1
                self._queue.add_unit(waiter_slot, [job], waiter.unit.priority)
        unit.provides.clear()

    def _emit_record(self, unit: _LiveUnit, record: OutputResult) -> None:
        # Callers hold the lock on the hook path but not on the
        # completion path; re-entrant, so counting under it is cheap.
        with self._lock:
            self.stats["records"] += 1
        if self._on_record is not None:
            self._on_record(unit.ticket, record)

    def _fail_unit(self, slot: int, unit: _LiveUnit, error: BaseException) -> None:
        """Mark the unit failed (lock held; the caller pumps)."""
        removed = self._queue.remove_unit(slot)
        unit.queued -= removed
        unit.finished = True
        self.stats["failed"] += 1
        unit.ticket.mark_failed(f"{type(error).__name__}: {error}")
        self._abandon_providers(unit)
        if unit.inflight == 0:
            unit.release()

    def _complete_unit(self, slot: int) -> None:
        """Follower replay + report assembly for one finished unit.

        Called WITHOUT the scheduler lock on the pooled backends: follower
        replay can be real search work and finalize rewrites the
        persistent snapshot, and neither may stall other requests'
        dispatch or completion hooks.  The unit is claimed (``finished``)
        under the lock first, so exactly one thread ever completes it; the
        shared persistent cache is internally locked.
        """
        with self._lock:
            unit = self._units.get(slot)
            if unit is None or unit.finished or unit.ticket.terminal:
                return
            unit.finished = True
            prepared = unit.prepared
            scheduler = unit.unit.scheduler
            followers = unit.followers
            records = unit.records
            priority = unit.unit.priority
            dispatched = unit.dispatched
            if not unit.armed:
                # Units that dispatched nothing never reach _pump: their
                # budget starts at replay time.
                self._arm(unit)
        try:
            unit.ticket.mark_running()  # no-op if already running
            for record in scheduler.execute_local(prepared, followers, records):
                self._emit_record(unit, record)
            if dispatched:
                used_workers = 0 if self._fallback else self.worker_count
                fallback = self._fallback
            else:
                used_workers = 0
                if unit.budget_left == 0.0:
                    fallback = FALLBACK_DEADLINE
                else:
                    fallback = FALLBACK_WARM_CACHE if followers else None
            extra: Dict[str, object] = {
                "live": True,
                "shared_pool": used_workers > 0,
                "pool_id": self.pool_id if used_workers else None,
                "backend": self.backend,
                "priority": priority,
            }
            if isinstance(prepared.cache, _CrossUnitCache):
                extra["cross_circuit_dedup"] = True
                extra["cross_circuit_hits"] = prepared.cache.cross_hits
            report = scheduler.finalize(
                prepared,
                records,
                used_workers,
                # A jobs == 1 request asked for nothing to fall back from.
                fallback if self.jobs > 1 else None,
                extra_schedule=extra,
            )
        except Exception as exc:
            with self._lock:
                self._fail_unit(slot, unit, exc)
                self._pump()
            return
        with self._lock:
            # Count BEFORE the transition: mark_done fires listeners that
            # resolve the awaited report, and a caller may read stats the
            # instant report() returns.
            self.stats["completed"] += 1
            if not unit.ticket.mark_done(report):
                self.stats["completed"] -= 1  # lost the race to a cancel
            unit.release()
            if unit.forgotten and slot in self._units:
                del self._units[slot]
