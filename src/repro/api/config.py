"""Typed configuration objects for the session API.

:class:`repro.api.request.DecompositionRequest` replaces the kwarg sprawl of
the legacy ``BiDecomposer``/``EngineOptions`` surface (``jobs``, ``dedup``,
``cache_dir``, three separately named timeouts, ...) with three small
immutable config objects, each validated at construction:

* :class:`Budgets` — the paper's three nested wall-clock budgets (per QBF
  call, per primary output, per circuit);
* :class:`Parallelism` — scheduler knobs (worker processes, structural cone
  dedup, the executor backend);
* :class:`CachePolicy` — the persistent (cross-run) cone cache.

Validation errors are one-line :class:`repro.errors.ReproError`\\ s raised at
construction, never mid-decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import DecompositionError


def _check_non_negative(value: Optional[float], name: str) -> None:
    if value is not None and value < 0:
        raise DecompositionError(f"{name} must be >= 0 (got {value!r})")


def check_bool(value: object, name: str) -> None:
    """Reject a flag that is not a real ``bool`` (``"false"`` is truthy)."""
    if not isinstance(value, bool):
        raise DecompositionError(f"{name} must be true or false (got {value!r})")


@dataclass(frozen=True)
class Budgets:
    """Nested wall-clock budgets, mirroring the paper's experimental setup.

    Attributes
    ----------
    per_call:
        Seconds per QBF solver call (the paper's 4 s knob); ``None`` for no
        limit.
    per_output:
        Seconds per primary output; every engine run on the output shares
        it.  ``None`` for no limit.
    per_circuit:
        Seconds for the whole circuit (the paper's 6000 s knob).  Outputs
        past the deadline are skipped and named in
        ``CircuitReport.schedule["skipped"]``.

    ``0`` is legal for all three — it budgets nothing, so the guarded work
    times out immediately — because the deadline machinery treats "already
    expired" as a first-class state (and the legacy surface always accepted
    it); negative values are rejected.  The CLI is stricter and refuses
    ``--qbf-timeout 0`` / ``--output-timeout 0`` outright.
    """

    per_call: Optional[float] = 4.0
    per_output: Optional[float] = 60.0
    per_circuit: Optional[float] = None

    def __post_init__(self) -> None:
        _check_non_negative(self.per_call, "per_call budget")
        _check_non_negative(self.per_output, "per_output budget")
        _check_non_negative(self.per_circuit, "per_circuit budget")


@dataclass(frozen=True)
class Parallelism:
    """Batch-scheduler knobs (see :mod:`repro.core.scheduler`).

    Attributes
    ----------
    jobs:
        Workers per run; ``1`` keeps everything in-process.  For a suite
        submitted through :meth:`repro.api.session.Session.submit` the
        shared executor is sized to the largest ``jobs`` value among the
        requests.
    dedup:
        Memoise structurally identical output cones (one partition search,
        replayed for the duplicates).
    backend:
        Execution substrate for ``jobs > 1`` — ``"serial"`` (inline,
        deterministic reference), ``"thread"``
        (:class:`~concurrent.futures.ThreadPoolExecutor`: no pickling,
        legal under daemonic parents) or ``"process"`` (the
        ``multiprocessing`` pool; true CPU parallelism).  See
        :mod:`repro.core.executors`.  All three produce
        fingerprint-identical reports.  A suite runs on the strongest
        backend any of its requests asked for.
    """

    jobs: int = 1
    dedup: bool = True
    backend: str = "process"

    def __post_init__(self) -> None:
        if not isinstance(self.jobs, int) or self.jobs < 1:
            raise DecompositionError(f"jobs must be at least 1 (got {self.jobs!r})")
        check_bool(self.dedup, "dedup")
        # Imported at call time to keep this module free of module-level
        # api -> core imports (import-order hygiene, not a cost saving: by
        # the time a Parallelism is constructed the core stack is loaded
        # anyway — repro.api.request pulls it in at import).
        from repro.core.executors import check_backend

        check_backend(self.backend)


@dataclass(frozen=True)
class CachePolicy:
    """Cone cache configuration beyond the in-run dedup default.

    Attributes
    ----------
    directory:
        Directory for the ``cone_cache.json`` snapshot; ``None`` keeps the
        cone cache in-memory only.  The snapshot rides on the dedup cache,
        so a request combining a cache directory with ``dedup=False`` is
        rejected at construction.
    cross_circuit_dedup:
        Opt this request into the cone store shared by every request on
        one scheduler — a :meth:`repro.api.session.Session.submit` batch,
        an :class:`repro.api.aio.AsyncSession` or a daemon: a cone solved
        in another opted-in request with the same search context
        (operator, engine set, search options) replays for this request's
        structural twins, reported in ``schedule["cross_circuit_hits"]``.
        Off by default because a cross-circuit replay of a fanin-permuted
        twin can pick a different (equally valid) partition than a solo
        search would, so only opted-in reports may diverge from solo
        fingerprints.  Requires ``dedup``; a no-op for a lone request.
    max_entries:
        Compaction bound for the persistent snapshot: at save time the
        ``cone_cache.json`` is evicted down to this many entries,
        least-recently-hit first, so a long-lived daemon's cache stops
        growing without bound.  Requires ``directory``; ``None`` (the
        default) keeps the snapshot unbounded.
    """

    directory: Optional[str] = None
    cross_circuit_dedup: bool = False
    max_entries: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_entries is not None:
            if not isinstance(self.max_entries, int) or self.max_entries < 1:
                raise DecompositionError(
                    f"max_entries must be a positive integer (got {self.max_entries!r})"
                )
            if self.directory is None:
                raise DecompositionError(
                    "max_entries bounds the persistent snapshot; it needs a "
                    "cache directory to bound"
                )
