"""The immutable decomposition request: one circuit, fully specified.

A :class:`DecompositionRequest` carries everything one circuit run needs
as typed, immutable fields.  Everything is validated at construction —
the operator, every engine name (against the :mod:`engine registry
<repro.api.registry>`), the budgets, the scheduler knobs — so a malformed
request fails with a one-line :class:`repro.errors.ReproError` before any
search starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.aig.aig import AIG
from repro.api.config import Budgets, CachePolicy, Parallelism, check_bool
from repro.api.registry import EngineRegistry, default_registry
from repro.core import qbf_bidec
from repro.core.spec import EXTRACT_QUANTIFICATION, check_operator
from repro.errors import DecompositionError


def _check_int(value: object, name: str, minimum: Optional[int] = None) -> None:
    """Reject a count that is not an ``int`` (``bool`` included) or is too small."""
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or (minimum is not None and value < minimum)
    ):
        bound = "" if minimum is None else f" >= {minimum}"
        raise DecompositionError(f"{name} must be an integer{bound} (got {value!r})")


@dataclass(frozen=True)
class DecompositionRequest:
    """Everything needed to decompose one circuit's primary outputs.

    Attributes
    ----------
    circuit:
        The :class:`repro.aig.aig.AIG` to decompose (sequential circuits
        are made combinational by the driver, the ABC ``comb`` step).
    operator:
        Gate operator ``"or"`` / ``"and"`` / ``"xor"`` (normalised to
        lower case).
    engines:
        Engine names, validated against the registry at construction.
    budgets / parallelism / cache:
        The three config objects (see :mod:`repro.api.config`).
    name:
        Report circuit name; defaults to ``circuit.name``.
    priority:
        Weight of this request in a suite's fair scheduling (must be > 0;
        default 1.0).  A request of priority 2 is charged half as much
        virtual time per dispatched cone as a priority-1 request, so its
        jobs reach the shared workers roughly twice as often.  Priorities
        shape *latency* (who gets workers first), never results.
    max_outputs:
        Decompose only the first N primary outputs (must be >= 1).
    extract / verify / extraction:
        Whether (and how) to extract ``fA``/``fB`` for found partitions,
        and whether to independently verify them.
    qbf_strategy / qbf_backend:
        QBF engine search strategy and solver backend.
    min_support / max_support:
        Support-size window outside which outputs are skipped.
    """

    circuit: AIG
    operator: str
    engines: Tuple[str, ...]
    budgets: Budgets = Budgets()
    parallelism: Parallelism = Parallelism()
    cache: CachePolicy = CachePolicy()
    name: Optional[str] = None
    priority: float = 1.0
    max_outputs: Optional[int] = None
    extract: bool = True
    verify: bool = False
    extraction: str = EXTRACT_QUANTIFICATION
    qbf_strategy: str = qbf_bidec.STRATEGY_AUTO
    qbf_backend: str = "specialised"
    min_support: int = 2
    max_support: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.circuit, AIG):
            raise DecompositionError(
                f"circuit must be an AIG (got {type(self.circuit).__name__})"
            )
        object.__setattr__(self, "operator", check_operator(self.operator))
        if isinstance(self.engines, str):
            raise DecompositionError(
                "engines must be a sequence of engine names, not a bare string"
            )
        engines = tuple(self.engines)
        if not engines:
            raise DecompositionError("a request needs at least one engine")
        object.__setattr__(
            self, "engines", default_registry().check_all(engines)
        )
        if self.max_outputs is not None:
            _check_int(self.max_outputs, "max_outputs", minimum=1)
        _check_int(self.min_support, "min_support")
        if self.max_support is not None:
            _check_int(self.max_support, "max_support")
        if self.name is not None and not isinstance(self.name, str):
            raise DecompositionError(f"name must be a string (got {self.name!r})")
        check_bool(self.extract, "extract")
        check_bool(self.verify, "verify")
        if not (
            isinstance(self.priority, (int, float))
            and not isinstance(self.priority, bool)
            and math.isfinite(self.priority)
            and self.priority > 0
        ):
            raise DecompositionError(
                f"priority must be a finite number > 0 (got {self.priority!r})"
            )
        if self.cache.directory is not None and not self.parallelism.dedup:
            raise DecompositionError(
                "a cache directory requires cone dedup (the persistent cache "
                "rides on the dedup cache); enable dedup or drop the directory"
            )
        if self.cache.cross_circuit_dedup and not self.parallelism.dedup:
            raise DecompositionError(
                "cross_circuit_dedup requires cone dedup (the suite-wide "
                "store rides on the dedup cache); enable dedup or drop the flag"
            )
        # Fail fast on extraction/strategy typos too: EngineOptions validates
        # them, so a malformed request never survives construction.
        self.to_options()

    def validate_against(self, registry: EngineRegistry) -> None:
        """Re-check the engine set against a session-specific registry."""
        registry.check_all(self.engines)

    @property
    def circuit_name(self) -> str:
        return self.name or self.circuit.name

    def to_options(self):
        """The :class:`repro.core.engine.EngineOptions` the engines run under."""
        from repro.core.engine import EngineOptions

        return EngineOptions(
            per_call_timeout=self.budgets.per_call,
            output_timeout=self.budgets.per_output,
            extraction=self.extraction,
            extract=self.extract,
            verify=self.verify,
            qbf_strategy=self.qbf_strategy,
            qbf_backend=self.qbf_backend,
            min_support=self.min_support,
            max_support=self.max_support,
        )

    def with_(self, **changes) -> "DecompositionRequest":
        """A copy with the given fields replaced (re-validated)."""
        return replace(self, **changes)
