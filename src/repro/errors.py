"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish parse errors, solver misuse, malformed problem
specifications and service failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by the :mod:`repro` library."""


class ParseError(ReproError):
    """A circuit or formula file could not be parsed.

    Attributes
    ----------
    filename:
        Name of the offending file (or ``"<string>"`` for in-memory input).
    lineno:
        1-based line number where the problem was detected, or ``None``.
    """

    def __init__(self, message: str, filename: str = "<string>", lineno: int | None = None):
        self.filename = filename
        self.lineno = lineno
        location = filename if lineno is None else f"{filename}:{lineno}"
        super().__init__(f"{location}: {message}")


class CnfError(ReproError):
    """A CNF formula or clause is malformed (e.g. a zero literal)."""


class SolverError(ReproError):
    """The SAT or QBF solver was used incorrectly (e.g. invalid literal)."""


class AigError(ReproError):
    """Invalid operation on an And-Inverter Graph."""


class BddError(ReproError):
    """Invalid operation on a BDD manager or node."""


class DecompositionError(ReproError):
    """A bi-decomposition request is inconsistent or cannot be honoured."""


class VerificationError(ReproError):
    """An extracted decomposition failed the independent equivalence check."""


class ProtocolError(ReproError):
    """A malformed or version-incompatible service wire frame."""


class FrameTooLarge(ProtocolError):
    """A wire line exceeded the per-frame size limit.

    The oversized line is discarded in full, so the connection remains
    usable; ``tag`` carries the client's correlation token when it could
    be recovered from the discarded bytes (best effort), letting servers
    answer with a *tagged* ``error`` frame.
    """

    def __init__(self, limit: int, tag: object = None) -> None:
        self.limit = limit
        self.tag = tag
        super().__init__(
            f"frame exceeds the {limit}-byte line limit; frame discarded"
        )


class ServiceError(ReproError):
    """The decomposition service (or a client's use of it) failed."""


class Backpressure(ServiceError):
    """A per-client quota or accept-queue bound rejected a submit.

    Recoverable by design: the connection stays up and the daemon keeps
    serving the client's in-flight requests — the client should retry the
    rejected submit once one of them completes.  On the wire this travels
    as a tagged ``error`` frame carrying ``"code": "backpressure"`` so
    clients can distinguish it (and retry) without string-matching the
    message; :class:`repro.service.client.ServiceClient` re-raises it as
    this type.

    ``quota`` names which bound rejected the request
    (``"max_inflight_per_client"`` or ``"max_pending"``) and ``limit`` its
    configured value, when known.
    """

    code = "backpressure"

    def __init__(
        self,
        message: str,
        quota: str | None = None,
        limit: int | None = None,
    ) -> None:
        self.quota = quota
        self.limit = limit
        super().__init__(message)


class UsageError(ReproError):
    """Invalid command-line usage (bad paths/flags, not a failed run).

    The CLI maps these to exit status 2 — mirroring argparse's own usage
    failures — so scripts can tell "you called it wrong" (2) apart from
    "it ran and found problems" (1).
    """

    exit_code = 2
