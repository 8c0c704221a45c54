"""The service wire protocol: versioned JSON lines over a stream socket.

Every frame is one JSON object on one ``\\n``-terminated line, carried
over either a Unix socket or TCP (:func:`parse_address` classifies the
two address forms).  Client frames carry the protocol version in ``"v"``;
the server answers a version mismatch (or any malformed frame — including
one past the :data:`WIRE_LINE_LIMIT` line cap, see :class:`FrameReader`)
with a one-line ``error`` frame and keeps the connection alive.  See
``docs/service.md`` for the full frame catalogue.

The codecs in this module are **fingerprint-preserving**: a circuit is
encoded node-for-node (same indices, same strashed AND order), so the
daemon rebuilds the exact AIG the client holds, and a report is decoded
into a :class:`repro.core.result.CircuitReport` whose
:meth:`~repro.core.result.CircuitReport.fingerprint` equals the
server-side original — including extracted sub-functions, which travel as
(input names, truth table) and come back as :class:`WireFunction`
stand-ins with identical semantic fingerprints.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional, Tuple

from repro.aig.aig import AIG, lit_make
from repro.api.config import Budgets, CachePolicy, Parallelism
from repro.api.request import DecompositionRequest
from repro.core.partition import VariablePartition
from repro.core.result import (
    BiDecResult,
    CircuitReport,
    OutputResult,
    SearchStatistics,
)
from repro.errors import FrameTooLarge, ProtocolError, ReproError, ServiceError

# Version 2: report stats frames gained "decisions"/"propagations" (solver
# counters that now feed result fingerprints), and report schedules carry
# "solver_kernel"/"solver_stats".  The handshake is strict, so old clients
# and servers refuse each other cleanly instead of mis-decoding stats.
# Version 3: stats frames carry the observability roll-up ("obs" metric
# snapshot with latency histograms, "clients" per-client accounting,
# "quotas" admission bounds), and error frames may carry a machine-
# readable "code" (e.g. "backpressure" for recoverable quota rejections).
PROTOCOL_VERSION = 3

#: Frame types a client may send.
CLIENT_FRAME_TYPES = ("submit", "cancel", "stats", "ping")

#: Per-line read limit.  Frames carry whole circuits and whole reports;
#: 64 MiB is far beyond any realistic benchmark circuit while still
#: bounding a hostile client's memory use.  An over-long line is
#: *discarded in full* and answered with a one-line ``error`` frame — the
#: connection stays usable (see :class:`FrameReader`).
WIRE_LINE_LIMIT = 64 * 1024 * 1024

#: Truth tables are only shipped up to this support size — exactly the
#: range report fingerprints compare truth tables over (beyond it they
#: compare input names only, see ``repro.core.result._function_fingerprint``).
WIRE_TABLE_MAX_INPUTS = 16


# -- framing --------------------------------------------------------------------


def encode_frame(frame: Dict[str, object]) -> bytes:
    """One frame as a JSON line (compact separators, trailing newline)."""
    return json.dumps(frame, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_frame(line: bytes) -> Dict[str, object]:
    """Parse one wire line into a frame dict.

    Raises :class:`ProtocolError` (one line, no traceback leakage) on
    anything that is not a JSON object.
    """
    try:
        frame = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"malformed frame (not valid JSON): {exc}") from None
    if not isinstance(frame, dict):
        raise ProtocolError(
            f"malformed frame: expected a JSON object, got {type(frame).__name__}"
        )
    return frame


def check_client_frame(frame: Dict[str, object]) -> str:
    """Validate version + type of a client frame; returns the type."""
    version = frame.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: client sent {version!r}, "
            f"server speaks {PROTOCOL_VERSION}"
        )
    frame_type = frame.get("type")
    if frame_type not in CLIENT_FRAME_TYPES:
        raise ProtocolError(
            f"unknown frame type {frame_type!r}; expected one of "
            + ", ".join(CLIENT_FRAME_TYPES)
        )
    return frame_type


# -- addresses ------------------------------------------------------------------


def parse_address(address: str) -> Tuple[str, str, Optional[int]]:
    """Classify a service address string.

    ``"host:port"`` (port all digits, no path separator) parses to
    ``("tcp", host, port)`` — the host may be empty ("bind every
    interface" for servers, loopback for clients) and IPv6 literals may
    be bracketed (``"[::1]:7000"``).  Anything else is a Unix socket
    path: ``("unix", path, None)``.
    """
    if not isinstance(address, str) or not address:
        raise ServiceError(f"invalid service address {address!r}")
    if "/" not in address and ":" in address:
        host, _, port = address.rpartition(":")
        if port.isdigit():
            return ("tcp", host.strip("[]"), int(port))
    return ("unix", address, None)


def format_address(host: str, port: int) -> str:
    """The canonical ``host:port`` form (IPv6 hosts bracketed)."""
    return f"[{host}]:{port}" if ":" in host else f"{host}:{port}"


# -- line framing with a recoverable size cap ------------------------------------

#: How much of an oversized line's head/tail is retained to recover the
#: client's ``tag`` (written near the end of every frame the bundled
#: clients send).
_TAG_SNIFF_WINDOW = 4096

_TAG_INT = re.compile(rb'"tag":(-?\d+)[,}]')
_TAG_STR = re.compile(rb'"tag":"((?:[^"\\]|\\.)*)"')


def _sniff_tag(head: bytes, tail: bytes) -> Optional[object]:
    """Best-effort recovery of the ``tag`` from a discarded frame."""
    for window in (tail, head):
        ints = _TAG_INT.findall(window)
        if ints:
            return int(ints[-1])
        strings = _TAG_STR.findall(window)
        if strings:
            try:
                return json.loads(b'"' + strings[-1] + b'"')
            except ValueError:  # pragma: no cover - pattern clipped mid-escape
                return None
    return None


class FrameReader:
    """An incremental JSON-lines reader with an explicit per-line cap.

    ``asyncio.StreamReader.readline`` raises once its buffer limit is hit
    and leaves the stream unparseable — the pre-PR-6 daemon had no choice
    but to drop the connection, breaking the "malformed frames get
    one-line error replies" contract.  This reader owns its buffer: a
    line longer than ``limit`` is discarded *through its terminating
    newline* (constant memory), the client's ``tag`` is recovered from
    the discarded bytes when possible, and :class:`FrameTooLarge` is
    raised — after which the stream is positioned at the next frame and
    :meth:`readline` keeps working.
    """

    #: Read granularity; also bounds the memory spent while discarding.
    CHUNK = 1 << 16

    def __init__(
        self, reader: "asyncio.StreamReader", limit: int = WIRE_LINE_LIMIT
    ) -> None:
        self._reader = reader
        self._limit = limit
        self._buffer = bytearray()
        self._scanned = 0

    async def readline(self) -> bytes:
        """One full ``\\n``-terminated line; ``b""`` at EOF.

        The final line of a stream that ends without a newline is
        returned as-is (it will fail JSON decoding like any truncated
        frame would).  Raises :class:`FrameTooLarge` for a line past the
        cap — the oversized line is gone, the connection is not.
        """
        while True:
            newline = self._buffer.find(b"\n", self._scanned)
            if newline >= 0:
                line = bytes(self._buffer[: newline + 1])
                del self._buffer[: newline + 1]
                self._scanned = 0
                if len(line) > self._limit:
                    # The whole line arrived buffered before the cap
                    # could trip mid-read: enforce it here too, or the
                    # limit would depend on TCP segmentation.
                    raise FrameTooLarge(
                        self._limit,
                        tag=_sniff_tag(
                            line[:_TAG_SNIFF_WINDOW], line[-_TAG_SNIFF_WINDOW:]
                        ),
                    )
                return line
            self._scanned = len(self._buffer)
            if self._scanned > self._limit:
                raise FrameTooLarge(self._limit, tag=await self._discard_line())
            chunk = await self._reader.read(self.CHUNK)
            if not chunk:
                line = bytes(self._buffer)
                self._buffer.clear()
                self._scanned = 0
                return line
            self._buffer += chunk

    async def _discard_line(self) -> Optional[object]:
        """Drop the in-progress oversized line; returns its sniffed tag.

        Keeps only a head/tail window of the discarded bytes; anything
        the wire delivered *after* the line's newline is preserved as the
        start of the next frame.
        """
        head = bytes(self._buffer[:_TAG_SNIFF_WINDOW])
        tail = bytes(self._buffer[-_TAG_SNIFF_WINDOW:])
        self._buffer.clear()
        self._scanned = 0
        while True:
            chunk = await self._reader.read(self.CHUNK)
            if not chunk:  # EOF inside the oversized line
                break
            newline = chunk.find(b"\n")
            if newline >= 0:
                tail = (tail + chunk[:newline])[-_TAG_SNIFF_WINDOW:]
                self._buffer += chunk[newline + 1 :]
                break
            tail = (tail + chunk)[-_TAG_SNIFF_WINDOW:]
        return _sniff_tag(head, tail)


# -- circuit codec --------------------------------------------------------------


def encode_circuit(aig: AIG) -> Dict[str, object]:
    """Node-exact JSON form of an AIG (indices and fanin order preserved)."""
    nodes: List[list] = []
    latch_next: List[list] = []
    for index in range(1, aig.num_nodes):
        kind = aig.node_kind(index)
        if kind == "input":
            nodes.append(["i", aig.input_name(index)])
        elif kind == "latch":
            node = aig.node(index)
            nodes.append(["l", aig.input_name(index), node.init_value])
            if node.next_state is not None:
                latch_next.append([index, node.next_state])
        elif kind == "and":
            fanin0, fanin1 = aig.fanins(index)
            nodes.append(["a", fanin0, fanin1])
        else:  # pragma: no cover - only node 0 is const
            raise ProtocolError(f"cannot encode node kind {kind!r}")
    return {
        "name": aig.name,
        "nodes": nodes,
        "latch_next": latch_next,
        "outputs": [[name, lit] for name, lit in aig.outputs],
    }


def decode_circuit(payload: object) -> AIG:
    """Rebuild the exact AIG :func:`encode_circuit` serialised.

    Node indices are asserted to replay identically (the builder strashes,
    but every encoded AND was already unique and fanin-sorted, so replay
    is the identity) — the foundation of the daemon's fingerprint-identity
    guarantee.
    """
    if not isinstance(payload, dict):
        raise ProtocolError("malformed circuit: expected a JSON object")
    try:
        aig = AIG(str(payload.get("name", "wire")))
        for offset, entry in enumerate(payload["nodes"]):
            expected = lit_make(offset + 1)
            kind = entry[0]
            if kind == "i":
                lit = aig.add_input(str(entry[1]))
            elif kind == "l":
                lit = aig.add_latch(str(entry[1]), int(entry[2]))
            elif kind == "a":
                lit = aig.add_and(int(entry[1]), int(entry[2]))
            else:
                raise ProtocolError(f"malformed circuit: unknown node kind {kind!r}")
            if lit != expected:
                raise ProtocolError(
                    "malformed circuit: node replay diverged (the encoded "
                    "graph is not in canonical add_and form)"
                )
        for index, next_state in payload.get("latch_next", []):
            aig.set_latch_next(lit_make(int(index)), int(next_state))
        for name, lit in payload["outputs"]:
            aig.add_output(str(name), int(lit))
    except ProtocolError:
        raise
    except Exception as exc:
        raise ProtocolError(f"malformed circuit: {exc}") from None
    return aig


# -- request codec --------------------------------------------------------------


def encode_request(request: DecompositionRequest) -> Dict[str, object]:
    """A request's wire form.

    Execution placement (``Parallelism.jobs``/``backend``) and the cache
    *location* stay out of the frame deliberately: the daemon owns its
    executor and its cache directory; the client owns everything that
    defines the decomposition itself (operator, engines, budgets, dedup,
    priority, search options).
    """
    return {
        "circuit": encode_circuit(request.circuit),
        "operator": request.operator,
        "engines": list(request.engines),
        "budgets": {
            "per_call": request.budgets.per_call,
            "per_output": request.budgets.per_output,
            "per_circuit": request.budgets.per_circuit,
        },
        "dedup": request.parallelism.dedup,
        "name": request.name,
        "priority": request.priority,
        "max_outputs": request.max_outputs,
        "extract": request.extract,
        "verify": request.verify,
        "extraction": request.extraction,
        "qbf_strategy": request.qbf_strategy,
        "qbf_backend": request.qbf_backend,
        "min_support": request.min_support,
        "max_support": request.max_support,
    }


def decode_request(
    payload: object, cache: Optional[CachePolicy] = None
) -> DecompositionRequest:
    """Rebuild a request; ``cache`` is the **server's** cache policy.

    Construction runs the full request validation, so a frame with a bad
    operator/engine/budget fails with the same one-line error a local
    caller would see — relayed to the client as an ``error`` frame.
    """
    if not isinstance(payload, dict):
        raise ProtocolError("malformed submit: 'request' must be a JSON object")
    try:
        circuit = decode_circuit(payload["circuit"])
        budgets = payload.get("budgets") or {}
        dedup = payload.get("dedup", True)
        policy = CachePolicy()
        if cache is not None and cache.directory is not None and dedup:
            policy = cache
        return DecompositionRequest(
            circuit=circuit,
            operator=str(payload["operator"]),
            engines=tuple(payload["engines"]),
            budgets=Budgets(
                per_call=budgets.get("per_call"),
                per_output=budgets.get("per_output"),
                per_circuit=budgets.get("per_circuit"),
            ),
            parallelism=Parallelism(dedup=dedup),
            cache=policy,
            name=payload.get("name"),
            priority=float(payload.get("priority", 1.0)),
            max_outputs=payload.get("max_outputs"),
            extract=payload.get("extract", True),
            verify=payload.get("verify", False),
            extraction=str(payload.get("extraction", "quantification")),
            qbf_strategy=str(payload.get("qbf_strategy", "auto")),
            qbf_backend=str(payload.get("qbf_backend", "specialised")),
            min_support=payload.get("min_support", 2),
            max_support=payload.get("max_support"),
        )
    except ProtocolError:
        raise
    except KeyError as exc:
        raise ProtocolError(f"malformed submit: missing field {exc}") from None
    except ReproError:
        # Request validation errors (bad operator/engine/budget): already
        # one-line; the daemon relays them verbatim.
        raise
    except Exception as exc:
        # Wrong-typed fields (engines: 5, budgets: [1], ...): the daemon
        # promises a one-line error reply, never a dead connection.
        raise ProtocolError(f"malformed submit: {exc}") from None


# -- function / report codecs ---------------------------------------------------


class WireFunction:
    """A decoded sub-function: semantic content without a host AIG.

    Carries exactly what report fingerprints compare — the ordered input
    names plus (for functions of up to :data:`WIRE_TABLE_MAX_INPUTS`
    inputs) the truth table — so a wire report fingerprints identically
    to the server-side original.  :meth:`to_function` materialises a real
    :class:`repro.aig.function.BooleanFunction` when callers want to
    compute with it.
    """

    def __init__(self, input_names: List[str], table: Optional[int]) -> None:
        self._input_names = list(input_names)
        self._table = table

    @property
    def num_inputs(self) -> int:
        return len(self._input_names)

    @property
    def input_names(self) -> List[str]:
        return list(self._input_names)

    def truth_table(self) -> int:
        if self._table is None:
            raise ProtocolError(
                f"no truth table travels for functions of more than "
                f"{WIRE_TABLE_MAX_INPUTS} inputs"
            )
        return self._table

    def to_function(self):
        """A real BooleanFunction built from the transported table."""
        from repro.aig.function import BooleanFunction

        return BooleanFunction.from_truth_table(
            self.truth_table(), self.num_inputs, self._input_names
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WireFunction(inputs={self._input_names!r})"


def _encode_function(function) -> Optional[Dict[str, object]]:
    if function is None:
        return None
    names = list(function.input_names)
    table = (
        function.truth_table()
        if function.num_inputs <= WIRE_TABLE_MAX_INPUTS
        else None
    )
    return {"inputs": names, "table": table}


def _decode_function(payload) -> Optional[WireFunction]:
    if payload is None:
        return None
    return WireFunction(
        [str(name) for name in payload["inputs"]], payload.get("table")
    )


def _encode_stats(stats: SearchStatistics) -> Dict[str, object]:
    return {
        "sat_calls": stats.sat_calls,
        "qbf_iterations": stats.qbf_iterations,
        "qbf_calls": stats.qbf_calls,
        "refinements": stats.refinements,
        "conflicts": stats.conflicts,
        "decisions": stats.decisions,
        "propagations": stats.propagations,
        "cache_hits": stats.cache_hits,
        "bound_sequence": list(stats.bound_sequence),
    }


def _decode_stats(payload: Dict[str, object]) -> SearchStatistics:
    return SearchStatistics(
        sat_calls=int(payload["sat_calls"]),
        qbf_iterations=int(payload["qbf_iterations"]),
        qbf_calls=int(payload["qbf_calls"]),
        refinements=int(payload["refinements"]),
        conflicts=int(payload["conflicts"]),
        decisions=int(payload["decisions"]),
        propagations=int(payload["propagations"]),
        cache_hits=int(payload["cache_hits"]),
        bound_sequence=[int(bound) for bound in payload["bound_sequence"]],
    )


def _encode_partition(partition: Optional[VariablePartition]):
    if partition is None:
        return None
    return {
        "xa": list(partition.xa),
        "xb": list(partition.xb),
        "xc": list(partition.xc),
    }


def _decode_partition(payload) -> Optional[VariablePartition]:
    if payload is None:
        return None
    return VariablePartition(
        tuple(str(name) for name in payload["xa"]),
        tuple(str(name) for name in payload["xb"]),
        tuple(str(name) for name in payload["xc"]),
    )


def encode_report(report: CircuitReport) -> Dict[str, object]:
    """A report's complete wire form (fingerprint-preserving)."""
    outputs = []
    for output in report.outputs:
        results = []
        for engine, result in output.results.items():
            results.append(
                {
                    "engine": engine,
                    "operator": result.operator,
                    "decomposed": result.decomposed,
                    "partition": _encode_partition(result.partition),
                    "fa": _encode_function(result.fa),
                    "fb": _encode_function(result.fb),
                    "optimum_proven": result.optimum_proven,
                    "cpu_seconds": result.cpu_seconds,
                    "timed_out": result.timed_out,
                    "stats": _encode_stats(result.stats),
                }
            )
        outputs.append(
            {
                "circuit": output.circuit,
                "output_name": output.output_name,
                "num_support": output.num_support,
                "results": results,
            }
        )
    return {
        "circuit": report.circuit,
        "operator": report.operator,
        "outputs": outputs,
        "total_cpu": dict(report.total_cpu),
        # Everything the scheduler puts in here is already JSON-safe
        # (ints, floats, strings, lists, None).
        "schedule": dict(report.schedule),
    }


def decode_report(payload: object) -> CircuitReport:
    """Rebuild a :class:`CircuitReport` from its wire form."""
    if not isinstance(payload, dict):
        raise ProtocolError("malformed report frame")
    try:
        report = CircuitReport(
            circuit=str(payload["circuit"]), operator=str(payload["operator"])
        )
        for entry in payload["outputs"]:
            output = OutputResult(
                circuit=str(entry["circuit"]),
                output_name=str(entry["output_name"]),
                num_support=int(entry["num_support"]),
            )
            for item in entry["results"]:
                engine = str(item["engine"])
                output.results[engine] = BiDecResult(
                    engine=engine,
                    operator=str(item["operator"]),
                    decomposed=bool(item["decomposed"]),
                    partition=_decode_partition(item["partition"]),
                    fa=_decode_function(item["fa"]),
                    fb=_decode_function(item["fb"]),
                    optimum_proven=bool(item["optimum_proven"]),
                    cpu_seconds=float(item["cpu_seconds"]),
                    timed_out=bool(item["timed_out"]),
                    stats=_decode_stats(item["stats"]),
                )
            report.outputs.append(output)
        report.total_cpu = {
            str(engine): float(seconds)
            for engine, seconds in payload.get("total_cpu", {}).items()
        }
        schedule = payload.get("schedule", {})
        report.schedule = dict(schedule) if isinstance(schedule, dict) else {}
    except ProtocolError:
        raise
    except Exception as exc:
        raise ProtocolError(f"malformed report: {exc}") from None
    return report
