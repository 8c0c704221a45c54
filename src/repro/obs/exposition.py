"""Prometheus text exposition of a metrics snapshot, plus the endpoint.

:func:`render_prometheus` turns a :meth:`MetricsRegistry.snapshot` dict
into the Prometheus text format (version 0.0.4): ``# HELP``/``# TYPE``
headers, one sample per series, histograms as cumulative ``_bucket``
series with ``le`` labels plus ``_sum``/``_count``.  Rendering works on
*snapshots*, not registries, so the daemon can render merged
(process-wide + per-daemon) state and the router could render a whole
fleet's roll-up.

:class:`MetricsEndpoint` is the optional ``step serve --metrics
host:port`` listener: a deliberately tiny HTTP/1.0 responder (no routes,
no keep-alive — every scrape gets the full exposition and a close).  The
snapshot+render runs **off-loop** in the default executor so a scrape
of a large registry never stalls protocol frames sharing the loop.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, Optional

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')
    )


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _label_pairs(series_key: str) -> Dict[str, str]:
    """Invert :func:`repro.obs.registry._label_key` (``k=v,k2=v2``)."""
    labels: Dict[str, str] = {}
    if series_key:
        for part in series_key.split(","):
            key, _, value = part.partition("=")
            labels[key] = value
    return labels


def _render_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_escape_label_value(str(labels[key]))}"'
        for key in sorted(labels)
    )
    return "{" + body + "}"


def render_prometheus(snapshot: Dict[str, object]) -> str:
    """The Prometheus text-format exposition of one snapshot."""
    lines = []
    for section, prom_type in (("counters", "counter"), ("gauges", "gauge")):
        entries = snapshot.get(section, {})
        for name in sorted(entries):
            entry = entries[name]
            if entry.get("help"):
                lines.append(f"# HELP {name} {entry['help']}")
            lines.append(f"# TYPE {name} {prom_type}")
            values = entry.get("values", {})
            for key in sorted(values):
                labels = _render_labels(_label_pairs(key))
                lines.append(f"{name}{labels} {_format_value(values[key])}")
    histograms = snapshot.get("histograms", {})
    for name in sorted(histograms):
        entry = histograms[name]
        if entry.get("help"):
            lines.append(f"# HELP {name} {entry['help']}")
        lines.append(f"# TYPE {name} histogram")
        bounds = entry.get("buckets", [])
        for key in sorted(entry.get("series", {})):
            series = entry["series"][key]
            base_labels = _label_pairs(key)
            cumulative = 0
            for bound, count in zip(bounds, series["counts"]):
                cumulative += count
                labels = dict(base_labels)
                labels["le"] = _format_value(float(bound))
                lines.append(
                    f"{name}_bucket{_render_labels(labels)} {cumulative}"
                )
            labels = dict(base_labels)
            labels["le"] = "+Inf"
            lines.append(
                f"{name}_bucket{_render_labels(labels)} {series['count']}"
            )
            plain = _render_labels(base_labels)
            lines.append(f"{name}_sum{plain} {_format_value(series['sum'])}")
            lines.append(f"{name}_count{plain} {series['count']}")
    return "\n".join(lines) + "\n"


class MetricsEndpoint:
    """The plaintext scrape listener behind ``step serve --metrics``."""

    def __init__(self, render: Callable[[], str]) -> None:
        # ``render`` produces the full exposition body; it runs off-loop.
        self._render = render
        self._listener = None

    @property
    def address(self) -> Optional[str]:
        """The bound scrape address (resolved for TCP port 0)."""
        listener = self._listener
        return listener.address if listener is not None else None

    async def start(self, address: str) -> None:
        # Imported here, not at module top: service -> obs is the load-
        # bearing direction; this one helper reuses the service layer's
        # listener without making obs depend on it at import time.
        from repro.service.server import Listener

        listener = Listener(self._handle)
        await listener.start(address)
        self._listener = listener

    async def aclose(self) -> None:
        if self._listener is not None:
            await self._listener.aclose()
            self._listener = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Consume the request head (request line + headers); the verb and
        # path are irrelevant — every request gets the exposition.
        try:
            while True:
                line = await asyncio.wait_for(reader.readline(), timeout=5)
                if not line or line in (b"\r\n", b"\n"):
                    break
        except asyncio.TimeoutError:
            return
        body = await asyncio.get_running_loop().run_in_executor(None, self._render)
        payload = body.encode("utf-8")
        head = (
            "HTTP/1.0 200 OK\r\n"
            f"Content-Type: {CONTENT_TYPE}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        writer.write(head.encode("ascii") + payload)
        await writer.drain()
