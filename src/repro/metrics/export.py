"""Metric exporters: Prometheus text, statsd UDP push, JSONL snapshots.

The registry (:mod:`repro.metrics.counters`) is deliberately in-memory
and pull-based; this module is how its contents leave the process, in
the three shapes a production stack actually consumes — all stdlib-only
and all driven off :meth:`MetricsRegistry.snapshot`, so the exporters
never hold their own metric state beyond what delta computation needs:

:func:`to_prometheus`
    The Prometheus text exposition format (version ``0.0.4``).  Kinds
    map structurally: integer counters become ``counter`` samples with
    the conventional ``_total`` suffix, gauges become ``gauge``, and
    timers/histograms become ``summary`` families (``quantile`` 0.5 /
    0.95 / 0.99 labels plus ``_sum``/``_count``).  Names are mangled to
    the Prometheus charset (dots to underscores) and emitted in sorted
    order, so scrapes diff cleanly.  The live endpoint is
    ``GET /v1/metrics`` with ``Accept: text/plain`` on a running
    :class:`~repro.serve.SearchServer`.
:class:`StatsdEmitter`
    A push emitter speaking the plain statsd datagram protocol over
    UDP.  Counters are flushed as *deltas* since the previous flush
    (``name:3|c`` — statsd counters are increments, not totals),
    gauges as ``name:v|g``, and timer/histogram families as derived
    gauges (``name.p95:v|g`` ...) plus a ``name.count`` delta counter.
    Lines are packed newline-separated into datagrams under the MTU
    budget.  :meth:`start` flushes periodically from a daemon thread;
    :meth:`flush` pushes on demand.
:func:`append_jsonl_snapshot`
    One JSON object per line — ``{"ts": ..., "metrics": {...}}`` with
    sorted keys — appended to a log file.  The grep-able trajectory for
    scripts and log shippers.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
from typing import Any, Mapping

from .counters import MetricsRegistry

__all__ = [
    "to_prometheus",
    "StatsdEmitter",
    "append_jsonl_snapshot",
    "read_jsonl_snapshots",
]

#: Quantile labels emitted for timer/histogram summaries.
_QUANTILES = (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99"))

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str, namespace: str) -> str:
    """Mangle a dotted metric name into the Prometheus charset."""
    flat = _NAME_OK.sub("_", name)
    full = f"{namespace}_{flat}" if namespace else flat
    if full and full[0].isdigit():
        full = "_" + full
    return full


def _prom_value(value: float) -> str:
    """Format a sample value (Go-style specials for infinities/NaN)."""
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value)) if isinstance(value, float) else str(value)


def _snapshot(
    source: MetricsRegistry | Mapping[str, Any], prefix: str = ""
) -> dict:
    if isinstance(source, MetricsRegistry):
        return source.snapshot(prefix)
    return dict(sorted(source.items()))


def to_prometheus(
    source: MetricsRegistry | Mapping[str, Any],
    prefix: str = "",
    *,
    namespace: str = "repro",
) -> str:
    """Render a registry (or a snapshot) as Prometheus text exposition.

    The kind of every family is recovered structurally from the
    snapshot: ``int`` values are counters, ``float`` values gauges,
    dict values (timers/histograms) summaries.  Output is sorted by
    metric name and terminated by a newline, per the format spec.
    """
    lines: list[str] = []
    for name, value in _snapshot(source, prefix).items():
        base = _prom_name(name, namespace)
        if isinstance(value, bool):
            continue  # never produced by the registry; guard anyway
        if isinstance(value, int):
            lines.append(f"# HELP {base}_total {name} (counter)")
            lines.append(f"# TYPE {base}_total counter")
            lines.append(f"{base}_total {value}")
        elif isinstance(value, float):
            lines.append(f"# HELP {base} {name} (gauge)")
            lines.append(f"# TYPE {base} gauge")
            lines.append(f"{base} {_prom_value(value)}")
        elif isinstance(value, Mapping):
            lines.append(f"# HELP {base} {name} (latency summary, seconds)")
            lines.append(f"# TYPE {base} summary")
            for label, key in _QUANTILES:
                lines.append(
                    f'{base}{{quantile="{label}"}} '
                    f"{_prom_value(value[key])}"
                )
            lines.append(f"{base}_sum {_prom_value(value['sum'])}")
            lines.append(f"{base}_count {value['count']}")
    return "\n".join(lines) + "\n" if lines else ""


class StatsdEmitter:
    """Push registry snapshots to a statsd daemon over UDP.

    Parameters
    ----------
    registry:
        The :class:`MetricsRegistry` to export.
    host, port:
        The statsd daemon's UDP endpoint (default ``127.0.0.1:8125``).
    prefix:
        Prepended (dot-joined) to every metric name on the wire.
    interval:
        Seconds between periodic flushes once :meth:`start` is called.
    max_datagram:
        Byte budget per UDP datagram; lines are packed up to it
        (classic statsd multi-metric datagrams, newline separated).

    UDP is fire-and-forget by design: a dead or absent daemon costs a
    dropped datagram, never an exception on the serving path (socket
    errors are swallowed and counted on :attr:`send_errors`).
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        host: str = "127.0.0.1",
        port: int = 8125,
        *,
        prefix: str = "repro",
        interval: float = 10.0,
        max_datagram: int = 1400,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if max_datagram < 64:
            raise ValueError(
                f"max_datagram must be at least 64 bytes, got {max_datagram}"
            )
        self.registry = registry
        self.address = (host, port)
        self.prefix = prefix.rstrip(".")
        self.interval = interval
        self.max_datagram = max_datagram
        self.send_errors = 0
        self.flushes = 0
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._last_counts: dict[str, int] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _name(self, name: str) -> str:
        return f"{self.prefix}.{name}" if self.prefix else name

    def _lines(self, snapshot: Mapping[str, Any]) -> list[str]:
        """Statsd lines for one snapshot (counter deltas tracked here)."""
        lines: list[str] = []
        for name, value in snapshot.items():
            wire = self._name(name)
            if isinstance(value, bool):
                continue
            if isinstance(value, int):
                delta = value - self._last_counts.get(name, 0)
                self._last_counts[name] = value
                if delta:
                    lines.append(f"{wire}:{delta}|c")
            elif isinstance(value, float):
                lines.append(f"{wire}:{value:g}|g")
            elif isinstance(value, Mapping):
                count_key = f"{name}.count"
                delta = value["count"] - self._last_counts.get(count_key, 0)
                self._last_counts[count_key] = value["count"]
                if delta:
                    lines.append(f"{wire}.count:{delta}|c")
                for stat in ("mean", "p50", "p95", "p99"):
                    lines.append(f"{wire}.{stat}:{value[stat]:g}|g")
        return lines

    def _datagrams(self, lines: list[str]) -> list[bytes]:
        """Pack lines into newline-joined datagrams under the budget."""
        datagrams: list[bytes] = []
        current: list[bytes] = []
        size = 0
        for line in lines:
            raw = line.encode("utf-8")
            if current and size + 1 + len(raw) > self.max_datagram:
                datagrams.append(b"\n".join(current))
                current, size = [], 0
            current.append(raw)
            size += len(raw) + (1 if size else 0)
        if current:
            datagrams.append(b"\n".join(current))
        return datagrams

    def flush(self, prefix: str = "") -> int:
        """Push one snapshot now; returns the datagram count."""
        with self._lock:
            lines = self._lines(self.registry.snapshot(prefix))
            datagrams = self._datagrams(lines)
            for datagram in datagrams:
                try:
                    self._sock.sendto(datagram, self.address)
                except OSError:
                    self.send_errors += 1
            self.flushes += 1
            return len(datagrams)

    # ------------------------------------------------------------------
    def start(self) -> "StatsdEmitter":
        """Flush every :attr:`interval` seconds from a daemon thread."""
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-statsd", daemon=True
            )
            self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.flush()

    def stop(self) -> None:
        """Stop the periodic thread, push a final flush, close the socket."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        try:
            self.flush()
        finally:
            self._sock.close()

    def __enter__(self) -> "StatsdEmitter":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False


def append_jsonl_snapshot(
    source: MetricsRegistry | Mapping[str, Any],
    path,
    *,
    prefix: str = "",
    timestamp: float | None = None,
) -> dict:
    """Append one snapshot record to a JSONL file; returns the record.

    Records are ``{"ts": <unix seconds>, "metrics": {...}}`` dumped
    with ``sort_keys`` so consecutive snapshots diff line-by-line.
    """
    record = {
        "ts": time.time() if timestamp is None else float(timestamp),
        "metrics": _snapshot(source, prefix),
    }
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True))
        fh.write("\n")
    return record


def read_jsonl_snapshots(path) -> list[dict]:
    """Load every snapshot record from a JSONL file (round-trip aid)."""
    records: list[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
