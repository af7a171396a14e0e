"""Cross-process trace propagation: one trace across client and server.

A remote search is two processes doing one operation, and a trace that
only shows the client half (an opaque multi-millisecond HTTP span) is
useless for the question the paper's whole evaluation revolves around —
*where did the time go?*  This module is the glue that stitches the two
halves back together:

:class:`TraceContext`
    The propagated identity of an in-flight trace — the
    :attr:`~repro.obs.Tracer.trace_id` plus the span id of the caller's
    open span — with a loss-free text encoding for the
    ``X-Repro-Trace`` HTTP header.
:func:`current_context`
    Snapshot the active tracer's context for injection (``None`` when
    tracing is off or no span is open, so the disabled path stays
    allocation-free).
:func:`adopt_spans`
    Graft a peer's exported span tree (``Span.to_dict()`` records that
    rode back on the wire) into a local tracer: span ids are re-issued
    from the local counter, the parent linkage is preserved, the
    foreign roots are parented under the local RPC span, and the
    foreign wall-clock — a different ``perf_counter`` epoch entirely —
    is rebased into the local span's window so the server's work
    renders *inside* the client's call in one Chrome trace.

The header format is deliberately minimal: ``<trace_id>/<span_id>``,
e.g. ``a3f9c2d1b4e8f701/17``.  Malformed values raise
:class:`~repro.exceptions.WireError` — a peer that sends the header at
all is claiming to speak the protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ..exceptions import WireError
from .tracer import Span, SpanEvent, Tracer, get_tracer

__all__ = [
    "TRACE_HEADER",
    "TraceContext",
    "current_context",
    "adopt_spans",
]

#: HTTP header carrying the trace context.
TRACE_HEADER = "X-Repro-Trace"


@dataclass(frozen=True)
class TraceContext:
    """The propagated identity of an in-flight trace."""

    trace_id: str
    parent_span_id: int

    def to_header(self) -> str:
        """The ``X-Repro-Trace`` header value (``trace_id/span_id``)."""
        return f"{self.trace_id}/{self.parent_span_id}"

    @classmethod
    def from_header(cls, value: str) -> "TraceContext":
        """Parse a header value; malformed input is a loud WireError."""
        if not isinstance(value, str):
            raise WireError(
                f"trace header must be a string, got {type(value).__name__}"
            )
        trace_id, sep, span_id = value.partition("/")
        if (
            not sep
            or not trace_id
            or not all(c in "0123456789abcdef" for c in trace_id)
            or not span_id.isdigit()
        ):
            raise WireError(
                f"malformed {TRACE_HEADER} header {value!r}; expected "
                "'<hex trace_id>/<span_id>'"
            )
        return cls(trace_id=trace_id, parent_span_id=int(span_id))


def current_context() -> TraceContext | None:
    """The active tracer's context, or ``None`` when not traceable.

    Requires a real (enabled) tracer *and* an open span on this thread:
    the span id is what the callee's spans hang from.
    """
    tracer = get_tracer()
    if not tracer.enabled:
        return None
    span = tracer.current_span()
    if span is None:
        return None
    return TraceContext(tracer.trace_id, span.span_id)


def _rebase_offset(
    docs: Sequence[Mapping[str, Any]],
    window: tuple[float, float] | None,
) -> float:
    """Shift that maps the foreign timeline into ``window``.

    The foreign process's ``perf_counter`` epoch is unrelated to ours;
    absolute alignment is impossible without clock sync.  What *is*
    known is causality: everything the server did happened inside the
    client's RPC span.  So the foreign interval is centred in the local
    window (clamped to its start when the server interval is somehow
    longer — timer granularity can do that for microsecond calls).
    """
    if window is None or not docs:
        return 0.0
    t0 = min(d["start_wall"] for d in docs)
    t1 = max(
        (d["end_wall"] if d["end_wall"] is not None else d["start_wall"])
        for d in docs
    )
    lo, hi = window
    slack = max(0.0, ((hi - lo) - (t1 - t0)) / 2.0)
    return lo + slack - t0


def adopt_spans(
    tracer: Tracer,
    span_docs: Sequence[Mapping[str, Any]],
    *,
    parent: Span | None = None,
    window: tuple[float, float] | None = None,
    origin: str = "server",
) -> list[Span]:
    """Graft exported span records into ``tracer``'s collector.

    Parameters
    ----------
    tracer:
        The adopting tracer; every grafted span gets a fresh id from
        its counter (foreign ids would collide with local ones).
    span_docs:
        :meth:`~repro.obs.Span.to_dict` records, any order.
    parent:
        Local span to hang the foreign roots under (typically the RPC
        span that carried the request).  ``None`` leaves them as roots.
    window:
        ``(start, end)`` wall-clock interval (local ``perf_counter``)
        to rebase the foreign timeline into; ``None`` keeps the foreign
        timestamps untouched.
    origin:
        Recorded on every grafted span (``origin=...`` attribute) so
        exports and queries can tell the two halves apart.

    Returns the grafted spans (completion order follows ``span_docs``).
    Each span keeps its original id in the ``remote_span_id``
    attribute, and foreign threads map to fresh negative thread ids so
    the Chrome export lays them out on their own tracks.
    """
    docs = [dict(d) for d in span_docs]
    offset = _rebase_offset(docs, window)
    id_map: dict[int, int] = {
        d["span_id"]: tracer.allocate_span_id() for d in docs
    }
    thread_map: dict[Any, int] = {}
    adopted: list[Span] = []
    for doc in docs:
        old_parent = doc.get("parent_id")
        if old_parent in id_map:
            new_parent = id_map[old_parent]
        else:
            new_parent = parent.span_id if parent is not None else None
        span = Span(doc["name"], id_map[doc["span_id"]], new_parent)
        old_thread = doc.get("thread_id", 0)
        if old_thread not in thread_map:
            thread_map[old_thread] = -(len(thread_map) + 1)
        span.thread_id = thread_map[old_thread]
        span.start_wall = float(doc["start_wall"]) + offset
        end = doc.get("end_wall")
        span.end_wall = None if end is None else float(end) + offset
        if doc.get("virtual_start") is not None:
            span.virtual_start = float(doc["virtual_start"])
            span.virtual_end = float(doc["virtual_end"])
        span.status = doc.get("status", "ok")
        span.attributes.update(doc.get("attributes") or {})
        span.attributes["origin"] = origin
        span.attributes["remote_span_id"] = doc["span_id"]
        for ev in doc.get("events") or ():
            span.events.append(SpanEvent(
                ev["name"],
                float(ev["wall_time"]) + offset,
                dict(ev.get("attributes") or {}),
            ))
        tracer.collector.add(span)
        adopted.append(span)
    return adopted
