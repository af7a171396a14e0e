"""The HTTP search server: ``SearchService`` behind a wire protocol.

A deliberately small WSGI application served by the stdlib's threading
``wsgiref`` server — no framework, no dependencies — exposing the
in-process :class:`~repro.service.SearchService` over versioned JSON
(:mod:`repro.serve.wire`):

``POST /v1/submit``
    One :class:`~repro.search.SearchRequest` -> one outcome.
``POST /v1/batch``
    A request batch -> outcomes in request order plus serving stats
    (the remote twin of :meth:`SearchService.run`).
``POST /v1/stream``
    Paginated hit retrieval for large ``top_k``: the first call runs
    the search and returns the first page plus a ``stream_id``;
    subsequent calls page through the server-side hit list without
    recomputing.
``GET /v1/healthz``
    Liveness, schema version, and the served database's identity.
``GET /v1/metrics``
    The server registry's snapshot (statsd-style names).

Admission control reuses the service-layer vocabulary: at most
``max_inflight`` requests are admitted concurrently (queued requests
hold a slot while they wait for the single-threaded service), and
anything beyond that is shed immediately with
:class:`~repro.exceptions.ServiceOverloaded` -> HTTP 429 and counted in
``serve.shed`` — shedding early beats missing every deadline in the
queue.  Per-request deadlines ride in on the wire
(:attr:`SearchRequest.deadline`) and are enforced by the layers
underneath exactly as in-process.

Execution over the wrapped service is serialised: the DP work is
CPU-bound, the process-pool executors are not reentrant, and a traced
request installs its tracer process-wide, so concurrent handler
threads take turns; concurrency buys admission and
I/O overlap, not parallel scoring.  Errors map to status codes through
the canonical taxonomy (:data:`repro.exceptions.ERROR_STATUS`), so the
client re-raises the same typed exception an in-process call would.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from collections import OrderedDict
from socketserver import ThreadingMixIn
from typing import Any, Callable, Iterable, Mapping
from wsgiref.simple_server import WSGIRequestHandler, WSGIServer, make_server

from ..db.database import SequenceDatabase
from ..exceptions import (
    PipelineError,
    ReproError,
    ServiceOverloaded,
    WireError,
    status_for,
)
from ..metrics.counters import METRICS, MetricsRegistry
from ..metrics.export import to_prometheus
from ..obs.context import TraceContext
from ..obs.tracer import Tracer, get_tracer, use_tracer
from ..search.api import SearchOptions, SearchRequest
from ..service.service import SearchService
from . import wire

__all__ = ["SearchServer"]

#: HTTP reason phrases for the statuses the taxonomy can produce.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Default hits per stream page (overridable per call).
DEFAULT_PAGE_SIZE = 256

#: Request bodies above this size are rejected before parsing.
MAX_BODY_BYTES = 16 * 1024 * 1024


class _ThreadingWSGIServer(ThreadingMixIn, WSGIServer):
    """One daemon thread per connection; shutdown never waits on them."""

    daemon_threads = True


class _QuietHandler(WSGIRequestHandler):
    """The stdlib handler, minus per-request stderr chatter."""

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass


class _Shed(Exception):
    """Internal: the admission gate rejected this request."""


class SearchServer:
    """Serve one database over HTTP through a ``SearchService``.

    Parameters
    ----------
    database:
        The :class:`~repro.db.SequenceDatabase` this server answers
        queries against (the server owns the data; clients send only
        queries).
    options:
        Batch-wide :class:`~repro.search.SearchOptions` for the
        underlying service.  Clients may send their own options
        envelope for *verification*: a mismatch is a 400, never a
        silent behaviour change.
    service:
        Pre-built :class:`~repro.service.SearchService` to serve
        (``options`` and ``service_kwargs`` are then ignored).
    host, port:
        Bind address; port ``0`` picks an ephemeral port (see
        :attr:`url` after :meth:`start`).
    max_inflight:
        Admission cap: requests concurrently admitted (executing *or*
        queued for the service lock).  ``None`` admits everything;
        ``0`` sheds everything (a load-shed drill).  Shed requests get
        HTTP 429 + ``serve.shed``.
    max_requests:
        After this many API requests the server shuts itself down
        cleanly (CI smoke / tests); ``None`` serves forever.
    metrics:
        Registry for the ``serve.*`` instruments; also handed to the
        service the server builds.
    tracer:
        Optional tracer forwarded to the built service.
    service_kwargs:
        Forwarded to :class:`~repro.service.SearchService` (executor,
        workers, max_queue_depth, ...).
    """

    def __init__(
        self,
        database: SequenceDatabase,
        options: SearchOptions | None = None,
        *,
        service: SearchService | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int | None = None,
        max_requests: int | None = None,
        stream_cache: int = 32,
        metrics: MetricsRegistry = METRICS,
        tracer: Tracer | None = None,
        **service_kwargs: Any,
    ) -> None:
        if max_inflight is not None and max_inflight < 0:
            raise PipelineError(
                f"max_inflight must be non-negative, got {max_inflight}"
            )
        if max_requests is not None and max_requests < 1:
            raise PipelineError(
                f"max_requests must be positive, got {max_requests}"
            )
        if stream_cache < 1:
            raise PipelineError(
                f"stream_cache must be positive, got {stream_cache}"
            )
        self.database = database
        self.metrics = metrics
        if service is None:
            service = SearchService(
                options, metrics=metrics, tracer=tracer, **service_kwargs
            )
        self.service = service
        self.host = host
        self._requested_port = port
        self.max_inflight = max_inflight
        self.max_requests = max_requests
        self._options_wire = wire.encode_options(self.service.options)
        self._inflight = 0
        self._admission = threading.Lock()
        self._service_lock = threading.Lock()
        self._streams: OrderedDict[str, dict] = OrderedDict()
        self._streams_cap = stream_cache
        self._streams_lock = threading.Lock()
        self._served = 0
        self._started = time.monotonic()
        self._httpd: WSGIServer | None = None
        self._thread: threading.Thread | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (the real one once the socket exists)."""
        if self._httpd is not None:
            return self._httpd.server_address[1]
        return self._requested_port

    @property
    def url(self) -> str:
        """Base URL clients should talk to."""
        return f"http://{self.host}:{self.port}"

    def _bind(self) -> WSGIServer:
        if self._httpd is None:
            self._httpd = make_server(
                self.host, self._requested_port, self.app,
                server_class=_ThreadingWSGIServer,
                handler_class=_QuietHandler,
            )
        return self._httpd

    def start(self) -> "SearchServer":
        """Bind and serve on a background thread; returns ``self``."""
        httpd = self._bind()
        if self._thread is None:
            self._thread = threading.Thread(
                target=httpd.serve_forever, kwargs={"poll_interval": 0.05},
                name="repro-serve", daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Bind and serve on the calling thread (the CLI path)."""
        self._bind().serve_forever(poll_interval=0.05)

    def close(self) -> None:
        """Stop serving, release the socket and the service's pools."""
        if self._closed:
            return
        self._closed = True
        httpd, self._httpd = self._httpd, None
        if httpd is not None:
            # shutdown() is safe from any thread except the one inside
            # serve_forever; handler threads qualify.
            httpd.shutdown()
            httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.service.close()

    def __enter__(self) -> "SearchServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # admission control
    # ------------------------------------------------------------------
    def _admit(self) -> None:
        with self._admission:
            if (
                self.max_inflight is not None
                and self._inflight >= self.max_inflight
            ):
                self.metrics.increment("serve.shed")
                get_tracer().event(
                    "serve.shed", inflight=self._inflight,
                    max_inflight=self.max_inflight,
                )
                raise _Shed()
            self._inflight += 1
            self.metrics.set_gauge("serve.inflight", float(self._inflight))

    def _release(self) -> None:
        with self._admission:
            self._inflight -= 1
            self.metrics.set_gauge("serve.inflight", float(self._inflight))

    def _count_served(self) -> None:
        """Honour ``max_requests`` by shutting down after the last one."""
        if self.max_requests is None:
            return
        self._served += 1
        if self._served >= self.max_requests:
            httpd = self._httpd
            if httpd is not None:
                threading.Thread(
                    target=httpd.shutdown, daemon=True
                ).start()

    # ------------------------------------------------------------------
    # the WSGI application
    # ------------------------------------------------------------------
    def app(
        self, environ: Mapping[str, Any], start_response: Callable
    ) -> Iterable[bytes]:
        """The WSGI callable (usable under any WSGI host, not just ours)."""
        method = environ.get("REQUEST_METHOD", "GET")
        path = environ.get("PATH_INFO", "/")
        try:
            if method == "GET" and path == "/v1/healthz":
                return self._respond(start_response, 200, self._healthz())
            if method == "GET" and path == "/v1/metrics":
                # Content negotiation: Prometheus scrapers ask for
                # text/plain, everything else gets the JSON envelope.
                if "text/plain" in environ.get("HTTP_ACCEPT", ""):
                    return self._respond_text(
                        start_response, 200, to_prometheus(self.metrics)
                    )
                return self._respond(
                    start_response, 200,
                    wire.envelope(
                        "metrics", {"metrics": self.metrics.snapshot()}
                    ),
                )
            handlers = {
                "/v1/submit": self._handle_submit,
                "/v1/batch": self._handle_batch,
                "/v1/stream": self._handle_stream,
            }
            if path not in handlers:
                raise WireError(f"unknown endpoint {path!r}")
            if method != "POST":
                return self._respond(
                    start_response, 405,
                    wire.envelope("error", wire.encode_error(
                        WireError(f"{path} only accepts POST")
                    )),
                )
            trace_header = environ.get("HTTP_X_REPRO_TRACE")
            trace_ctx = (
                None if trace_header is None
                else TraceContext.from_header(trace_header)
            )
            body = self._read_body(environ)
            wire.check_schema_version(body, side="server")
            self.metrics.increment("serve.requests")
            with self.metrics.timer("serve.request.seconds").time():
                try:
                    self._admit()
                except _Shed:
                    raise ServiceOverloaded(
                        f"server at admission cap "
                        f"(max_inflight={self.max_inflight}); retry later"
                    ) from None
                try:
                    payload = handlers[path](body, trace_ctx)
                finally:
                    self._release()
            self._count_served()
            return self._respond(start_response, 200, payload)
        except ReproError as exc:
            self.metrics.increment("serve.errors")
            return self._respond(
                start_response, status_for(exc),
                wire.envelope("error", wire.encode_error(exc)),
            )
        except Exception as exc:  # pragma: no cover - defensive
            self.metrics.increment("serve.errors")
            return self._respond(
                start_response, 500,
                wire.envelope("error", wire.encode_error(exc)),
            )

    def _read_body(self, environ: Mapping[str, Any]) -> dict:
        try:
            length = int(environ.get("CONTENT_LENGTH") or 0)
        except ValueError:
            raise WireError("malformed Content-Length") from None
        if length > MAX_BODY_BYTES:
            raise WireError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte cap"
            )
        raw = environ["wsgi.input"].read(length) if length else b""
        try:
            doc = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WireError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise WireError("request body must be a JSON object")
        return doc

    def _respond(
        self, start_response: Callable, status: int, payload: Mapping
    ) -> Iterable[bytes]:
        data = json.dumps(payload).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        start_response(
            f"{status} {reason}",
            [
                ("Content-Type", "application/json"),
                ("Content-Length", str(len(data))),
            ],
        )
        return [data]

    def _respond_text(
        self, start_response: Callable, status: int, text: str
    ) -> Iterable[bytes]:
        """Plain-text response (the Prometheus exposition path)."""
        data = text.encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        start_response(
            f"{status} {reason}",
            [
                ("Content-Type", "text/plain; version=0.0.4; charset=utf-8"),
                ("Content-Length", str(len(data))),
            ],
        )
        return [data]

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def _healthz(self) -> dict:
        with self._admission:
            inflight = self._inflight
        return wire.envelope("healthz", {
            "status": "ok",
            "database": self.database.name,
            "sequences": len(self.database),
            "residues": int(self.database.total_residues),
            # Required by wire schema v1; the service is local-only.
            "scheduler": "local",
            "executor": self.service.executor,
            "uptime_seconds": time.monotonic() - self._started,
            "inflight": inflight,
        })

    def _verify_options(self, body: Mapping[str, Any]) -> None:
        """Reject a client whose options disagree with this server's.

        The server's scoring scheme is fixed at construction; a client
        that *believes* it is searching under different options must
        fail loudly, not silently get this server's answers.  The
        whole encodings are compared, minus the
        :data:`~repro.serve.wire.RETIRED_OPTION_KEYS` every v1 client
        still sends (no result depends on them).
        """
        sent = body.get("options")
        if sent is None:
            return
        if not isinstance(sent, Mapping):
            raise WireError("options must be a wire-encoded object")
        ours = self._options_wire
        theirs = {
            k: v for k, v in sent.items()
            if k not in wire.RETIRED_OPTION_KEYS
        }
        if ours != theirs:
            different = sorted(
                k for k in set(ours) | set(theirs)
                if ours.get(k) != theirs.get(k)
            )
            raise PipelineError(
                "client options disagree with the server's "
                f"(fields: {', '.join(different)}); construct SearchClient "
                "with matching SearchOptions or none at all"
            )

    def _run_traced(
        self,
        ctx: TraceContext | None,
        endpoint: str,
        fn: Callable[[], Any],
    ) -> tuple[Any, dict | None]:
        """Run ``fn`` under the service lock, traced when ``ctx`` asks.

        When the request carried an ``X-Repro-Trace`` header, the work
        runs inside a fresh per-request :class:`Tracer` that *joins* the
        caller's trace id, under a ``serve.request`` root span.  The
        tracer is installed via :func:`use_tracer` — a process-global
        swap, safe here only because ``_service_lock`` already
        serialises all service execution.  Returns ``(result, trace)``
        where ``trace`` is the wire-encoded span set (or ``None`` when
        untraced).
        """
        with self._service_lock:
            if ctx is None:
                return fn(), None
            tracer = Tracer(trace_id=ctx.trace_id)
            with use_tracer(tracer):
                with tracer.span(
                    "serve.request",
                    endpoint=endpoint,
                    remote_parent_span_id=ctx.parent_span_id,
                ) as root:
                    result = fn()
            self.metrics.increment("serve.traced")
            return result, wire.encode_trace(
                tracer, root_span_id=root.span_id
            )

    def _run_requests(
        self,
        reqs: list[SearchRequest],
        ctx: TraceContext | None = None,
        endpoint: str = "/v1/submit",
    ) -> tuple[list, dict | None]:
        return self._run_traced(
            ctx, endpoint,
            lambda: [self.service.search(req, self.database) for req in reqs],
        )

    def _handle_submit(
        self, body: Mapping[str, Any], ctx: TraceContext | None = None
    ) -> dict:
        self._verify_options(body)
        if "request" not in body:
            raise WireError("submit body is missing 'request'")
        req = wire.decode_request(body["request"])
        (outcome,), trace = self._run_requests([req], ctx, "/v1/submit")
        doc: dict[str, Any] = {"outcome": wire.encode_outcome(outcome)}
        if trace is not None:
            doc["trace"] = trace
        return wire.envelope("outcome", doc)

    def _handle_batch(
        self, body: Mapping[str, Any], ctx: TraceContext | None = None
    ) -> dict:
        self._verify_options(body)
        reqs_doc = body.get("requests")
        if not isinstance(reqs_doc, list) or not reqs_doc:
            raise WireError("batch body needs a non-empty 'requests' list")
        reqs = [wire.decode_request(d) for d in reqs_doc]
        # One service-level batch, so the admission cap, the cache and
        # the batch metrics behave exactly as in-process.
        batch, trace = self._run_traced(
            ctx, "/v1/batch", lambda: self.service.run(reqs, self.database)
        )
        doc: dict[str, Any] = {
            "outcomes": [wire.encode_outcome(o) for o in batch.outcomes],
            "scheduler": "local",  # required by wire schema v1
            "database_name": batch.database_name,
            "cache_stats": wire._plain_json(dict(batch.cache_stats)),
        }
        if trace is not None:
            doc["trace"] = trace
        return wire.envelope("batch", doc)

    def _handle_stream(
        self, body: Mapping[str, Any], ctx: TraceContext | None = None
    ) -> dict:
        page_size = body.get("page_size", DEFAULT_PAGE_SIZE)
        if not isinstance(page_size, int) or page_size < 1:
            raise WireError(f"page_size must be a positive int, got "
                            f"{page_size!r}")
        if "stream_id" in body:
            return self._stream_page(
                body["stream_id"], body.get("offset", 0), page_size
            )
        self._verify_options(body)
        if "request" not in body:
            raise WireError(
                "stream body needs 'request' (to start) or 'stream_id' "
                "(to continue)"
            )
        req = wire.decode_request(body["request"])
        (outcome,), trace = self._run_requests([req], ctx, "/v1/stream")
        stream_id = uuid.uuid4().hex
        with self._streams_lock:
            self._streams[stream_id] = {
                "hits": list(outcome.hits),
                "outcome": wire.encode_outcome(outcome),
            }
            while len(self._streams) > self._streams_cap:
                self._streams.popitem(last=False)
        self.metrics.increment("serve.streams")
        page = self._stream_page(stream_id, 0, page_size)
        if trace is not None:
            page["trace"] = trace
        return page

    def _stream_page(
        self, stream_id: str, offset: Any, page_size: int
    ) -> dict:
        if not isinstance(offset, int) or offset < 0:
            raise WireError(f"offset must be a non-negative int, got "
                            f"{offset!r}")
        with self._streams_lock:
            entry = self._streams.get(stream_id)
            if entry is not None:
                self._streams.move_to_end(stream_id)
        if entry is None:
            raise PipelineError(
                f"unknown or expired stream id {stream_id!r}; streams are "
                "evicted LRU — restart the stream"
            )
        hits = entry["hits"]
        page = hits[offset:offset + page_size]
        done = offset + len(page) >= len(hits)
        doc = {
            "stream_id": stream_id,
            "offset": offset,
            "next_offset": offset + len(page),
            "total_hits": len(hits),
            "done": done,
            "hits": [wire.encode_hit(h) for h in page],
        }
        if offset == 0:
            # The first page carries the outcome's accounting so a
            # streaming client still gets GCUPS/cells/provenance.
            doc["outcome"] = entry["outcome"]
        return wire.envelope("page", doc)
