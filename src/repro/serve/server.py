"""The HTTP search server: ``SearchService`` behind a wire protocol.

A deliberately small server on the stdlib's threading ``http.server``
— no framework, no dependencies — exposing the in-process
:class:`~repro.service.SearchService` over versioned JSON
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

Connections are HTTP/1.1 and stay open between requests: one handler
thread per connection (``serve.connections`` counts them) answers
request after request with ``TCP_NODELAY`` set, so a client pays the
TCP handshake and the thread start once, not per query.  A connection
idle for ``IDLE_TIMEOUT_SECONDS`` is closed.  Once the server is
shutting down (``max_requests`` reached, :meth:`SearchServer.close`,
SIGTERM in the CLI) idle connections are closed at once and a request
in flight is answered with ``Connection: close``.  A client that sends
``Connection: close`` (``urllib``) gets one request per connection,
as before.

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
threads take turns (``serve.lock_wait.seconds`` records each turn's
wait); concurrency buys admission and I/O overlap, not parallel
scoring.  Errors map to status codes through the canonical taxonomy
(:data:`repro.exceptions.ERROR_STATUS`), so the client re-raises the
same typed exception an in-process call would.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import uuid
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Mapping
from urllib.parse import urlsplit

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
from ..obs.context import TRACE_HEADER, TraceContext
from ..obs.tracer import Tracer, get_tracer, use_tracer
from ..search.api import SearchOptions, SearchRequest
from ..service.service import SearchService
from . import wire

__all__ = ["SearchServer"]

#: Default hits per stream page (overridable per call).
DEFAULT_PAGE_SIZE = 256

#: Request bodies above this size are rejected before parsing.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: A kept-alive connection with no request for this long is closed.
IDLE_TIMEOUT_SECONDS = 30.0

_JSON = "application/json"
_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"


class _Handler(BaseHTTPRequestHandler):
    """One connection: HTTP/1.1 requests until it closes.

    The peer, the idle timeout (``timeout``, the socket timeout the
    base class sets) or a server shutdown ends it.  Each wait for a
    next request is registered with the server, which can end the
    wait when it shuts down.
    """

    protocol_version = "HTTP/1.1"
    timeout = IDLE_TIMEOUT_SECONDS
    disable_nagle_algorithm = True
    # Buffer each response so its headers and body leave in one write.
    wbufsize = -1
    server: "_HTTPServer"

    def setup(self) -> None:
        super().setup()
        self.server.opened()

    def handle(self) -> None:
        self.close_connection = False
        while not self.close_connection and self.server.wait(self.connection):
            self.handle_one_request()

    def parse_request(self) -> bool:
        self.server.woke(self.connection)
        return super().parse_request()

    def finish(self) -> None:
        self.server.finished(self.connection)
        super().finish()

    def _serve(self) -> None:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        raw = b""
        if 0 < length <= MAX_BODY_BYTES:
            raw = self.rfile.read(length)
        elif length:
            # An unread body cannot be skipped: answer, then close.
            self.close_connection = True
        status, ctype, data = self.server.app._dispatch(
            self.command, urlsplit(self.path).path, self.headers, length, raw,
        )
        self.send_response_only(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection or self.server.closing:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    do_GET = do_POST = do_PUT = do_PATCH = do_DELETE = _serve

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass


class _HTTPServer(ThreadingHTTPServer):
    """The threaded HTTP server, knowing its handlers and idle connections.

    :meth:`drain` marks the server as closing and ends every idle
    wait (``shutdown(SHUT_RD)`` makes the pending read return EOF), so
    those handler threads exit at once; a handler mid-request answers
    with ``Connection: close`` and exits after that, and :meth:`join`
    waits for both.  Handler threads stay daemons, so a server nobody
    closes never holds up interpreter exit.
    """

    def __init__(self, app: "SearchServer") -> None:
        self.app = app
        self.closing = False
        self._idle: set[socket.socket] = set()
        self._handlers: set[threading.Thread] = set()
        self._lock = threading.Lock()
        super().__init__((app.host, app._requested_port), _Handler)

    def opened(self) -> None:
        """Count a new connection and track the thread serving it."""
        self.app.metrics.increment("serve.connections")
        with self._lock:
            self._handlers.add(threading.current_thread())

    def wait(self, conn: socket.socket) -> bool:
        """Register ``conn`` as idle; False once the server is closing."""
        with self._lock:
            if self.closing:
                return False
            self._idle.add(conn)
            return True

    def woke(self, conn: socket.socket) -> None:
        """``conn`` has a request to answer."""
        with self._lock:
            self._idle.discard(conn)

    def finished(self, conn: socket.socket) -> None:
        """The calling handler thread is done with ``conn``."""
        with self._lock:
            self._idle.discard(conn)
            self._handlers.discard(threading.current_thread())

    def drain(self) -> None:
        """Stop keeping connections alive and close the idle ones."""
        with self._lock:
            self.closing = True
            idle, self._idle = self._idle, set()
        for conn in idle:
            try:
                conn.shutdown(socket.SHUT_RD)
            except OSError:
                pass

    def join(self) -> None:
        """Wait for every handler thread (call after :meth:`drain`)."""
        with self._lock:
            handlers = list(self._handlers)
        for thread in handlers:
            thread.join()


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
        self._httpd: _HTTPServer | None = None
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

    def _bind(self) -> _HTTPServer:
        if self._httpd is None:
            self._httpd = _HTTPServer(self)
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
        """Stop serving, release the sockets and the service's pools.

        Idle connections close at once; a request in flight is answered
        (with ``Connection: close``), and its handler thread has exited
        before the service closes.
        """
        if self._closed:
            return
        self._closed = True
        httpd, self._httpd = self._httpd, None
        if httpd is not None:
            httpd.drain()
            # shutdown() is safe from any thread except the one inside
            # serve_forever; handler threads qualify.
            httpd.shutdown()
            httpd.server_close()
            httpd.join()
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
        """Honour ``max_requests`` by shutting down after the last one.

        The last request is answered with ``Connection: close``; idle
        connections close at once, and the listening socket closes
        once the accept loop has stopped.
        """
        if self.max_requests is None:
            return
        with self._admission:
            self._served += 1
            last = self._served == self.max_requests
        httpd = self._httpd
        if last and httpd is not None:
            httpd.drain()

            def stop() -> None:
                httpd.shutdown()
                httpd.server_close()

            threading.Thread(target=stop, daemon=True).start()

    # ------------------------------------------------------------------
    # request dispatch
    # ------------------------------------------------------------------
    def _dispatch(
        self, method: str, path: str, headers: Mapping[str, str],
        length: int, raw: bytes,
    ) -> tuple[int, str, bytes]:
        """Answer one request: ``(status, content type, body)``.

        ``length`` is the request's Content-Length (``-1`` when
        malformed) and ``raw`` its body, read only when ``length`` is
        within :data:`MAX_BODY_BYTES`.
        """
        try:
            if method == "GET" and path == "/v1/healthz":
                return self._respond(200, self._healthz())
            if method == "GET" and path == "/v1/metrics":
                # Content negotiation: Prometheus scrapers ask for
                # text/plain, everything else gets the JSON envelope.
                if "text/plain" in headers.get("Accept", ""):
                    text = to_prometheus(self.metrics).encode("utf-8")
                    return 200, _PROMETHEUS, text
                return self._respond(200, wire.envelope(
                    "metrics", {"metrics": self.metrics.snapshot()}
                ))
            handlers = {
                "/v1/submit": self._handle_submit,
                "/v1/batch": self._handle_batch,
                "/v1/stream": self._handle_stream,
            }
            if path not in handlers:
                raise WireError(f"unknown endpoint {path!r}")
            if method != "POST":
                return self._respond(405, wire.envelope(
                    "error", wire.encode_error(
                        WireError(f"{path} only accepts POST")
                    ),
                ))
            trace_header = headers.get(TRACE_HEADER)
            trace_ctx = (
                None if trace_header is None
                else TraceContext.from_header(trace_header)
            )
            body = self._parse_body(length, raw)
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
            return self._respond(200, payload)
        except ReproError as exc:
            self.metrics.increment("serve.errors")
            return self._respond(
                status_for(exc), wire.envelope("error", wire.encode_error(exc)),
            )
        except Exception as exc:  # pragma: no cover - defensive
            self.metrics.increment("serve.errors")
            return self._respond(
                500, wire.envelope("error", wire.encode_error(exc)),
            )

    @staticmethod
    def _parse_body(length: int, raw: bytes) -> dict:
        if length < 0:
            raise WireError("malformed Content-Length")
        if length > MAX_BODY_BYTES:
            raise WireError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte cap"
            )
        try:
            doc = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WireError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise WireError("request body must be a JSON object")
        return doc

    @staticmethod
    def _respond(status: int, payload: Mapping) -> tuple[int, str, bytes]:
        return status, _JSON, json.dumps(payload).encode("utf-8")

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

        The wait for the lock is recorded in the
        ``serve.lock_wait.seconds`` histogram, and on a traced request
        as the ``lock_wait_seconds`` attribute of its root span, which
        opens only once the lock is held.  When the request carried an
        ``X-Repro-Trace`` header, the work runs inside a fresh
        per-request :class:`Tracer` that *joins* the caller's trace id,
        under a ``serve.request`` root span.  The tracer is installed
        via :func:`use_tracer` — a process-global swap, safe here only
        because ``_service_lock`` already serialises all service
        execution.  Returns ``(result, trace)`` where ``trace`` is the
        wire-encoded span set (or ``None`` when untraced).
        """
        queued = time.perf_counter()
        with self._service_lock:
            waited = time.perf_counter() - queued
            self.metrics.observe("serve.lock_wait.seconds", waited)
            if ctx is None:
                return fn(), None
            tracer = Tracer(trace_id=ctx.trace_id)
            with use_tracer(tracer):
                with tracer.span(
                    "serve.request",
                    endpoint=endpoint,
                    remote_parent_span_id=ctx.parent_span_id,
                    lock_wait_seconds=round(waited, 6),
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
