"""The typed HTTP client: ``SearchService``'s remote twin.

:class:`SearchClient` mirrors the in-process service call-for-call —
the same :class:`~repro.search.SearchOptions` /
:class:`~repro.search.SearchRequest` inputs, the same typed outcomes
(:class:`~repro.search.Hit` lists are bit-identical to the server's,
:class:`~repro.search.PartialResult` round-trips exactly), and the same
exceptions: the server serialises its error by class name + canonical
status (:data:`repro.exceptions.ERROR_STATUS`) and the client re-raises
the *same* :class:`~repro.exceptions.ReproError` subclass an in-process
call would have raised.  Code written against ``SearchService`` swaps
to ``SearchClient`` without changes::

    service = SearchService(options)                 # in-process
    service = SearchClient(url, options=options)     # remote, same calls
    batch = service.run(requests)

Each thread talks over one kept-alive ``http.client`` connection.  If
the server closed it while it sat idle (its idle timeout, a restart),
the request is resent once on a fresh connection before anything
counts as a failure.

Transient failures are handled with the fault-policy substrate from
:mod:`repro.faults`: a :class:`~repro.faults.RetryPolicy` drives capped
exponential backoff (wall-clock sleeps here — the client lives in real
time) over retryable statuses (connection errors, 429 shed, 503
circuit-open), and a client-side
:class:`~repro.faults.CircuitBreaker` stops hammering a server that
keeps failing.  Everything is instrumented through
:mod:`repro.metrics` (``serve.client.request.seconds`` histogram,
``serve.client.retries`` / ``serve.client.errors`` counters).
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import weakref
from dataclasses import replace
from typing import Any, Iterator, Mapping, Sequence
from urllib.parse import urlsplit

from ..db.database import SequenceDatabase
from ..exceptions import PipelineError, ReproError, WireError
from ..faults.policy import CircuitBreaker, RetryPolicy
from ..metrics.counters import METRICS, MetricsRegistry
from ..obs.context import TRACE_HEADER, TraceContext, adopt_spans
from ..obs.tracer import get_tracer
from ..search.api import SearchOptions, SearchRequest
from ..search.result import Hit
from ..service.service import ServiceBatchResult
from . import wire

__all__ = ["SearchClient"]

#: Statuses worth retrying: the server shed load (429) or its circuit
#: is open (503) — both are explicit "come back later" signals.
RETRYABLE_STATUSES = frozenset({429, 503})


class SearchClient:
    """Talk to a :class:`~repro.serve.SearchServer` like a local service.

    Parameters
    ----------
    url:
        Server base URL, e.g. ``"http://127.0.0.1:8742"``.
    options:
        Optional :class:`~repro.search.SearchOptions` this client
        *believes* the server is configured with.  When given, they are
        sent with every call and the server rejects a mismatch (HTTP
        400 -> :class:`~repro.exceptions.PipelineError`) — a loud
        failure instead of silently-different scoring.
    retry:
        :class:`~repro.faults.RetryPolicy` for retryable failures
        (connection refused/reset, 429, 503).  The backoff ladder is
        slept in wall-clock seconds.  ``None`` disables retries.
    breaker:
        Client-side :class:`~repro.faults.CircuitBreaker`; after enough
        consecutive failures the client fails fast with
        :class:`~repro.exceptions.CircuitOpen` instead of waiting on a
        dead server.  ``None`` disables the breaker.
    timeout:
        Socket timeout in seconds for connecting and for each wait on
        the server.
    page_size:
        Default hits-per-page for :meth:`stream`.
    metrics:
        Registry for the ``serve.client.*`` instruments.
    """

    def __init__(
        self,
        url: str,
        options: SearchOptions | None = None,
        *,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        timeout: float = 30.0,
        page_size: int = 256,
        metrics: MetricsRegistry = METRICS,
    ) -> None:
        if page_size < 1:
            raise PipelineError(
                f"page_size must be positive, got {page_size}"
            )
        self.url = url.rstrip("/")
        parts = urlsplit(self.url)
        if parts.scheme not in ("http", "https") or not parts.netloc:
            raise PipelineError(
                f"server URL must be http(s)://host:port, got {url!r}"
            )
        self._connect = (
            http.client.HTTPSConnection if parts.scheme == "https"
            else http.client.HTTPConnection
        )
        self._netloc, self._prefix = parts.netloc, parts.path
        self._local = threading.local()
        self._conns: weakref.WeakSet = weakref.WeakSet()
        self.options = options
        self.retry = retry
        self.breaker = breaker
        self.timeout = timeout
        self.page_size = page_size
        self.metrics = metrics
        self._options_wire = (
            None if options is None else wire.encode_options(options)
        )

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _exchange(
        self, method: str, path: str, body: bytes | None = None,
        headers: Mapping[str, str] | None = None,
    ) -> tuple[int, bytes]:
        """One request on this thread's connection: ``(status, body)``.

        The connection stays open for the next request.  A kept-alive
        connection that the server closed while it sat idle fails
        before any answer; it is reopened and the request resent once,
        so only a second failure reaches the caller.
        """
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._connect(
                self._netloc, timeout=self.timeout
            )
            self._conns.add(conn)
        reused = conn.sock is not None
        while True:
            try:
                conn.request(method, self._prefix + path, body=body,
                             headers=dict(headers or {}))
                resp = conn.getresponse()
                return resp.status, resp.read()
            except (BrokenPipeError, ConnectionResetError):
                conn.close()
                if not reused:
                    raise
                reused = False  # the one reopen: the next try is fresh
            except BaseException:
                conn.close()
                raise

    def _post_once(
        self,
        path: str,
        body: Mapping[str, Any],
        trace_header: str | None = None,
    ) -> dict:
        """One HTTP exchange; typed errors come back as exceptions."""
        headers = {"Content-Type": "application/json"}
        if trace_header is not None:
            headers[TRACE_HEADER] = trace_header
        status, raw = self._exchange(
            "POST", path, json.dumps(body).encode("utf-8"), headers
        )
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise WireError(
                f"server answered HTTP {status} with a non-wire "
                f"body: {raw[:200]!r}"
            ) from None
        wire.check_schema_version(doc, side="client")
        # A taxonomy status or an error envelope: re-raise the same
        # typed exception an in-process call would have raised.
        if status >= 400 or doc.get("kind") == "error":
            raise wire.decode_error(doc)
        return doc

    def _traced_post_once(
        self, path: str, body: Mapping[str, Any], attempt: int
    ) -> dict:
        """One exchange under a client span, stitching the reply's trace.

        With tracing enabled, the request rides out with an
        ``X-Repro-Trace`` header naming this span as the parent; the
        server's spans come back on the response and are grafted under
        this span (rebased into its wall-clock window), so one Chrome
        trace shows the RPC *and* the work it caused.  With tracing off
        the span is the shared null singleton and nothing is injected.
        """
        tracer = get_tracer()
        with tracer.span("serve.client.request") as sp:
            header = None
            if sp:
                sp.set_attributes(path=path, url=self.url, attempt=attempt)
                header = TraceContext(
                    tracer.trace_id, sp.span_id
                ).to_header()
            doc = self._post_once(path, body, trace_header=header)
            trace = doc.get("trace")
            if sp and isinstance(trace, Mapping):
                adopt_spans(
                    tracer,
                    trace.get("spans") or (),
                    parent=sp,
                    window=(sp.start_wall, time.perf_counter()),
                )
                sp.set_attribute(
                    "server_root_span_id", trace.get("root_span_id")
                )
            return doc

    def _post(self, path: str, body: Mapping[str, Any]) -> dict:
        """POST with breaker admission and the retry backoff ladder."""
        retry = self.retry
        attempt = 0
        while True:
            if self.breaker is not None:
                self.breaker.check(time.monotonic())
            try:
                with self.metrics.timer(
                    "serve.client.request.seconds"
                ).time():
                    doc = self._traced_post_once(path, body, attempt)
            except ReproError as exc:
                self.metrics.increment("serve.client.errors")
                if self.breaker is not None:
                    self.breaker.record_failure(time.monotonic())
                status = wire.status_for(exc)
                retryable = status in RETRYABLE_STATUSES
                if (
                    retryable
                    and retry is not None
                    and retry.allows(attempt + 1)
                ):
                    attempt += 1
                    self.metrics.increment("serve.client.retries")
                    time.sleep(retry.backoff(attempt))
                    continue
                raise
            except (OSError, http.client.HTTPException) as exc:
                # No HTTP answer at all: connection refused, reset,
                # socket timeout.  Same ladder as a shed response.
                self.metrics.increment("serve.client.errors")
                if self.breaker is not None:
                    self.breaker.record_failure(time.monotonic())
                if retry is not None and retry.allows(attempt + 1):
                    attempt += 1
                    self.metrics.increment("serve.client.retries")
                    time.sleep(retry.backoff(attempt))
                    continue
                raise PipelineError(
                    f"server at {self.url} unreachable after "
                    f"{attempt + 1} attempt(s): {exc}"
                ) from exc
            if self.breaker is not None:
                self.breaker.record_success(time.monotonic())
            return doc

    def _get(self, path: str) -> dict:
        try:
            status, raw = self._exchange("GET", path)
        except (OSError, http.client.HTTPException) as exc:
            raise PipelineError(
                f"server at {self.url} unreachable: {exc}"
            ) from exc
        if status != 200:
            raise PipelineError(
                f"server at {self.url} answered {path} with HTTP {status}"
            )
        return json.loads(raw.decode("utf-8"))

    def _body(self, extra: Mapping[str, Any]) -> dict:
        body = dict(extra)
        if self._options_wire is not None:
            body["options"] = self._options_wire
        return wire.envelope("request", body)

    @staticmethod
    def _check_database(database: SequenceDatabase | None) -> None:
        """`database` is accepted for drop-in signature parity only.

        The server owns its database; shipping one per call would be a
        different protocol.  Passing one is allowed (so in-process call
        sites keep working verbatim) — the *server's* database answers.
        """
        if database is not None and not isinstance(
            database, SequenceDatabase
        ):
            raise PipelineError(
                "database must be a SequenceDatabase or None; the server "
                "searches its own database"
            )

    # ------------------------------------------------------------------
    # the SearchService surface
    # ------------------------------------------------------------------
    def search(
        self,
        request: SearchRequest | str,
        database: SequenceDatabase | None = None,
    ):
        """One query -> one typed outcome (mirrors ``SearchService.search``).

        A bare string is promoted to a :class:`SearchRequest`, exactly
        as the in-process service does.
        """
        self._check_database(database)
        if isinstance(request, str):
            request = SearchRequest(query=request)
        doc = self._post(
            "/v1/submit",
            self._body({"request": wire.encode_request(request)}),
        )
        try:
            outcome = wire.decode_outcome(doc["outcome"])
        except KeyError as exc:
            raise WireError(f"submit response missing {exc}") from exc
        trace = doc.get("trace")
        if isinstance(trace, Mapping) and isinstance(
            outcome, wire.RemoteSearchResult
        ):
            # Surface the server-side span identity through provenance
            # so a caller can correlate this result with the stitched
            # trace without holding the raw response.
            prov = dict(outcome.remote_provenance)
            prov["trace"] = {
                "trace_id": trace.get("trace_id"),
                "server_root_span_id": trace.get("root_span_id"),
                "server_span_ids": [
                    s.get("span_id") for s in trace.get("spans") or ()
                ],
            }
            outcome = replace(outcome, remote_provenance=prov)
        return outcome

    def run(
        self,
        requests: Sequence[SearchRequest | str],
        database: SequenceDatabase | None = None,
    ) -> ServiceBatchResult:
        """A batch -> :class:`~repro.service.ServiceBatchResult`.

        The same result type as in-process: outcomes in request order,
        the server's cache stats, the merged-hits view.
        """
        self._check_database(database)
        reqs = tuple(
            SearchRequest(query=r) if isinstance(r, str) else r
            for r in requests
        )
        doc = self._post(
            "/v1/batch",
            self._body(
                {"requests": [wire.encode_request(r) for r in reqs]}
            ),
        )
        try:
            outcomes = tuple(
                wire.decode_outcome(o) for o in doc["outcomes"]
            )
            return ServiceBatchResult(
                requests=reqs,
                outcomes=outcomes,
                database_name=doc["database_name"],
                cache_stats=dict(doc["cache_stats"]),
            )
        except KeyError as exc:
            raise WireError(f"batch response missing {exc}") from exc

    def stream(
        self,
        request: SearchRequest | str,
        *,
        page_size: int | None = None,
    ) -> Iterator[Hit]:
        """Yield a query's ranked hits page by page.

        The server runs the search once, parks the hit list, and the
        client walks it in ``page_size`` slices — constant client
        memory for an arbitrarily large ``top_k``.
        """
        if isinstance(request, str):
            request = SearchRequest(query=request)
        size = self.page_size if page_size is None else page_size
        if size < 1:
            raise PipelineError(f"page_size must be positive, got {size}")
        doc = self._post(
            "/v1/stream",
            self._body({
                "request": wire.encode_request(request),
                "page_size": size,
            }),
        )
        while True:
            try:
                for hit_doc in doc["hits"]:
                    yield wire.decode_hit(hit_doc)
                if doc["done"]:
                    return
                stream_id = doc["stream_id"]
                offset = doc["next_offset"]
            except KeyError as exc:
                raise WireError(f"stream page missing {exc}") from exc
            doc = self._post(
                "/v1/stream",
                wire.envelope("request", {
                    "stream_id": stream_id,
                    "offset": offset,
                    "page_size": size,
                }),
            )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """The server's ``/v1/healthz`` document (schema-checked)."""
        doc = self._get("/v1/healthz")
        wire.check_schema_version(doc, side="client")
        return doc

    def server_metrics(self) -> dict:
        """The server registry's snapshot (statsd-style name -> value)."""
        doc = self._get("/v1/metrics")
        wire.check_schema_version(doc, side="client")
        return doc.get("metrics", {})

    def close(self) -> None:
        """Close every open connection (a later call reopens one)."""
        for conn in list(self._conns):
            conn.close()

    def __enter__(self) -> "SearchClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
