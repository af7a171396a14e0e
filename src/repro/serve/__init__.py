"""Network serving layer: ``SearchService`` over HTTP.

The deployment shape the source papers assume — database search as a
service answering many concurrent queries — realised with the stdlib
only.  Three pieces:

:mod:`repro.serve.wire`
    The versioned JSON wire schema (``schema_version`` gating, typed
    round-trips for options/requests/hits/outcomes, the error
    taxonomy's name+status encoding).
:class:`SearchServer`
    A threading HTTP/1.1 keep-alive server wrapping one
    :class:`~repro.service.SearchService` + database behind
    ``/v1/submit``, ``/v1/batch``, ``/v1/stream`` (paginated hits),
    ``/v1/healthz`` and ``/v1/metrics``, with in-flight admission
    control and load shedding.
:class:`SearchClient`
    The typed remote twin of ``SearchService`` — same request/option
    objects in, same outcome types and typed exceptions out, with
    retry/backoff and a client-side circuit breaker.
"""

from .client import SearchClient
from .server import SearchServer
from .wire import WIRE_SCHEMA_VERSION, RemoteSearchResult

__all__ = [
    "SearchClient",
    "SearchServer",
    "RemoteSearchResult",
    "WIRE_SCHEMA_VERSION",
]
