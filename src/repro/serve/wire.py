"""The versioned JSON wire schema of the serving layer.

Everything that crosses the HTTP boundary is encoded here — and *only*
here, so the wire format has exactly one spelling of every field.  The
format is deliberately plain JSON (no pickles, no framing): any client
in any language can speak it, and the checked-in JSON-Schema artifact
``schemas/search_wire.schema.json`` (validated by
``tools/validate_wire.py``, mirroring the Chrome-trace schema
precedent) documents it independently of this module.

Every envelope carries ``schema_version``; :func:`check_schema_version`
rejects a mismatch on **both** ends with a typed
:class:`~repro.exceptions.WireError` — a v2 server never silently
misreads a v1 client, and vice versa.

Encoders raise :class:`~repro.exceptions.WireError` for values that
cannot cross a process boundary (a live
:class:`~repro.faults.FaultInjector` is process-local state, not
configuration).  Decoders rebuild the *same* typed objects the
in-process API uses — :class:`~repro.search.SearchOptions`,
:class:`~repro.search.SearchRequest`, :class:`~repro.search.Hit`,
:class:`~repro.search.PartialResult` round-trip exactly; a resident
:class:`~repro.search.SearchResult` (whose full per-sequence score
array would dwarf the hits) decodes into the lightweight
:class:`RemoteSearchResult`, which satisfies the same
:class:`~repro.search.SearchOutcome` protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from ..alphabet import Alphabet
from ..core.types import Traceback
from ..exceptions import ReproError, WireError, error_class, status_for
from ..faults.policy import Deadline
from ..scoring.gaps import GapModel
from ..scoring.matrices import SubstitutionMatrix
from ..search.api import SearchOptions, SearchRequest
from ..search.result import Hit, SearchResult
from ..search.streaming import PartialResult, StreamingResult

__all__ = [
    "WIRE_SCHEMA_VERSION",
    "RemoteSearchResult",
    "check_schema_version",
    "envelope",
    "encode_options",
    "decode_options",
    "encode_request",
    "decode_request",
    "encode_hit",
    "decode_hit",
    "encode_outcome",
    "decode_outcome",
    "encode_error",
    "decode_error",
    "encode_trace",
]

#: Version of the wire schema this module speaks.  Bump on any change
#: to the field vocabulary and regenerate
#: ``schemas/search_wire.schema.json`` in the same commit.
WIRE_SCHEMA_VERSION = 1

#: Options keys v1 peers send but no search reads any more.
#: ``schedule``/``threads`` only steered the simulated OpenMP group
#: loop; a deadline belongs to one call, so it travels as
#: ``SearchRequest.deadline``.  Decoders ignore them and the server's
#: options handshake skips them.
RETIRED_OPTION_KEYS = ("schedule", "threads", "deadline")


def envelope(kind: str, body: Mapping[str, Any]) -> dict:
    """Wrap ``body`` in a versioned wire envelope."""
    return {"schema_version": WIRE_SCHEMA_VERSION, "kind": kind, **body}


def check_schema_version(doc: Mapping[str, Any], *, side: str) -> None:
    """Reject a document whose ``schema_version`` is not ours.

    ``side`` names the complaining end (``"server"``/``"client"``) in
    the error message, because the fix differs: a stale client upgrades
    itself, a stale server is upgraded.
    """
    if not isinstance(doc, Mapping):
        raise WireError(
            f"{side}: expected a JSON object envelope, got "
            f"{type(doc).__name__}"
        )
    got = doc.get("schema_version")
    if got != WIRE_SCHEMA_VERSION:
        raise WireError(
            f"{side}: wire schema_version mismatch — peer sent "
            f"{got!r}, this end speaks {WIRE_SCHEMA_VERSION}"
        )


# ---------------------------------------------------------------------------
# scoring scheme / options / request
# ---------------------------------------------------------------------------
def _encode_matrix(matrix: SubstitutionMatrix | None) -> dict | None:
    if matrix is None:
        return None
    return {
        "name": matrix.name,
        "letters": matrix.alphabet.letters,
        "wildcard": matrix.alphabet.wildcard,
        "data": matrix.data.tolist(),
    }


def _decode_matrix(doc: dict | None) -> SubstitutionMatrix | None:
    if doc is None:
        return None
    alphabet = Alphabet(doc["letters"], wildcard=doc["wildcard"])
    return SubstitutionMatrix(
        doc["name"], alphabet, np.asarray(doc["data"], dtype=np.int32)
    )


def encode_options(options: SearchOptions) -> dict:
    """``SearchOptions`` -> wire dict (no envelope).

    A live fault injector is process-local state and never crosses the
    wire; configure injection server-side instead.
    """
    if options.injector is not None:
        raise WireError(
            "SearchOptions.injector does not cross the wire: fault "
            "injection is process-local server configuration"
        )
    doc = {
        "matrix": _encode_matrix(options.matrix),
        "gaps": (
            None if options.gaps is None
            else {"open": options.gaps.open, "extend": options.gaps.extend}
        ),
        "lanes": options.lanes,
        "kernel": options.kernel,
        "profile": options.profile,
        "top_k": options.top_k,
        "chunk_size": options.chunk_size,
        "alphabet": {
            "letters": options.alphabet.letters,
            "wildcard": options.alphabet.wildcard,
        },
    }
    # Additive optional key (schema v1 interop): the default mode is
    # omitted entirely, so an exact-mode envelope carries no key that
    # pre-mode peers did not know.
    if options.mode != "exact":
        doc["mode"] = options.mode
    return doc


def decode_options(doc: Mapping[str, Any]) -> SearchOptions:
    """Wire dict -> ``SearchOptions`` (inverse of :func:`encode_options`).

    The :data:`RETIRED_OPTION_KEYS` a v1 peer may still send are read
    by nobody and ignored.
    """
    try:
        gaps = doc["gaps"]
        alpha = doc["alphabet"]
        return SearchOptions(
            matrix=_decode_matrix(doc["matrix"]),
            gaps=None if gaps is None else GapModel(
                gaps["open"], gaps["extend"]
            ),
            lanes=doc["lanes"],
            # Optional on the wire (added after schema v1 froze; absent
            # means "server default") so v1 peers interoperate.
            kernel=doc.get("kernel"),
            profile=doc["profile"],
            # Optional likewise: absent means the exhaustive default.
            mode=doc.get("mode", "exact"),
            top_k=doc["top_k"],
            chunk_size=doc["chunk_size"],
            alphabet=Alphabet(alpha["letters"], wildcard=alpha["wildcard"]),
        )
    except (KeyError, TypeError) as exc:
        raise WireError(f"malformed wire SearchOptions: {exc!r}") from exc


def encode_request(request: SearchRequest) -> dict:
    """``SearchRequest`` -> wire dict (query shipped as residue letters)."""
    query = request.query
    if not isinstance(query, str):
        # Encoded uint8 arrays are an in-process convenience; the wire
        # carries letters so the payload is alphabet-explicit.
        raise WireError(
            "SearchRequest.query must be a residue string on the wire; "
            "decode code arrays before sending"
        )
    return {
        "query": query,
        "name": request.name,
        "top_k": request.top_k,
        "traceback": request.traceback,
        "deadline": (
            None if request.deadline is None
            else {"expires_at": request.deadline.expires_at}
        ),
    }


def decode_request(doc: Mapping[str, Any]) -> SearchRequest:
    """Wire dict -> ``SearchRequest``."""
    try:
        deadline = doc.get("deadline")
        return SearchRequest(
            query=doc["query"],
            name=doc.get("name", "query"),
            top_k=doc.get("top_k"),
            traceback=bool(doc.get("traceback", False)),
            deadline=None if deadline is None else Deadline(
                expires_at=deadline["expires_at"]
            ),
        )
    except (KeyError, TypeError) as exc:
        raise WireError(f"malformed wire SearchRequest: {exc!r}") from exc


# ---------------------------------------------------------------------------
# hits and outcomes
# ---------------------------------------------------------------------------
def encode_hit(hit: Hit) -> dict:
    """``Hit`` -> wire dict (alignment included when materialised)."""
    doc: dict[str, Any] = {
        "index": hit.index,
        "header": hit.header,
        "length": hit.length,
        "score": hit.score,
    }
    if hit.alignment is not None:
        a = hit.alignment
        doc["alignment"] = {
            "score": a.score,
            "aligned_query": a.aligned_query,
            "aligned_db": a.aligned_db,
            "start_query": a.start_query,
            "end_query": a.end_query,
            "start_db": a.start_db,
            "end_db": a.end_db,
        }
    return doc


def decode_hit(doc: Mapping[str, Any]) -> Hit:
    """Wire dict -> ``Hit`` (bit-identical fields)."""
    try:
        alignment = None
        if doc.get("alignment") is not None:
            a = doc["alignment"]
            alignment = Traceback(
                score=a["score"],
                aligned_query=a["aligned_query"],
                aligned_db=a["aligned_db"],
                start_query=a["start_query"],
                end_query=a["end_query"],
                start_db=a["start_db"],
                end_db=a["end_db"],
            )
        return Hit(
            index=doc["index"],
            header=doc["header"],
            length=doc["length"],
            score=doc["score"],
            alignment=alignment,
        )
    except (KeyError, TypeError) as exc:
        raise WireError(f"malformed wire Hit: {exc!r}") from exc


@dataclass(frozen=True)
class RemoteSearchResult:
    """A resident search outcome reconstructed client-side.

    Satisfies the :class:`~repro.search.SearchOutcome` protocol with
    exactly the fields that crossed the wire: the ranked hits are
    bit-identical to the server's, but the full per-sequence score
    array stays server-side (it scales with the database, not with
    ``top_k``), so :meth:`best_score` carries the server-computed
    value.
    """

    query_name: str
    query_length: int
    database_name: str
    hits: tuple[Hit, ...]
    best: int
    cells: int
    wall_seconds: float
    gcups: float
    sequences: int
    corrupted_redone: int = 0
    remote_provenance: Mapping[str, Any] = field(default_factory=dict)

    def best_score(self) -> int:
        """Highest alignment score (server-computed over all scores)."""
        return self.best

    @property
    def provenance(self) -> dict:
        """Identifying fields (:class:`~repro.search.SearchOutcome`)."""
        prov = dict(self.remote_provenance)
        prov.setdefault("kind", "search")
        prov["remote"] = True
        return prov

    def top(self, k: int = 10) -> list[Hit]:
        """The best ``k`` hits."""
        if k < 0:
            raise WireError(f"k must be non-negative, got {k}")
        return list(self.hits[:k])

    def summary(self) -> str:
        """One-paragraph human-readable report (CLI parity)."""
        lines = [
            f"query {self.query_name} (len {self.query_length}) vs "
            f"{self.database_name} [remote]: {self.sequences} sequences, "
            f"{self.cells / 1e9:.3f} Gcells in {self.wall_seconds:.3f}s "
            f"({self.gcups:.4f} GCUPS wall)"
        ]
        for rank, hit in enumerate(self.hits[:10], start=1):
            lines.append(
                f"  #{rank:<2d} score {hit.score:>6d}  {hit.accession} "
                f"(len {hit.length})"
            )
        return "\n".join(lines)


def encode_outcome(outcome: Any) -> dict:
    """Any search outcome -> wire dict (no envelope).

    Three wire kinds cover the serving surface: ``"search"`` (the
    resident pipeline's :class:`~repro.search.SearchResult` — hits plus
    summary accounting, never the full score array), ``"streaming"``
    (:class:`~repro.search.StreamingResult`, exact round-trip) and
    ``"partial"`` (:class:`~repro.search.PartialResult`, exact
    round-trip including the completion fraction inputs).
    """
    if isinstance(outcome, PartialResult):
        return {
            "outcome_kind": "partial",
            "query_name": outcome.query_name,
            "query_length": outcome.query_length,
            "database_name": outcome.database_name,
            "hits": [encode_hit(h) for h in outcome.hits],
            "sequences_scanned": outcome.sequences_scanned,
            "cells": outcome.cells,
            "chunks": outcome.chunks,
            "wall_seconds": outcome.wall_seconds,
            "corrupted_redone": outcome.corrupted_redone,
            "total_records": outcome.total_records,
            "shards_merged": outcome.shards_merged,
        }
    if isinstance(outcome, StreamingResult):
        return {
            "outcome_kind": "streaming",
            "query_name": outcome.query_name,
            "query_length": outcome.query_length,
            "database_name": outcome.database_name,
            "hits": [encode_hit(h) for h in outcome.hits],
            "sequences_scanned": outcome.sequences_scanned,
            "cells": outcome.cells,
            "chunks": outcome.chunks,
            "wall_seconds": outcome.wall_seconds,
            "corrupted_redone": outcome.corrupted_redone,
        }
    if isinstance(outcome, (SearchResult, RemoteSearchResult)):
        sequences = (
            outcome.sequences if isinstance(outcome, RemoteSearchResult)
            else len(outcome.scores)
        )
        return {
            "outcome_kind": "search",
            "query_name": outcome.query_name,
            "query_length": outcome.query_length,
            "database_name": outcome.database_name,
            "hits": [encode_hit(h) for h in outcome.hits],
            "best_score": outcome.best_score(),
            "cells": outcome.cells,
            "wall_seconds": outcome.wall_seconds,
            "gcups": outcome.gcups,
            "sequences": sequences,
            "corrupted_redone": outcome.corrupted_redone,
            "provenance": _plain_json(dict(outcome.provenance)),
        }
    raise WireError(
        f"no wire encoding for outcome type {type(outcome).__name__}"
    )


def decode_outcome(
    doc: Mapping[str, Any]
) -> RemoteSearchResult | StreamingResult | PartialResult:
    """Wire dict -> the typed outcome (inverse of :func:`encode_outcome`)."""
    kind = doc.get("outcome_kind")
    try:
        if kind == "partial":
            return PartialResult(
                query_name=doc["query_name"],
                query_length=doc["query_length"],
                hits=[decode_hit(h) for h in doc["hits"]],
                sequences_scanned=doc["sequences_scanned"],
                cells=doc["cells"],
                chunks=doc["chunks"],
                wall_seconds=doc["wall_seconds"],
                corrupted_redone=doc["corrupted_redone"],
                database_name=doc["database_name"],
                total_records=doc["total_records"],
                shards_merged=doc["shards_merged"],
            )
        if kind == "streaming":
            return StreamingResult(
                query_name=doc["query_name"],
                query_length=doc["query_length"],
                hits=[decode_hit(h) for h in doc["hits"]],
                sequences_scanned=doc["sequences_scanned"],
                cells=doc["cells"],
                chunks=doc["chunks"],
                wall_seconds=doc["wall_seconds"],
                corrupted_redone=doc["corrupted_redone"],
                database_name=doc["database_name"],
            )
        if kind == "search":
            return RemoteSearchResult(
                query_name=doc["query_name"],
                query_length=doc["query_length"],
                database_name=doc["database_name"],
                hits=tuple(decode_hit(h) for h in doc["hits"]),
                best=doc["best_score"],
                cells=doc["cells"],
                wall_seconds=doc["wall_seconds"],
                gcups=doc["gcups"],
                sequences=doc["sequences"],
                corrupted_redone=doc["corrupted_redone"],
                remote_provenance=doc.get("provenance", {}),
            )
    except (KeyError, TypeError) as exc:
        raise WireError(f"malformed wire outcome: {exc!r}") from exc
    raise WireError(f"unknown wire outcome_kind {kind!r}")


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------
def encode_trace(tracer: Any, *, root_span_id: int | None = None) -> dict:
    """A tracer's collected spans -> wire trace body (no envelope).

    The body carries the trace id, the id of the request's root span,
    and every collected span as its :meth:`~repro.obs.Span.to_dict`
    record — exactly what :func:`repro.obs.adopt_spans` grafts back
    into the caller's tracer.  Span ids are only meaningful within this
    body; the adopting side re-issues them.
    """
    return {
        "trace_id": tracer.trace_id,
        "root_span_id": root_span_id,
        "spans": [
            _plain_json(span.to_dict()) for span in tracer.collector.spans()
        ],
    }


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------
def encode_error(exc: BaseException) -> dict:
    """An exception -> wire error body (name + canonical status).

    Non-:class:`~repro.exceptions.ReproError` exceptions are shipped as
    the base class: internals never leak, but the caller still gets a
    typed failure.
    """
    name = type(exc).__name__ if isinstance(exc, ReproError) else "ReproError"
    return {
        "error": name,
        "message": str(exc),
        "status": status_for(exc),
    }


def decode_error(doc: Mapping[str, Any]) -> ReproError:
    """Wire error body -> the same typed exception the server raised."""
    try:
        cls = error_class(doc["error"])
        return cls(doc.get("message", doc["error"]))
    except (KeyError, TypeError) as exc:
        raise WireError(f"malformed wire error body: {exc!r}") from exc


def _plain_json(value: Any) -> Any:
    """Recursively coerce provenance values into JSON-safe primitives."""
    if isinstance(value, Mapping):
        return {str(k): _plain_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain_json(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
