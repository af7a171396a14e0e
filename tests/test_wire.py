"""Round-trip tests for the serving-layer wire codec (repro.serve.wire).

The wire contract: every typed object crossing the HTTP boundary
serialises to plain JSON and deserialises back *equal* — options,
requests, hits (including unnamed headers and materialised alignments),
streaming/partial outcomes — and every public exception class maps to
one canonical HTTP status and back to the same class.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.exceptions as exceptions_mod
from repro.alphabet import Alphabet
from repro.core.types import Traceback
from repro.db import SyntheticSwissProt
from repro.exceptions import (
    DeadlineExceeded,
    FastaError,
    ParallelError,
    ReproError,
    ServiceOverloaded,
    WireError,
    error_class,
    status_for,
)
from repro.faults import Deadline, FaultInjector, FaultPlan
from repro.scoring import BLOSUM62, GapModel, SubstitutionMatrix
from repro.search import (
    Hit,
    PartialResult,
    SearchOptions,
    SearchPipeline,
    SearchRequest,
    StreamingResult,
)
from repro.serve import WIRE_SCHEMA_VERSION, RemoteSearchResult
from repro.serve import wire


def roundtrip(encode, decode, value):
    """Encode, force through real JSON text, decode."""
    return decode(json.loads(json.dumps(encode(value))))


def assert_options_equal(a: SearchOptions, b: SearchOptions) -> None:
    """Field-wise semantic equality (ndarray fields break dataclass ==)."""
    if a.matrix is None or b.matrix is None:
        assert a.matrix is None and b.matrix is None
    else:
        assert a.matrix.name == b.matrix.name
        assert a.matrix.alphabet.letters == b.matrix.alphabet.letters
        assert a.matrix.alphabet.wildcard == b.matrix.alphabet.wildcard
        assert np.array_equal(a.matrix.data, b.matrix.data)
    assert a.gaps == b.gaps
    assert a.lanes == b.lanes
    assert a.kernel == b.kernel
    assert a.profile == b.profile
    assert a.top_k == b.top_k
    assert a.chunk_size == b.chunk_size
    assert a.alphabet.letters == b.alphabet.letters
    assert a.alphabet.wildcard == b.alphabet.wildcard


class TestEnvelope:
    def test_envelope_stamps_version_and_kind(self):
        doc = wire.envelope("request", {"x": 1})
        assert doc == {
            "schema_version": WIRE_SCHEMA_VERSION, "kind": "request", "x": 1,
        }

    @pytest.mark.parametrize("side", ["server", "client"])
    def test_version_mismatch_rejected_on_both_ends(self, side):
        stale = {"schema_version": WIRE_SCHEMA_VERSION + 1, "kind": "request"}
        with pytest.raises(WireError, match=f"{side}.*mismatch"):
            wire.check_schema_version(stale, side=side)

    @pytest.mark.parametrize("doc", [{}, {"kind": "request"}, [], "x", None])
    def test_missing_or_malformed_envelope_rejected(self, doc):
        with pytest.raises(WireError):
            wire.check_schema_version(doc, side="server")

    def test_current_version_accepted(self):
        wire.check_schema_version(wire.envelope("outcome", {}), side="client")


class TestOptionsRoundTrip:
    def test_defaults(self):
        opts = SearchOptions()
        assert_options_equal(
            opts, roundtrip(wire.encode_options, wire.decode_options, opts)
        )

    def test_top_k_zero(self):
        opts = SearchOptions(top_k=0)
        back = roundtrip(wire.encode_options, wire.decode_options, opts)
        assert back.top_k == 0
        assert_options_equal(opts, back)

    def test_explicit_matrix_and_gaps(self):
        opts = SearchOptions(
            matrix=BLOSUM62,
            gaps=GapModel(12, 3),
            lanes=16,
            kernel="numpy",
            profile="query",
            top_k=3,
            chunk_size=64,
        )
        back = roundtrip(wire.encode_options, wire.decode_options, opts)
        assert_options_equal(opts, back)

    def test_custom_alphabet_and_matrix(self):
        dna = Alphabet("ACGTN", wildcard="N")
        data = np.full((5, 5), -3, dtype=np.int32)
        np.fill_diagonal(data, 5)
        opts = SearchOptions(
            matrix=SubstitutionMatrix("dna5", dna, data), alphabet=dna,
        )
        back = roundtrip(wire.encode_options, wire.decode_options, opts)
        assert_options_equal(opts, back)

    def test_injector_refused(self):
        injector = FaultInjector(FaultPlan(seed=1, corrupt_rate=0.5))
        with pytest.raises(WireError, match="injector"):
            wire.encode_options(SearchOptions(injector=injector))

    def test_malformed_doc_raises_wire_error(self):
        with pytest.raises(WireError, match="malformed"):
            wire.decode_options({"matrix": None})

    def test_kernel_round_trip_and_v1_interop(self):
        # kernel was added after schema v1 froze: it must survive a
        # round trip, and a doc from an older peer (no kernel key at
        # all) must decode to the "inherit server default" spelling.
        for kernel in ("python", "numpy", None):
            doc = wire.encode_options(SearchOptions(kernel=kernel))
            assert doc["kernel"] == kernel
            assert wire.decode_options(doc).kernel == kernel
        legacy = wire.encode_options(SearchOptions())
        del legacy["kernel"]
        assert wire.decode_options(legacy).kernel is None

    def test_retired_schedule_threads_keys_ignored(self):
        # Every v1 client sends schedule/threads; they steered only the
        # simulated OpenMP loop, so encoders stop sending them and
        # decoders accept a stored v1 document that still carries them.
        # An options-level deadline is retired the same way: it now
        # travels only as SearchRequest.deadline.
        doc = wire.encode_options(SearchOptions(lanes=16, top_k=4))
        assert not set(doc) & set(wire.RETIRED_OPTION_KEYS)
        stored_v1 = {
            **doc, "schedule": "guided", "threads": 7,
            "deadline": {"expires_at": 123.5},
        }
        assert_options_equal(
            wire.decode_options(json.loads(json.dumps(stored_v1))),
            SearchOptions(lanes=16, top_k=4),
        )

    @given(
        top_k=st.integers(min_value=0, max_value=50),
        chunk=st.integers(min_value=1, max_value=4096),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_scalar_fields_survive(self, top_k, chunk):
        opts = SearchOptions(top_k=top_k, chunk_size=chunk)
        assert_options_equal(
            opts, roundtrip(wire.encode_options, wire.decode_options, opts)
        )


class TestRequestRoundTrip:
    def test_full_request(self):
        req = SearchRequest(
            query="MKVLILACLVALALA",
            name="sp|P99999|TEST",
            top_k=5,
            traceback=True,
            deadline=Deadline(expires_at=42.0),
        )
        assert roundtrip(wire.encode_request, wire.decode_request, req) == req

    def test_defaults_and_sparse_doc(self):
        req = SearchRequest(query="ACDEF")
        assert roundtrip(wire.encode_request, wire.decode_request, req) == req
        # A minimal doc decodes with the dataclass defaults.
        assert wire.decode_request({"query": "ACDEF"}) == req

    def test_top_k_zero_distinct_from_inherit(self):
        explicit = roundtrip(
            wire.encode_request, wire.decode_request,
            SearchRequest(query="A", top_k=0),
        )
        inherit = roundtrip(
            wire.encode_request, wire.decode_request,
            SearchRequest(query="A", top_k=None),
        )
        assert explicit.top_k == 0
        assert inherit.top_k is None

    def test_encoded_query_array_refused(self):
        req = SearchRequest(query=np.array([0, 1, 2], dtype=np.uint8))
        with pytest.raises(WireError, match="residue string"):
            wire.encode_request(req)

    @given(st.text(alphabet="ACDEFGHIKLMNPQRSTVWY", min_size=1, max_size=40),
           st.text(max_size=30))
    @settings(max_examples=25, deadline=None)
    def test_property_query_and_name_survive(self, query, name):
        req = SearchRequest(query=query, name=name)
        assert roundtrip(wire.encode_request, wire.decode_request, req) == req


class TestHitRoundTrip:
    def test_plain_hit(self):
        hit = Hit(index=3, header="sp|P12345|ALBU_HUMAN Serum albumin",
                  length=120, score=987)
        back = roundtrip(wire.encode_hit, wire.decode_hit, hit)
        assert back == hit
        assert back.accession == "sp|P12345|ALBU_HUMAN"

    def test_unnamed_header(self):
        hit = Hit(index=0, header="", length=5, score=1)
        back = roundtrip(wire.encode_hit, wire.decode_hit, hit)
        assert back == hit
        assert back.accession == "<unnamed>"

    def test_alignment_survives(self):
        tb = Traceback(
            score=21, aligned_query="AC-DE", aligned_db="ACQDE",
            start_query=1, end_query=4, start_db=7, end_db=11,
        )
        hit = Hit(index=1, header="h", length=11, score=21, alignment=tb)
        back = roundtrip(wire.encode_hit, wire.decode_hit, hit)
        assert back == hit
        assert back.alignment.identity == tb.identity

    def test_alignment_omitted_from_doc_when_absent(self):
        assert "alignment" not in wire.encode_hit(
            Hit(index=0, header="h", length=1, score=0)
        )

    def test_malformed_doc_raises_wire_error(self):
        with pytest.raises(WireError, match="malformed wire Hit"):
            wire.decode_hit({"index": 0, "header": "h"})

    @given(
        index=st.integers(min_value=0, max_value=10**6),
        header=st.text(max_size=40),
        length=st.integers(min_value=0, max_value=10**5),
        score=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_fields_survive(self, index, header, length, score):
        hit = Hit(index=index, header=header, length=length, score=score)
        assert roundtrip(wire.encode_hit, wire.decode_hit, hit) == hit


def _hits(n=3):
    return [
        Hit(index=i, header=f"seq{i}", length=10 + i, score=50 - 10 * i)
        for i in range(n)
    ]


class TestOutcomeRoundTrip:
    def test_streaming_exact(self):
        out = StreamingResult(
            query_name="q", query_length=15, hits=_hits(),
            sequences_scanned=200, cells=12345, chunks=4,
            wall_seconds=0.25, corrupted_redone=1, database_name="db",
        )
        back = roundtrip(wire.encode_outcome, wire.decode_outcome, out)
        assert isinstance(back, StreamingResult)
        assert not isinstance(back, PartialResult)
        assert back == out

    def test_partial_exact_with_completion(self):
        out = PartialResult(
            query_name="q", query_length=15, hits=_hits(),
            sequences_scanned=150, cells=999, chunks=3,
            wall_seconds=0.1, corrupted_redone=0, database_name="db",
            total_records=600, shards_merged=2,
        )
        back = roundtrip(wire.encode_outcome, wire.decode_outcome, out)
        assert isinstance(back, PartialResult)
        assert back.completion() == out.completion() == 0.25
        assert back.shards_merged == 2
        # journal_path is process-local and deliberately not shipped.
        assert back.journal_path is None

    def test_partial_unknown_total_records(self):
        out = PartialResult(
            query_name="q", query_length=3, hits=[],
            sequences_scanned=10, cells=30, chunks=1, wall_seconds=0.0,
        )
        back = roundtrip(wire.encode_outcome, wire.decode_outcome, out)
        assert back.total_records is None
        assert back.completion() is None

    def test_search_result_decodes_to_remote(self):
        db = SyntheticSwissProt().generate(scale=0.0001)
        result = SearchPipeline().search("MKVLILACLVALALA", db)
        back = roundtrip(wire.encode_outcome, wire.decode_outcome, result)
        assert isinstance(back, RemoteSearchResult)
        assert list(back.hits) == result.hits           # bit-identical
        assert back.best_score() == result.best_score()
        assert back.cells == result.cells
        assert back.sequences == len(result.scores)
        assert back.gcups == result.gcups
        assert back.provenance["remote"] is True
        assert back.top(2) == result.hits[:2]
        assert "[remote]" in back.summary()

    def test_remote_result_reencodes_identically(self):
        db = SyntheticSwissProt().generate(scale=0.0001)
        result = SearchPipeline().search("MKVLILACLVALALA", db)
        doc = wire.encode_outcome(result)
        again = wire.encode_outcome(wire.decode_outcome(doc))
        # Identical except for the client-side remote provenance marker.
        assert again == {
            **doc, "provenance": {**doc["provenance"], "remote": True},
        }

    def test_unknown_outcome_kind(self):
        with pytest.raises(WireError, match="outcome_kind"):
            wire.decode_outcome({"outcome_kind": "bogus"})

    def test_unencodable_outcome(self):
        with pytest.raises(WireError, match="no wire encoding"):
            wire.encode_outcome(object())


def _public_error_classes():
    return [
        obj for name in exceptions_mod.__all__
        if isinstance(obj := getattr(exceptions_mod, name), type)
        and issubclass(obj, ReproError)
    ]


class TestErrorTaxonomyOnTheWire:
    @pytest.mark.parametrize(
        "cls", _public_error_classes(), ids=lambda c: c.__name__,
    )
    def test_every_public_class_round_trips(self, cls):
        """Table-driven over the whole taxonomy: name, message, status."""
        doc = json.loads(json.dumps(wire.encode_error(cls("boom"))))
        assert doc["error"] == cls.__name__
        assert doc["status"] == status_for(cls("boom"))
        back = wire.decode_error(doc)
        assert type(back) is cls
        assert str(back) == "boom"

    @pytest.mark.parametrize("cls,status", [
        (ServiceOverloaded, 429),
        (DeadlineExceeded, 504),
        (FastaError, 400),
        (ParallelError, 500),
        (WireError, 400),
    ])
    def test_canonical_statuses(self, cls, status):
        assert wire.encode_error(cls("x"))["status"] == status

    def test_non_repro_error_ships_as_base_class(self):
        doc = wire.encode_error(ValueError("internal detail"))
        assert doc["error"] == "ReproError"
        assert doc["status"] == 500
        assert type(wire.decode_error(doc)) is ReproError

    def test_unknown_name_decodes_to_base_class(self):
        back = wire.decode_error(
            {"error": "FutureV9Error", "message": "m", "status": 500}
        )
        assert type(back) is ReproError
        assert error_class("FutureV9Error") is ReproError

    def test_malformed_error_body(self):
        with pytest.raises(WireError, match="malformed"):
            wire.decode_error({"message": "no name"})


class TestJsonSafety:
    def test_search_outcome_doc_is_json_clean(self):
        db = SyntheticSwissProt().generate(scale=0.0001)
        result = SearchPipeline().search("MKVLILACLVALALA", db)
        result.trace = {"span": np.int64(7), "name": "root"}
        doc = wire.encode_outcome(result)
        text = json.dumps(doc)  # would raise on numpy scalars
        assert json.loads(text) == doc

    def test_options_doc_is_json_clean(self):
        doc = wire.encode_options(SearchOptions(matrix=BLOSUM62))
        assert json.loads(json.dumps(doc)) == doc
