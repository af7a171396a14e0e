"""Live client<->server tests for the serving layer (repro.serve).

Every test runs a real ``SearchServer`` on an ephemeral localhost port
and drives it through ``SearchClient`` — the drop-in contract is only
real if the bytes actually cross a socket.  The core assertion: a
remote query is *bit-identical* (scores, tie order, headers) to the
same query through the in-process ``SearchService`` on the same
database, and remote failures re-raise the same typed exceptions.
"""

import json
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.db import SyntheticSwissProt
from repro.exceptions import (
    AlphabetError,
    CircuitOpen,
    DeadlineExceeded,
    PipelineError,
    ServiceOverloaded,
    WireError,
)
from repro.faults import CircuitBreaker, Deadline, RetryPolicy
from repro.metrics import MetricsRegistry
from repro.obs.context import TRACE_HEADER, TraceContext
from repro.scoring import GapModel
from repro.search import SearchOptions, SearchRequest
from repro.serve import RemoteSearchResult, SearchClient, SearchServer, wire
from repro.serve.server import IDLE_TIMEOUT_SECONDS, _Handler
from repro.serve.wire import WIRE_SCHEMA_VERSION
from repro.service import SearchService

QUERY = "MKVLILACLVALALA"


@pytest.fixture(scope="module")
def db():
    return SyntheticSwissProt().generate(scale=0.0001)


@pytest.fixture(scope="module")
def server(db):
    with SearchServer(db, metrics=MetricsRegistry()) as srv:
        yield srv


@pytest.fixture()
def client(server):
    return SearchClient(server.url, metrics=MetricsRegistry())


def post_raw(url, path, doc, timeout=10.0):
    """POST a raw JSON document, returning (status, parsed body)."""
    req = urllib.request.Request(
        f"{url}{path}",
        data=json.dumps(doc).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


class TestDropInParity:
    def test_remote_hits_bit_identical_to_in_process(self, db, client):
        local = SearchService()
        try:
            expected = local.search(QUERY, db)
        finally:
            local.close()
        remote = client.search(QUERY)
        assert isinstance(remote, RemoteSearchResult)
        # Bit-identical ranked hits: same scores, same tie order, same
        # headers — the dataclasses compare field-for-field.
        assert list(remote.hits) == list(expected.hits)
        assert remote.best_score() == expected.best_score()
        assert remote.cells == expected.cells
        assert remote.sequences == len(expected.scores)
        assert remote.database_name == expected.database_name
        assert remote.provenance["remote"] is True

    def test_request_object_and_bare_string_agree(self, client):
        via_str = client.search(QUERY)
        via_req = client.search(SearchRequest(query=QUERY))
        assert list(via_str.hits) == list(via_req.hits)

    def test_batch_matches_in_process_run(self, db, client):
        queries = [QUERY, "ACDEFGHIKLMNPQRSTVWY", QUERY[::-1]]
        local = SearchService()
        try:
            expected = local.run(queries, db)
        finally:
            local.close()
        batch = client.run(queries)
        assert batch.database_name == expected.database_name
        assert len(batch.outcomes) == len(expected.outcomes)
        for remote, ours in zip(batch.outcomes, expected.outcomes):
            assert list(remote.hits) == list(ours.hits)
            assert remote.best_score() == ours.best_score()

    def test_per_request_top_k_and_traceback(self, client):
        result = client.search(
            SearchRequest(query=QUERY, top_k=2, traceback=True)
        )
        assert len(result.hits) == 2
        assert result.hits[0].alignment is not None
        assert result.hits[0].alignment.score == result.hits[0].score

    def test_drop_in_call_sites_accept_database_argument(self, db, client):
        # Code written against SearchService passes the database
        # positionally; the client accepts (and ignores) it.
        result = client.search(QUERY, db)
        assert result.best_score() > 0
        with pytest.raises(PipelineError, match="SequenceDatabase"):
            client.search(QUERY, "not-a-database")


class TestStreaming:
    def test_stream_pages_reassemble_exactly(self, client):
        expected = list(client.search(SearchRequest(query=QUERY, top_k=7)).hits)
        streamed = list(
            client.stream(SearchRequest(query=QUERY, top_k=7), page_size=2)
        )
        assert streamed == expected

    def test_single_page_when_page_size_covers_hits(self, client):
        hits = list(client.stream(QUERY, page_size=10_000))
        assert hits == list(client.search(QUERY).hits)

    def test_unknown_stream_id_is_typed(self, server):
        status, doc = post_raw(server.url, "/v1/stream", {
            "schema_version": WIRE_SCHEMA_VERSION, "kind": "request",
            "stream_id": "deadbeef", "offset": 0,
        })
        assert status == 400
        assert doc["error"] == "PipelineError"
        assert "unknown or expired stream" in doc["message"]

    def test_page_size_validation(self, client):
        with pytest.raises(PipelineError, match="page_size"):
            next(client.stream(QUERY, page_size=0))


class TestTypedRemoteErrors:
    def test_bad_query_raises_same_exception_as_in_process(self, db, client):
        local = SearchService()
        try:
            with pytest.raises(AlphabetError):
                local.search("MKV1LA", db)
        finally:
            local.close()
        with pytest.raises(AlphabetError):
            client.search("MKV1LA")

    def test_expired_deadline_is_deadline_exceeded(self, client):
        with pytest.raises(DeadlineExceeded):
            client.search(
                SearchRequest(query=QUERY, deadline=Deadline(expires_at=1.0))
            )

    def test_deadline_scope_does_not_leak(self, client):
        with pytest.raises(DeadlineExceeded):
            client.search(
                SearchRequest(query=QUERY, deadline=Deadline(expires_at=1.0))
            )
        # The next request must run free of the previous deadline.
        assert client.search(QUERY).best_score() > 0

    def test_schema_version_mismatch_rejected_by_server(self, server):
        status, doc = post_raw(server.url, "/v1/submit", {
            "schema_version": WIRE_SCHEMA_VERSION + 1, "kind": "request",
            "request": {"query": QUERY},
        })
        assert status == 400
        assert doc["error"] == "WireError"
        assert "schema_version mismatch" in doc["message"]

    def test_options_mismatch_is_loud(self, server):
        mismatched = SearchClient(
            server.url,
            options=SearchOptions(gaps=GapModel(15, 5)),
            metrics=MetricsRegistry(),
        )
        with pytest.raises(PipelineError, match="gaps"):
            mismatched.search(QUERY)

    def test_matching_options_accepted(self, server):
        agreeing = SearchClient(
            server.url, options=SearchOptions(), metrics=MetricsRegistry(),
        )
        assert agreeing.search(QUERY).best_score() > 0

    def test_stored_v1_options_with_retired_keys_accepted(self, server):
        # A v1 client still sends schedule/threads and an options-level
        # deadline; no result depends on them, so the handshake ignores
        # them — whatever their value, even an expired deadline.
        stored = {
            **wire.encode_options(SearchOptions()),
            "schedule": "guided", "threads": 7,
            "deadline": {"expires_at": 1.0},
        }
        assert wire.decode_options(stored).top_k == SearchOptions().top_k
        server._verify_options({"options": stored})
        status, doc = post_raw(server.url, "/v1/submit", {
            "schema_version": WIRE_SCHEMA_VERSION, "kind": "request",
            "request": {"query": QUERY}, "options": stored,
        })
        assert status == 200, doc
        assert doc["outcome"]["hits"]
        # A real disagreement next to the retired keys is still loud.
        with pytest.raises(PipelineError, match="top_k"):
            server._verify_options({"options": {**stored, "top_k": 3}})

    def test_unknown_endpoint_and_wrong_method(self, server):
        status, doc = post_raw(server.url, "/v1/nope", {
            "schema_version": WIRE_SCHEMA_VERSION, "kind": "request",
        })
        assert (status, doc["error"]) == (400, "WireError")
        with urllib.request.urlopen(f"{server.url}/v1/healthz") as resp:
            assert resp.status == 200
        req = urllib.request.Request(
            f"{server.url}/v1/submit", method="GET"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        assert err.value.code == 405

    def test_garbage_body_is_wire_error(self, server):
        req = urllib.request.Request(
            f"{server.url}/v1/submit", data=b"not json{",
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        assert err.value.code == 400
        assert json.loads(err.value.read())["error"] == "WireError"


class TestAdmissionControl:
    def test_shed_is_service_overloaded_429(self, db):
        metrics = MetricsRegistry()
        with SearchServer(db, max_inflight=0, metrics=metrics) as srv:
            client = SearchClient(srv.url, metrics=MetricsRegistry())
            with pytest.raises(ServiceOverloaded, match="admission cap"):
                client.search(QUERY)
            status, doc = post_raw(srv.url, "/v1/submit", {
                "schema_version": WIRE_SCHEMA_VERSION, "kind": "request",
                "request": {"query": QUERY},
            })
            assert status == 429
            assert doc["error"] == "ServiceOverloaded"
            snapshot = metrics.snapshot()
            assert snapshot["serve.shed"] >= 2
            assert snapshot["serve.errors"] >= 2

    def test_retry_ladder_counts_attempts(self, db):
        client_metrics = MetricsRegistry()
        with SearchServer(db, max_inflight=0,
                          metrics=MetricsRegistry()) as srv:
            client = SearchClient(
                srv.url,
                retry=RetryPolicy(max_retries=2, base_delay=0.0),
                metrics=client_metrics,
            )
            with pytest.raises(ServiceOverloaded):
                client.search(QUERY)
        snapshot = client_metrics.snapshot()
        assert snapshot["serve.client.retries"] == 2
        assert snapshot["serve.client.errors"] == 3  # initial + 2 retries

    def test_breaker_opens_after_threshold(self, db):
        with SearchServer(db, max_inflight=0,
                          metrics=MetricsRegistry()) as srv:
            client = SearchClient(
                srv.url,
                breaker=CircuitBreaker(
                    failure_threshold=1, cooldown_seconds=3600.0,
                ),
                metrics=MetricsRegistry(),
            )
            with pytest.raises(ServiceOverloaded):
                client.search(QUERY)
            # The breaker is now OPEN: fail fast locally, no HTTP.
            with pytest.raises(CircuitOpen):
                client.search(QUERY)

    def test_negative_max_inflight_rejected(self, db):
        with pytest.raises(PipelineError, match="max_inflight"):
            SearchServer(db, max_inflight=-1, metrics=MetricsRegistry())


class TestIntrospection:
    def test_healthz(self, db, server, client):
        doc = client.health()
        assert doc["kind"] == "healthz"
        assert doc["status"] == "ok"
        assert doc["database"] == db.name
        assert doc["sequences"] == len(db)
        assert doc["scheduler"] == "local"
        assert doc["executor"] == "inprocess"

    def test_batch_envelope_keeps_local_scheduler_key(self, server):
        status, doc = post_raw(server.url, "/v1/batch", {
            "schema_version": WIRE_SCHEMA_VERSION, "kind": "request",
            "requests": [{"query": QUERY}],
        })
        assert status == 200, doc
        assert doc["scheduler"] == "local"

    def test_process_executor_server_bit_identical(self, db, client):
        expected = client.search(QUERY)
        with SearchServer(
            db, executor="process", workers=2, metrics=MetricsRegistry(),
        ) as srv:
            pooled = SearchClient(srv.url, metrics=MetricsRegistry())
            health = pooled.health()
            got = pooled.search(QUERY)
        assert (health["scheduler"], health["executor"]) == (
            "local", "process",
        )
        assert list(got.hits) == list(expected.hits)
        assert got.best_score() == expected.best_score()
        assert got.cells == expected.cells

    def test_server_metrics_expose_serve_instruments(self, server, client):
        client.search(QUERY)
        metrics = client.server_metrics()
        assert metrics["serve.requests"] >= 1
        assert any(
            name.startswith("serve.request.seconds") for name in metrics
        )

    def test_client_metrics_timer(self, server):
        registry = MetricsRegistry()
        with SearchClient(server.url, metrics=registry) as client:
            client.search(QUERY)
        assert any(
            name.startswith("serve.client.request.seconds")
            for name in registry.snapshot()
        )


class TestTieredMode:
    """The ``mode`` option rides the wire and round-trips served search."""

    def test_sensitive_server_matches_local_tiered(self, db):
        options = SearchOptions(mode="sensitive")
        local = SearchService(options)
        try:
            expected = local.search(QUERY, db)
        finally:
            local.close()
        with SearchServer(db, options=options,
                          metrics=MetricsRegistry()) as srv:
            client = SearchClient(
                srv.url, options=options, metrics=MetricsRegistry(),
            )
            remote = client.search(QUERY)
        assert list(remote.hits) == list(expected.hits)
        assert remote.cells == expected.cells
        assert remote.provenance["mode"] == "sensitive"

    def test_mode_mismatch_is_loud(self, db):
        # An exact-mode server must refuse a sensitive-mode client (and
        # name the offending field) rather than silently serve exact
        # results against tiered expectations.
        with SearchServer(db, metrics=MetricsRegistry()) as srv:
            mismatched = SearchClient(
                srv.url,
                options=SearchOptions(mode="sensitive"),
                metrics=MetricsRegistry(),
            )
            with pytest.raises(PipelineError, match="mode"):
                mismatched.search(QUERY)

    def test_exact_client_rejected_by_tiered_server(self, db):
        with SearchServer(db, options=SearchOptions(mode="fast"),
                          metrics=MetricsRegistry()) as srv:
            exact_client = SearchClient(
                srv.url, options=SearchOptions(), metrics=MetricsRegistry(),
            )
            with pytest.raises(PipelineError, match="mode"):
                exact_client.search(QUERY)

    def test_exact_mode_envelope_backwards_compatible(self, server):
        # mode="exact" encodes to the same envelope as no mode at all:
        # a pre-mode peer and a mode-aware exact client interoperate.
        exact = SearchClient(
            server.url,
            options=SearchOptions(mode="exact"),
            metrics=MetricsRegistry(),
        )
        assert exact.search(QUERY).best_score() > 0


class TestLifecycle:
    def test_max_requests_shuts_down_cleanly(self, db):
        with SearchServer(db, max_requests=1,
                          metrics=MetricsRegistry()) as srv:
            client = SearchClient(srv.url, timeout=5.0,
                                  metrics=MetricsRegistry())
            assert client.search(QUERY).best_score() > 0
            with pytest.raises((PipelineError, WireError)):
                client.search(QUERY)

    def test_close_is_idempotent(self, db):
        srv = SearchServer(db, metrics=MetricsRegistry()).start()
        srv.close()
        srv.close()

    def test_unreachable_server_is_pipeline_error(self):
        client = SearchClient(
            "http://127.0.0.1:9", timeout=0.5, metrics=MetricsRegistry(),
        )
        with pytest.raises(PipelineError, match="unreachable"):
            client.search(QUERY)
        with pytest.raises(PipelineError, match="unreachable"):
            client.health()


def submit_body(query=QUERY):
    return {
        "schema_version": WIRE_SCHEMA_VERSION, "kind": "request",
        "request": {"query": query},
    }


class TestKeepAlive:
    def test_one_client_uses_one_connection(self, db):
        metrics = MetricsRegistry()
        with SearchServer(db, metrics=metrics) as srv:
            client = SearchClient(srv.url, metrics=MetricsRegistry())
            for _ in range(5):
                assert client.search(QUERY).best_score() > 0
            client.health()
            assert metrics.snapshot()["serve.connections"] == 1

    def test_connection_dropped_while_idle_is_reopened(self, db, monkeypatch):
        monkeypatch.setattr(_Handler, "timeout", 0.2)
        metrics, client_metrics = MetricsRegistry(), MetricsRegistry()
        with SearchServer(db, metrics=metrics) as srv:
            client = SearchClient(srv.url, metrics=client_metrics)
            first = client.search(QUERY)
            time.sleep(0.6)  # past the idle timeout: the server hangs up
            second = client.search(QUERY)
            assert second.hits == first.hits
            assert metrics.snapshot()["serve.connections"] == 2
        assert "serve.client.errors" not in client_metrics.snapshot()

    def test_close_leaves_no_handler_thread(self, db):
        before = set(threading.enumerate())
        srv = SearchServer(db, metrics=MetricsRegistry()).start()
        client = SearchClient(srv.url, metrics=MetricsRegistry())
        client.search(QUERY)  # leaves a kept-alive connection open
        started = time.perf_counter()
        srv.close()
        assert time.perf_counter() - started < IDLE_TIMEOUT_SECONDS / 10
        left = [t for t in threading.enumerate() if t not in before]
        assert left == [], left

    def test_concurrent_clients_keep_one_connection_each(self, db):
        # More client threads than cores, switching often: every answer
        # is right, each thread keeps its own connection, and close()
        # still leaves no handler thread behind.
        before = set(threading.enumerate())
        expected = list(SearchService(SearchOptions()).search(QUERY, db).hits)
        metrics = MetricsRegistry()
        srv = SearchServer(db, metrics=metrics).start()
        client = SearchClient(srv.url, metrics=MetricsRegistry())
        answers, interval = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def drive():
                for _ in range(5):
                    answers.append(list(client.search(QUERY).hits))

            threads = [threading.Thread(target=drive) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
            srv.close()
        assert answers == [expected] * 40
        snap = metrics.snapshot()
        assert (snap["serve.requests"], snap["serve.connections"]) == (40, 8)
        left = [t for t in threading.enumerate() if t not in before]
        assert left == [], left

    def test_connection_close_clients_are_served(self, db):
        metrics = MetricsRegistry()
        with SearchServer(db, metrics=metrics) as srv:
            for _ in range(2):
                req = urllib.request.Request(
                    f"{srv.url}/v1/submit",
                    data=json.dumps(submit_body()).encode("utf-8"),
                    headers={"Content-Type": "application/json"},
                    method="POST",
                )
                with urllib.request.urlopen(req, timeout=10) as resp:
                    assert resp.status == 200
                    assert resp.headers["Connection"] == "close"
                    assert json.loads(resp.read())["kind"] == "outcome"
            assert metrics.snapshot()["serve.connections"] == 2


class TestLockWait:
    def test_queued_request_records_its_wait(self, db):
        metrics = MetricsRegistry()
        with SearchServer(db, metrics=metrics) as srv:
            entered, release = threading.Event(), threading.Event()
            search = srv.service.search

            def held(request, database):
                entered.set()
                release.wait(10)
                return search(request, database)

            srv.service.search = held
            first = threading.Thread(
                target=SearchClient(srv.url, metrics=MetricsRegistry()).search,
                args=(QUERY,),
            )
            first.start()
            assert entered.wait(10)
            # The second request queues for the service lock, traced.
            answer = {}

            def traced_submit():
                req = urllib.request.Request(
                    f"{srv.url}/v1/submit",
                    data=json.dumps(submit_body()).encode("utf-8"),
                    headers={
                        "Content-Type": "application/json",
                        TRACE_HEADER: TraceContext("ab" * 8, 1).to_header(),
                    },
                    method="POST",
                )
                with urllib.request.urlopen(req, timeout=10) as resp:
                    answer.update(json.loads(resp.read()))

            second = threading.Thread(target=traced_submit)
            second.start()
            time.sleep(0.3)
            release.set()
            first.join(10)
            second.join(10)
        waits = metrics.snapshot()["serve.lock_wait.seconds"]
        assert waits["count"] == 2
        assert waits["max"] >= 0.2
        (root,) = [
            span for span in answer["trace"]["spans"]
            if span["name"] == "serve.request"
        ]
        assert root["attributes"]["lock_wait_seconds"] >= 0.2
