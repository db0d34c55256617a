"""HTTP serving (`repro.serve.api`): real socket round-trips against a
QueryServer running on a background asyncio loop, stdlib client only."""

import asyncio
import errno
import json
import math
import os
import re
import shutil
import socket
import struct
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager
from pathlib import Path

import pytest
from conftest import build_serve_campaign

from repro.campaigns.db import CampaignDB
from repro.campaigns.shard import run_campaign
from repro.campaigns.spec import CampaignSpec
from repro.core.evaluator import ENGINE_VERSION
from repro.serve import api
from repro.serve.api import QueryServer
from repro.serve.resolver import Query, Resolver
from repro.simulator.config import SimConfig


@contextmanager
def _serving(db, **kwargs):
    """A started QueryServer (port=0: a free port) on its own loop thread."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    srv = QueryServer(db, **kwargs)
    asyncio.run_coroutine_threadsafe(srv.start(), loop).result(timeout=30)
    try:
        yield srv
    finally:
        asyncio.run_coroutine_threadsafe(srv.stop(), loop).result(timeout=30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30)
        loop.close()


@pytest.fixture(scope="module")
def server(serve_campaign):
    with _serving(serve_campaign) as srv:
        yield srv


def _request(server, path, body=None, method=None):
    """Return (status, decoded-JSON) for one request, errors included."""
    req = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}",
        data=None if body is None else json.dumps(body).encode(),
        headers={} if body is None else {"Content-Type": "application/json"},
        method=method,
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestEndpoints:
    def test_healthz(self, server):
        status, payload = _request(server, "/healthz")
        assert status == 200
        assert payload == {
            "ok": True,
            "campaign": "serve-test",
            "engine_version": ENGINE_VERSION,
        }

    def test_query_get_on_grid_is_store_tier(self, server):
        status, payload = _request(
            server, "/query?algorithm=nhop&rate=0.01"
        )
        assert status == 200
        assert payload["answer"]["tier"] == "store"
        assert payload["answer"]["engine_version"] == ENGINE_VERSION
        assert payload["query"]["metric"] == "latency"

    def test_query_post_body_overrides_query_string(self, server):
        status, payload = _request(
            server,
            "/query?algorithm=nhop&rate=0.01",
            body={"rate": 0.015},
        )
        assert status == 200
        assert payload["query"]["rate"] == 0.015
        assert payload["answer"]["tier"] == "surrogate"

    def test_query_unresolved_is_422_with_refusals(self, server):
        status, payload = _request(
            server, "/query?algorithm=nhop&rate=0.9&metric=throughput"
        )
        assert status == 422
        assert payload["error"] == "unresolved"
        assert set(payload["refusals"]) == {
            "store", "surrogate", "model", "simulation",
        }

    def test_query_missing_rate_is_400(self, server):
        status, payload = _request(server, "/query?algorithm=nhop")
        assert status == 400
        assert "rate" in payload["error"]

    def test_query_bad_metric_is_400(self, server):
        status, payload = _request(
            server, "/query?algorithm=nhop&rate=0.01&metric=flux"
        )
        assert status == 400
        assert "unknown metric" in payload["error"]

    def test_reliability_post(self, server):
        status, payload = _request(
            server,
            "/reliability",
            body={
                "width": 6, "failure_rate": 0.1,
                "trials": 100, "seed": 11,
            },
        )
        assert status == 200
        assert payload["trials"] == 100
        assert 0.0 <= payload["ci_low"] <= payload["p_connected"]
        assert payload["p_connected"] <= payload["ci_high"] <= 1.0
        assert payload["engine_version"] == ENGINE_VERSION

    def test_reliability_rejects_get(self, server):
        status, payload = _request(
            server, "/reliability?width=6&failure_rate=0.1"
        )
        assert status == 405

    def test_metrics_exposes_serve_counters(self, server):
        # At least the queries above have been counted by now.
        status, snapshot = _request(server, "/metrics")
        assert status == 200
        assert snapshot["serve.queries"]["type"] == "counter"
        assert snapshot["serve.queries"]["value"] >= 1
        assert snapshot["serve.tier.store"]["value"] >= 1
        assert snapshot["serve.latency_us"]["type"] == "histogram"

    def test_unknown_path_is_404(self, server):
        status, payload = _request(server, "/nope")
        assert status == 404
        assert "/nope" in payload["error"]

    def test_malformed_body_is_400(self, server):
        req = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/query",
            data=b"not json",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 400


def _request_raw(server, path, body=None, headers=None, method=None):
    """Like ``_request`` but also returns the response headers."""
    extra = dict(headers or {})
    if body is not None:
        extra.setdefault("Content-Type", "application/json")
    req = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}",
        data=None if body is None else json.dumps(body).encode(),
        headers=extra,
        method=method,
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


class TestRequestIds:
    def test_client_request_id_is_echoed(self, server):
        status, payload, headers = _request_raw(
            server, "/query?algorithm=nhop&rate=0.01",
            headers={"x-request-id": "trace-42.a_b"},
        )
        assert status == 200
        assert headers["x-request-id"] == "trace-42.a_b"

    def test_server_assigns_id_when_absent(self, server):
        status, _, headers = _request_raw(server, "/healthz")
        assert status == 200
        assert headers["x-request-id"].startswith("req-")

    def test_invalid_client_id_is_replaced(self, server):
        status, _, headers = _request_raw(
            server, "/healthz",
            headers={"x-request-id": "bad id with spaces!"},
        )
        assert status == 200
        assert headers["x-request-id"].startswith("req-")

    def test_reliability_response_carries_id(self, server):
        status, _, headers = _request_raw(
            server, "/reliability",
            body={"width": 6, "failure_rate": 0.1, "trials": 50},
            headers={"x-request-id": "rel-1"},
        )
        assert status == 200
        assert headers["x-request-id"] == "rel-1"

    def test_error_responses_carry_an_id(self, server):
        status, _, headers = _request_raw(server, "/nope")
        assert status == 404
        assert headers["x-request-id"]

    def test_refused_requests_echo_the_client_id_too(self, server):
        # A refusal is traced under the client's id like any answer.
        status, _, headers = _request_raw(
            server, "/query?algorithm=nhop", headers={"x-request-id": "bad-1"}
        )
        assert status == 400
        assert headers["x-request-id"] == "bad-1"


class TestHttpMetrics:
    def test_per_request_counters_visible_in_metrics(self, server):
        status, payload, _ = _request_raw(
            server, "/query?algorithm=nhop&rate=0.01"
        )
        assert status == 200
        tier = payload["answer"]["tier"]
        _, snapshot, _ = _request_raw(server, "/metrics")
        assert snapshot["serve.http.requests"]["value"] >= 2
        assert snapshot["serve.http.status.200"]["value"] >= 1
        assert snapshot["serve.http.latency_us"]["type"] == "histogram"
        assert snapshot[f"serve.http.query.tier.{tier}"]["value"] >= 1

    def test_status_counters_split_by_code(self, server):
        _request_raw(server, "/nope")
        _, snapshot, _ = _request_raw(server, "/metrics")
        assert snapshot["serve.http.status.404"]["value"] >= 1


@pytest.fixture(scope="module")
def sim_server(serve_campaign):
    """A second server with the bounded-simulation fallback enabled."""
    with _serving(serve_campaign, simulate=True) as srv:
        yield srv


class TestTraces:
    """PR 10 acceptance: a /query that falls through to the bounded-
    simulation tier yields ONE merged trace — HTTP request -> tier
    cascade -> engine run — retrievable by request id."""

    def test_simulation_fallback_produces_one_merged_trace(self, sim_server):
        # n_faults=1 is off the campaign grid (0 and 2 only), so the
        # store/surrogate/model tiers refuse and simulation answers.
        status, payload, _ = _request_raw(
            sim_server,
            "/query?algorithm=nhop&rate=0.01&n_faults=1",
            headers={"x-request-id": "trace-e2e-1"},
        )
        assert status == 200
        assert payload["answer"]["tier"] == "simulation"

        status, trace, _ = _request_raw(
            sim_server, "/trace?request=trace-e2e-1"
        )
        assert status == 200
        assert trace["merge_digest"]
        spans = trace["spans"]
        assert all(s["trace_id"] == trace["trace_id"] for s in spans)
        by_name = {s["name"]: s for s in spans}

        root = by_name["http.request"]
        assert root["parent_id"] is None
        assert root["attrs"]["status"] == 200

        sim_tier = by_name["tier.simulation"]
        assert sim_tier["parent_id"] == root["span_id"]
        assert sim_tier["attrs"]["outcome"] == "answered"
        for tier in ("tier.store", "tier.surrogate", "tier.model"):
            assert by_name[tier]["parent_id"] == root["span_id"]
            assert by_name[tier]["attrs"]["outcome"] == "refused"

        engine = by_name["engine.run"]
        assert engine["parent_id"] == sim_tier["span_id"]
        assert engine["attrs"]["n_runs"] >= 1
        assert engine["attrs"]["cycles"] > 0

    def test_trace_id_is_recomputable_from_request_id(self, sim_server):
        from repro.obs.spans import trace_id_from

        _, trace, _ = _request_raw(sim_server, "/trace?request=trace-e2e-1")
        assert trace["trace_id"] == trace_id_from("serve", "trace-e2e-1")
        _, same, _ = _request_raw(
            sim_server, f"/trace?trace={trace['trace_id']}"
        )
        assert same["spans"] == trace["spans"]

    def test_trace_without_selector_is_400(self, sim_server):
        status, payload, _ = _request_raw(sim_server, "/trace")
        assert status == 400
        assert "request" in payload["error"]

    def test_trace_rejects_post(self, sim_server):
        status, _, _ = _request_raw(
            sim_server, "/trace?request=x", body={}, method="POST"
        )
        assert status == 405

    def test_unknown_request_yields_empty_trace(self, sim_server):
        status, trace, _ = _request_raw(
            sim_server, "/trace?request=never-seen"
        )
        assert status == 200
        assert trace["spans"] == []


class TestTraceIsRecordedWithoutHashing:
    """A served request records its spans as positions: no span or trace
    id is hashed until ``/trace`` reads them, and then they are the ids
    the eager constructors give."""

    QUERIES = {
        "lazy-store": ("/query?algorithm=nhop&rate=0.01", 200, "store"),
        "lazy-surrogate": ("/query?algorithm=nhop&rate=0.015", 200,
                           "surrogate"),
        "lazy-model": ("/query?algorithm=nhop&rate=0.002", 200, "model"),
        "lazy-refused": ("/query?algorithm=nhop&rate=0.9&metric=throughput",
                         422, None),
    }

    def test_answering_hashes_nothing_and_trace_reads_the_ids(
        self, server, monkeypatch
    ):
        import repro.obs.spans as spans_mod
        from repro.obs.spans import make_span_id, trace_id_from

        digests = []

        def counting(*args, **kwargs):
            digests.append(args)
            return real(*args, **kwargs)

        real = spans_mod.content_digest
        monkeypatch.setattr(spans_mod, "content_digest", counting)
        for request_id, (path, status, tier) in self.QUERIES.items():
            got, payload, _ = _request_raw(
                server, path, headers={"x-request-id": request_id}
            )
            assert got == status
            if tier is not None:
                assert payload["answer"]["tier"] == tier
        assert digests == []

        monkeypatch.undo()
        status, trace, _ = _request_raw(server, "/trace?request=lazy-store")
        assert status == 200
        trace_id = trace_id_from("serve", "lazy-store")
        root = make_span_id(trace_id, None, "http.request")
        assert trace["trace_id"] == trace_id
        assert [
            (s["trace_id"], s["span_id"], s["parent_id"], s["name"])
            for s in trace["spans"]
        ] == [
            (trace_id, make_span_id(trace_id, root, "tier.store"), root,
             "tier.store"),
            (trace_id, root, None, "http.request"),
        ]
        assert trace["spans"][1]["attrs"] == {
            "method": "GET", "path": "/query", "status": 200,
        }


# ----------------------------------------------------------------------
# Raw-socket client: framing, hostile input, loop/executor split
# ----------------------------------------------------------------------
def _request_bytes(method, target, body=None, request_id=None):
    head = f"{method} {target} HTTP/1.1\r\nHost: test\r\n"
    if request_id is not None:
        head += f"x-request-id: {request_id}\r\n"
    if body is not None:
        head += f"Content-Length: {len(body)}\r\n"
    return head.encode() + b"\r\n" + (body or b"")


def _read_to_eof(conn):
    chunks = []
    while chunk := conn.recv(65536):
        chunks.append(chunk)
    return b"".join(chunks)


def _send(server, *segments, pause=0.0, half_close=False):
    """Write *segments* one ``sendall`` each, *pause* apart, read to EOF:
    the raw reply."""
    with socket.create_connection(("127.0.0.1", server.port), timeout=30) as c:
        c.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for i, segment in enumerate(segments):
            if i:
                time.sleep(pause)
            c.sendall(segment)
        if half_close:
            c.shutdown(socket.SHUT_WR)
        return _read_to_eof(c)


def _send_in_thirds(server, sent):
    """*sent* cut into three segments 50 ms apart: the first read leaves
    the request incomplete, the rest arrives through the loop's reader
    (one ``sendall`` is the other path: complete at the read at accept)."""
    cut = max(1, len(sent) // 3)
    return _send(server, sent[:cut], sent[cut:2 * cut], sent[2 * cut:],
                 pause=0.05)


def _parse(raw):
    """``(status line, headers, JSON payload)`` of a raw reply."""
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("ascii").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines)
    assert int(headers["Content-Length"]) == len(body)
    return status_line, headers, json.loads(body)


def _on_loop(server, fn, *args):
    """``fn(*args)`` run on the server's loop thread; its result."""
    async def call():
        return fn(*args)

    return asyncio.run_coroutine_threadsafe(
        call(), server._loop
    ).result(timeout=30)


def _counter(server, name):
    return server.telemetry.snapshot().get(name, {"value": 0})["value"]


def _settles_at(server, connections):
    """``server.connections`` reaches *connections* (within 5 s)."""
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        if _on_loop(server, lambda: server.connections) == connections:
            return True
        time.sleep(0.01)
    return False


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _watched(server, sock_or_fd):
    """Is the descriptor registered with the server loop's selector?"""
    fd = sock_or_fd if isinstance(sock_or_fd, int) else sock_or_fd.fileno()
    return fd in server._loop._selector.get_map()


class TestFraming:
    REQUEST = _request_bytes(
        "POST", "/query?algorithm=nhop&rate=0.01",
        body=b'{"rate": 0.015, "metric": "throughput"}',
        request_id="framing",
    )

    def test_segmented_delivery_answers_like_one_write(self, server):
        whole = _send(server, self.REQUEST)
        assert _parse(whole)[0] == "HTTP/1.1 200 OK"
        assert _parse(whole)[2]["answer"]["tier"] == "surrogate"
        one_byte = [bytes([b]) for b in self.REQUEST]
        assert _send(server, *one_byte, pause=0.0005) == whole
        head, sep, body = self.REQUEST.partition(b"\r\n\r\n")
        assert _send(server, head + sep, body, pause=0.05) == whole

    def test_bare_lf_client_is_tolerated(self, server):
        raw = _send(server, b"GET /healthz HTTP/1.1\nHost: nc\n\n")
        assert _parse(raw)[0] == "HTTP/1.1 200 OK"


_UNENDING_HEADER = b"GET /healthz HTTP/1.1\r\nx-pad: "
#: ``(bytes sent, status, error substring)``
_HOSTILE = [
    (b"GET /healthz HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
     400, "Content-Length"),
    (b"GET /healthz HTTP/1.1\r\nContent-Length: many\r\n\r\n",
     400, "Content-Length"),
    (b"POST /query HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n",
     400, "too large"),
    (_UNENDING_HEADER + b"a" * (api._MAX_HEADER + 1 - len(_UNENDING_HEADER)),
     431, "header block exceeds"),
    (b"GET /healthz HTTP/1.1\r\n" + b"a: b\r\n" * 11000 + b"\r\n",
     431, "header block exceeds"),
    (b"NONSENSE\r\n\r\n", 400, "malformed request line"),
    (b"GET /healthz HTTP/1.1\r\nHost: slow", 408, "incomplete"),
    (b"POST /query HTTP/1.1\r\nContent-Length: 40\r\n\r\n{\"rate\":",
     408, "incomplete"),
    (_request_bytes("POST", "/query", body=b"\xff\xfe"), 400, "valid JSON"),
    (_request_bytes("DELETE", "/healthz"), 405, "DELETE not allowed"),
    (_request_bytes("POST", "/metrics", body=b"{}"), 405, "POST not allowed"),
    (_request_bytes("PUT", "/trace?request=x"), 405, "PUT not allowed"),
    (_request_bytes("GET", "/query?algorithm=nhop&rate=nan"),
     400, "finite"),
    (_request_bytes("GET", "/query?algorithm=nhop&rate=inf"),
     400, "finite"),
    (_request_bytes("POST", "/query", body=b'{"algorithm":"nhop","rate":NaN}'),
     400, "finite"),
    (_request_bytes(
        "POST", "/reliability",
        body=b'{"width":6,"failure_rate":0.1,"trials":100000000}'),
     400, f"capped at {api._MAX_TRIALS}"),
    (_request_bytes(
        "POST", "/reliability",
        body=b'{"width":5000,"height":5000,"failure_rate":0.1}'),
     400, f"1..{api._MAX_NODES} nodes"),
    (_request_bytes(
        "POST", "/reliability", body=b'{"width":0,"failure_rate":0.1}'),
     400, f"1..{api._MAX_NODES} nodes"),
    # A JSON integer is integral and finite: never truncated, never a 500.
    (_request_bytes("POST", "/query",
                    body=b'{"algorithm":"nhop","rate":0.01,"n_faults":1e999}'),
     400, "n_faults must be an integer, not Infinity"),
    (_request_bytes("POST", "/query",
                    body=b'{"algorithm":"nhop","rate":0.01,"n_faults":2.7}'),
     400, "n_faults must be an integer, not 2.7"),
    (_request_bytes("POST", "/query",
                    body=b'{"algorithm":"nhop","rate":0.01,"n_faults":true}'),
     400, "n_faults must be an integer, not true"),
    (_request_bytes(
        "POST", "/reliability", body=b'{"width":1e999,"failure_rate":0.1}'),
     400, "width must be an integer, not Infinity"),
    (_request_bytes(
        "POST", "/reliability",
        body=b'{"width":6,"failure_rate":0.1,"trials":1e999}'),
     400, "trials must be an integer, not Infinity"),
    # Out of the estimator's range: refused on the loop, not a 500.
    (_request_bytes(
        "POST", "/reliability", body=b'{"width":6,"failure_rate":1.5}'),
     400, "failure_rate must lie in [0, 1]"),
    (_request_bytes(
        "POST", "/reliability", body=b'{"width":6,"failure_rate":-0.1}'),
     400, "failure_rate must lie in [0, 1]"),
    (_request_bytes(
        "POST", "/reliability?width=6&failure_rate=nan", body=b"{}"),
     400, "failure_rate must lie in [0, 1]"),
    (_request_bytes(
        "POST", "/reliability",
        body=b'{"width":6,"failure_rate":0.1,"trials":0}'),
     400, "trials must be positive"),
]


_SERVER_ID = re.compile(rb"(?<=x-request-id: )req-\d+")


class TestHostileInput:
    """Every bad request is a named 4xx and the server stays healthy."""

    @pytest.fixture(autouse=True)
    def short_deadline(self, monkeypatch):
        monkeypatch.setattr(api, "_READ_DEADLINE_S", 0.3)

    @pytest.mark.parametrize(
        "sent, status, reason", _HOSTILE,
        ids=[f"{i}-{case[1]}" for i, case in enumerate(_HOSTILE)],
    )
    def test_fails_closed_with_a_named_status(
        self, server, sent, status, reason
    ):
        whole = _send(server, sent)
        status_line, headers, payload = _parse(whole)
        assert status_line == f"HTTP/1.1 {status} {api._REASONS[status]}"
        assert headers["Connection"] == "close"
        assert reason in payload["error"]
        # Complete at the first read or through the reader: same bytes
        # (but for the ordinal in a server-assigned request id).
        segmented = _send_in_thirds(server, sent)
        assert _SERVER_ID.sub(b"req-N", segmented) == \
            _SERVER_ID.sub(b"req-N", whole)
        assert _parse(_send(server, _request_bytes("GET", "/healthz")))[2]["ok"]

    def test_half_closed_mid_request_is_400(self, server):
        raw = _send(server, b"GET /healthz HTTP/1.1\r\n", half_close=True)
        status_line, _, payload = _parse(raw)
        assert status_line.startswith("HTTP/1.1 400")
        assert "closed mid-request" in payload["error"]

    def test_disconnect_mid_request_leaves_nothing_pending(self, server):
        assert _settles_at(server, 0)
        fds = _open_fds()
        for partial in (b"", b"GET /que", b"POST /query HTTP/1.1\r\n"
                        b"Content-Length: 10\r\n\r\n{"):
            with socket.create_connection(("127.0.0.1", server.port)) as c:
                c.sendall(partial)
        assert _parse(_send(server, _request_bytes("GET", "/healthz")))[2]["ok"]
        time.sleep(0.5)  # past the (shortened) read deadline
        assert _settles_at(server, 0)
        assert not any(
            "_Connection" in repr(handle) and not handle.cancelled()
            for handle in server._loop._scheduled
        )
        assert _open_fds() == fds

    @pytest.mark.parametrize("error", [StopIteration("odd"), KeyError("k")])
    def test_any_resolution_error_is_a_500_with_a_reason(
        self, server, monkeypatch, error
    ):
        def explode(*args, **kwargs):
            raise error

        monkeypatch.setattr(server.resolver, "begin", explode)
        status, payload = _request(server, "/query?algorithm=nhop&rate=0.01")
        assert status == 500
        assert type(error).__name__ in payload["error"]
        monkeypatch.setattr(api.reliability, "estimate", explode)
        status, payload = _request(
            server, "/reliability", body={"width": 6, "failure_rate": 0.1}
        )
        assert status == 500
        assert type(error).__name__ in payload["error"]


class TestLoopExecutorSplit:
    """Cheap answers never queue behind engine work."""

    STORE = "/query?algorithm=nhop&rate=0.01"
    ENGINE = {
        # what reaches the executor on each kind of server
        False: ("/reliability",
                {"width": 6, "failure_rate": 0.1, "trials": 50}),
        True: ("/query?algorithm=nhop&rate=0.01&n_faults=1", None),
    }

    @pytest.mark.parametrize("simulate", [False, True])
    def test_cheap_requests_overtake_a_busy_executor(
        self, request, simulate
    ):
        srv = request.getfixturevalue("sim_server" if simulate else "server")
        on_loop = _counter(srv, "serve.http.resolved.loop")
        on_executor = _counter(srv, "serve.http.resolved.executor")
        release = threading.Event()
        srv._executor.submit(release.wait, 60)
        path, body = self.ENGINE[simulate]
        engine_reply = []
        engine_client = threading.Thread(
            target=lambda: engine_reply.append(_request(srv, path, body=body))
        )
        engine_client.start()
        try:
            cheap = [
                self.STORE,
                "/query?algorithm=nhop&rate=0.015",
                "/query?algorithm=nhop&rate=0.002",
                "/healthz",
            ]
            tiers = []
            for target in cheap:
                status, payload = _request(srv, target)
                assert status == 200
                tiers.append(payload.get("answer", {}).get("tier"))
            assert tiers == ["store", "surrogate", "model", None]
            if not simulate:
                status, _ = _request(
                    srv, "/query?algorithm=nhop&rate=0.9&metric=throughput"
                )
                assert status == 422
                cheap.append("refused")
            assert not engine_reply  # still parked behind the blocker
        finally:
            release.set()
            engine_client.join(timeout=60)
        assert engine_reply[0][0] == 200
        assert (
            _counter(srv, "serve.http.resolved.loop") - on_loop == len(cheap)
        )
        assert _counter(srv, "serve.http.resolved.executor") - on_executor == 1


class TestPooledSimulation:
    """A server simulates on its worker pool; nothing it answers or
    stores shows where the samples ran."""

    #: The serve benchmark's off-hull throughput queries, and one fault
    #: count off the grid: two fault sets x two repeats.
    QUERIES = [
        *(Query("nhop", 0.03 * 1.3 + i * 1e-6, "throughput")
          for i in (1, 2, 3)),
        Query("nhop", 0.02, n_faults=1),
    ]

    def test_answers_counters_and_rows_equal_the_in_process_path(
        self, tmp_path
    ):
        spec = CampaignSpec(
            name="pooled-twin",
            algorithms=("nhop",),
            config=SimConfig(
                width=6, vcs_per_channel=24, message_length=4,
                cycles=300, warmup=100,
            ),
            rates=(0.005, 0.01, 0.02, 0.03),
            fault_sets=2,
            repeats=2,
        )
        db = CampaignDB(spec, tmp_path / "pooled")
        db.save()
        run_campaign(db)
        # A copy: its campaign.json still names the first store.
        shutil.copytree(db.root, tmp_path / "local")
        local = Resolver(
            CampaignDB.open(
                tmp_path / "local", store=tmp_path / "local" / "store"
            ),
            simulate=True,
        )

        def in_process(q):
            return json.loads(json.dumps(local.resolve(q).to_dict()))

        with _serving(CampaignDB.open(db.root), simulate=True) as srv:
            def pooled(q):
                status, payload = _request(
                    srv, "/query", body=q.to_dict()
                )
                assert status == 200, payload
                return payload["answer"]

            fresh = [(pooled(q), in_process(q)) for q in self.QUERIES]
            assert [p["tier"] for p, _ in fresh] == ["simulation"] * 4
            assert [p["n_samples"] for p, _ in fresh] == [2, 2, 2, 4]
            for got, want in fresh:
                assert got["detail"]["cache"] == want["detail"]["cache"]
                assert got == want
            rows = (db.root / "store" / "rows.jsonl").read_bytes()
            assert rows == (
                tmp_path / "local" / "store" / "rows.jsonl"
            ).read_bytes()
            misses = fresh[-1][0]["detail"]["cache"]["misses"]
            assert misses == 10
            again = [(pooled(q), in_process(q)) for q in self.QUERIES]
        for got, want in again:
            assert got == want
            assert got["detail"]["cache"]["misses"] == misses
        assert again[-1][0]["detail"]["cache"] == {
            "hits": misses, "misses": misses, "puts": misses,
        }
        assert (db.root / "store" / "rows.jsonl").read_bytes() == rows


# ----------------------------------------------------------------------
# The socket layer: accept, cap, partial writes, departures, shutdown
# ----------------------------------------------------------------------
def _reset(conn):
    """Close *conn* with an RST instead of a FIN."""
    conn.setsockopt(
        socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
    )
    conn.close()


class TestSockets:
    HEALTHZ = _request_bytes("GET", "/healthz")

    def test_accept_backs_off_when_descriptors_run_out(
        self, serve_campaign, capsys
    ):
        class Exhausted:
            """The listener, but its next ``accept`` finds no descriptor."""

            def __init__(self, listener):
                self.fileno = listener.fileno

            def accept(self):
                raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

        with _serving(serve_campaign) as srv:
            listener = srv._listener
            assert _watched(srv, listener)
            start = time.monotonic()
            _on_loop(srv, srv._accept, Exhausted(listener))
            # Un-watched (a full table keeps the fd readable: the loop
            # would spin), one line on stderr, nothing raised.
            assert not _watched(srv, listener)
            err = capsys.readouterr().err
            assert err.startswith("error: accept: out of system resource")
            assert err.count("\n") == 1
            # The timer re-watches it; a client that connected in the
            # pause sat in the backlog and is answered then.
            assert _parse(_send(srv, self.HEALTHZ))[2]["ok"]
            assert time.monotonic() - start >= 0.9
            assert _watched(srv, listener)

    def test_other_accept_errors_are_not_swallowed(self, server):
        class Broken:
            def accept(self):
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))

        with pytest.raises(OSError, match="Bad file descriptor"):
            _on_loop(server, server._accept, Broken())

    def test_connection_cap_answers_503(self, server, monkeypatch):
        monkeypatch.setattr(api, "_MAX_CONNECTIONS", 3)
        monkeypatch.setattr(api, "_READ_DEADLINE_S", 1.5)
        assert _settles_at(server, 0)
        refused = _counter(server, "serve.http.status.503")
        held = [
            socket.create_connection(("127.0.0.1", server.port), timeout=30)
            for _ in range(3)
        ]
        try:
            for conn in held:  # idle and half-sent: both count
                conn.sendall(self.HEALTHZ[:10])
            assert _settles_at(server, 3)
            # One too many.  (It sends nothing: a request that reaches a
            # closed socket draws a reset, which a read-to-EOF client
            # sees as an error after the reply.)
            status_line, headers, payload = _parse(_send(server))
            assert status_line == "HTTP/1.1 503 Service Unavailable"
            assert headers["Connection"] == "close"
            assert payload == {"error": "server at its connection limit (3)"}
            assert _counter(server, "serve.http.status.503") == refused + 1
            assert _settles_at(server, 3)
            # An already-open one still gets its answer when completed ...
            held[0].sendall(self.HEALTHZ[10:])
            assert _parse(_read_to_eof(held[0]))[2]["ok"]
            # ... which makes room for the next,
            assert _parse(_send(server, self.HEALTHZ))[2]["ok"]
            # and the idle ones are still bound for their 408.
            for conn in held[1:]:
                assert _parse(_read_to_eof(conn))[0].startswith("HTTP/1.1 408")
        finally:
            for conn in held:
                conn.close()
        assert _settles_at(server, 0)

    @staticmethod
    def _respond_into_a_small_buffer(server, payload):
        """``_respond(200, payload)`` on a connection whose socket takes
        4 KiB at a time; returns ``(connection, the peer's socket)``."""
        ours, theirs = socket.socketpair()
        ours.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        ours.setblocking(False)

        def respond():
            connection = api._Connection(server, ours)
            connection._respond(200, payload)
            return connection

        return _on_loop(server, respond), theirs

    def test_a_reply_larger_than_the_socket_buffer_arrives_whole(self, server):
        payload = {"blob": "".join(f"{i:07d}." for i in range(25_000))}
        fds = _open_fds()
        connection, theirs = self._respond_into_a_small_buffer(server, payload)
        with theirs:
            # send() took a part; the rest waits for the loop's writer.
            assert connection.writing and len(connection.out) > 100_000
            assert _watched(server, connection.sock)
            chunks = []
            while chunk := theirs.recv(8192):  # a slow reader
                chunks.append(chunk)
                time.sleep(0.0005)
        status_line, headers, got = _parse(b"".join(chunks))
        assert status_line == "HTTP/1.1 200 OK"
        assert int(headers["Content-Length"]) > 200_000
        assert got == payload  # complete and in order
        assert _settles_at(server, 0)
        assert _open_fds() == fds

    def test_a_peer_that_leaves_mid_write_leaves_no_writer(self, server):
        fds = _open_fds()
        connection, theirs = self._respond_into_a_small_buffer(
            server, {"blob": "x" * 200_000}
        )
        fd = connection.sock.fileno()
        assert connection.writing and _watched(server, fd)
        theirs.close()  # the next send() is EPIPE
        assert _settles_at(server, 0)
        assert not _watched(server, fd)
        assert _open_fds() == fds

    def test_engine_answer_for_a_departed_client_is_recorded_not_written(
        self, server
    ):
        answered = _counter(server, "serve.http.status.200")
        on_executor = _counter(server, "serve.http.resolved.executor")
        release = threading.Event()
        server._executor.submit(release.wait, 60)
        try:
            conn = socket.create_connection(("127.0.0.1", server.port))
            conn.sendall(_request_bytes(
                "POST", "/reliability",
                body=b'{"width": 4, "failure_rate": 0.1, "trials": 50}',
            ))
            assert _settles_at(server, 1)  # parked behind the blocker
            _reset(conn)
        finally:
            release.set()
        assert _settles_at(server, 0)
        assert _counter(server, "serve.http.status.200") == answered + 1
        assert (
            _counter(server, "serve.http.resolved.executor") == on_executor + 1
        )
        assert _parse(_send(server, self.HEALTHZ))[2]["ok"]

    def test_stop_drops_queued_engine_work_without_an_error(
        self, serve_campaign
    ):
        errors = []
        with _serving(serve_campaign) as srv:
            srv._loop.set_exception_handler(
                lambda loop, context: errors.append(context)
            )
            release = threading.Event()
            srv._executor.submit(release.wait, 60)
            queued = socket.create_connection(("127.0.0.1", srv.port))
            queued.sendall(_request_bytes(
                "POST", "/reliability",
                body=b'{"width": 4, "failure_rate": 0.1, "trials": 50}',
            ))
            assert _settles_at(srv, 1)  # parked behind the blocker
            threading.Timer(0.2, release.set).start()
            # stop() waits for the running job, cancels the queued one
        with queued:
            assert queued.recv(100) == b""  # closed by stop(), unanswered
        assert errors == []

    def test_stop_closes_what_is_open(self, serve_campaign):
        fds = _open_fds()
        with _serving(serve_campaign) as srv:
            idle = socket.create_connection(("127.0.0.1", srv.port))
            idle.sendall(b"GET /heal")
            assert _settles_at(srv, 1)
        with idle:
            assert idle.recv(100) == b""  # closed by stop(), unanswered
        assert srv.connections == 0
        assert _open_fds() == fds

    def test_start_names_a_loop_that_cannot_watch_sockets(
        self, serve_campaign
    ):
        async def start_without_add_reader():
            def add_reader(*args):
                raise NotImplementedError

            asyncio.get_running_loop().add_reader = add_reader
            await QueryServer(serve_campaign).start()

        fds = _open_fds()
        with pytest.raises(RuntimeError, match="selector event loop"):
            asyncio.run(start_without_add_reader())
        assert _open_fds() == fds

    def test_ipv6_loopback_host(self, serve_campaign):
        try:
            socket.create_server(("::1", 0), family=socket.AF_INET6).close()
        except OSError:
            pytest.skip("no IPv6 loopback on this host")
        with _serving(serve_campaign, host="::1") as srv:
            with socket.create_connection(("::1", srv.port), timeout=30) as c:
                c.sendall(self.HEALTHZ)
                assert _parse(_read_to_eof(c))[2]["ok"]


# ----------------------------------------------------------------------
# The wire contract, pinned: 40 requests recorded on the stream-based
# transport this one replaced (PR 14); re-record deliberately with
#   SERVE_SCRIPT_RECORD=1 python -m pytest tests/test_serve_api.py -k script
# ----------------------------------------------------------------------
_GOLDEN = Path(__file__).with_name("serve_http_script.json")


def _json_body(**fields):
    return json.dumps(fields).encode()


#: ``(server, request bytes)``: "mix" cannot simulate, "sim" can.
_SCRIPT = [
    ("mix", _request_bytes("GET", "/healthz")),
    ("mix", _request_bytes("GET", "/query?algorithm=nhop&rate=0.01")),
    ("mix", _request_bytes(
        "GET", "/query?algorithm=duato-nbc&rate=0.02&metric=throughput")),
    ("mix", _request_bytes(
        "GET", "/query?algorithm=nhop&rate=0.015", request_id="script-sur.1")),
    ("mix", _request_bytes(
        "GET", "/query?algorithm=duato-nbc&rate=0.025&n_faults=2")),
    ("mix", _request_bytes("GET", "/query?algorithm=nhop&rate=0.002")),
    ("mix", _request_bytes("GET", "/query?algorithm=duato-nbc&rate=0.001")),
    ("mix", _request_bytes(
        "GET", "/query?algorithm=nhop&rate=0.09&metric=throughput",
        request_id="script-refused")),
    ("mix", _request_bytes("GET", "/query?algorithm=bogus&rate=0.01")),
    ("mix", _request_bytes("GET", "/query?algorithm=nhop")),
    ("mix", _request_bytes("GET", "/query?algorithm=nhop&rate=abc")),
    ("mix", _request_bytes("GET", "/query?algorithm=nhop&rate=0.01&metric=flux")),
    ("mix", _request_bytes("GET", "/query?algorithm=nhop&rate=-1")),
    ("mix", _request_bytes("GET", "/query?algorithm=nhop&rate=0.01&n_faults=x")),
    ("mix", _request_bytes(
        "POST", "/query", body=_json_body(algorithm="nhop", rate=0.01))),
    ("mix", _request_bytes(
        "POST", "/query?algorithm=nhop&rate=0.01", body=_json_body(rate=0.015))),
    ("mix", _request_bytes("POST", "/query", body=b"not json")),
    ("mix", _request_bytes("POST", "/query", body=b"[1, 2]")),
    ("mix", _request_bytes("PUT", "/query?algorithm=nhop&rate=0.01")),
    ("mix", _request_bytes("GET", "/reliability?width=6&failure_rate=0.1")),
    ("mix", _request_bytes("POST", "/reliability", body=_json_body(
        width=6, failure_rate=0.1, trials=100, seed=11))),
    ("mix", _request_bytes("POST", "/reliability", request_id="script-rel",
                           body=_json_body(width=4, height=3, failure_rate=0.2,
                                           trials=300))),
    ("mix", _request_bytes(
        "POST", "/reliability", body=_json_body(failure_rate=0.1))),
    ("mix", _request_bytes(
        "POST", "/reliability", body=_json_body(width="six", failure_rate=0.1))),
    ("mix", _request_bytes(
        "POST", "/reliability", body=_json_body(width=6, failure_rate=1.5))),
    ("mix", _request_bytes("GET", "/nope")),
    ("mix", b"NONSENSE\r\n\r\n"),
    ("mix", _request_bytes("GET", "/healthz", request_id="bad id!")),
    ("mix", _request_bytes("GET", "/trace")),
    ("mix", _request_bytes("GET", "/trace?request=script-refused")),
    ("mix", _request_bytes("GET", "/trace?request=never-seen")),
    ("mix", _request_bytes("POST", "/trace?request=x", body=b"{}")),
    ("mix", _request_bytes("GET", "/metrics")),
    ("sim", _request_bytes("GET", "/healthz")),
    ("sim", _request_bytes("GET", "/query?algorithm=nhop&rate=0.01")),
    ("sim", _request_bytes("GET", "/query?algorithm=nhop&rate=0.01&n_faults=1",
                           request_id="script-sim-1")),
    ("sim", _request_bytes("GET", "/query?algorithm=nhop&rate=0.01&n_faults=1",
                           request_id="script-sim-2")),
    ("sim", _request_bytes("GET", "/query?algorithm=bogus&rate=0.01")),
    ("sim", _request_bytes("GET", "/trace?request=script-sim-1")),
    ("sim", _request_bytes("GET", "/metrics")),
]

#: Landed with the protocol transport: not on the parent's recording.
_NEW_COUNTERS = "serve.http.resolved."


def _span_view(span):
    return {k: span[k] for k in
            ("trace_id", "span_id", "parent_id", "name", "kind", "attrs")}


def _metrics_view(snapshot):
    """Counter values and histogram totals: no latencies."""
    return {
        name: {k: v for k, v in entry.items()
               if k in ("type", "value", "total")}
        for name, entry in snapshot.items()
        if name.startswith("serve.") and not name.startswith(_NEW_COUNTERS)
    }


def _reply_view(raw):
    """One reply with its clock readings taken out: ``/trace`` spans lose
    their stamps, ``/metrics`` its latency buckets (and with them the
    ``Content-Length``, which :func:`_parse` checks against the body)."""
    status_line, headers, payload = _parse(raw)
    if "spans" in payload:
        payload = {**payload, "spans": [_span_view(s) for s in payload["spans"]]}
        del headers["Content-Length"]
    elif "serve.http.requests" in payload:
        payload = _metrics_view(payload)
        del headers["Content-Length"]
    return {"status_line": status_line, "headers": headers, "payload": payload}


def _same(got, want):
    """Equal, floats to 1e-9 relative (numpy builds differ in the last ulp)."""
    if isinstance(want, float) and isinstance(got, float):
        return math.isclose(got, want, rel_tol=1e-9)
    if isinstance(want, dict) and isinstance(got, dict):
        return got.keys() == want.keys() and all(
            _same(got[k], want[k]) for k in want
        )
    if isinstance(want, list) and isinstance(got, list):
        return len(got) == len(want) and all(map(_same, got, want))
    return got == want


def test_script_of_40_requests_matches_the_parent_recording(tmp_path):
    _replay_matches_the_recording(tmp_path, _send)


def test_script_sent_in_segments_matches_the_recording_too(tmp_path):
    """The same 40 replies when every request needs the loop's reader."""
    assert not os.environ.get("SERVE_SCRIPT_RECORD")
    _replay_matches_the_recording(tmp_path, _send_in_thirds)


def _replay_matches_the_recording(tmp_path, send):
    # A campaign of its own: the recorded simulation answers count the
    # store misses of a store no other test has simulated into.
    root = build_serve_campaign(tmp_path / "c").root
    assert len(_SCRIPT) == 40
    with _serving(CampaignDB.open(root)) as mix, \
            _serving(CampaignDB.open(root), simulate=True) as sim:
        servers = {"mix": mix, "sim": sim}
        run = {
            "replies": [
                _reply_view(send(servers[label], sent))
                for label, sent in _SCRIPT
            ],
            "counters": {
                label: _metrics_view(srv.telemetry.snapshot())
                for label, srv in servers.items()
            },
            "spans": {
                label: [_span_view(s) for s in srv.spans.spans]
                for label, srv in servers.items()
            },
        }
        resolved = {
            label: (_counter(srv, "serve.http.resolved.loop"),
                    _counter(srv, "serve.http.resolved.executor"))
            for label, srv in servers.items()
        }
    if os.environ.get("SERVE_SCRIPT_RECORD"):
        _GOLDEN.write_text(json.dumps(run, indent=1, sort_keys=True) + "\n")
    golden = json.loads(_GOLDEN.read_text())
    run = json.loads(json.dumps(run))  # tuples -> lists, as recorded
    for i, (got, want) in enumerate(zip(run["replies"], golden["replies"])):
        assert _same(got, want), (i, _SCRIPT[i], got, want)
    assert _same(run["counters"], golden["counters"])
    assert _same(run["spans"], golden["spans"])
    # 2 /reliability runs on the executor (an out-of-range one is refused
    # on the loop); 3 engine-tier queries likewise.
    assert resolved == {"mix": (31, 2), "sim": (4, 3)}
