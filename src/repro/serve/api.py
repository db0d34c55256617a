"""Stdlib-only JSON-over-HTTP serving of the tiered resolver.

``python -m repro.serve api CAMPAIGN --port N`` exposes:

``GET /healthz``
    Liveness + campaign identity.
``GET /metrics``
    The serving :class:`~repro.obs.telemetry.TelemetryRegistry`
    snapshot (per-tier counters, latency histograms) — the same JSON
    shape every other telemetry consumer reads.
``GET or POST /query``
    A performance query; parameters from the query string
    (``?algorithm=nhop&rate=0.01&metric=latency&n_faults=0``) or a JSON
    body with the same keys.  Answers are
    :meth:`~repro.serve.resolver.Answer.to_dict` payloads; a query no
    tier can serve is ``422`` with the per-tier refusals, malformed
    parameters are ``400``.
``POST /reliability``
    JSON body ``{width, failure_rate, trials?, seed?, height?,
    workers?}`` answered with a
    :meth:`~repro.serve.reliability.ReliabilityEstimate.to_dict`.
``GET /trace``
    The recorded trace spans for one request: ``?request=REQUEST_ID``
    (recomputes the trace id from the ``x-request-id`` — deterministic,
    no lookup table) or ``?trace=TRACE_ID`` directly.  Returns the
    spans plus their :func:`~repro.obs.spans.spans_merge_digest`.

The transport is deliberately minimal: ``asyncio.start_server`` plus a
hand-rolled HTTP/1.1 exchange (one request per connection,
``Connection: close``), so serving needs nothing outside the standard
library.  Resolution itself is synchronous CPU work (and the resolver's
lazy fitting is not thread-safe), so requests are handed to a
single-thread executor — the asyncio loop stays responsive to accepts
and health checks while answers are computed in order.

Every response carries an ``x-request-id`` header: the client's own id
echoed back when it sent one (sanitized to ``[A-Za-z0-9._-]{1,64}``),
else a server-assigned ``req-<seq>``.  That id doubles as the trace
identity: each exchange opens an ``http.request`` span under
``trace_id_from("serve", request_id)``, the resolver hangs its
``tier.<name>`` cascade beneath it, and a bounded-simulation fallback
nests an ``engine.run`` span deeper still — so ``GET
/trace?request=ID`` shows one merged timeline from socket to simulator
(spans live in a bounded in-process :class:`~repro.obs.spans.
SpanRecorder`; oldest drop first).  The HTTP layer additionally
publishes per-request counters next to the resolver's tier metrics —
``serve.http.requests``, ``serve.http.status.<code>``,
``serve.http.latency_us``, and ``serve.http.query.tier.<tier>`` for
answered queries — so ``/metrics`` shows both the resolver's view
(which tier answered) and the transport's (status mix, wire latency).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import re
from urllib.parse import parse_qsl, urlsplit

from repro.campaigns.db import CampaignDB
from repro.core.evaluator import ENGINE_VERSION
from repro.obs.profile import clock
from repro.obs.spans import (
    SpanRecorder, Trace, spans_merge_digest, trace_id_from,
)
from repro.obs.telemetry import TelemetryRegistry
from repro.serve import reliability
from repro.serve.resolver import (
    LATENCY_BOUNDS, Query, Resolver, UnresolvedQueryError,
)

__all__ = ["QueryServer"]

_MAX_BODY = 1 << 20  # 1 MiB: generous for JSON queries, bounded anyway

#: Client-supplied request ids are echoed only when they match this
#: (header values land verbatim in the response and in logs).
_REQUEST_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


class _BadRequest(ValueError):
    """Malformed client input -> HTTP 400."""


def _parse_query_params(params: dict) -> Query:
    try:
        algorithm = str(params["algorithm"])
        rate = float(params["rate"])
    except KeyError as exc:
        raise _BadRequest(f"missing parameter {exc.args[0]!r}") from None
    except (TypeError, ValueError):
        raise _BadRequest("rate must be a number") from None
    try:
        return Query(
            algorithm=algorithm,
            rate=rate,
            metric=str(params.get("metric", "latency")),
            n_faults=int(params.get("n_faults", 0)),
        )
    except (TypeError, ValueError) as exc:
        raise _BadRequest(str(exc)) from None


def _parse_reliability_params(params: dict) -> dict:
    try:
        kwargs = {
            "width": int(params["width"]),
            "failure_rate": float(params["failure_rate"]),
            "trials": int(params.get("trials", 1000)),
            "seed": int(params.get("seed", 2007)),
            "workers": int(params.get("workers", 1)),
        }
        if params.get("height") is not None:
            kwargs["height"] = int(params["height"])
    except KeyError as exc:
        raise _BadRequest(f"missing parameter {exc.args[0]!r}") from None
    except (TypeError, ValueError):
        raise _BadRequest(
            "width/height/trials/seed/workers must be integers, "
            "failure_rate a number"
        ) from None
    return kwargs


class QueryServer:
    """The serving process: one campaign, one resolver, one HTTP port.

    Parameters
    ----------
    db:
        Campaign backing the answers.
    host, port:
        Bind address; ``port=0`` picks a free port (tests read
        :attr:`port` after :meth:`start`).
    simulate:
        Enable the resolver's tier-4 bounded-simulation fallback.
    telemetry:
        Registry for serving metrics (a private one is created when
        omitted; exposed at ``/metrics`` either way).
    """

    def __init__(
        self,
        db: CampaignDB,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        simulate: bool = False,
        telemetry: TelemetryRegistry | None = None,
    ) -> None:
        self.db = db
        self.host = host
        self.port = port
        self.telemetry = (
            telemetry if telemetry is not None else TelemetryRegistry()
        )
        self.resolver = Resolver(
            db, simulate=simulate, telemetry=self.telemetry
        )
        self._server: asyncio.AbstractServer | None = None
        # Single thread: resolution order == arrival order, and the
        # resolver's lazy surrogate/calibration fitting stays unshared.
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-resolve"
        )
        # Monotonic request ordinal: the fallback x-request-id suffix
        # and the stamp on the serve.http.* instruments (the serving
        # registry's cycle axis, matching the resolver's convention).
        self._http_requests = 0
        # Bounded span store behind /trace; one trace per request id.
        self.spans = SpanRecorder(limit=2048)

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket (resolves ``port=0``)."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._executor.shutdown(wait=False)

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._http_requests += 1
        seq = self._http_requests
        started = clock()
        request_id = f"req-{seq}"
        try:
            status, payload, request_id = await self._exchange(
                reader, request_id
            )
        except _BadRequest as exc:
            status, payload = 400, {"error": str(exc)}
        except Exception as exc:  # never kill the server on one request
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        self._record_http(seq, status, payload, started)
        body = json.dumps(payload).encode("utf-8")
        reason = {
            200: "OK",
            400: "Bad Request",
            404: "Not Found",
            405: "Method Not Allowed",
            422: "Unprocessable Entity",
            500: "Internal Server Error",
        }.get(status, "OK")
        writer.write(
            (
                f"HTTP/1.1 {status} {reason}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"x-request-id: {request_id}\r\n"
                "Connection: close\r\n"
                "\r\n"
            ).encode("ascii")
            + body
        )
        try:
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass

    def _record_http(
        self, request: int, status: int, payload: dict, started: float
    ) -> None:
        """Per-request transport metrics, visible at ``/metrics``."""
        elapsed_us = int((clock() - started) * 1e6)
        self.telemetry.counter("serve.http.requests").inc(request)
        self.telemetry.counter(f"serve.http.status.{status}").inc(request)
        self.telemetry.histogram(
            "serve.http.latency_us", LATENCY_BOUNDS
        ).observe(request, elapsed_us)
        answer = payload.get("answer") if isinstance(payload, dict) else None
        if isinstance(answer, dict) and "tier" in answer:
            self.telemetry.counter(
                f"serve.http.query.tier.{answer['tier']}"
            ).inc(request)

    async def _exchange(
        self, reader: asyncio.StreamReader, request_id: str
    ) -> tuple[int, dict, str]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) != 3:
            raise _BadRequest(f"malformed request line {request_line!r}")
        method, target, _version = parts
        content_length = 0
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            header = name.strip().lower()
            if header == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise _BadRequest("bad Content-Length") from None
            elif header == "x-request-id":
                client_id = value.strip()
                if _REQUEST_ID_RE.match(client_id):
                    request_id = client_id
        if content_length > _MAX_BODY:
            raise _BadRequest("request body too large")
        body = (
            await reader.readexactly(content_length)
            if content_length
            else b""
        )
        url = urlsplit(target)
        params: dict = dict(parse_qsl(url.query))
        if body:
            try:
                decoded = json.loads(body)
            except json.JSONDecodeError:
                raise _BadRequest("request body is not valid JSON") from None
            if not isinstance(decoded, dict):
                raise _BadRequest("request body must be a JSON object")
            params.update(decoded)
        trace = Trace(self.spans, trace_id_from("serve", request_id))
        with trace.span(
            "http.request", method=method, path=url.path
        ) as req_trace:
            status, payload = await self._route(
                method, url.path, params, req_trace
            )
            req_trace.attrs["status"] = status
        return status, payload, request_id

    async def _route(
        self, method: str, path: str, params: dict, trace: Trace
    ) -> tuple[int, dict]:
        if path == "/healthz":
            return 200, {
                "ok": True,
                "campaign": self.db.spec.name,
                "engine_version": ENGINE_VERSION,
            }
        if path == "/metrics":
            return 200, self.telemetry.snapshot()
        if path == "/query":
            if method not in ("GET", "POST"):
                return 405, {"error": f"{method} not allowed on /query"}
            q = _parse_query_params(params)
            loop = asyncio.get_running_loop()
            try:
                answer = await loop.run_in_executor(
                    self._executor,
                    lambda: self.resolver.resolve(q, trace=trace),
                )
            except UnresolvedQueryError as exc:
                return 422, {
                    "error": "unresolved",
                    "query": q.to_dict(),
                    "refusals": exc.refusals,
                }
            return 200, {"query": q.to_dict(), "answer": answer.to_dict()}
        if path == "/reliability":
            if method != "POST":
                return 405, {
                    "error": f"{method} not allowed on /reliability"
                }
            kwargs = _parse_reliability_params(params)
            loop = asyncio.get_running_loop()
            est = await loop.run_in_executor(
                self._executor,
                lambda: reliability.estimate(
                    kwargs.pop("width"), **kwargs
                ),
            )
            return 200, est.to_dict()
        if path == "/trace":
            if method != "GET":
                return 405, {"error": f"{method} not allowed on /trace"}
            trace_id = params.get("trace")
            if not trace_id and params.get("request"):
                trace_id = trace_id_from("serve", str(params["request"]))
            if not trace_id:
                raise _BadRequest("pass ?request=REQUEST_ID or ?trace=ID")
            spans = self.spans.of_trace(str(trace_id))
            return 200, {
                "trace_id": trace_id,
                "spans": spans,
                "merge_digest": spans_merge_digest(spans),
            }
        return 404, {"error": f"unknown path {path!r}"}
