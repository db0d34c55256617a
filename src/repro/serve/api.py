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

The wire layer is deliberately minimal: plain sockets speaking a
hand-rolled HTTP/1.1 exchange — one request per connection,
``Connection: close`` — so serving needs nothing outside the standard
library.  ``loop.add_reader`` watches the listening socket; its callback
accepts the backlog and reads each new connection **at once** (a client
writes right after connecting), so ``data_received`` parses, routes,
records, sends and closes in that one loop turn: no task, stream or
timer per connection.  Only a request the first read left incomplete
gets a reader and its read deadline, only a reply ``send`` took in part
a writer.

Thread ownership: the event loop thread owns the resolver's fitted
state and request counter, the telemetry registry and the span
recorder, and answers everything that needs no engine work on the spot
— the store / surrogate / model tiers, refusals, ``/healthz``,
``/metrics``, ``/trace`` — whether or not the server may simulate.
Engine work goes to a single-thread executor, which touches none of
that state: it answers the samples the store holds, and hands every
sample it must simulate, and every ``/reliability`` batch, to the
server's **engine pool** — one ``multiprocessing`` pool of
:func:`~repro.cli.usable_cpus` workers, forked by
:meth:`QueryServer.start` before the socket is bound and before the
executor has a thread, kept warm for the server's lifetime and
terminated by :meth:`QueryServer.stop` (``serve api`` stops on SIGTERM
and SIGINT).  The executor waits on the pool, appends the rows the
workers simulated to the store, and hands the result back to the loop
to be recorded and written.  The simulating therefore holds neither
the loop's thread nor its GIL; a cheap answer still shares the GIL
with the executor's store work, which lengthens its tail while
simulations run (``docs/serving.md`` gives the numbers).  The
surrogate, calibration and model are fitted in
:meth:`QueryServer.start`, before the socket accepts — the loop never
fits.

Hostile framing fails closed (limits are the module constants below):
a header block over ``_MAX_HEADER`` is ``431``, a body over
``_MAX_BODY`` or a bad ``Content-Length`` is ``400``, a request still
incomplete ``_READ_DEADLINE_S`` after connect is ``408``, a wrong
method is ``405``, one connection too many (``_MAX_CONNECTIONS``) is
``503``; a client that vanishes leaves nothing behind, and any exception
while answering is a ``500`` with its reason.

Every response carries an ``x-request-id`` header: the client's own id
echoed back when it sent one (sanitized to ``[A-Za-z0-9._-]{1,64}``),
else a server-assigned ``req-<seq>``.  That id doubles as the trace
identity: each exchange opens an ``http.request`` span under
``trace_id_from("serve", request_id)``, the resolver hangs its
``tier.<name>`` cascade beneath it, and a bounded-simulation fallback
nests an ``engine.run`` span deeper still — so ``GET
/trace?request=ID`` shows one merged timeline from socket to simulator
(spans live in a bounded in-process :class:`~repro.obs.spans.
SpanRecorder`; oldest drop first).  A request records its spans as
positions and stamps: no id is hashed while answering, only when
``/trace`` reads the trace.  The HTTP layer additionally
publishes per-request counters next to the resolver's tier metrics —
``serve.http.requests``, ``serve.http.status.<code>``,
``serve.http.latency_us``, ``serve.http.query.tier.<tier>`` for
answered queries, and ``serve.http.resolved.loop`` /
``serve.http.resolved.executor`` for where the answer was computed — so
``/metrics`` shows both the resolver's view (which tier answered) and
the HTTP layer's (status mix, wire latency, loop/executor split).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import errno
import json
import re
import socket
import sys
from contextlib import AbstractContextManager, suppress
from functools import partial
from typing import TYPE_CHECKING
from urllib.parse import parse_qsl, urlsplit

from repro.campaigns.db import CampaignDB
from repro.cli import usable_cpus
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

if TYPE_CHECKING:
    from multiprocessing.pool import Pool

__all__ = ["QueryServer"]

_MAX_BODY = 1 << 20  # 1 MiB: generous for JSON queries, bounded anyway
_MAX_HEADER = 64 << 10  # request line + headers; beyond it: 431
_READ_DEADLINE_S = 10.0  # connect -> complete request; beyond it: 408
_MAX_CONNECTIONS = 512  # open at once; the next one is answered 503
_MAX_TRIALS = 100_000  # /reliability Monte-Carlo trials per request
_MAX_NODES = 64 * 64  # /reliability mesh size (width x height)

#: Client-supplied request ids are echoed only when they match this
#: (header values land verbatim in the response and in logs).
_REQUEST_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    422: "Unprocessable Entity",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: ``accept()`` errnos that mean "out of descriptors or memory": back off.
_EXHAUSTED = (errno.EMFILE, errno.ENFILE, errno.ENOBUFS, errno.ENOMEM)

_METHODS = {
    "/healthz": ("GET",),
    "/metrics": ("GET",),
    "/trace": ("GET",),
    "/query": ("GET", "POST"),
    "/reliability": ("POST",),
}


class _Refused(ValueError):
    """Client input the server will not act on -> HTTP *status* (4xx)."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def _integer(value, name: str) -> int:
    """Parameter *name* read as ``int()`` reads it, except that a
    boolean, fractional or non-finite number is refused, naming *name*,
    instead of truncated or overflowing."""
    if isinstance(value, bool) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise _Refused(f"{name} must be an integer, not {json.dumps(value)}")
    return int(value)


def _parse_query_params(params: dict) -> Query:
    try:
        algorithm = str(params["algorithm"])
        rate = float(params["rate"])
    except KeyError as exc:
        raise _Refused(f"missing parameter {exc.args[0]!r}") from None
    except (TypeError, ValueError):
        raise _Refused("rate must be a number") from None
    try:
        return Query(
            algorithm=algorithm,
            rate=rate,
            metric=str(params.get("metric", "latency")),
            n_faults=_integer(params.get("n_faults", 0), "n_faults"),
        )
    except (TypeError, ValueError) as exc:
        raise _Refused(str(exc)) from None


def _parse_reliability_params(params: dict) -> dict:
    try:
        kwargs = {
            "width": _integer(params["width"], "width"),
            "failure_rate": float(params["failure_rate"]),
            "trials": _integer(params.get("trials", 1000), "trials"),
            "seed": _integer(params.get("seed", 2007), "seed"),
            "workers": _integer(params.get("workers", 1), "workers"),
        }
        if params.get("height") is not None:
            kwargs["height"] = _integer(params["height"], "height")
    except _Refused:
        raise
    except KeyError as exc:
        raise _Refused(f"missing parameter {exc.args[0]!r}") from None
    except (TypeError, ValueError):
        raise _Refused(
            "width/height/trials/seed/workers must be integers, "
            "failure_rate a number"
        ) from None
    # What the estimator would refuse is refused here, on the loop.
    if not 0.0 <= kwargs["failure_rate"] <= 1.0:  # NaN fails it too
        raise _Refused("failure_rate must lie in [0, 1]")
    if kwargs["trials"] < 1:
        raise _Refused("trials must be positive")
    # The request sizes work done inside the serving process: cap it.
    if kwargs["trials"] > _MAX_TRIALS:
        raise _Refused(f"trials is capped at {_MAX_TRIALS} per request")
    width, height = kwargs["width"], kwargs.get("height", kwargs["width"])
    if width < 1 or height < 1 or width * height > _MAX_NODES:
        raise _Refused(
            f"width x height must lie in 1..{_MAX_NODES} nodes"
        )
    kwargs["workers"] = max(1, min(kwargs["workers"], usable_cpus()))
    return kwargs


def _never_raise(work):
    """Run *work* on the executor thread as ``(result, error)``: an
    exception set on the future could be one asyncio refuses to carry
    (``StopIteration``), which would strand the connection."""
    try:
        return work(), None
    except Exception as exc:
        return None, exc


class _EngineWork:
    """A routed request that needs the executor: *work* runs there,
    ``done(result) -> (status, payload)`` back on the loop."""

    __slots__ = ("work", "done")

    def __init__(self, work, done) -> None:
        self.work = work
        self.done = done


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
        self._listener: socket.socket | None = None
        self._open: set[_Connection] = set()
        # Where engine work runs: in process (1) until start() forks the
        # pool whose processes run every simulated sample and
        # /reliability batch.
        self._workers: int | Pool = 1
        # Coordinates engine work (store reads and puts, the waits on the
        # pool), one request at a time: the resolver's evaluator is not
        # shared between threads.
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-engine"
        )
        # Monotonic request ordinal: the fallback x-request-id suffix.
        self._http_requests = 0
        # Bounded span store behind /trace; one trace per request id.
        self.spans = SpanRecorder(limit=2048)

    @property
    def connections(self) -> int:
        """Connections open right now (what ``_MAX_CONNECTIONS`` caps)."""
        return len(self._open)

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Fit the resolver, fork the engine pool, then bind the socket
        (resolves ``port=0``).

        The pool has :func:`~repro.cli.usable_cpus` workers, forked
        before the socket exists (no worker holds the port) and before
        the executor starts its thread; it lives until :meth:`stop`.  A
        server that may simulate loads numpy before it forks them.
        """
        from multiprocessing import get_context

        self.resolver.fit()
        self._loop = asyncio.get_running_loop()
        if self.resolver.simulate:
            # The engine's numpy, imported once here so that every worker
            # is forked with it, not importing it at its first sample.
            import numpy  # noqa: F401
        self._workers = get_context().Pool(usable_cpus())
        try:
            self._listen()
        except BaseException:
            self._end_pool()
            raise

    def _listen(self) -> None:
        family, *_, address = socket.getaddrinfo(
            self.host, self.port, type=socket.SOCK_STREAM
        )[0]
        self._listener = socket.create_server(address, family=family)
        self._listener.setblocking(False)
        self.port = self._listener.getsockname()[1]
        try:
            self._watch()
        except NotImplementedError:
            self._listener.close()
            self._listener = None
            raise RuntimeError(
                "repro.serve needs a selector event loop (loop.add_reader)"
            ) from None

    async def serve_forever(self) -> None:
        if self._listener is None:
            await self.start()
        try:
            await self._loop.create_future()  # until cancelled
        finally:
            await self.stop()

    async def stop(self) -> None:
        """Close the listener and every connection, drop queued engine
        work, let the running job finish (a wait on the pool cannot be
        interrupted), then terminate and join the pool's workers."""
        if self._listener is not None:
            self._loop.remove_reader(self._listener)
            self._listener.close()
            self._listener = None
        for connection in list(self._open):
            connection._close()
        self._executor.shutdown(wait=True, cancel_futures=True)
        self._end_pool()

    def _end_pool(self) -> None:
        if not isinstance(self._workers, int):
            self._workers.terminate()
            self._workers.join()
            self._workers = 1

    def _watch(self) -> None:
        if self._listener is not None:
            self._loop.add_reader(
                self._listener, self._accept, self._listener
            )

    def _accept(self, listener: socket.socket) -> None:
        """The listener is readable: take the backlog, serve each at once."""
        for _ in range(128):  # then let timers and engine results run
            try:
                sock, _peer = listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except ConnectionAbortedError:
                continue
            except OSError as exc:
                if exc.errno not in _EXHAUSTED:
                    raise
                # Still "readable" to the selector: un-watch or spin.
                print(f"error: accept: out of system resource ({exc}); "
                      "not accepting for 1 s", file=sys.stderr)
                self._loop.remove_reader(listener)
                self._loop.call_later(1.0, self._watch)
                return
            sock.setblocking(False)
            connection = _Connection(self, sock)
            if len(self._open) <= _MAX_CONNECTIONS:
                connection.readable()
            else:
                with suppress(OSError):  # closing over unread bytes resets
                    sock.recv(_MAX_HEADER)
                connection._respond(503, {"error": (
                    f"server at its connection limit ({_MAX_CONNECTIONS})")})

    # ------------------------------------------------------------------
    # Request handling (event-loop thread)
    # ------------------------------------------------------------------
    def _record_http(
        self, status: int, payload: dict, started: float, where: str
    ) -> None:
        """Per-request HTTP metrics, visible at ``/metrics``."""
        elapsed_us = int((clock() - started) * 1e6)
        self.telemetry.counter("serve.http.requests").inc()
        self.telemetry.counter(f"serve.http.status.{status}").inc()
        self.telemetry.counter(f"serve.http.resolved.{where}").inc()
        self.telemetry.histogram(
            "serve.http.latency_us", LATENCY_BOUNDS
        ).observe(elapsed_us)
        answer = payload.get("answer") if isinstance(payload, dict) else None
        if isinstance(answer, dict) and "tier" in answer:
            self.telemetry.counter(
                f"serve.http.query.tier.{answer['tier']}"
            ).inc()

    def _route(
        self, method: str, path: str, params: dict, trace: Trace
    ) -> tuple[int, dict] | _EngineWork:
        """Answer on the spot, or name the engine work the answer needs."""
        allowed = _METHODS.get(path)
        if allowed is None:
            return 404, {"error": f"unknown path {path!r}"}
        if method not in allowed:
            return 405, {"error": f"{method} not allowed on {path}"}
        if path == "/healthz":
            return 200, {
                "ok": True,
                "campaign": self.db.spec.name,
                "engine_version": ENGINE_VERSION,
            }
        if path == "/metrics":
            return 200, self.telemetry.snapshot()
        if path == "/query":
            q = _parse_query_params(params)

            def answered(answer) -> tuple[int, dict]:
                return 200, {"query": q.to_dict(), "answer": answer.to_dict()}

            try:
                res = self.resolver.begin(q, trace=trace)
            except UnresolvedQueryError as exc:
                return 422, {
                    "error": "unresolved",
                    "query": q.to_dict(),
                    "refusals": exc.refusals,
                }
            if res.answer is not None:
                return answered(res.answer)
            return _EngineWork(
                lambda: self.resolver.run_engine(q, self._workers),
                lambda run: answered(self.resolver.finish(res, run)),
            )
        if path == "/reliability":
            # Validated and clamped all the same; the batches run on the
            # server's pool, and the estimate never depends on workers.
            kwargs = {
                **_parse_reliability_params(params), "workers": self._workers
            }
            return _EngineWork(
                lambda: reliability.estimate(**kwargs),
                lambda est: (200, est.to_dict()),
            )
        # /trace
        trace_id = params.get("trace")
        if not trace_id and params.get("request"):
            trace_id = trace_id_from("serve", str(params["request"]))
        if not trace_id:
            raise _Refused("pass ?request=REQUEST_ID or ?trace=ID")
        spans = self.spans.of_trace(str(trace_id))
        return 200, {
            "trace_id": trace_id,
            "spans": spans,
            "merge_digest": spans_merge_digest(spans),
        }


class _Connection:
    """One connection: one request in, one response out, close.

    Everything here runs on the event-loop thread.  ``reading`` holds
    until the request is complete (or refused, or abandoned); the one
    response goes through :meth:`_respond`, after which a late deadline
    or a late engine result finds nothing to do.
    """

    def __init__(self, server: QueryServer, sock: socket.socket) -> None:
        self.server = server
        self.sock = sock
        server._open.add(self)
        server._http_requests += 1
        self.started = clock()
        self.request_id = f"req-{server._http_requests}"
        self.buffer = bytearray()
        self.body_start = -1  # index past the header block, once seen
        self.content_length = 0
        self.method = self.target = ""
        self.reading = True
        self.answered = False
        self.where = "loop"  # or "executor": who computed the answer
        # The http.request span while it is open: from routing until
        # _respond (which may be a callback later).
        self.span: AbstractContextManager | None = None
        self.deadline: asyncio.TimerHandle | None = None  # with a reader
        self.writing = False  # a writer waits to send the rest of ``out``

    def readable(self) -> None:
        """Feed the parser what is there: at accept, then as a reader."""
        try:
            data = self.sock.recv(_MAX_HEADER)
        except (BlockingIOError, InterruptedError):
            data = None
        except OSError:  # reset mid-request: nothing was asked
            return self._close()
        if data:
            self.data_received(data)
        elif data is not None:  # a half-closed client still gets its answer
            self._respond(400, {"error": "connection closed mid-request"})
        if self.reading and self.deadline is None:
            self.server._loop.add_reader(self.sock, self.readable)
            self.deadline = self.server._loop.call_later(
                self.started + _READ_DEADLINE_S - clock(), self._respond, 408,
                {"error": f"request incomplete after {_READ_DEADLINE_S:g} s"},
            )

    def _unwatch(self) -> None:
        if self.deadline is not None:
            self.deadline.cancel()
            self.deadline = None
            self.server._loop.remove_reader(self.sock)

    def writable(self) -> None:
        """Send the rest of the reply and close: at once, then as a writer."""
        try:
            sent = self.sock.send(self.out)
        except (BlockingIOError, InterruptedError):
            sent = 0
        except OSError:  # the client left: recorded, not written
            return self._close()
        self.out = self.out[sent:]
        if not self.out:
            self._close()
        elif not self.writing:
            self.writing = True
            self.server._loop.add_writer(self.sock, self.writable)

    def _close(self) -> None:
        """Once per connection: after the reply, a reset, or ``stop()``."""
        self.reading = False
        self.answered = True  # a late engine result finds nothing to do
        self._unwatch()
        if self.writing:
            self.server._loop.remove_writer(self.sock)
        self.server._open.discard(self)
        self.sock.close()

    def data_received(self, data: bytes) -> None:
        buffer = self.buffer
        seen = len(buffer)
        buffer += data
        try:
            if self.body_start < 0:
                end, gap = buffer.find(b"\r\n\r\n", max(0, seen - 3)), 4
                if end < 0:  # bare-LF clients (nc, telnet) are tolerated
                    end, gap = buffer.find(b"\n\n", max(0, seen - 1)), 2
                if end > _MAX_HEADER or (
                    end < 0 and len(buffer) > _MAX_HEADER
                ):
                    raise _Refused(
                        f"header block exceeds {_MAX_HEADER} bytes", 431
                    )
                if end < 0:
                    return
                self._parse_head(bytes(buffer[:end]).decode("latin-1"))
                self.body_start = end + gap
            body_end = self.body_start + self.content_length
            if len(buffer) < body_end:
                return
            self.reading = False
            self._unwatch()
            self._dispatch(bytes(buffer[self.body_start:body_end]))
        except _Refused as exc:
            self._respond(exc.status, {"error": str(exc)})
        except Exception as exc:  # never kill the server on one request
            self._respond(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _parse_head(self, head: str) -> None:
        request_line, *headers = head.split("\n")
        parts = request_line.split()
        if len(parts) != 3:
            raise _Refused(
                f"malformed request line {request_line.strip()!r}"
            )
        self.method, self.target, _version = parts
        for line in headers:
            name, _, value = line.partition(":")
            header = name.strip().lower()
            if header == "content-length":
                try:
                    self.content_length = int(value.strip())
                except ValueError:
                    self.content_length = -1
                if self.content_length < 0:
                    raise _Refused("bad Content-Length")
            elif header == "x-request-id":
                client_id = value.strip()
                if _REQUEST_ID_RE.match(client_id):
                    self.request_id = client_id
        if self.content_length > _MAX_BODY:
            raise _Refused("request body too large")

    def _dispatch(self, body: bytes) -> None:
        server = self.server
        url = urlsplit(self.target)
        params: dict = dict(parse_qsl(url.query))
        if body:
            try:
                decoded = json.loads(body)
            except ValueError:  # JSONDecodeError, UnicodeDecodeError
                raise _Refused("request body is not valid JSON") from None
            if not isinstance(decoded, dict):
                raise _Refused("request body must be a JSON object")
            params.update(decoded)
        self.span = Trace.root(server.spans, "serve", self.request_id).span(
            "http.request", method=self.method, path=url.path
        )
        self.request_span = self.span.__enter__()
        routed = server._route(
            self.method, url.path, params, self.request_span
        )
        if isinstance(routed, _EngineWork):
            self.where = "executor"
            asyncio.get_running_loop().run_in_executor(
                server._executor, _never_raise, routed.work
            ).add_done_callback(partial(self._engine_done, routed.done))
        else:
            self._routed(*routed)

    def _engine_done(self, done, future: asyncio.Future) -> None:
        if future.cancelled():  # queued when stop() closed the connection
            return
        result, error = future.result()
        try:
            if error is not None:
                raise error
            self._routed(*done(result))
        except Exception as exc:
            self._respond(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _routed(self, status: int, payload: dict) -> None:
        """The route returned (it did not raise): its span says how."""
        self.request_span.attrs["status"] = status
        self._respond(status, payload)

    def _respond(self, status: int, payload: dict) -> None:
        """Record and write the one response, then close."""
        if self.answered:
            return
        self.reading = False
        self.answered = True
        self._unwatch()
        server = self.server
        if self.span is not None:
            self.span.__exit__(None, None, None)
        server._record_http(status, payload, self.started, self.where)
        body = json.dumps(payload).encode("utf-8")
        self.out = memoryview(
            (
                f"HTTP/1.1 {status} {_REASONS[status]}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"x-request-id: {self.request_id}\r\n"
                "Connection: close\r\n"
                "\r\n"
            ).encode("ascii")
            + body
        )
        self.writable()
