"""Serving verbs: ``python -m repro.serve {query,reliability,api}``.

::

    # one-shot performance query against a campaign directory
    python -m repro.serve query runs/c1 --algorithm nhop --rate 0.01

    # allow the bounded-simulation fallback tier
    python -m repro.serve query runs/c1 --algorithm nhop --rate 0.08 \
        --simulate

    # Monte-Carlo mesh reliability (no campaign needed)
    python -m repro.serve reliability --width 10 --failure-rate 0.05 \
        --trials 2000 --workers 4

    # long-running JSON-over-HTTP API
    python -m repro.serve api runs/c1 --port 8707

``query`` exits 0 with an answer, 3 when no tier can serve the query
(printing the per-tier refusals), 2 on bad input — ``query`` and ``api``
alike refuse a missing or damaged campaign directory with ``error:
<file>: <reason>``.  ``query
--trace-out FILE`` records the tier-cascade trace spans (including any
``engine.run`` fallback span) to a span JSONL readable by
``python -m repro.obs spans``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.campaigns.cli import open_campaign
from repro.cli import Verb, positive_count, refusing, run
from repro.routing.registry import ALGORITHM_NAMES

__all__ = ["main"]


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.serve.resolver import Query, Resolver, UnresolvedQueryError

    db = open_campaign(args.root)
    resolver = Resolver(db, simulate=args.simulate)
    with refusing():
        q = Query(
            algorithm=args.algorithm,
            rate=args.rate,
            metric=args.metric,
            n_faults=args.n_faults,
        )
    trace = recorder = None
    if args.trace_out is not None:
        from repro.obs.spans import SpanRecorder, Trace, trace_id_from

        recorder = SpanRecorder()
        trace = Trace(
            recorder, trace_id_from("serve-cli", q.to_dict())
        )
    try:
        with _query_span(trace, q) as child:
            answer = resolver.resolve(q, trace=child)
    except UnresolvedQueryError as exc:
        _write_trace(args, recorder)
        print(f"unresolved: {exc}", file=sys.stderr)
        return 3
    _write_trace(args, recorder)
    if args.json:
        print(json.dumps(
            {"query": q.to_dict(), "answer": answer.to_dict()}, indent=2
        ))
        return 0
    ci = "ci=n/a" if answer.to_dict()["ci"] is None else f"ci=±{answer.ci:.4g}"
    print(
        f"{q.metric} {answer.value:.4g} {ci} "
        f"[tier={answer.tier} n={answer.n_samples} "
        f"engine=v{answer.engine_version}]"
    )
    return 0


def _query_span(trace, q):
    """Root ``serve.query`` span around resolution, or a no-op scope."""
    from contextlib import nullcontext

    if trace is None:
        return nullcontext()
    return trace.span(
        "serve.query", algorithm=q.algorithm, rate=q.rate, metric=q.metric
    )


def _write_trace(args: argparse.Namespace, recorder) -> None:
    if recorder is None:
        return
    from repro.obs.spans import write_spans_jsonl

    count = write_spans_jsonl(args.trace_out, recorder.spans)
    print(f"[trace: {count} spans -> {args.trace_out}]", file=sys.stderr)


def _cmd_reliability(args: argparse.Namespace) -> int:
    from repro.serve.reliability import estimate

    with refusing():  # a failure rate, trial count or mesh out of range
        est = estimate(
            args.width,
            height=args.height,
            failure_rate=args.failure_rate,
            trials=args.trials,
            seed=args.seed,
            workers=args.workers,
        )
    if args.json:
        print(json.dumps(est.to_dict(), indent=2))
        return 0
    print(
        f"{est.width}x{est.height} mesh @ failure_rate={est.failure_rate:g}: "
        f"P(connected)={est.p_connected:.4f} "
        f"[{est.ci_low:.4f}, {est.ci_high:.4f}] "
        f"routable={est.routable_fraction:.4f} "
        f"(trials={est.trials} seed={est.seed})"
    )
    return 0


def _cmd_api(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.serve.api import QueryServer

    db = open_campaign(args.root)
    server = QueryServer(
        db, host=args.host, port=args.port, simulate=args.simulate
    )

    async def _run() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        serving = loop.create_task(server.serve_forever())
        # After start(): the pool's workers must not inherit the handler.
        loop.add_signal_handler(signal.SIGTERM, serving.cancel)
        print(
            f"serving campaign {db.spec.name!r} on "
            f"http://{server.host}:{server.port}",
            file=sys.stderr,
        )
        await serving  # cancelled, it stops the server first

    try:
        asyncio.run(_run())
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass  # SIGINT or SIGTERM: the server has stopped, its pool too
    return 0


def _query_flags(parser: argparse.ArgumentParser) -> None:
    add = parser.add_argument
    add("root", type=Path, help="campaign directory")
    add("--algorithm", required=True, choices=ALGORITHM_NAMES)
    add("--rate", type=float, required=True,
        help="injection rate (messages/node/cycle)")
    add("--metric", default="latency", help="metric name (default: latency)")
    add("--n-faults", type=int, default=0,
        help="faulty-router count (default: 0)")
    add("--simulate", action="store_true",
        help="enable the bounded-simulation fallback tier")
    add("--json", action="store_true", help="machine-readable answer")
    add("--trace-out", type=Path, default=None,
        help="write the tier-cascade trace spans to this JSONL (render "
        "with `python -m repro.obs spans FILE`)")


def _reliability_flags(parser: argparse.ArgumentParser) -> None:
    add = parser.add_argument
    add("--width", type=int, required=True)
    add("--height", type=int, default=None)
    add("--failure-rate", type=float, required=True,
        help="independent per-router failure probability")
    add("--trials", type=int, default=1000)
    add("--seed", type=int, default=2007)
    add("--workers", type=positive_count, default=1,
        help="process-pool fanout (result is identical for any worker "
        "count)")
    add("--json", action="store_true", help="machine-readable estimate")


def _api_flags(parser: argparse.ArgumentParser) -> None:
    add = parser.add_argument
    add("root", type=Path, help="campaign directory")
    add("--host", default="127.0.0.1")
    add("--port", type=int, default=8707)
    add("--simulate", action="store_true",
        help="enable the bounded-simulation fallback tier")


VERBS: tuple[Verb, ...] = (
    Verb("query", "Answer one performance query from the tier cascade.",
         _query_flags, _cmd_query),
    Verb("reliability", "Monte-Carlo connectivity/routability vs router "
         "failures.", _reliability_flags, _cmd_reliability),
    Verb("api", "Serve /query and /reliability over HTTP.",
         _api_flags, _cmd_api),
)


def main(argv: list[str] | None = None) -> int:
    return run("repro-serve", VERBS, argv)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
