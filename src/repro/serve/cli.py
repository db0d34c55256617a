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

from repro.campaigns.db import CampaignDB

__all__ = ["main"]


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.serve.resolver import Query, Resolver, UnresolvedQueryError

    db = CampaignDB.open(args.root)
    resolver = Resolver(db, simulate=args.simulate)
    try:
        q = Query(
            algorithm=args.algorithm,
            rate=args.rate,
            metric=args.metric,
            n_faults=args.n_faults,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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

    try:
        est = estimate(
            args.width,
            height=args.height,
            failure_rate=args.failure_rate,
            trials=args.trials,
            seed=args.seed,
            workers=args.workers,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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

    from repro.serve.api import QueryServer

    db = CampaignDB.open(args.root)
    server = QueryServer(
        db, host=args.host, port=args.port, simulate=args.simulate
    )

    async def _run() -> None:
        await server.start()
        print(
            f"serving campaign {db.spec.name!r} on "
            f"http://{server.host}:{server.port}",
            file=sys.stderr,
        )
        await server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Tiered performance answers over campaign grids.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_query = sub.add_parser(
        "query", help="answer one performance query from the tier cascade"
    )
    p_query.add_argument("root", type=Path, help="campaign directory")
    p_query.add_argument("--algorithm", required=True)
    p_query.add_argument("--rate", type=float, required=True,
                         help="injection rate (messages/node/cycle)")
    p_query.add_argument("--metric", default="latency",
                         help="metric name (default: latency)")
    p_query.add_argument("--n-faults", type=int, default=0,
                         help="faulty-router count (default: 0)")
    p_query.add_argument("--simulate", action="store_true",
                         help="enable the bounded-simulation fallback tier")
    p_query.add_argument("--json", action="store_true",
                         help="machine-readable answer")
    p_query.add_argument("--trace-out", type=Path, default=None,
                         help="write the tier-cascade trace spans to this "
                              "JSONL (render with `python -m repro.obs "
                              "spans FILE`)")
    p_query.set_defaults(fn=_cmd_query)

    p_rel = sub.add_parser(
        "reliability",
        help="Monte-Carlo connectivity/routability vs router failures",
    )
    p_rel.add_argument("--width", type=int, required=True)
    p_rel.add_argument("--height", type=int, default=None)
    p_rel.add_argument("--failure-rate", type=float, required=True,
                       help="independent per-router failure probability")
    p_rel.add_argument("--trials", type=int, default=1000)
    p_rel.add_argument("--seed", type=int, default=2007)
    p_rel.add_argument("--workers", type=int, default=1,
                       help="process-pool fanout (result is identical "
                            "for any worker count)")
    p_rel.add_argument("--json", action="store_true",
                       help="machine-readable estimate")
    p_rel.set_defaults(fn=_cmd_reliability)

    p_api = sub.add_parser(
        "api", help="serve /query and /reliability over HTTP"
    )
    p_api.add_argument("root", type=Path, help="campaign directory")
    p_api.add_argument("--host", default="127.0.0.1")
    p_api.add_argument("--port", type=int, default=8707)
    p_api.add_argument("--simulate", action="store_true",
                       help="enable the bounded-simulation fallback tier")
    p_api.set_defaults(fn=_cmd_api)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (FileNotFoundError, ValueError) as exc:  # e.g. a bad campaign dir
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
