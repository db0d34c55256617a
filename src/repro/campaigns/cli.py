"""Campaign verbs: ``python -m repro.campaigns {plan,run,status,query,merge}``.

::

    # declare a campaign (spec JSON) and see what is missing
    python -m repro.campaigns plan runs/c1 --spec spec.json

    # execute the missing cells (3 shards, merged back automatically)
    python -m repro.campaigns run runs/c1 --shards 3 --telemetry

    # per-cell progress + linear ETA from the manifest
    python -m repro.campaigns status runs/c1

    # dense labeled arrays over the declared space
    python -m repro.campaigns query runs/c1 --csv results.csv

    # fold shard directories shipped from other hosts into the store
    python -m repro.campaigns merge runs/c1 runs/c1/shards/shard-*

The spec file is a ``campaign-spec`` payload
(:meth:`repro.campaigns.CampaignSpec.to_dict`); ``plan --spec`` binds
it to the campaign directory, after which every verb reopens the
directory's ``campaign.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.campaigns.db import CampaignDB, refuse_malformed
from repro.campaigns.spec import CampaignSpec

__all__ = ["main"]


def _load_db(args: argparse.Namespace) -> CampaignDB:
    """Open (or, with ``--spec``, create and save) the campaign.

    A spec file or ``campaign.json`` that does not parse or validate is
    a :class:`ValueError` naming the file (``main`` turns it into
    ``error: <file>: <reason>``, exit 2).
    """
    if args.spec is None:
        return CampaignDB.open(args.root, store=args.store)
    with refuse_malformed(args.spec):
        spec = CampaignSpec.from_dict(json.loads(args.spec.read_text()))
    db = CampaignDB(spec, args.root, store=args.store)
    db.save()
    return db


def _shard_count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError("need at least one shard")
    return count


def _cmd_plan(args: argparse.Namespace, db: CampaignDB) -> int:
    plan = db.plan()
    if args.json:
        print(json.dumps(plan.to_dict(), indent=2))
        return 0
    print(
        f"campaign {db.spec.name!r}: {plan.done}/{plan.total} cells stored, "
        f"{len(plan.missing)} missing"
    )
    for cell in plan.missing:
        print(f"  {cell['key']}  {cell['id']}")
    return 0


def _cmd_run(args: argparse.Namespace, db: CampaignDB) -> int:
    from repro.campaigns.shard import run_campaign

    progress = None
    if not args.quiet:
        progress = lambda msg: print(msg, file=sys.stderr)  # noqa: E731
    summary = run_campaign(
        db,
        shards=args.shards,
        workers=args.workers,
        telemetry=args.telemetry,
        progress=progress,
    )
    print(json.dumps(summary, indent=2))
    return 0


def _bar(done: int, total: int, width: int = 20) -> str:
    filled = int(width * done / total) if total else width
    return "#" * filled + "." * (width - filled)


def _cmd_status(args: argparse.Namespace, db: CampaignDB) -> int:
    status = db.status()
    if args.json:
        print(json.dumps(status, indent=2))
        return 0
    pct = 100.0 * status["done"] / status["total"] if status["total"] else 0.0
    print(
        f"campaign {status['name']!r} — {status['done']}/{status['total']} "
        f"cells ({pct:.1f}%), {status['missing']} missing"
    )
    print(f"store: {status['store']} (engine v{status['engine_version']})")
    for name, g in status["groups"].items():
        print(
            f"  {name:<20} [{_bar(g['done'], g['total'])}] "
            f"{g['done']}/{g['total']}"
        )
    if status["eta_seconds"] is not None:
        print(
            f"ETA: ~{status['eta_seconds']:.1f}s "
            f"({status['recent_cell_seconds']:.2f}s/cell over "
            f"{status['missing']} remaining)"
        )
    elif status["missing"]:
        print("ETA: n/a (no completed cells in the latest manifest segment)")
    else:
        print("complete")
    return 0


def _cmd_query(args: argparse.Namespace, db: CampaignDB) -> int:
    from repro.campaigns.query import METRICS, MissingCellsError, query

    metrics = tuple(args.metrics) if args.metrics else METRICS
    try:
        array = query(db, metrics=metrics, allow_missing=args.allow_missing)
    except (MissingCellsError, ValueError) as exc:  # gaps, unknown metrics
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wrote = False
    if args.csv is not None:
        array.to_csv(args.csv)
        print(f"wrote {args.csv}")
        wrote = True
    if args.out_json is not None:
        array.to_json(args.out_json)
        print(f"wrote {args.out_json}")
        wrote = True
    if args.reduce:
        print(json.dumps(
            {m: array.reduce(m) for m in metrics}, indent=2
        ))
    elif not wrote:
        print(array.to_csv(), end="")
    return 0


def _cmd_merge(args: argparse.Namespace, db: CampaignDB) -> int:
    from repro.campaigns.shard import merge_shards

    registry = None
    if args.telemetry:
        from repro.obs.telemetry import TelemetryRegistry

        registry = TelemetryRegistry()
    try:
        summary = merge_shards(db, args.shard_roots, registry=registry)
    except ValueError as exc:  # a root that is not a shard directory
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary, indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("root", type=Path, help="campaign directory")
    common.add_argument(
        "--spec", type=Path, default=None, metavar="SPEC.json",
        help="bind this campaign-spec payload to the directory first",
    )
    common.add_argument(
        "--store", type=Path, default=None, metavar="DIR",
        help="result store override (default: <root>/store)",
    )
    parser = argparse.ArgumentParser(
        prog="repro-campaigns",
        description="Persistent, shardable simulation campaigns.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_plan = sub.add_parser(
        "plan", parents=[common],
        help="diff the declared space against the store",
    )
    p_plan.add_argument("--json", action="store_true",
                        help="machine-readable plan")
    p_plan.set_defaults(fn=_cmd_plan)

    p_run = sub.add_parser(
        "run", parents=[common], help="execute the missing cells"
    )
    p_run.add_argument("--shards", type=_shard_count, default=1,
                       help="shard count (default: 1, sequential)")
    p_run.add_argument("--workers", type=int, default=None,
                       help="pool size (default: one per shard)")
    p_run.add_argument("--telemetry", action="store_true",
                       help="collect and merge telemetry registries")
    p_run.add_argument("--quiet", action="store_true",
                       help="suppress per-cell progress on stderr")
    p_run.set_defaults(fn=_cmd_run)

    p_status = sub.add_parser(
        "status", parents=[common],
        help="per-group progress and linear ETA",
    )
    p_status.add_argument("--json", action="store_true",
                          help="machine-readable status")
    p_status.set_defaults(fn=_cmd_status)

    p_query = sub.add_parser(
        "query", parents=[common],
        help="dense labeled result arrays (CSV/JSON)",
    )
    p_query.add_argument("--metrics", nargs="+", default=None,
                         help="metric names (default: latency throughput "
                              "simulated_cycles)")
    p_query.add_argument("--csv", type=Path, default=None,
                         help="write long-format CSV here")
    p_query.add_argument("--json", dest="out_json", type=Path, default=None,
                         help="write the labeled array as JSON here")
    p_query.add_argument("--reduce", action="store_true",
                         help="print mean ± 95%% CI over repeats as JSON")
    p_query.add_argument("--allow-missing", action="store_true",
                         help="leave NaN holes instead of failing")
    p_query.set_defaults(fn=_cmd_query)

    p_merge = sub.add_parser(
        "merge", parents=[common],
        help="fold shard directories into the campaign store",
    )
    p_merge.add_argument("shard_roots", nargs="+", type=Path,
                         help="shard directories (each with store/ inside)")
    p_merge.add_argument("--telemetry", action="store_true",
                         help="merge shard telemetry.json snapshots too")
    p_merge.set_defaults(fn=_cmd_merge)

    args = parser.parse_args(argv)
    try:
        db = _load_db(args)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.fn(args, db)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream (`plan … | head`) closed the pipe: redirect stdout
        # to devnull so the interpreter's exit flush stays quiet.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
