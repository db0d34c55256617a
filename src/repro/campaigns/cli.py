"""Campaign verbs: ``python -m repro.campaigns {plan,run,status,query}``.

::

    # declare a campaign (spec JSON) and see what is missing
    python -m repro.campaigns plan runs/c1 --spec spec.json

    # execute the missing cells (pooled over every usable CPU)
    python -m repro.campaigns run runs/c1 --telemetry

    # per-cell progress + linear ETA from the manifest
    python -m repro.campaigns status runs/c1

    # dense labeled arrays over the declared space
    python -m repro.campaigns query runs/c1 --csv results.csv

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
from repro.cli import Refused, Verb, positive_count, refusing, run

__all__ = ["main", "open_campaign"]


def open_campaign(root: Path, store: Path | None = None) -> CampaignDB:
    """Reopen the campaign at *root*; a directory that holds none, a
    damaged ``campaign.json`` or a recorded store that is gone is
    refused as ``error: <file>: <reason>``."""
    with refusing():
        return CampaignDB.open(root, store=store)


def _load_db(args: argparse.Namespace) -> CampaignDB:
    """Open (or, with ``--spec``, create and save) the campaign; a spec
    file that cannot be read or validated is refused naming the file,
    a directory the campaign cannot be written to as it stands."""
    if args.spec is None:
        return open_campaign(args.root, args.store)
    with refusing():
        with refuse_malformed(args.spec):
            spec = CampaignSpec.from_dict(json.loads(args.spec.read_text()))
        db = CampaignDB(spec, args.root, store=args.store)
        db.save()
    return db


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
    except MissingCellsError as exc:
        raise Refused(str(exc)) from exc
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


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("root", type=Path, help="campaign directory")
    parser.add_argument(
        "--spec", type=Path, default=None, metavar="SPEC.json",
        help="bind this campaign-spec payload to the directory first",
    )
    parser.add_argument(
        "--store", type=Path, default=None, metavar="DIR",
        help="result store override (default: <root>/store)",
    )


def _run_flags(parser: argparse.ArgumentParser) -> None:
    add = parser.add_argument
    add("--workers", type=positive_count, default=None,
        help="pool size (default: the usable CPUs; 1 runs in process)")
    add("--telemetry", action="store_true",
        help="collect and merge telemetry registries")
    add("--quiet", action="store_true",
        help="suppress per-cell progress on stderr")


def _query_flags(parser: argparse.ArgumentParser) -> None:
    from repro.campaigns.query import metric_names

    add = parser.add_argument
    add("--metrics", nargs="+", default=None, choices=metric_names(),
        metavar="METRIC", help="metric names (default: latency throughput "
        "simulated_cycles; any of " + ", ".join(metric_names()) + ")")
    add("--csv", type=Path, default=None, help="write long-format CSV here")
    add("--json", dest="out_json", type=Path, default=None,
        help="write the labeled array as JSON here")
    add("--reduce", action="store_true",
        help="print mean ± 95%% CI over repeats as JSON")
    add("--allow-missing", action="store_true",
        help="leave NaN holes instead of failing")


def _verb(name: str, help: str, cmd, flags) -> Verb:
    """A row whose *cmd* runs on the campaign its root names."""

    def add_arguments(parser: argparse.ArgumentParser) -> None:
        _common_flags(parser)
        flags(parser)

    return Verb(name, help, add_arguments,
                lambda args: cmd(args, _load_db(args)))


VERBS: tuple[Verb, ...] = (
    _verb("plan", "Diff the declared space against the store.", _cmd_plan,
          lambda parser: parser.add_argument(
              "--json", action="store_true", help="machine-readable plan")),
    _verb("run", "Execute the missing cells.", _cmd_run, _run_flags),
    _verb("status", "Per-group progress and linear ETA.", _cmd_status,
          lambda parser: parser.add_argument(
              "--json", action="store_true", help="machine-readable status")),
    _verb("query", "Dense labeled result arrays (CSV/JSON).", _cmd_query,
          _query_flags),
)


def main(argv: list[str] | None = None) -> int:
    return run("repro-campaigns", VERBS, argv)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
