"""Store management verbs, reachable as ``python -m repro.experiments store``.

::

    python -m repro.experiments store ls
    python -m repro.experiments store stats
    python -m repro.experiments store gc --engine-version 1
    python -m repro.experiments store export results/store-export.jsonl

All verbs take ``--store DIR`` (default: ``$REPRO_STORE_DIR`` or
``.repro-store``).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.cli import Verb, refusing, run
from repro.simulator.engine import ENGINE_VERSION
from repro.store.backend import ResultStore, default_store_dir

__all__ = ["main", "open_store"]


def open_store(root: Path | None) -> ResultStore:
    """The store at *root* (``None``: the default location); a path no
    store can be opened at is refused."""
    with refusing():
        return ResultStore(root if root is not None else default_store_dir())


def _cmd_ls(store: ResultStore, args: argparse.Namespace) -> int:
    rows = list(store.rows())
    shown = rows if args.limit <= 0 else rows[: args.limit]
    for row in shown:
        payload = row.get("payload", {})
        cfg = payload.get("config", {})
        print(
            f"{row['key'][:16]}  v{row.get('engine_version')}  "
            f"{row.get('algorithm') or '?':<24}  "
            f"rate={cfg.get('injection_rate', float('nan')):.6g}  "
            f"seed={cfg.get('seed', '?')}"
        )
    if len(rows) > len(shown):
        print(f"... {len(rows) - len(shown)} more (use --limit 0 for all)")
    print(f"{len(rows)} rows in {store.root}")
    return 0


def _cmd_stats(store: ResultStore, args: argparse.Namespace) -> int:
    print(json.dumps(store.stats(), indent=2))
    return 0


def _cmd_gc(store: ResultStore, args: argparse.Namespace) -> int:
    evicted = store.gc(engine_version=args.engine_version)
    print(
        f"evicted {evicted} rows not at engine version "
        f"{args.engine_version}; {len(store)} rows remain"
    )
    return 0


def _cmd_export(store: ResultStore, args: argparse.Namespace) -> int:
    n = store.export(args.dest)
    print(f"exported {n} rows to {args.dest}")
    return 0


def _verb(name: str, help: str, cmd, flags=None) -> Verb:
    """A row whose *cmd* runs on the store ``--store`` names."""

    def add_arguments(parser: argparse.ArgumentParser) -> None:
        if flags is not None:
            flags(parser)
        parser.add_argument(
            "--store", type=Path, default=None, metavar="DIR",
            help="store directory (default: $REPRO_STORE_DIR or .repro-store)",
        )

    return Verb(name, help, add_arguments,
                lambda args: cmd(open_store(args.store), args))


VERBS: tuple[Verb, ...] = (
    _verb("ls", "List stored rows.", _cmd_ls, lambda parser:
          parser.add_argument("--limit", type=int, default=50,
                              help="max rows to print (0 = all)")),
    _verb("stats", "Row counts and file size as JSON.", _cmd_stats),
    _verb("gc", "Evict rows from other engine versions.", _cmd_gc,
          lambda parser: parser.add_argument(
              "--engine-version", type=int, default=ENGINE_VERSION,
              help=f"engine version to keep (default: current, "
              f"{ENGINE_VERSION})")),
    _verb("export", "Write deduplicated canonical JSONL.", _cmd_export,
          lambda parser: parser.add_argument(
              "dest", type=Path, help="output .jsonl path")),
)


def main(argv: list[str] | None = None) -> int:
    return run("repro-experiments store", VERBS, argv)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
