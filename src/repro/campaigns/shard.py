"""Campaign execution: the plan's missing cells, pooled or in process.

:func:`run_campaign` runs a :class:`~repro.campaigns.db.CampaignDB`
plan's missing cells through the figure drivers' loop,
:func:`~repro.experiments.parallel.run_cells`: with ``workers > 1`` one
pool job per cell, its new rows held privately and folded into the
campaign store in plan order as it comes home; with ``workers=1`` the
same cells in this process, the spec's fault cases drawn once — the
reference a pool of any size reproduces exactly: ``store/rows.jsonl``
byte for byte (seeds and fault cases derive from the spec, and only
this process writes the store), the merged telemetry's
:meth:`~repro.obs.telemetry.TelemetryRegistry.merge_digest` (snapshots
sum value-exactly) and the :func:`~repro.obs.spans.spans_merge_digest`
of the cells' spans under the campaign's deterministic trace id (span
ids are position-derived).  Each pooled cell's manifest ``finish``
names its worker's pid.  Rows a SIGKILLed run left held are folded in
by the next run before it plans.

:func:`partition_cells`, :func:`run_shard` and :func:`merge_shards`
are kept for the benchmark harness alone: shard directories of rows and
cell timings, folded into the campaign store and manifest.
"""

from __future__ import annotations

import os
from contextlib import AbstractContextManager, nullcontext
from functools import partial
from pathlib import Path

from repro.campaigns.db import CampaignDB, store_digest
from repro.campaigns.query import extract_metric
from repro.campaigns.spec import (
    CampaignSpec,
    cell_id,
    draw_cases,
    execute_cell,
)
from repro.experiments.parallel import (
    Cell,
    run_cells,
    worker_count,
    worker_evaluator,
)
from repro.obs.manifest import ManifestWriter, read_manifest
from repro.obs.spans import Trace, spans_merge_digest, trace_id_from
from repro.store.backend import ResultStore
from repro.store.cache import fold_orphans

__all__ = [
    "merge_shards",
    "partition_cells",
    "run_campaign",
    "run_shard",
]


# Only bench/workloads.py uses this, until the benchmark drops shards.
def partition_cells(cells: list[dict], n_shards: int) -> list[list[dict]]:
    """Round-robin split of *cells* into *n_shards* lists.

    Deterministic in the input order (which is plan order, which is
    spec order): shard ``i`` owns ``cells[i::n_shards]``.  Every shard
    list is returned, including empty ones, so shard indices are stable
    regardless of how much work is left.
    """
    if n_shards < 1:
        raise ValueError("need at least one shard")
    return [cells[i::n_shards] for i in range(n_shards)]


def _cell_run(evaluator, cases: dict, key: dict) -> tuple[None, int]:
    result = execute_cell(evaluator, cases, key)
    return None, int(extract_metric(result, "simulated_cycles"))


def _campaign_run(evaluator, spec: CampaignSpec):
    """A campaign's setup: the spec's fault cases drawn on *evaluator*,
    its ``run(coord)``."""
    return partial(_cell_run, evaluator, draw_cases(evaluator, spec))


def _execute(
    spec: CampaignSpec,
    coords: list[dict],
    store: ResultStore,
    events_path: Path,
    *,
    kind: str,
    with_telemetry: bool = False,
    trace_id: str | None = None,
    workers: int = 1,
    progress=None,
    **meta,
):
    """Run *coords* against *store*, logging one run to *events_path*.

    Behind a campaign run and a shard alike: every cell through
    :func:`~repro.experiments.parallel.run_cells`, in this process or,
    with ``workers > 1``, in a pool.  Under *trace_id* the cells' spans
    hang off a ``campaign`` root span this run opens; without one
    nothing is traced.  Returns ``(registry, cells, spans)``, each cell
    as ``id/seconds/cycles``.
    """
    registry, evaluator = worker_evaluator(
        spec.config, spec.seed, store, with_telemetry
    )

    def note(cid: str) -> None:
        if progress:
            progress(f"[{spec.name}] {cid}")

    with ManifestWriter(events_path) as events:
        events.run_start(
            spec.name, kind=kind, workers=workers, store=str(store.root),
            pending=len(coords), **meta,
        )
        scope: AbstractContextManager[Trace | None] = nullcontext()
        if trace_id is not None:
            scope = Trace(events, trace_id).span(
                "campaign", name=spec.name, workers=workers
            )
        with scope as parent:
            cells = run_cells(
                [Cell(cell_id(c), (c,), key=cell_id(c)) for c in coords],
                workers, setup=(_campaign_run, spec), evaluator=evaluator,
                config=spec.config, seed=spec.seed, store=store,
                manifest=events, trace=parent, registry=registry,
                progress=note,
            )
        events.run_finish(telemetry=registry)
    cells = [{k: cell[k] for k in ("id", "seconds", "cycles")} for cell in cells]
    return registry, cells, events.spans


# Only bench/workloads.py uses this, until the benchmark drops shards.
def run_shard(
    spec: CampaignSpec,
    coords: list[dict],
    shard_root: Path | str,
) -> dict:
    """Execute one shard's cells in this process, untraced, against its
    own store and manifest.

    Writes under *shard_root*::

        store/          shard-local ResultStore (all fresh puts)
        events.jsonl    the shard's own manifest segment

    The shard's ``run-start`` records this process's pid, the
    ``worker`` the merge attributes its cells to.  Returns a JSON-safe
    summary: shard root, per-cell timings and counts.
    """
    shard_root = Path(shard_root)
    shard_root.mkdir(parents=True, exist_ok=True)
    store = ResultStore(shard_root / "store")
    _, cells, _ = _execute(
        spec, coords, store, shard_root / "events.jsonl",
        kind="campaign-shard", pid=os.getpid(),
    )
    return {
        "root": str(shard_root),
        "cells": cells,
        "executed": len(cells),
        "store_rows": len(store),
    }


# Only bench/workloads.py uses this, until the benchmark drops shards.
def merge_shards(
    db: CampaignDB,
    shard_roots: list[Path | str],
) -> dict:
    """Fold shard stores and cell timings back into the campaign.

    Rows are folded in shard order, and each shard's cell ``finish``
    events are replayed into the campaign manifest with the pid its
    shard recorded.  Returns a summary with the merged row and cell
    counts and the campaign :func:`~repro.campaigns.db.store_digest`,
    the value a proof-of-equality check compares against a sequential
    run.

    A root without a ``store/`` directory is not a shard: the merge
    raises :class:`ValueError` before touching the campaign (opening a
    :class:`~repro.store.ResultStore` there would create one).
    """
    shard_roots = [Path(p) for p in shard_roots]
    for shard_root in shard_roots:
        if not (shard_root / "store").is_dir():
            raise ValueError(f"{shard_root}: not a shard directory")
    merged_rows = 0
    cell_events: list[tuple[dict, int]] = []
    for shard_root in shard_roots:
        shard_store = ResultStore(shard_root / "store")
        for row in shard_store.rows():
            merged_rows += db.store.put(
                row["key"],
                row["payload"],
                engine_version=row["engine_version"],
                algorithm=row.get("algorithm", ""),
            )
        events_path = shard_root / "events.jsonl"
        if events_path.exists():
            pid = 0
            for ev in read_manifest(events_path):
                if ev.get("event") == "run-start":
                    pid = ev.get("meta", {}).get("pid", 0)
                elif ev.get("event") == "cell" and ev.get("phase") == "finish":
                    cell_events.append((ev, pid))
    with ManifestWriter(db.events_path) as events:
        events.run_start(
            db.spec.name,
            kind="campaign-merge",
            workers=len(shard_roots),
            store=str(db.store.root),
            shards=[str(p) for p in shard_roots],
        )
        for ev, pid in cell_events:
            events.cell_finish(
                ev["id"], seconds=ev["seconds"], worker=pid,
                cycles=ev["cycles"],
            )
        events.run_finish()
    return {
        "shards": len(shard_roots),
        "merged_rows": merged_rows,
        "merged_cells": len(cell_events),
        "store_digest": store_digest(db.store),
    }


def run_campaign(
    db: CampaignDB,
    *,
    workers: int | None = None,
    shards: int | None = None,
    telemetry: bool = False,
    progress=None,
) -> dict:
    """Execute the plan's missing cells into the campaign store.

    The cells run in a pool of *workers* (default: the CPUs this
    process may use; *shards*, the benchmark harness's spelling, stands
    in when only it is given; below 1 is refused), one job per cell, or
    with ``workers=1`` in this process.  Rows a killed run left held are
    folded in first.
    Returns a JSON-safe summary whose store, span and (with *telemetry*)
    telemetry digests are the same for any worker count.
    """
    workers = worker_count(shards if workers is None else workers)
    fold_orphans(db.store)
    missing = db.missing_coords()
    planned = len(db.cells())
    already_done = planned - len(missing)
    db.save()
    workers = max(1, min(workers, len(missing)))
    registry, _, spans = _execute(
        db.spec, missing, db.store, db.events_path, kind="campaign",
        with_telemetry=telemetry,
        trace_id=trace_id_from("campaign", db.spec.name),
        workers=workers, progress=progress,
        resumed=already_done,
    )
    return {
        "name": db.spec.name,
        "planned": planned,
        "already_done": already_done,
        "executed": len(missing),
        "workers": workers,
        "telemetry_digest": (
            registry.merge_digest() if registry is not None else None
        ),
        "store_digest": store_digest(db.store),
        "span_digest": spans_merge_digest(spans),
    }
