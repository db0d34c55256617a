"""Campaign execution: the plan's missing cells, pooled or in process.

:func:`run_campaign` runs a :class:`~repro.campaigns.db.CampaignDB`
plan's missing cells through the figure drivers' executor,
:func:`~repro.experiments.parallel.pool_cells`: one pool job per cell,
its new rows held privately and folded into the campaign store in plan
order as it comes home.  ``workers=1`` runs the same cells in this
process — the reference a pool of any size reproduces exactly:
``store/rows.jsonl`` byte for byte (seeds and fault cases derive from
the spec, and only this process writes the store), the merged
telemetry's :meth:`~repro.obs.telemetry.TelemetryRegistry.merge_digest`
(snapshots sum value-exactly) and the
:func:`~repro.obs.spans.spans_merge_digest` of the cells' spans under
the campaign's deterministic trace id (span ids are position-derived).
Each pooled cell's manifest ``finish`` names its worker's pid.  Rows a
SIGKILLed run left held are folded in by the next run before it plans.

:func:`run_shard`, :func:`partition_cells` and :func:`merge_shards`
(self-contained shard directories replayed into the campaign) are kept
for the benchmark harness alone.
"""

from __future__ import annotations

import json
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
from repro.cli import usable_cpus
from repro.experiments.parallel import (
    Cell,
    pool_cells,
    timed_cell,
    worker_evaluator,
)
from repro.obs.manifest import ManifestWriter, read_manifest
from repro.obs.spans import (
    Trace,
    merge_spans,
    spans_from_manifest,
    spans_merge_digest,
    trace_id_from,
)
from repro.store.backend import ResultStore, atomic_write
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


def _campaign_body(evaluator, spec: CampaignSpec, coord: dict):
    """A pooled campaign cell's ``run``: the spec's fault cases redrawn
    on the worker's evaluator, bound to *coord*."""
    return partial(_cell_run, evaluator, draw_cases(evaluator, spec), coord)


def _execute(
    spec: CampaignSpec,
    coords: list[dict],
    store: ResultStore,
    events_path: Path,
    *,
    kind: str,
    with_telemetry: bool,
    trace_context: tuple[str, str | None] | None,
    workers: int = 1,
    progress=None,
    **meta,
):
    """Run *coords* against *store*, logging one run to *events_path*.

    Behind a campaign run and a shard alike: every cell through
    :func:`~repro.experiments.parallel.timed_cell`, in this process or,
    with ``workers > 1``, through
    :func:`~repro.experiments.parallel.pool_cells`.  *trace_context*
    places the cells: under ``(trace_id, root_id)`` a shard's cells hang
    off the campaign root the merge records; at ``(trace_id, None)`` this
    run opens the ``campaign`` root span itself.  Returns ``(registry,
    cells, spans)``, each cell as ``id/seconds/cycles``.
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
        trace = None
        if trace_context is not None:
            trace = Trace(events, *trace_context)
        scope: AbstractContextManager[Trace | None] = nullcontext(trace)
        if trace is not None and trace.span_id is None:
            scope = trace.span("campaign", name=spec.name, workers=workers)
        with scope as parent:
            if workers > 1:
                cells = pool_cells(
                    [Cell(cell_id(c), _campaign_body, (spec, c), key=cell_id(c))
                     for c in coords],
                    spec.config, spec.seed, workers, store=store,
                    manifest=events, trace=parent, registry=registry,
                    progress=note,
                )
            else:
                cases = draw_cases(evaluator, spec)
                cells = []
                for coord in coords:
                    cid = cell_id(coord)
                    cells.append(timed_cell(
                        cid, partial(_cell_run, evaluator, cases, coord),
                        evaluator, manifest=events, trace=parent, key=cid,
                    ))
                    note(cid)
        events.run_finish(telemetry=registry)
    cells = [{k: cell[k] for k in ("id", "seconds", "cycles")} for cell in cells]
    return registry, cells, events.spans


# Only bench/workloads.py uses this, until the benchmark drops shards.
def run_shard(
    spec: CampaignSpec,
    coords: list[dict],
    shard_root: Path | str,
    *,
    with_telemetry: bool = False,
    trace_context: tuple[str, str | None] | None = None,
) -> dict:
    """Execute one shard's cells against its own store/registry/manifest.

    Writes under *shard_root*::

        store/          shard-local ResultStore (all fresh puts)
        events.jsonl    the shard's own manifest segment
        telemetry.json  registry snapshot (when *with_telemetry*)

    *trace_context* is the campaign's ``(trace_id, root_span_id)``; when
    set, every cell's ``cell`` span lands in the shard manifest for the
    merge step to replay.  The shard's ``run-start`` records this
    process's pid, the ``worker`` the merge attributes its cells to.

    Returns a JSON-safe summary (shard root, per-cell timings, counts)
    — the contract a remote host would ship home alongside the
    directory itself.
    """
    shard_root = Path(shard_root)
    shard_root.mkdir(parents=True, exist_ok=True)
    store = ResultStore(shard_root / "store")
    registry, cells, _ = _execute(
        spec, coords, store, shard_root / "events.jsonl",
        kind="campaign-shard", with_telemetry=with_telemetry,
        trace_context=trace_context, pid=os.getpid(),
    )
    if registry is not None:
        atomic_write(
            shard_root / "telemetry.json", json.dumps(registry.snapshot())
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
    *,
    registry=None,
    spans=None,
) -> dict:
    """Fold shard stores/telemetry/manifests back into the campaign.

    *registry* (a :class:`~repro.obs.telemetry.TelemetryRegistry`)
    receives every shard's ``telemetry.json`` snapshot, merged in shard
    order; pass ``None`` to skip telemetry.  Trace spans recorded in
    the shard manifests are re-merged (dedup by deterministic id) with
    any extra *spans* from the caller — typically the campaign root
    span — and replayed into the campaign manifest.  Returns a summary
    with the merged row count, the campaign
    :func:`~repro.campaigns.db.store_digest`, the merged telemetry
    digest, and the merged span digest — the values a proof-of-equality
    check compares against a sequential run.

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
    shard_spans: list[dict] = []
    for shard_root in shard_roots:
        shard_store = ResultStore(shard_root / "store")
        for row in shard_store.rows():
            merged_rows += db.store.put(
                row["key"],
                row["payload"],
                engine_version=row["engine_version"],
                algorithm=row.get("algorithm", ""),
            )
        snapshot_path = shard_root / "telemetry.json"
        if registry is not None and snapshot_path.exists():
            registry.merge(json.loads(snapshot_path.read_text()))
        events_path = shard_root / "events.jsonl"
        if events_path.exists():
            shard_events = read_manifest(events_path)
            pid = 0
            for ev in shard_events:
                if ev.get("event") == "run-start":
                    pid = ev.get("meta", {}).get("pid", 0)
                elif ev.get("event") == "cell" and ev.get("phase") == "finish":
                    cell_events.append((ev, pid))
            shard_spans.extend(spans_from_manifest(shard_events))
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
        for span in merge_spans(shard_spans, spans or []):
            events.add(span)
        events.run_finish(telemetry=registry)
    return {
        "shards": len(shard_roots),
        "merged_rows": merged_rows,
        "merged_cells": len(cell_events),
        "store_digest": store_digest(db.store),
        "telemetry_digest": (
            registry.merge_digest() if registry is not None else None
        ),
        "span_digest": (
            spans_merge_digest(events.spans) if events.spans else None
        ),
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
    in when only it is given), one job per cell, or with ``workers=1``
    in this process.  Rows a killed run left held are folded in first.
    Returns a JSON-safe summary whose store, span and (with *telemetry*)
    telemetry digests are the same for any worker count.
    """
    fold_orphans(db.store)
    missing = db.missing_coords()
    planned = len(db.cells())
    already_done = planned - len(missing)
    db.save()
    workers = max(1, min(workers or shards or usable_cpus(), len(missing)))
    registry, _, spans = _execute(
        db.spec, missing, db.store, db.events_path, kind="campaign",
        with_telemetry=telemetry,
        trace_context=(trace_id_from("campaign", db.spec.name), None),
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
