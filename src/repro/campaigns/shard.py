"""Shard-and-merge execution of a campaign's missing cells.

The executor turns a :class:`~repro.campaigns.db.CampaignDB` plan into
work: the missing cells are partitioned **deterministically** across N
shards (round-robin in plan order, so shard membership is a pure
function of the plan), each shard runs against its *own*
:class:`~repro.store.ResultStore`, its own telemetry registry and its
own JSONL manifest — today as processes of an in-process pool, tomorrow
as N independent hosts shipping their shard directories home — and a
merge step folds everything back into the campaign:

* **results** — shard store rows are re-``put`` into the campaign
  store.  Rows are canonical JSON keyed by the canonical run key, and
  cell results do not depend on which shard ran them (seeds derive from
  the spec, fault cases are redrawn from the spec seed), so the merged
  store is *bit-identical* (see :func:`~repro.campaigns.db.
  store_digest`) to what a sequential run produces;
* **telemetry** — shard registry snapshots merge in shard order into
  one registry (:meth:`~repro.obs.telemetry.TelemetryRegistry.merge`
  sums counters/histograms/series value-exactly), so the merged
  :meth:`~repro.obs.telemetry.TelemetryRegistry.merge_digest` equals
  the sequential run's;
* **manifest** — per-cell timings from every shard manifest are
  replayed into one new segment of the campaign's ``events.jsonl``,
  each cell attributed to the pid its shard's ``run-start`` recorded;
* **spans** — every cell records a trace span under the campaign's
  deterministic trace id (``trace_id_from("campaign", spec.name)``),
  shipped home through the shard manifests and re-merged with
  :func:`~repro.obs.spans.merge_spans`.  Span ids are position-derived
  (cell id keys a direct child of the campaign root), so the merged
  :func:`~repro.obs.spans.spans_merge_digest` equals the sequential
  run's — a fourth proof-of-equality value.

That equality is the subsystem's proof obligation, exercised by the
shard-equality tests and summarized by :func:`merge_shards`'s return
value.
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
from repro.experiments.parallel import (
    parallel_map,
    timed_cell,
    worker_evaluator,
)
from repro.obs.manifest import ManifestWriter, read_manifest
from repro.obs.spans import (
    SpanRecorder,
    Trace,
    merge_spans,
    spans_from_manifest,
    spans_merge_digest,
    trace_id_from,
)
from repro.store.backend import ResultStore

__all__ = [
    "merge_shards",
    "partition_cells",
    "run_campaign",
    "run_shard",
]


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


def _execute(
    spec: CampaignSpec,
    coords: list[dict],
    store: ResultStore,
    events_path: Path,
    *,
    kind: str,
    with_telemetry: bool,
    trace_context: tuple[str, str | None] | None,
    progress=None,
    **meta,
):
    """Run *coords* against *store*, logging one run to *events_path*.

    The one executor behind a shard (own store, own manifest) and the
    sequential campaign (the campaign's store and manifest): a fresh
    evaluator and registry, every cell through :func:`~repro.
    experiments.parallel.timed_cell` (results go to *store*; only
    ``id/seconds/cycles`` are kept here), each cell's ``cell`` span,
    keyed by its id, written to the manifest as it closes.
    *trace_context* places the cells: under ``(trace_id, root_id)`` a
    shard's cells hang off the campaign root the merge records; at the
    root position ``(trace_id, None)`` this run is the whole campaign
    and opens the ``campaign`` root span itself.  Returns
    ``(registry, cells, spans)``.
    """
    registry, evaluator = worker_evaluator(
        spec.config, spec.seed, store, with_telemetry
    )
    cases = draw_cases(evaluator, spec)
    cells = []
    with ManifestWriter(events_path) as events:
        events.run_start(
            spec.name, kind=kind, store=str(store.root),
            pending=len(coords), **meta,
        )
        trace = None
        if trace_context is not None:
            trace = Trace(events, *trace_context)
        scope: AbstractContextManager[Trace | None] = nullcontext(trace)
        if trace is not None and trace.span_id is None:
            scope = trace.span("campaign", name=spec.name, shards=1)
        with scope as parent:
            for coord in coords:
                cid = cell_id(coord)
                cell = timed_cell(
                    cid, partial(_cell_run, evaluator, cases, coord),
                    evaluator, manifest=events, trace=parent, key=cid,
                )
                cells.append({k: cell[k] for k in ("id", "seconds", "cycles")})
                if progress:
                    progress(f"[{spec.name}] {cell['id']}")
        events.run_finish(telemetry=registry)
    return registry, cells, events.spans


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
        (shard_root / "telemetry.json").write_text(
            json.dumps(registry.snapshot())
        )
    return {
        "root": str(shard_root),
        "cells": cells,
        "executed": len(cells),
        "store_rows": len(store),
    }


def _shard_worker(
    args: tuple[dict, list[dict], str, bool, tuple | None]
) -> dict:
    """Picklable pool entry point around :func:`run_shard`."""
    spec_payload, coords, shard_root, with_telemetry, trace_context = args
    return run_shard(
        CampaignSpec.from_dict(spec_payload),
        coords,
        shard_root,
        with_telemetry=with_telemetry,
        trace_context=trace_context,
    )


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
    shards: int = 1,
    workers: int | None = None,
    telemetry: bool = False,
    progress=None,
) -> dict:
    """Plan, execute the missing cells, and (for shards > 1) merge.

    ``shards == 1`` runs the missing cells sequentially, straight
    against the campaign store, with one fresh telemetry registry —
    the reference behavior the shard path must reproduce exactly.
    ``shards > 1`` partitions the missing cells round-robin, runs each
    shard under ``shards/shard-NN/`` (in a process pool of *workers*,
    default one process per shard), then :func:`merge_shards`.

    Both paths record one trace under the campaign's deterministic
    trace id: a ``campaign`` root span plus one ``cell`` child per
    executed cell, written into the campaign manifest.  The summary's
    ``span_digest`` is identical for any shard count.

    Returns a JSON-safe summary including the campaign store digest
    and, when *telemetry* is on, the merged registry digest.
    """
    missing = db.missing_coords()
    planned = len(db.cells())
    already_done = planned - len(missing)
    db.save()
    summary = {
        "name": db.spec.name,
        "planned": planned,
        "already_done": already_done,
        "executed": len(missing),
        "shards": shards,
    }
    trace_id = trace_id_from("campaign", db.spec.name)
    if shards <= 1:
        registry, _, spans = _execute(
            db.spec, missing, db.store, db.events_path, kind="campaign",
            with_telemetry=telemetry, trace_context=(trace_id, None),
            progress=progress, resumed=already_done,
        )
        summary["telemetry_digest"] = (
            registry.merge_digest() if registry is not None else None
        )
        summary["store_digest"] = store_digest(db.store)
        summary["span_digest"] = spans_merge_digest(spans)
        return summary

    parts = partition_cells(missing, shards)
    spec_payload = db.spec.to_dict()
    shard_roots = [
        db.shards_root / f"shard-{i:02d}" for i in range(shards)
    ]
    recorder = SpanRecorder()
    with Trace(recorder, trace_id).span(
        "campaign", name=db.spec.name, shards=shards
    ) as campaign:
        context = campaign.context()
        jobs = [
            (spec_payload, part, str(shard_root), telemetry, context)
            for part, shard_root in zip(parts, shard_roots)
        ]
        n_workers = workers if workers is not None else shards
        results = parallel_map(
            _shard_worker, jobs, n_workers, progress=progress,
            label=db.spec.name,
        )
    registry = None
    if telemetry:
        from repro.obs.telemetry import TelemetryRegistry

        registry = TelemetryRegistry()
    merge = merge_shards(
        db, shard_roots, registry=registry, spans=recorder.spans
    )
    summary.update(
        shard_results=[
            {"root": r["root"], "executed": r["executed"]}
            for r in results if r
        ],
        merged_rows=merge["merged_rows"],
        store_digest=merge["store_digest"],
        telemetry_digest=merge["telemetry_digest"],
        span_digest=merge["span_digest"],
    )
    return summary

