"""The one cell path: figure cells, campaign cells and pool workers.

Every result in the paper is a per-algorithm series over a small grid,
and every runner in this repository does the same thing to produce one:
execute a **cell** (one algorithm's figure job, one campaign grid
point) against an evaluator, time it, log it, account its cache
traffic, and record its trace span.  That happens in exactly one place,
:func:`timed_cell`; the runners differ only in *dispatch* — which
evaluator the cell runs against and in which process:

* **in process** — cells run against the caller's evaluator (a figure's
  shared one, a ``workers=1`` campaign's own) and :func:`timed_cell`
  writes ``cell_start`` + ``cell_finish`` (with the cell's cache delta)
  straight into the manifest;
* **probed** (``--workers N`` figures with a store) — each cell first
  runs in process against a shared evaluator that serves what the
  store holds and raises :class:`StoreMiss` where it would simulate.
  A cell the store holds completely finishes there, recorded exactly
  as in process, so a warm figure never starts a pool; the first miss
  stops the cell before anything is simulated, leaves no record, and
  sends the cell to the pool (a campaign needs no probe: its plan
  already names the missing cells);
* **pooled** (:func:`pool_cells`, figure and campaign cells alike) —
  one pool job per campaign cell, and one per *point* of a figure
  algorithm (a rate, a fault count, a run, a layout), so a figure waits
  on its heaviest point rather than its slowest algorithm.  Jobs are
  dispatched heaviest first: a figure declares each point's weight
  (runs × injection rate), campaign cells keep plan order.  Each job
  runs in a worker against a *fresh* evaluator
  (:func:`worker_evaluator`) that reads the store but puts into a
  private one beside it (:class:`~repro.store.cache.HeldRows`).  The
  parent, sole writer of the manifest *and* of the store, takes jobs
  home through a reorder buffer in declaration order — folding each
  one's private rows in, merging its snapshot — and writes one record
  per cell: a figure algorithm's ``cell_finish`` sums its points'
  seconds, cycles and cache counters and names the pid that ran its
  last point, ``status="error"`` if a point raised (whose exception it
  then re-raises); its span runs from its earliest point's start to its
  latest point's end.  ``rows.jsonl`` is therefore byte-identical for
  any worker count, and a failed or interrupted run still folds in
  every row its workers simulated.

Workers receive only picklable values (the frozen
:class:`~repro.experiments.profiles.Profile` or
:class:`~repro.campaigns.spec.CampaignSpec`, the cell body by import
path, a store *directory*), so the pool works with the ``spawn`` and
``fork`` start methods alike.  A run any process stored earlier is a
cache hit in every worker.

Telemetry distributes by **snapshot + merge** — a registry never
crosses a process boundary.  Each worker fills a fresh registry whose
JSON-safe snapshot the parent folds in with
:meth:`~repro.obs.telemetry.TelemetryRegistry.merge` (counters and
histograms come out identical to a sequential run).  Spans are
recorded by the parent, and span ids are derived from position in the
trace, not from time or pid, so the span set is identical too.  A
tracer (ordered event log) cannot merge: instruments carrying one keep
the in-process path (:func:`pool_safe_instrument`).
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterator, Sequence
from contextlib import AbstractContextManager, closing, nullcontext, suppress
from functools import partial
from pathlib import Path
from traceback import format_exc
from typing import Any, NamedTuple

from repro.obs.profile import clock
from repro.obs.spans import Trace
from repro.store.backend import store_dir_of
from repro.store.cache import (
    CachedEvaluator,
    HeldRows,
    fold_held,
    fold_orphans,
    holding,
    make_evaluator,
)


class StoreMiss(LookupError):
    """A probe reached a run the store does not hold."""


class _Probe(CachedEvaluator):
    """A cached evaluator that serves what the store holds and raises
    :class:`StoreMiss` where it would simulate (after counting the miss,
    which :func:`timed_cell` takes back)."""

    def _execute(self, alg, cfg, faults):
        raise StoreMiss


class WorkerTraceback(Exception):
    """Where a pool worker's exception was raised: the cause the parent
    gives it when it re-raises it."""


def pool_safe_instrument(instrument) -> bool:
    """Whether cells may fan out to a pool with *instrument* attached.

    ``None`` and telemetry-only :class:`~repro.obs.telemetry.Instrument`
    objects are pool-safe (workers replicate the registry and the parent
    merges snapshots).  Instruments carrying a tracer — and arbitrary
    callables, whose internals the drivers cannot see — force the
    sequential in-process path.
    """
    if instrument is None:
        return True
    from repro.obs.telemetry import Instrument

    return isinstance(instrument, Instrument) and instrument.pool_safe


def worker_evaluator(config, seed: int, store, with_telemetry: bool):
    """A fresh ``(registry, evaluator)`` pair for one worker or run.

    *registry* is ``None`` unless *with_telemetry*; the evaluator is
    cached when *store* (a store, a directory or a worker's
    :class:`~repro.store.cache.HeldRows`) is given.
    """
    registry = instrument = None
    if with_telemetry:
        from repro.obs.telemetry import Instrument, TelemetryRegistry

        registry = TelemetryRegistry()
        instrument = Instrument(telemetry=registry)
    return registry, make_evaluator(
        config, seed=seed, store=store, instrument=instrument
    )


def _cache_counters(evaluator) -> dict | None:
    """The evaluator's cumulative cache counters (``None`` if uncached):
    a shallow copy — ``as_dict()`` deep-copies, twice per warm cell."""
    stats = getattr(evaluator, "stats", None)
    return None if stats is None else dict(vars(stats))


def timed_cell(
    cell_id: str,
    run: Callable,
    evaluator,
    *,
    manifest=None,
    trace: Trace | None = None,
    span: str = "cell",
    key=None,
    probe: bool = False,
) -> dict:
    """Run one cell: the only place a cell is timed and logged.

    ``run()`` returns ``(value, cycles)``; *evaluator* is the one it
    runs against, read here for cache accounting only.  The finished
    cell is a dict, JSON-safe apart from ``value``::

        {"id", "value", "start", "seconds", "cycles", "cache", "pid"}

    ``cache`` is the evaluator's cache-counter delta over the cell
    (``None`` without a store).  With a *trace* (the parent position)
    the cell's clock span *span*, keyed by *key*, is recorded through
    :meth:`~repro.obs.spans.Trace.record`.

    With a *manifest* (:class:`~repro.obs.manifest.ManifestWriter`) the
    cell's ``start`` and ``finish`` events are written here.  A cell
    that raises still gets its ``finish`` — with ``status="error"`` —
    before the exception propagates, so a failed run's manifest names
    the cell that killed it.

    A *probe* runs against a :class:`_Probe`: a cell that stops at a
    :class:`StoreMiss` leaves nothing behind (no event, no span, no
    cache counts) and the miss propagates.  Any other
    outcome is recorded as without *probe*, its ``start`` written with
    its ``finish`` and stamped with the time the cell began.
    """
    if manifest is not None and not probe:
        manifest.cell_start(cell_id)
    before = _cache_counters(evaluator)
    value, cycles, status = None, 0, "error"
    t0 = clock()
    try:
        value, cycles = run()
        status = "ok"
    except StoreMiss:
        if probe:  # nothing was simulated: the attempt leaves no record
            manifest = None
            if before is not None:
                vars(evaluator.stats).update(before)
        raise
    finally:
        t1 = clock()
        cache = None
        if before is not None:
            after = _cache_counters(evaluator)
            cache = {k: after[k] - before[k] for k in after}
        if manifest is not None:
            if probe:
                manifest.cell_start(cell_id, at=t0)
            manifest.cell_finish(
                cell_id, seconds=t1 - t0, cycles=cycles, cache=cache,
                status=status,
            )
    pid = os.getpid()
    if trace is not None:
        trace.record(
            span, start=t0, end=t1, key=key, id=cell_id, cycles=cycles,
            pid=pid,
        )
    return {
        "id": cell_id,
        "value": value,
        "start": t0,
        "seconds": t1 - t0,
        "cycles": cycles,
        "cache": cache,
        "pid": pid,
    }


# ----------------------------------------------------------------------
# Pooled cells (figures and campaigns)
# ----------------------------------------------------------------------
class Cell(NamedTuple):
    """One pool job: ``body(evaluator, *args)``, a module-level function,
    returns its ``run`` (see :func:`timed_cell`).

    Consecutive cells sharing an ``id`` are the parts of one record (a
    figure algorithm's points), which :func:`pool_cells` writes as one
    manifest ``finish`` and one span.  *weight* orders dispatch, heaviest
    first, and nothing else: it never reaches a record.
    """

    id: str
    body: Callable
    args: tuple
    span: str = "cell"
    key: str | None = None
    weight: float = 0.0


class _HeldFinish:
    """A pool worker's manifest: it holds the cell's ``finish`` fields,
    which the parent writes with the worker's pid."""

    finish: dict | None = None

    def cell_start(self, cell_id: str) -> None:
        pass

    def cell_finish(self, cell_id: str, **fields) -> None:
        self.finish = fields


def _pooled_cell(args: tuple) -> dict:
    """Pool body of :func:`pool_cells` (top level so that it pickles):
    one cell against a fresh evaluator and registry, its new rows put
    into its private store *held*.  Its ``finish`` fields and registry
    snapshot ride home in the cell — as does an exception, in
    ``cell["error"]``."""
    cell, config, seed, store_dir, held, with_telemetry = args
    registry, evaluator = worker_evaluator(
        config, seed,
        None if store_dir is None else HeldRows(store_dir, held),
        with_telemetry,
    )
    events = _HeldFinish()
    try:
        done = timed_cell(
            cell.id, cell.body(evaluator, *cell.args), evaluator,
            manifest=events,
        )
    except Exception as exc:
        done = {"error": exc, "traceback": format_exc()}
    done.update(
        pid=os.getpid(), finish=events.finish,
        snapshot=None if registry is None else registry.snapshot(),
    )
    return done


def _close_record(cell: Cell, parts: list[dict], manifest, trace) -> dict:
    """Write the record *parts* make up (see :func:`pool_cells`) and
    return it; re-raise what its last part raised."""
    last = parts[-1]
    finishes = [part["finish"] for part in parts if part["finish"]]
    cache = finishes[0]["cache"] if finishes else None
    fields: dict[str, Any] = {
        "seconds": sum(f["seconds"] for f in finishes),
        "cycles": sum(f["cycles"] for f in finishes),
        "cache": cache and {
            k: sum(f["cache"][k] for f in finishes) for k in cache
        },
        "status": "error" if "error" in last else "ok",
    }
    if manifest is not None and finishes:
        manifest.cell_finish(cell.id, worker=last["pid"], **fields)
    if "error" in last:
        raise last["error"] from WorkerTraceback(last["traceback"])
    if trace is not None:
        trace.record(
            cell.span, key=cell.key, id=cell.id, cycles=fields["cycles"],
            pid=last["pid"],
            start=min(part["start"] for part in parts),
            end=max(part["start"] + part["seconds"] for part in parts),
        )
    return {
        "id": cell.id,
        "value": [part["value"] for part in parts],
        "seconds": fields["seconds"],
        "cycles": fields["cycles"],
        "cache": fields["cache"],
        "pid": last["pid"],
    }


def _in_order(order: list[int], done: Iterator) -> Iterator[tuple]:
    """``(index, result)`` in index order from results that arrive in
    *order*: the reorder buffer holds each until those before it came."""
    waiting: dict[int, object] = {}
    home = 0
    for i, result in zip(order, done):
        waiting[i] = result
        while home in waiting:
            yield home, waiting.pop(home)
            home += 1


def pool_cells(
    cells: Sequence[Cell],
    config,
    seed: int,
    workers: int,
    *,
    store=None,
    manifest=None,
    trace: Trace | None = None,
    registry=None,
    progress: Callable[[str], None] | None = None,
) -> list[dict]:
    """Run *cells* in a pool of *workers*, each against a fresh evaluator
    on *config* and *seed*, cached on *store* (a
    :class:`~repro.store.ResultStore`); returns one record (see
    :func:`timed_cell`) per run of cells sharing an id, in declaration
    order, its ``value`` the list of its cells' values.

    Cells are dispatched heaviest first (``Cell.weight``; equal weights
    in declaration order) and a reorder buffer takes them home in
    declaration order: each cell's held rows appended to *store*, its
    snapshot merged into *registry*.  This process is their sole
    writer.  A record's last cell then writes the record's
    ``cell_finish`` into *manifest* — seconds, cycles and cache counters
    summed over its cells, ``worker`` the pid that ran the last one —
    and its span, from the earliest cell's start to the latest cell's
    end, into *trace*, then calls ``progress(id)``.  A cell that raised
    ends its record with ``status="error"`` and its exception is
    re-raised, the worker's traceback as the cause; the rows every
    worker held are folded in all the same.
    """
    if not cells:  # a warm figure: no pool, no held directory
        return []
    order = sorted(range(len(cells)), key=lambda i: -cells[i].weight)
    finished: list[dict] = []
    parts: list[dict] = []
    scope: AbstractContextManager[Path | None] = (
        nullcontext() if store is None else holding(store)
    )
    with scope as run_dir:
        held = [
            None if run_dir is None else run_dir / str(i)
            for i in range(len(cells))
        ]
        jobs = [
            (cells[i], config, seed, store_dir_of(store), held[i],
             registry is not None)
            for i in order
        ]
        try:
            with closing(iter_parallel(_pooled_cell, jobs, workers)) as done:
                for i, part in _in_order(order, done):
                    # The cell's rows land where an in-process run
                    # appends them, and its puts count the rows actually
                    # written.
                    if held[i] is not None:
                        puts = fold_held(store, held[i])
                        held[i] = None
                        if part["finish"] is not None:
                            part["finish"]["cache"]["puts"] = puts
                    if part["snapshot"] and registry is not None:
                        registry.merge(part["snapshot"])
                    parts.append(part)
                    last = i + 1 == len(cells) or cells[i + 1].id != cells[i].id
                    if last or "error" in part:
                        finished.append(
                            _close_record(cells[i], parts, manifest, trace)
                        )
                        parts = []
                        if progress:
                            progress(cells[i].id)
        finally:
            # A cell raised or the run was interrupted: the pool is gone,
            # and the rows the unfinished cells held are kept all the same.
            for path in held:
                if path is not None:
                    fold_held(store, path)
    return finished


# ----------------------------------------------------------------------
# Per-algorithm fan-out (the figure drivers)
# ----------------------------------------------------------------------
def _point_body(evaluator, job: Callable, profile, algorithm: str, point):
    """A pooled figure point's ``run``: *job* prepared on the worker's
    evaluator, bound to *algorithm* and *point*."""
    run, _ = job(evaluator, profile)
    return partial(run, algorithm, point)


def _whole(run: Callable, points, algorithm: str):
    """An in-process figure cell's ``run``: every point of *algorithm*,
    in order."""
    series, cycles = [], 0
    for _, point in points:
        value, point_cycles = run(algorithm, point)
        series.append(value)
        cycles += point_cycles
    return series, cycles


def run_per_algorithm(
    profile,
    algorithms: Sequence[str] | None,
    job: Callable,
    *,
    label: str,
    seed: int = 2007,
    progress=None,
    workers: int = 1,
    store=None,
    instrument=None,
    manifest=None,
    trace: Trace | None = None,
) -> dict:
    """``{algorithm: series}``, one series value per x-axis point.

    ``job(evaluator, profile)`` prepares whatever the points share and
    returns ``(run, points)``: *points* declares the x-axis as
    ``(weight, point)`` pairs, the weight being the point's runs ×
    injection rate, and ``run(algorithm, point) -> (value, cycles)``
    simulates one.  *job* is a module-level function: it is pickled by
    import path, and lint rule REP012 holds it to pool-worker purity.

    In process, each algorithm is one cell running all its points
    against one shared evaluator.  ``workers > 1`` pools one job per
    point of every algorithm the store cannot serve whole, heaviest
    first, through :func:`pool_cells`, so a figure waits on its heaviest
    point rather than its slowest algorithm; the weights order dispatch
    only.  Results are identical either way — per-run seeds derive from
    ``(seed, algorithm, set, rate)`` and fault cases from ``(seed,
    count)``, never from execution order — and so is the store, which
    only this process writes, in declaration order.

    *store* (a :class:`repro.store.ResultStore` or directory) routes
    every simulation through the result cache: runs simulated before —
    by any driver, campaign or worker — are served from the store.

    *instrument* (see :class:`~repro.core.evaluator.Evaluator`) observes
    every executed simulation.  A telemetry-only
    :class:`~repro.obs.telemetry.Instrument` is pool-safe (snapshot +
    merge, see the module docstring); one carrying a tracer, or an
    arbitrary callable, keeps the cells in process whatever *workers*
    says.

    *manifest* (a :class:`~repro.obs.manifest.ManifestWriter`) receives
    one ``cell`` per algorithm with its wall seconds, simulated cycles
    and cache counters; *trace* (a :class:`~repro.obs.spans.Trace`, the
    parent position) gets one ``cell.<algorithm>`` span per algorithm —
    identical ids whether the cells ran pooled or in process.
    """
    algorithms = algorithms or profile.algorithms
    pooled = (
        workers > 1
        and len(algorithms) > 1
        and pool_safe_instrument(instrument)
    )
    probed = pooled and store is not None
    evaluator = (_Probe if probed else make_evaluator)(
        profile.config, seed=seed, instrument=instrument, store=store,
    )
    run, points = job(evaluator, profile)
    cells: dict[str, dict] = {}
    if not pooled or probed:
        if probed:
            fold_orphans(evaluator.store)
        # Cells run here; a probed one stops at its first miss and goes
        # to the pool instead.
        for alg in algorithms:
            with suppress(StoreMiss):
                cells[alg] = timed_cell(
                    alg, partial(_whole, run, points, alg), evaluator,
                    manifest=manifest, trace=trace, span=f"cell.{alg}",
                    probe=probed,
                )
                if progress:
                    progress(f"[{label}] {alg}: done")
    missing = [alg for alg in algorithms if alg not in cells]
    cells.update((cell["id"], cell) for cell in pool_cells(
        [Cell(alg, _point_body, (job, profile, alg, point), f"cell.{alg}",
              weight=weight)
         for alg in missing for weight, point in points],
        profile.config, seed, workers,
        store=evaluator.store if probed else None,
        manifest=manifest, trace=trace,
        registry=getattr(instrument, "telemetry", None),
        progress=progress and (lambda alg: progress(f"[{label}] {alg}: done")),
    ))
    return {alg: cells[alg]["value"] for alg in algorithms}


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
def _progress_label(result, index: int) -> str:
    """A printable label for a finished job.

    Workers that return ``(name, ...)`` tuples are labeled by name;
    anything else (scalars, dicts, row lists) falls back to the 1-based
    job index instead of blowing up on ``result[0]``.
    """
    if (
        isinstance(result, tuple)
        and result
        and isinstance(result[0], str)
    ):
        return result[0]
    return f"job {index + 1}"


def iter_parallel(
    worker: Callable, jobs: Sequence, workers: int
) -> Iterator:
    """*worker* over *jobs* with a process pool, one result at a time in
    job order; closing the iterator early terminates the pool.

    ``workers <= 1`` (or one job) degrades to a plain in-process loop —
    callers need no special casing, and coverage/debugging stay simple.
    """
    if workers <= 1 or len(jobs) <= 1:
        yield from map(worker, jobs)
        return
    from multiprocessing import get_context

    with get_context().Pool(processes=min(workers, len(jobs))) as pool:
        yield from pool.imap(worker, jobs)


def parallel_map(
    worker: Callable,
    jobs: Sequence,
    workers: int,
    progress: Callable[[str], None] | None = None,
    label: str = "",
) -> list:
    """Run *worker* over *jobs* with a process pool (ordered results);
    see :func:`iter_parallel`."""
    out = []
    for i, result in enumerate(iter_parallel(worker, jobs, workers)):
        out.append(result)
        if progress:
            progress(f"[{label}] {_progress_label(result, i)}: done")
    return out
