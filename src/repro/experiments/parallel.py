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
  the same call runs in a worker against a *fresh* evaluator
  (:func:`worker_evaluator`) that reads the store but puts into a
  private one beside it (:class:`~repro.store.cache.HeldRows`).  The
  parent, sole writer of the manifest *and* of the store, folds each
  cell's private rows in as the cell comes home, in declaration order
  (``imap`` hands cells back in that order), and records the cell's
  ``cell_finish`` with the worker pid — ``status="error"`` for a cell
  that raised, whose exception it then re-raises — and its span.
  ``rows.jsonl`` is therefore byte-identical for any worker count, and
  a failed or interrupted run still folds in every row its workers
  simulated.

Workers receive only picklable values (the frozen
:class:`~repro.experiments.profiles.Profile` or
:class:`~repro.campaigns.spec.CampaignSpec`, the cell body by import
path, a store *directory*, the parent span's
:meth:`~repro.obs.spans.Trace.context`), so the pool works with the
``spawn`` and ``fork`` start methods alike.  A cell any process stored
earlier is a cache hit in every worker.

Telemetry and trace spans distribute by **snapshot + merge** — a
registry never crosses a process boundary.  Each worker fills a fresh
registry whose JSON-safe snapshot the parent folds in with
:meth:`~repro.obs.telemetry.TelemetryRegistry.merge` (counters and
histograms come out identical to a sequential run), and span ids are
derived from position in the trace, not from time or pid, so the merged
span set is identical too.  A tracer (ordered event log) cannot merge:
instruments carrying one keep the in-process path
(:func:`pool_safe_instrument`).
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterator, Sequence
from contextlib import closing, suppress
from functools import partial
from traceback import format_exc
from typing import NamedTuple

from repro.obs.profile import clock
from repro.obs.spans import SpanRecorder, Trace
from repro.store.backend import store_dir_of
from repro.store.cache import (
    CachedEvaluator,
    HeldRows,
    fold_held,
    fold_orphans,
    held_dir,
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

        {"id", "value", "seconds", "cycles", "cache", "pid", "span"}

    ``cache`` is the evaluator's cache-counter delta over the cell
    (``None`` without a store).  With a *trace* (the parent position)
    the cell's clock span *span*, keyed by *key*, is recorded through
    :meth:`~repro.obs.spans.Trace.record` and returned as ``span``.

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
    return {
        "id": cell_id,
        "value": value,
        "seconds": t1 - t0,
        "cycles": cycles,
        "cache": cache,
        "pid": pid,
        "span": None if trace is None else trace.record(
            span, start=t0, end=t1, key=key, id=cell_id, cycles=cycles,
            pid=pid,
        ),
    }


# ----------------------------------------------------------------------
# Pooled cells (figures and campaigns)
# ----------------------------------------------------------------------
class Cell(NamedTuple):
    """One pooled cell: ``body(evaluator, *args)``, a module-level
    function, returns its ``run`` (see :func:`timed_cell`)."""

    id: str
    body: Callable
    args: tuple
    span: str = "cell"
    key: str | None = None


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
    one cell against a fresh evaluator and registry, its span recorded
    under the shipped parent context, its new rows put into its private
    store *held*.  Its ``finish`` fields and registry snapshot ride home
    in the cell — as does an exception, in ``cell["error"]``."""
    cell, config, seed, store_dir, held, with_telemetry, context = args
    registry, evaluator = worker_evaluator(
        config, seed,
        None if store_dir is None else HeldRows(store_dir, held),
        with_telemetry,
    )
    trace = None if context is None else Trace(SpanRecorder(), *context)
    events = _HeldFinish()
    try:
        done = timed_cell(
            cell.id, cell.body(evaluator, *cell.args), evaluator,
            manifest=events, trace=trace, span=cell.span, key=cell.key,
        )
    except Exception as exc:
        done = {"error": exc, "traceback": format_exc()}
    done.update(
        pid=os.getpid(), finish=events.finish,
        snapshot=None if registry is None else registry.snapshot(),
    )
    return done


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
    :class:`~repro.store.ResultStore`); returns the finished cells (see
    :func:`timed_cell`) in declaration order.

    This process, sole writer, takes each cell home in that order: its
    held rows appended to *store*, its snapshot merged into *registry*,
    its ``cell_finish`` written into *manifest* with the worker pid, its
    span added to *trace*'s recorder, then ``progress(cell.id)``.  A
    cell that raised is recorded with ``status="error"`` and its
    exception re-raised, the worker's traceback as the cause; the rows
    every worker held are folded in all the same.
    """
    held = [
        None if store is None else held_dir(store, str(i))
        for i in range(len(cells))
    ]
    context = None if trace is None else trace.context()
    jobs = [
        (cell, config, seed, store_dir_of(store), path, registry is not None,
         context)
        for cell, path in zip(cells, held)
    ]
    finished = []
    try:
        with closing(iter_parallel(_pooled_cell, jobs, workers)) as done:
            for i, cell in enumerate(done):
                # The cell's rows land where an in-process run appends
                # them, and its puts count the rows actually written.
                finish = cell["finish"]
                if held[i] is not None:
                    puts = fold_held(store, held[i])
                    held[i] = None
                    if finish is not None:
                        finish["cache"]["puts"] = puts
                if cell["snapshot"] and registry is not None:
                    registry.merge(cell["snapshot"])
                if manifest is not None and finish is not None:
                    manifest.cell_finish(
                        cells[i].id, worker=cell["pid"], **finish
                    )
                if "error" in cell:
                    raise cell["error"] from WorkerTraceback(cell["traceback"])
                if trace is not None:
                    trace.recorder.add(cell["span"])
                finished.append(cell)
                if progress:
                    progress(cells[i].id)
    finally:
        # A cell raised or the run was interrupted: the pool is gone, and
        # the rows the unfinished cells held are kept all the same.
        for path in held:
            if path is not None:
                fold_held(store, path)
    return finished


# ----------------------------------------------------------------------
# Per-algorithm fan-out (the figure drivers)
# ----------------------------------------------------------------------
def _algorithm_body(evaluator, job: Callable, profile, algorithm: str):
    """A pooled figure cell's ``run``: *job* prepared on the worker's
    evaluator, bound to *algorithm*."""
    return partial(job(evaluator, profile), algorithm)


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
    """``{algorithm: series}`` from one cell per algorithm.

    ``job(evaluator, profile)`` prepares whatever every algorithm shares
    (fault cases are drawn here, once per evaluator) and returns the
    cell body ``run(algorithm) -> (series, cycles)``.  *job* is a
    module-level function: it is pickled by import path, and lint rule
    REP012 holds it to pool-worker purity.  ``workers > 1`` runs each
    cell the store cannot serve whole through :func:`pool_cells`;
    otherwise all cells share one evaluator in this process.  Results
    are identical either way — per-run seeds derive from ``(seed,
    algorithm, set, rate)`` and fault cases from ``(seed, count)``,
    never from execution order — and so is the store, which only this
    process writes, in declaration order.

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
    cells: dict[str, dict] = {}
    if not pooled or probed:
        evaluator = (_Probe if probed else make_evaluator)(
            profile.config, seed=seed, instrument=instrument, store=store,
        )
        run = job(evaluator, profile)
        if probed:
            fold_orphans(evaluator.store)
        # Cells run here; a probed one stops at its first miss and goes
        # to the pool instead.
        for alg in algorithms:
            with suppress(StoreMiss):
                cells[alg] = timed_cell(
                    alg, partial(run, alg), evaluator, manifest=manifest,
                    trace=trace, span=f"cell.{alg}", probe=probed,
                )
                if progress:
                    progress(f"[{label}] {alg}: done")
    missing = [alg for alg in algorithms if alg not in cells]
    cells.update(zip(missing, pool_cells(
        [Cell(alg, _algorithm_body, (job, profile, alg), f"cell.{alg}")
         for alg in missing],
        profile.config, seed, workers,
        store=evaluator.store if probed else None,
        manifest=manifest, trace=trace,
        registry=getattr(instrument, "telemetry", None),
        progress=progress and (lambda alg: progress(f"[{label}] {alg}: done")),
    )))
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
