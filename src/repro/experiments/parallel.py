"""The one cell loop: figure cells, campaign cells and pool workers.

Every result in the paper is a per-algorithm series over a small grid,
and every runner in this repository does the same thing to produce one:
execute **cells** (one point of a figure algorithm, one campaign grid
point) against an evaluator, time them, log them, account their cache
traffic, and record their trace spans.  Consecutive cells sharing an id
make one **record** (a figure algorithm, a campaign cell).  One loop,
:func:`run_cells`, runs cells, and one function, :func:`_close_record`,
writes a record's manifest ``finish`` and span; the runners differ
only in *dispatch* — which evaluator the cells run against and in which
process:

* **in process** (``workers=1``) — cells run against the caller's
  evaluator (a figure's shared one, a ``workers=1`` campaign's own),
  each record measured as one part: ``cell_start`` is written as it
  begins, its ``finish`` (with its cache delta, worker 0) when it ends;
* **probed** (``--workers N`` figures with a store) — the records first
  run in process against a shared evaluator that serves what the store
  holds and raises :class:`StoreMiss` where it would simulate.  A
  record the store holds completely finishes there, recorded exactly as
  in process but for its ``start``, written with its ``finish`` and
  stamped when it began, so a warm figure never starts a pool; the
  first miss stops the record before anything is simulated, leaves no
  record, and sends its cells to the pool (a campaign needs no probe:
  its plan already names the missing cells);
* **pooled** (``workers > 1``, figure and campaign cells alike) — one
  pool job per cell: per campaign cell, and per *point* of a figure
  algorithm (a rate, a fault count, a run, a layout), so a figure waits
  on its heaviest point rather than its slowest algorithm.  Jobs are
  dispatched heaviest first: a figure declares each point's weight
  (runs × injection rate), campaign cells keep plan order.  Each job
  runs in a worker against a *fresh* evaluator
  (:func:`worker_evaluator`) that reads the store but puts into a
  private one beside it (:class:`~repro.store.cache.HeldRows`).  The
  parent, sole writer of the manifest *and* of the store, takes jobs
  home through a reorder buffer in declaration order — folding each
  one's private rows in, merging its snapshot — and closes each record
  from its parts: a figure algorithm's ``cell_finish`` sums its points'
  seconds, cycles and cache counters and names the pid that ran its
  last point, ``status="error"`` if a point raised (whose exception it
  then re-raises); its span runs from its earliest point's start to its
  latest point's end.  ``rows.jsonl`` is therefore byte-identical for
  any worker count, and a failed or interrupted run still folds in
  every row its workers simulated.

What the cells of one call share is prepared by its *setup* — a figure
job's ``run``, a campaign's drawn fault cases — once per evaluator:
once in process, once per job in a pool worker.

Workers receive only picklable values (the frozen
:class:`~repro.experiments.profiles.Profile` or
:class:`~repro.campaigns.spec.CampaignSpec`, the setup by import path,
a store *directory*), so the pool works with the ``spawn`` and
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
from collections.abc import Callable, Generator, Iterator, Sequence
from contextlib import AbstractContextManager, closing, nullcontext
from pathlib import Path
from traceback import format_exception
from typing import Any, NamedTuple

from repro.cli import usable_cpus
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
    which :func:`run_cells` takes back)."""

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
    a shallow copy — ``as_dict()`` deep-copies, twice per warm record."""
    stats = getattr(evaluator, "stats", None)
    return None if stats is None else dict(vars(stats))


def worker_count(workers: int | None) -> int:
    """*workers* as a worker count: ``None`` is the CPUs this process may
    use, and fewer than 1 is refused, as the command lines refuse it."""
    if workers is None:
        return usable_cpus()
    if workers < 1:
        raise ValueError(f"need at least 1, not {workers}")
    return workers


class Cell(NamedTuple):
    """One cell: ``run(*args) -> (value, cycles)``, where ``run`` is what
    the :func:`run_cells` call's *setup* prepared.

    Consecutive cells sharing an ``id`` are the parts of one record (a
    figure algorithm's points), written as one manifest ``finish`` and
    one *span*, keyed by *key*.  *weight* orders pool dispatch, heaviest
    first, and nothing else: it never reaches a record.
    """

    id: str
    args: tuple
    span: str = "cell"
    key: str | None = None
    weight: float = 0.0


def _ends_record(cells: Sequence[Cell], i: int) -> bool:
    return i + 1 == len(cells) or cells[i + 1].id != cells[i].id


def _timed(run: Callable, cells: Sequence[Cell], evaluator) -> dict:
    """Run *cells* as one part of a record, measured once: one clock pair
    and one cache-counter snapshot around them all.  The part is::

        {"value": [value, ...], "start", "seconds", "cycles", "cache"}

    ``cache`` is *evaluator*'s cache-counter delta (``None`` without a
    store).  A cell that raises ends the part with its exception in
    ``"error"`` and ``cycles`` 0 — an interrupt too, so that its record
    is closed as an error before it is re-raised.  A :class:`StoreMiss`
    propagates with the counters taken back: a probe's attempt leaves
    nothing behind.
    """
    before = _cache_counters(evaluator)
    part: dict[str, Any] = {"value": None, "cycles": 0}
    t0 = clock()
    try:
        values, cycles = [], 0
        for cell in cells:
            value, n = run(*cell.args)
            values.append(value)
            cycles += n
        part.update(value=values, cycles=cycles)
    except StoreMiss:
        if before is not None:
            vars(evaluator.stats).update(before)
        raise
    except BaseException as exc:
        part["error"] = exc
    t1 = clock()
    cache = None
    if before is not None:
        after = _cache_counters(evaluator)
        cache = {k: after[k] - before[k] for k in after}
    part.update(start=t0, seconds=t1 - t0, cache=cache)
    return part


def _pooled_cell(args: tuple) -> dict:
    """Pool job of :func:`run_cells` (top level so that it pickles): the
    setup prepared on a fresh evaluator and registry, then one cell, its
    new rows put into its private store *held*.  The part rides home
    with this worker's pid and registry snapshot — and, if the cell or
    the setup raised, with the exception and its traceback."""
    cell, setup, config, seed, store_dir, held, with_telemetry = args
    registry, evaluator = worker_evaluator(
        config, seed,
        None if store_dir is None else HeldRows(store_dir, held),
        with_telemetry,
    )
    prepare, *setup_args = setup
    try:
        part = _timed(prepare(evaluator, *setup_args), [cell], evaluator)
    except Exception as exc:  # the setup raised: nothing was timed
        part = {"error": exc}
    if "error" in part:
        error = part["error"]
        part["traceback"] = "".join(
            format_exception(type(error), error, error.__traceback__)
        )
    part.update(
        pid=os.getpid(),
        snapshot=None if registry is None else registry.snapshot(),
    )
    return part


def _close_record(cell: Cell, parts: list[dict], manifest, trace) -> dict:
    """Write the record *parts* make up and return it; re-raise what its
    last part raised.  The only writer of a cell's ``finish`` and span:
    seconds, cycles and cache counters summed over the timed parts,
    ``worker`` the pid that ran the last one (0 in process, where parts
    carry no pid), the span from the earliest start to the latest end.
    """
    last = parts[-1]
    timed = [part for part in parts if "seconds" in part]
    cache = timed[0]["cache"] if timed else None
    fields: dict[str, Any] = {
        "seconds": sum(part["seconds"] for part in timed),
        "cycles": sum(part["cycles"] for part in timed),
        "cache": cache and {
            k: sum(part["cache"][k] for part in timed) for k in cache
        },
        "status": "error" if "error" in last else "ok",
    }
    if manifest is not None and timed:
        manifest.cell_finish(cell.id, worker=last.get("pid", 0), **fields)
    if "error" in last:
        if "traceback" in last:
            raise last["error"] from WorkerTraceback(last["traceback"])
        raise last["error"]
    if trace is not None:
        trace.record(
            cell.span, key=cell.key, id=cell.id, cycles=fields["cycles"],
            pid=last.get("pid", os.getpid()),
            start=min(part["start"] for part in parts),
            end=max(part["start"] + part["seconds"] for part in parts),
        )
    return {
        "id": cell.id,
        "value": [value for part in parts for value in part["value"]],
        "seconds": fields["seconds"],
        "cycles": fields["cycles"],
    }


def _in_process(
    cells: Sequence[Cell], setup: tuple, evaluator, manifest
) -> Generator[tuple[int, dict], None, None]:
    """``(index of its last cell, part)`` for each record of *cells*, run
    here against *evaluator*, on which *setup* is prepared once.  A
    record's ``start`` is written as it begins; a probe's (a
    :class:`_Probe` evaluator) only once it finished, stamped when it
    began, and a probed record that reaches a :class:`StoreMiss`
    yields nothing."""
    probe = isinstance(evaluator, _Probe)
    prepare, *args = setup
    run = prepare(evaluator, *args)
    first = 0
    for i in range(len(cells)):
        if not _ends_record(cells, i):
            continue
        record, first = cells[first:i + 1], i + 1
        if manifest is not None and not probe:
            manifest.cell_start(cells[i].id)
        try:
            part = _timed(run, record, evaluator)
        except StoreMiss:
            continue
        if manifest is not None and probe:
            manifest.cell_start(cells[i].id, at=part["start"])
        yield i, part


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


def _pooled(
    cells: Sequence[Cell], setup: tuple, workers: int, config, seed: int,
    store, registry,
) -> Generator[tuple[int, dict], None, None]:
    """``(index, part)`` for each of *cells*, one pool job per cell
    (:func:`_pooled_cell`), dispatched heaviest first and taken home
    through a reorder buffer in declaration order: the cell's held rows
    appended to *store* — its ``puts`` the rows actually written — and
    its snapshot merged into *registry*.  If a record raises or the run
    is interrupted, the pool is terminated and the rows every worker
    held are folded in all the same."""
    order = sorted(range(len(cells)), key=lambda i: -cells[i].weight)
    scope: AbstractContextManager[Path | None] = (
        nullcontext() if store is None else holding(store)
    )
    with scope as run_dir:
        held = [
            None if run_dir is None else run_dir / str(i)
            for i in range(len(cells))
        ]
        jobs = [
            (cells[i], setup, config, seed, store_dir_of(store), held[i],
             registry is not None)
            for i in order
        ]
        try:
            with closing(iter_parallel(_pooled_cell, jobs, workers)) as done:
                for i, part in _in_order(order, done):
                    if held[i] is not None:
                        puts = fold_held(store, held[i])
                        held[i] = None
                        if part.get("cache"):
                            part["cache"]["puts"] = puts
                    if part["snapshot"] and registry is not None:
                        registry.merge(part["snapshot"])
                    yield i, part
        finally:
            for path in held:
                if path is not None:
                    fold_held(store, path)


def run_cells(
    cells: Sequence[Cell],
    workers: int,
    *,
    setup: tuple,
    evaluator=None,
    config=None,
    seed: int = 0,
    store=None,
    manifest=None,
    trace: Trace | None = None,
    registry=None,
    progress: Callable[[str], None] | None = None,
) -> list[dict]:
    """Run *cells*: the one loop of every figure and campaign.  Returns
    one record per run of cells sharing an id, in declaration order::

        {"id", "value", "seconds", "cycles"}

    its ``value`` the list of its cells' values.

    ``setup = (prepare, *args)``: ``prepare(evaluator, *args)`` returns
    the ``run`` each cell calls, once per evaluator; *prepare* is a
    module-level function (pickled by import path, and held to
    pool-worker purity by lint rule REP012).  *workers* decides only
    where the cells run:

    * ``1`` — here, against *evaluator*, each record measured as one
      part; *evaluator* may be a :class:`_Probe`, whose records that
      reach a :class:`StoreMiss` are skipped;
    * more — in a pool of *workers*, one job per cell against a fresh
      evaluator on *config* and *seed* that reads *store* (a
      :class:`~repro.store.ResultStore`), whose rows, and snapshots
      merged into *registry*, this process alone writes.

    Either way :func:`_close_record` writes each record into *manifest*
    and *trace*, then ``progress(id)`` is called.  A cell that raised
    ends its record with ``status="error"`` and its exception is
    re-raised: the original in process, with the worker's traceback as
    its cause from a pool.
    """
    if not cells:  # a warm figure: no pool, no held directory
        return []
    parts = (
        _in_process(cells, setup, evaluator, manifest) if workers <= 1
        else _pooled(cells, setup, workers, config, seed, store, registry)
    )
    finished: list[dict] = []
    record: list[dict] = []
    with closing(parts):
        for i, part in parts:
            record.append(part)
            if "error" in part or _ends_record(cells, i):
                finished.append(_close_record(cells[i], record, manifest, trace))
                record = []
                if progress:
                    progress(cells[i].id)
    return finished


# ----------------------------------------------------------------------
# Per-algorithm fan-out (the figure drivers)
# ----------------------------------------------------------------------
def _job_run(evaluator, job: Callable, profile) -> Callable:
    """A figure's setup: *job* prepared on *evaluator*, its
    ``run(algorithm, point)``."""
    run, _ = job(evaluator, profile)
    return run


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

    Every (algorithm, point) is one :class:`Cell`, and every algorithm
    one record, run by :func:`run_cells`.  In process, an algorithm's
    points run against one shared evaluator.  ``workers > 1`` pools one
    job per point of every algorithm the store cannot serve whole,
    heaviest first, so a figure waits on its heaviest point rather than
    its slowest algorithm; the weights order dispatch only.  Results
    are identical either way — per-run seeds derive from ``(seed,
    algorithm, set, rate)`` and fault cases from ``(seed, count)``,
    never from execution order — and so is the store, which only this
    process writes, in declaration order.  *workers* below 1 is refused
    and ``None`` is the usable CPUs (:func:`worker_count`).

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
    workers = worker_count(workers)
    pooled = (
        workers > 1
        and len(algorithms) > 1
        and pool_safe_instrument(instrument)
    )
    probed = pooled and store is not None
    evaluator = (_Probe if probed else make_evaluator)(
        profile.config, seed=seed, instrument=instrument, store=store,
    )
    _, points = job(evaluator, profile)
    cells = [
        Cell(alg, (alg, point), f"cell.{alg}", weight=weight)
        for alg in algorithms for weight, point in points
    ]
    report = progress and (lambda alg: progress(f"[{label}] {alg}: done"))
    done: dict[str, dict] = {}
    if not pooled or probed:
        if probed:
            fold_orphans(evaluator.store)
        # Records run here; a probed one stops at its first miss and
        # goes to the pool instead.
        done = {record["id"]: record for record in run_cells(
            cells, 1, setup=(_job_run, job, profile), evaluator=evaluator,
            manifest=manifest, trace=trace, progress=report,
        )}
    done.update((record["id"], record) for record in run_cells(
        [cell for cell in cells if cell.id not in done], workers,
        setup=(_job_run, job, profile), config=profile.config, seed=seed,
        store=evaluator.store if probed else None,
        manifest=manifest, trace=trace,
        registry=getattr(instrument, "telemetry", None), progress=report,
    ))
    return {alg: done[alg]["value"] for alg in algorithms}


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
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

