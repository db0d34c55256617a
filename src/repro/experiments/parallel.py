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
* **probed** (``--workers N`` figures with a store, and a server's
  simulation tier: :func:`run_store_first`) — the records first run in
  process against a shared evaluator that serves what the store holds
  and raises :class:`StoreMiss` where it would simulate.  A record the
  store holds completely finishes there, recorded exactly as in
  process but for its ``start``, written with its ``finish`` and
  stamped when it began, so a warm figure never starts a pool; the
  first miss stops the record before anything is simulated, leaves no
  record, and sends its cells to the pool (a campaign needs no probe:
  its plan already names the missing cells);
* **pooled** (``workers > 1``, figure and campaign cells alike, or a
  running pool: a server's samples) — one pool job per cell: per
  campaign cell, per sample of a served query, and per *point* of a
  figure algorithm (a rate, a fault count, a run, a layout), so a
  figure waits on its heaviest point rather than its slowest algorithm.
  A count starts a pool for the call; a running pool stays warm for
  its owner.  Jobs are dispatched heaviest first: a figure declares
  each point's weight (runs × injection rate), campaign cells and
  samples keep declaration order.  Each job
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
:meth:`~repro.obs.telemetry.TelemetryRegistry.merge` (every instrument
is a sum, so the snapshot comes out identical to a sequential run's).
Spans are recorded by the parent, and span ids are derived from
position in the trace, not from time or pid, so the span set is
identical too.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Generator, Iterator, Sequence
from contextlib import AbstractContextManager, closing, nullcontext
from pathlib import Path
from traceback import format_exception
from typing import TYPE_CHECKING, Any, NamedTuple

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

if TYPE_CHECKING:
    from multiprocessing.pool import Pool

    from repro.obs.telemetry import TelemetryRegistry


class StoreMiss(LookupError):
    """A probe reached a run the store does not hold."""


class _Probe(CachedEvaluator):
    """A cached evaluator that serves what the store holds and raises
    :class:`StoreMiss` where it would simulate (after counting the miss,
    which :func:`run_cells` takes back)."""

    def _execute(self, alg, cfg, faults):
        raise StoreMiss

    @classmethod
    def of(cls, evaluator: CachedEvaluator) -> _Probe:
        """A probe on *evaluator*'s own state: its config, mesh, store
        and cache counters are shared, not rebuilt."""
        probe = cls.__new__(cls)
        vars(probe).update(vars(evaluator))
        return probe


class WorkerTraceback(Exception):
    """Where a pool worker's exception was raised: the cause the parent
    gives it when it re-raises it."""


def worker_evaluator(config, seed: int, store, with_telemetry: bool):
    """A fresh ``(registry, evaluator)`` pair for one worker or run.

    *registry* is ``None`` unless *with_telemetry*; the evaluator is
    cached when *store* (a store, a directory or a worker's
    :class:`~repro.store.cache.HeldRows`) is given.
    """
    registry = None
    if with_telemetry:
        from repro.obs.telemetry import TelemetryRegistry

        registry = TelemetryRegistry()
    return registry, make_evaluator(
        config, seed=seed, store=store, telemetry=registry
    )


def _cache_counters(evaluator) -> dict | None:
    """The evaluator's cumulative cache counters (``None`` if uncached):
    a shallow copy — ``as_dict()`` deep-copies, twice per warm record."""
    stats = getattr(evaluator, "stats", None)
    return None if stats is None else dict(vars(stats))


def _pools(workers: int | Pool) -> bool:
    """Whether *workers* (a count or a running pool) runs cells in a pool."""
    return not isinstance(workers, int) or workers > 1


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
        "cache": fields["cache"],
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
    cells: Sequence[Cell], setup: tuple, workers: int | Pool, config,
    seed: int, store, registry,
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
    workers: int | Pool,
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

        {"id", "value", "seconds", "cycles", "cache"}

    its ``value`` the list of its cells' values, ``cache`` its cache
    counters (``None`` without a store).

    ``setup = (prepare, *args)``: ``prepare(evaluator, *args)`` returns
    the ``run`` each cell calls, once per evaluator; *prepare* is a
    module-level function (pickled by import path, and held to
    pool-worker purity by lint rule REP012).  *workers* decides only
    where the cells run:

    * ``1`` — here, against *evaluator*, each record measured as one
      part; *evaluator* may be a :class:`_Probe`, whose records that
      reach a :class:`StoreMiss` are skipped;
    * more, or a running :class:`multiprocessing.pool.Pool` — in a pool
      of *workers* started for this call, or on the running one, one
      job per cell against a fresh evaluator on *config* and *seed*
      that reads *store* (a :class:`~repro.store.ResultStore`), whose
      rows, and snapshots merged into *registry*, this process alone
      writes.

    Either way :func:`_close_record` writes each record into *manifest*
    and *trace*, then ``progress(id)`` is called.  A cell that raised
    ends its record with ``status="error"`` and its exception is
    re-raised: the original in process, with the worker's traceback as
    its cause from a pool.
    """
    if not cells:  # a warm figure: no pool, no held directory
        return []
    parts = (
        _pooled(cells, setup, workers, config, seed, store, registry)
        if _pools(workers)
        else _in_process(cells, setup, evaluator, manifest)
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


def run_store_first(
    cells: Sequence[Cell],
    workers: int | Pool,
    *,
    setup: tuple,
    evaluator,
    manifest=None,
    trace: Trace | None = None,
    registry=None,
    progress: Callable[[str], None] | None = None,
) -> dict[str, dict]:
    """``{id: record}`` of :func:`run_cells` over *cells*, asking the
    store before the pool.

    With one worker every record runs here against *evaluator*.
    Pooled, a cached *evaluator*'s store answers first: the records it
    holds whole finish here, against a :class:`_Probe` sharing its store
    and cache counters, so nothing is simulated in this process (rows a
    dead run left held are folded in before); only the rest go to the
    pool, whose workers run on *evaluator*'s config and seed and whose
    new rows this process appends.  Their cache counters are added to
    *evaluator*'s, which so count hits, misses and puts exactly as an
    in-process run would.  An uncached *evaluator* pools every record.
    """
    store = getattr(evaluator, "store", None)
    done: dict[str, dict] = {}
    if not _pools(workers) or store is not None:
        here = evaluator
        if _pools(workers):
            fold_orphans(store)
            here = _Probe.of(evaluator)
        done = {record["id"]: record for record in run_cells(
            cells, 1, setup=setup, evaluator=here, manifest=manifest,
            trace=trace, progress=progress,
        )}
    for record in run_cells(
        [cell for cell in cells if cell.id not in done], workers,
        setup=setup, config=evaluator.base_config, seed=evaluator.seed,
        store=store, manifest=manifest, trace=trace, registry=registry,
        progress=progress,
    ):
        done[record["id"]] = record
        if record["cache"]:
            counters = vars(evaluator.stats)
            for name, count in record["cache"].items():
                counters[name] += count
    return done


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
    telemetry: TelemetryRegistry | None = None,
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

    *telemetry* (a :class:`~repro.obs.telemetry.TelemetryRegistry`)
    observes every executed simulation: in process directly, pooled by
    merging each worker's snapshot (see the module docstring).

    *manifest* (a :class:`~repro.obs.manifest.ManifestWriter`) receives
    one ``cell`` per algorithm with its wall seconds, simulated cycles
    and cache counters; *trace* (a :class:`~repro.obs.spans.Trace`, the
    parent position) gets one ``cell.<algorithm>`` span per algorithm —
    identical ids whether the cells ran pooled or in process.
    """
    algorithms = algorithms or profile.algorithms
    workers = worker_count(workers)
    evaluator = make_evaluator(
        profile.config, seed=seed, telemetry=telemetry, store=store,
    )
    _, points = job(evaluator, profile)
    cells = [
        Cell(alg, (alg, point), f"cell.{alg}", weight=weight)
        for alg in algorithms for weight, point in points
    ]
    report = progress and (lambda alg: progress(f"[{label}] {alg}: done"))
    done = run_store_first(
        cells, workers if len(algorithms) > 1 else 1,
        setup=(_job_run, job, profile), evaluator=evaluator,
        manifest=manifest, trace=trace, registry=telemetry, progress=report,
    )
    return {alg: done[alg]["value"] for alg in algorithms}


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
def iter_parallel(
    worker: Callable, jobs: Sequence, workers: int | Pool
) -> Iterator:
    """*worker* over *jobs* with a process pool, one result at a time in
    job order.

    *workers* is a count: a pool of that many starts for this call, and
    closing the iterator early terminates it; ``workers <= 1`` (or one
    job) degrades to a plain in-process loop — callers need no special
    casing, and coverage/debugging stay simple.  Or it is a running
    :class:`multiprocessing.pool.Pool` (a server's, kept warm for its
    lifetime), which takes every job, however few, and which only its
    owner terminates.
    """
    if not isinstance(workers, int):
        yield from workers.imap(worker, jobs)
        return
    if workers <= 1 or len(jobs) <= 1:
        yield from map(worker, jobs)
        return
    from multiprocessing import get_context

    with get_context().Pool(processes=min(workers, len(jobs))) as pool:
        yield from pool.imap(worker, jobs)

