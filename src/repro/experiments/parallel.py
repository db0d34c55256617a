"""The one cell path: figure cells, pool workers and campaign shards.

Every result in the paper is a per-algorithm series over a small grid,
and every runner in this repository does the same thing to produce one:
execute a **cell** (one algorithm's figure job, one campaign grid
point) against an evaluator, time it, log it, account its cache
traffic, and record its trace span.  That happens in exactly one place,
:func:`timed_cell`; the runners differ only in *dispatch* — which
evaluator the cell runs against and in which process:

* **in process** — cells run against the caller's evaluator (a figure's
  shared one, a shard's or sequential campaign's own) and
  :func:`timed_cell` writes ``cell_start`` + ``cell_finish`` (with the
  cell's cache delta) straight into the manifest;
* **pooled** (``--workers N`` figures) — the same call runs in a worker
  against a *fresh* evaluator (:func:`worker_evaluator`) and the
  finished cell rides home; the parent, sole writer of the manifest,
  records its ``cell_finish`` with the worker pid
  (:func:`collect_cells`).

Workers receive only picklable values (the frozen
:class:`~repro.experiments.profiles.Profile` or a spec payload, the job
function by import path, a store *directory*), so the pool works with
the ``spawn`` and ``fork`` start methods alike.  Sharing happens through
the :class:`~repro.store.ResultStore`: its locked appends make one store
safe for all workers at once, and a cell any process simulated earlier
is a cache hit everywhere else.

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
from collections.abc import Callable, Sequence
from contextlib import ExitStack
from functools import partial

from repro.obs.profile import clock
from repro.obs.spans import ambient, make_span
from repro.store.backend import store_dir_of
from repro.store.cache import make_evaluator


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
    """A fresh ``(registry, evaluator)`` pair for one worker or shard.

    *registry* is ``None`` unless *with_telemetry*; the evaluator is
    cached when *store* (a store or directory) is given.
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
    cell_id: str, run: Callable, evaluator, *, manifest=None, span=None
) -> dict:
    """Run one cell: the only place a cell is timed and logged.

    ``run()`` returns ``(value, cycles)``; *evaluator* is the one it
    runs against, read here for cache accounting only.  The finished
    cell is a dict, JSON-safe apart from ``value``::

        {"id", "value", "seconds", "cycles", "cache", "pid", "span"}

    ``cache`` is the evaluator's cache-counter delta over the cell
    (``None`` without a store).  *span* holds the identifying
    :func:`~repro.obs.spans.make_span` arguments (name, trace id,
    parent, key) of the cell's clock span, or ``None`` for no tracing.

    With a *manifest* (:class:`~repro.obs.manifest.ManifestWriter`) the
    cell's ``start`` and ``finish`` events are written here.  A cell
    that raises still gets its ``finish`` — with ``status="error"`` —
    before the exception propagates, so a failed run's manifest names
    the cell that killed it.
    """
    if manifest is not None:
        manifest.cell_start(cell_id)
    before = _cache_counters(evaluator)
    value, cycles, status = None, 0, "error"
    t0 = clock()
    try:
        value, cycles = run()
        status = "ok"
    finally:
        t1 = clock()
        cache = None
        if before is not None:
            after = _cache_counters(evaluator)
            cache = {k: after[k] - before[k] for k in after}
        if manifest is not None:
            manifest.cell_finish(
                cell_id, seconds=t1 - t0, cycles=cycles, cache=cache,
                status=status,
            )
    pid = os.getpid()
    if span is not None:
        span = make_span(
            **span, kind="clock", start=t0, end=t1,
            attrs={"id": cell_id, "cycles": cycles, "pid": pid},
        )
    return {
        "id": cell_id,
        "value": value,
        "seconds": t1 - t0,
        "cycles": cycles,
        "cache": cache,
        "pid": pid,
        "span": span,
    }


def collect_cells(
    cells, snapshot=None, *, instrument=None, manifest=None, spans=None
) -> None:
    """Parent-side bookkeeping for finished *cells*.

    Folds a worker's telemetry *snapshot* into *instrument*'s registry
    and adds the cells' trace spans to *spans* (a
    :class:`~repro.obs.spans.SpanRecorder` or list).  *manifest* is for
    cells that ran in a pool worker only: the parent first hears of such
    a cell when its result arrives, so it records a lone ``finish``
    carrying the worker pid (in-process cells were already logged by
    :func:`timed_cell`).
    """
    registry = getattr(instrument, "telemetry", None)
    if snapshot and registry is not None:
        registry.merge(snapshot)
    if manifest is not None:
        for cell in cells:
            manifest.cell_finish(
                cell["id"], seconds=cell["seconds"], worker=cell["pid"],
                cycles=cell["cycles"], cache=cell["cache"],
            )
    if spans is not None:
        spans.extend(cell["span"] for cell in cells if cell["span"])


# ----------------------------------------------------------------------
# Per-algorithm fan-out (the figure drivers)
# ----------------------------------------------------------------------
def _algorithm_cell(
    run: Callable, evaluator, manifest, registry, algorithm: str
) -> tuple[str, dict, dict | None]:
    """One figure cell, traced as ``cell.<algorithm>`` under the ambient
    context (if one is published), plus *registry*'s snapshot to ship."""
    span = None
    context = ambient()
    if context is not None:
        span = {
            "name": f"cell.{algorithm}",
            "trace_id": context[0],
            "parent_id": context[1],
        }
    cell = timed_cell(
        algorithm, partial(run, algorithm), evaluator,
        manifest=manifest, span=span,
    )
    return algorithm, cell, None if registry is None else registry.snapshot()


def _algorithm_worker(args: tuple) -> tuple[str, dict, dict | None]:
    """Pool body of :func:`run_per_algorithm`: the same cell, run against
    a fresh evaluator and registry (top level so that it pickles)."""
    job, profile, algorithm, seed, store_dir, with_telemetry = args
    registry, evaluator = worker_evaluator(
        profile.config, seed, store_dir, with_telemetry
    )
    return _algorithm_cell(
        job(evaluator, profile), evaluator, None, registry, algorithm
    )


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
    spans=None,
) -> dict:
    """``{algorithm: series}`` from one cell per algorithm.

    ``job(evaluator, profile)`` prepares whatever every algorithm shares
    (fault cases are drawn here, once per evaluator) and returns the
    cell body ``run(algorithm) -> (series, cycles)``.  *job* is a
    module-level function: it is pickled by import path, and lint rule
    REP012 holds it to pool-worker purity.  ``workers > 1`` runs each
    cell in a pool worker against a fresh evaluator; otherwise all cells
    share one evaluator in this process.  Results are identical either
    way — per-run seeds derive from ``(seed, algorithm, set, rate)``
    and fault cases from ``(seed, count)``, never from execution order.

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
    and cache counters; *spans* (a
    :class:`~repro.obs.spans.SpanRecorder`) collects one
    ``cell.<algorithm>`` span per algorithm under the ambient trace
    context — identical ids whether the cells ran pooled or in process.
    """
    algorithms = algorithms or profile.algorithms
    pooled = (
        workers > 1
        and len(algorithms) > 1
        and pool_safe_instrument(instrument)
    )
    if pooled:
        with_telemetry = getattr(instrument, "telemetry", None) is not None
        store_dir = store_dir_of(store)
        jobs = [
            (job, profile, alg, seed, store_dir, with_telemetry)
            for alg in algorithms
        ]
        cells = parallel_map(_algorithm_worker, jobs, workers, progress, label)
    else:
        evaluator = make_evaluator(
            profile.config, seed=seed, store=store, instrument=instrument
        )
        in_process = partial(
            _algorithm_cell, job(evaluator, profile), evaluator, manifest, None
        )
        cells = parallel_map(in_process, algorithms, 1, progress, label)
    series = {}
    for alg, cell, snapshot in cells:
        collect_cells(
            [cell], snapshot, instrument=instrument,
            manifest=manifest if pooled else None, spans=spans,
        )
        series[alg] = cell["value"]
    return series


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


def parallel_map(
    worker: Callable,
    jobs: Sequence,
    workers: int,
    progress: Callable[[str], None] | None = None,
    label: str = "",
) -> list:
    """Run *worker* over *jobs* with a process pool (ordered results).

    ``workers <= 1`` degrades to a plain in-process loop — callers need
    no special casing, and coverage/debugging stay simple.
    """
    with ExitStack() as stack:
        if workers <= 1 or len(jobs) <= 1:
            results = map(worker, jobs)
        else:
            from multiprocessing import get_context

            pool = get_context().Pool(processes=min(workers, len(jobs)))
            results = stack.enter_context(pool).imap(worker, jobs)
        out = []
        for i, result in enumerate(results):
            out.append(result)
            if progress:
                progress(f"[{label}] {_progress_label(result, i)}: done")
        return out
