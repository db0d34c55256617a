"""Campaign runner: manifest-driven simulation grids with resume.

The runner executes every cell of a :class:`~repro.campaigns.spec.
CampaignSpec`, appends one JSON line per finished run to
``results.jsonl`` (so partial campaigns survive interruption and resume
for free), and writes a ``manifest.json`` capturing the exact inputs —
config, spec, and the drawn fault patterns — via
:mod:`repro.util.serialization`.

This is the single-directory execution engine underneath
:mod:`repro.campaigns`: the :class:`~repro.campaigns.db.CampaignDB`
layer adds store-key planning, sharding and dense query arrays on top.

Example::

    spec = CampaignSpec(
        name="vc-study",
        algorithms=("nhop", "duato-nbc"),
        config=SimConfig(width=10, message_length=16, cycles=4000, warmup=1000),
        rates=(0.005, 0.02),
        fault_counts=(0, 5),
        fault_sets=2,
    )
    runner = CampaignRunner(spec, out_dir="campaigns/vc-study")
    runner.run()
    rows = runner.load_results()
"""

from __future__ import annotations

import json
import warnings
from functools import partial
from pathlib import Path

from repro.campaigns.spec import (
    CampaignSpec,
    cell_id,
    draw_cases,
    execute_cell,
)
from repro.experiments.parallel import (
    collect_cells,
    parallel_map,
    pool_safe_instrument,
    timed_cell,
    worker_evaluator,
)
from repro.obs.manifest import ManifestWriter
from repro.obs.telemetry import series_snapshot
from repro.store.backend import ResultStore, store_dir_of
from repro.store.cache import CacheStats, make_evaluator
from repro.util.serialization import pattern_to_dict

__all__ = [
    "CampaignRunner",
    "load_campaign",
    "read_results_jsonl",
]

_SCHEMA_VERSION = 1


def read_results_jsonl(path: Path | str) -> list[dict]:
    """Rows of a campaign ``results.jsonl``, tolerating a torn tail.

    A process killed mid-append leaves a truncated final line; that line
    is skipped with a :class:`UserWarning` (naming the file and line
    number) instead of raising, so a resumed campaign can always read
    its own partial output.  The same warning fires for any other
    undecodable line — the corresponding cell simply re-runs.
    """
    path = Path(path)
    if not path.exists():
        return []
    rows = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError:
            warnings.warn(
                f"{path}:{lineno}: skipping truncated/corrupt results "
                "line (crash mid-append?); the cell will re-run on resume",
                stacklevel=2,
            )
    return rows


def campaign_cells(
    evaluator, cases: dict, keys, *, manifest=None, trace_context=None
):
    """Run campaign cells one by one, yielding each finished cell.

    Every cell goes through :func:`~repro.experiments.parallel.
    timed_cell` (timing, cache delta, manifest events); its ``value`` is
    the ``results.jsonl`` row.  *trace_context* is the campaign's
    ``(trace_id, root_span_id)``: when set, each cell carries a ``cell``
    span keyed by its id, a direct child of the campaign root — no
    worker- or shard-level parent, so ids do not depend on the dispatch.
    """
    for key in keys:
        cid = cell_id(key)
        span = None
        if trace_context is not None:
            span = {
                "name": "cell",
                "trace_id": trace_context[0],
                "parent_id": trace_context[1],
                "key": cid,
            }
        yield timed_cell(
            cid, partial(_cell_row, evaluator, cases, key, cid), evaluator,
            manifest=manifest, span=span,
        )


def _cell_row(evaluator, cases: dict, key: dict, cid: str) -> tuple[dict, int]:
    row = execute_cell(evaluator, cases, key)
    row["id"] = cid
    return row, row["cycles"]


def _campaign_worker(
    args: tuple[dict, list[dict], str | None, bool],
) -> tuple[list[dict], dict | None]:
    """Pool worker: run a chunk of campaign cells, return them finished.

    Only the parent writes ``results.jsonl`` and ``events.jsonl``; the
    worker ships the finished cells home with its telemetry snapshot
    (fresh registry per worker, merged by the parent).  When a store
    directory is given, the shared :class:`~repro.store.ResultStore` is
    the cross-process dedup point — a cell simulated by any worker (or
    any earlier figure run) is a cache hit everywhere else.
    """
    spec_payload, keys, store_dir, with_telemetry = args
    spec = CampaignSpec.from_dict(spec_payload)
    registry, evaluator = worker_evaluator(
        spec.config, spec.seed, store_dir, with_telemetry
    )
    cells = list(campaign_cells(evaluator, draw_cases(evaluator, spec), keys))
    return cells, None if registry is None else registry.snapshot()


class CampaignRunner:
    """Executes a :class:`CampaignSpec` with crash-safe resume.

    *store* (a :class:`~repro.store.ResultStore` or directory) routes
    every cell through the content-addressed result cache, shared with
    the figure drivers and with pool workers when ``run(workers=N)``.

    *instrument* (see :class:`~repro.core.evaluator.Evaluator`) observes
    every executed cell.  Telemetry-only
    :class:`~repro.obs.telemetry.Instrument` objects distribute across
    ``run(workers=N)`` pools — each worker attaches a fresh registry and
    the parent merges the snapshots — while tracer-carrying instruments
    (and arbitrary callables) force the sequential path.

    Every :meth:`run` appends its lifecycle to ``events.jsonl`` next to
    ``results.jsonl`` (see :mod:`repro.obs.manifest`); render it with
    ``python -m repro.obs report <dir>/events.jsonl``.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        out_dir: Path | str,
        *,
        store: ResultStore | Path | str | None = None,
        instrument=None,
    ) -> None:
        self.spec = spec
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.results_path = self.out_dir / "results.jsonl"
        self.manifest_path = self.out_dir / "manifest.json"
        self.events_path = self.out_dir / "events.jsonl"
        self.store = store
        self.instrument = instrument
        self._evaluator = make_evaluator(
            spec.config, seed=spec.seed, store=store, instrument=instrument
        )
        # Draw the fault cases once; they are part of the manifest.
        self._cases = draw_cases(self._evaluator, spec)

    # ------------------------------------------------------------------
    def write_manifest(self) -> None:
        manifest = {
            "kind": "campaign-manifest",
            "schema": _SCHEMA_VERSION,
            "spec": self.spec.to_dict(),
            "fault_patterns": {
                str(n): [pattern_to_dict(p) for p in case.patterns]
                for n, case in self._cases.items()
            },
        }
        self.manifest_path.write_text(json.dumps(manifest, indent=2))

    def completed_ids(self) -> set[str]:
        """Ids of jobs already present in ``results.jsonl``."""
        done = set()
        for row in read_results_jsonl(self.results_path):
            try:
                done.add(row["id"])
            except (KeyError, TypeError):
                continue  # row without an id: treat the job as pending
        return done

    def run(
        self, *, resume: bool = True, progress=None, workers: int = 1
    ) -> int:
        """Run every (remaining) job; returns how many were executed.

        ``workers > 1`` fans the pending cells out to a process pool in
        contiguous chunks (one per worker).  The parent remains the only
        writer of ``results.jsonl`` and ``events.jsonl``; cross-process
        work sharing happens through the result store, when one is
        configured, and worker telemetry snapshots merge into the
        parent instrument's registry.
        """
        self.write_manifest()
        done = self.completed_ids() if resume else set()
        pending = [
            key for key in self.spec.job_keys() if cell_id(key) not in done
        ]
        if len(pending) <= 1 or not pool_safe_instrument(self.instrument):
            workers = 1  # nothing to fan out, or a tracer that cannot merge
        registry = getattr(self.instrument, "telemetry", None)
        cache_totals = CacheStats() if self.store is not None else None
        with ManifestWriter(self.events_path) as events, \
                self.results_path.open("a" if resume else "w") as sink:
            events.run_start(
                self.spec.name,
                kind="campaign",
                workers=max(workers, 1),
                store=store_dir_of(self.store),
                pending=len(pending),
                resumed=len(done),
            )
            for cell in self._cells(pending, workers, events):
                sink.write(json.dumps(cell["value"]) + "\n")
                sink.flush()
                if progress:
                    progress(f"[{self.spec.name}] {cell['id']}")
                if cache_totals is not None:
                    cache_totals.add(cell["cache"])
            series = (
                series_snapshot(registry) if registry is not None else None
            )
            events.run_finish(
                cache=None if cache_totals is None else cache_totals.as_dict(),
                telemetry_digest=(
                    registry.digest() if registry is not None else None
                ),
                telemetry_series=series or None,
            )
        return len(pending)

    def _cells(self, pending: list[dict], workers: int, events):
        """Finished cells of *pending*, in order: run here against the
        runner's own evaluator, or in *workers* pool chunks."""
        if workers <= 1:
            yield from campaign_cells(
                self._evaluator, self._cases, pending, manifest=events
            )
            return
        size = -(-len(pending) // workers)  # ceil division
        shared = (
            store_dir_of(self.store),
            getattr(self.instrument, "telemetry", None) is not None,
        )
        spec_payload = self.spec.to_dict()
        jobs = [
            (spec_payload, pending[i : i + size], *shared)
            for i in range(0, len(pending), size)
        ]
        for cells, snapshot in parallel_map(
            _campaign_worker, jobs, workers, label=self.spec.name
        ):
            collect_cells(
                cells, snapshot, instrument=self.instrument, manifest=events
            )
            yield from cells

    # ------------------------------------------------------------------
    def load_results(self) -> list[dict]:
        """All completed rows, in file order (torn lines skipped+warned)."""
        return read_results_jsonl(self.results_path)


def load_campaign(out_dir: Path | str) -> tuple[CampaignSpec, list[dict]]:
    """Rebuild a campaign's spec and results from its output directory."""
    out_dir = Path(out_dir)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    spec = CampaignSpec.from_dict(manifest["spec"])
    runner = CampaignRunner(spec, out_dir)
    return spec, runner.load_results()
