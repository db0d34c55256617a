"""Run manifests: a JSONL event log per campaign / figure run.

Every run (a figure sweep or a :func:`~repro.campaigns.run_campaign`
campaign, pooled or in process) can append its lifecycle to a
**manifest** — one JSON object per line, written by one process only
(the parent of any pool), so the log is crash-safe and never
interleaved:

* ``run-start`` — label, run kind (``figure`` / ``campaign``; the
  benchmark's shard directories also write ``campaign-shard`` /
  ``campaign-merge``), worker count, store directory, wall-clock epoch,
  free-form ``meta``;
* ``cell`` — one unit of work (a per-algorithm figure job, a campaign
  job key): ``phase`` is ``start`` (in-process cells only — a pooled
  parent first hears of a cell when its result arrives) or ``finish``
  with the cell's wall ``seconds``, the ``worker`` pid that ran it
  (``0``: this process), simulated ``cycles``, per-cell cache counters
  when a store was in play, and a ``status`` (``error`` for a cell that
  raised).  One loop runs every runner's cells,
  :func:`repro.experiments.parallel.run_cells`, and one function in it
  writes every ``finish``, in process or pooled;
* ``span`` — one trace span (:mod:`repro.obs.spans`), written when it
  closes: a writer is the recorder of the run's
  :class:`~repro.obs.spans.Trace`, so a crash loses no closed span;
* ``run-finish`` — total seconds, the run's telemetry registry's
  :meth:`~repro.obs.telemetry.TelemetryRegistry.merge_digest` (the
  partition-independent digest, so a figure or campaign run pooled or
  in process records the same value for the same cells) with its series slice, and a terminal ``status``
  (``error`` when the run died on an exception: leaving the writer's
  ``with`` block that way closes the run).

Each event carries ``t``, seconds since the writer was created
(monotonic).  Wall-clock here is deliberate and legal: manifests live
*outside* the simulator (REP006 bans clock syscalls only in
``repro.simulator`` and ``repro.obs.telemetry``); simulated time stays
cycle-stamped inside the telemetry snapshots.

``python -m repro.obs report <manifest>`` renders the dashboard:
per-algorithm cell throughput, slowest cells, cache hit rate, and a
validation of the naive linear ETA model against the actual runtime.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.obs.profile import clock

__all__ = [
    "ManifestWriter",
    "read_jsonl",
    "read_manifest",
    "render_report",
    "summarize_manifest",
]


class ManifestWriter:
    """Append-only JSONL event log, flushed per event.

    The parent process is the sole writer (workers ship timings and
    spans back with their results; a shard writes its own file).  Use
    as a context manager or call :meth:`close`; a ``with`` block left by
    an exception while a run is open first records ``run-finish`` with
    ``status="error"``.

    A writer is also a span recorder (the :class:`~repro.obs.spans.
    SpanRecorder` protocol: :meth:`add`), so ``Trace(writer, trace_id)``
    writes every span of the run the moment it closes; ``spans`` keeps
    what was written.
    """

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")
        self._t0 = clock()
        self._run_open = False
        self.events_written = 0
        self.spans: list[dict] = []

    # ------------------------------------------------------------------
    def event(self, event: str, *, at: float | None = None, **fields) -> dict:
        """Append one event (``t`` = seconds since writer creation, at the
        :data:`~repro.obs.profile.clock` reading *at* if given, else now)."""
        now = clock() if at is None else at
        payload = {"event": event, "t": round(now - self._t0, 6)}
        payload.update(fields)
        self._fh.write(json.dumps(payload, sort_keys=True) + "\n")
        self._fh.flush()
        self.events_written += 1
        return payload

    def run_start(
        self,
        label: str,
        *,
        kind: str,
        workers: int = 1,
        store: str | None = None,
        **meta,
    ) -> dict:
        fields = {
            "label": label,
            "kind": kind,
            "workers": workers,
            "store": store,
            "wall_unix": int(time.time()),
        }
        if meta:
            fields["meta"] = meta
        self._run_open = True
        return self.event("run-start", **fields)

    def cell_start(self, cell_id: str, *, at: float | None = None) -> dict:
        return self.event("cell", at=at, id=cell_id, phase="start")

    def cell_finish(
        self,
        cell_id: str,
        *,
        seconds: float,
        worker: int = 0,
        cycles: int = 0,
        cache: dict | None = None,
        status: str = "ok",
    ) -> dict:
        fields = {
            "id": cell_id,
            "phase": "finish",
            "seconds": round(seconds, 6),
            "worker": worker,
            "cycles": cycles,
            "status": status,
        }
        if cache is not None:
            fields["cache"] = cache
        return self.event("cell", **fields)

    def add(self, span) -> dict:
        """Append one finished trace span (see :mod:`repro.obs.spans`).

        Spans ride in the manifest as ``span`` events so a run's trace
        survives next to its cells; :func:`repro.obs.spans.
        spans_from_manifest` recovers them for merging and rendering.
        A span a :class:`~repro.obs.spans.Trace` closes arrives as its
        position and stamps: its dict is built and written here, before
        the run goes on.
        """
        if type(span) is not dict:
            span = span.as_dict()
        self.event("span", **span)
        self.spans.append(span)
        return span

    def run_finish(self, *, status: str = "ok", telemetry=None) -> dict:
        """Close out the run.

        With *telemetry* (the run's :class:`~repro.obs.telemetry.
        TelemetryRegistry`) the event carries its ``merge_digest`` as
        ``telemetry_digest`` and its series-only slice as
        ``telemetry_series``, so ``obs timeline <manifest>`` can render
        the run's dynamics later; the scalar instruments stay summarized
        by the digest alone to keep manifests small.
        """
        fields = {
            "status": status,
            "seconds": round(clock() - self._t0, 6),
        }
        if telemetry is not None:
            from repro.obs.telemetry import series_snapshot

            fields["telemetry_digest"] = telemetry.merge_digest()
            series = series_snapshot(telemetry)
            if series:
                fields["telemetry_series"] = series
        self._run_open = False
        return self.event("run-finish", **fields)

    # ------------------------------------------------------------------
    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "ManifestWriter":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is not None and self._run_open:
            self.run_finish(status="error")
        self.close()


# ----------------------------------------------------------------------
# Reading + reporting
# ----------------------------------------------------------------------
def read_jsonl(path: Path | str) -> list[dict]:
    """Parse a JSONL file into its records (blank lines skipped).

    The one reader of every append-only JSONL file the project writes:
    manifests, span files and the perf ledger.  A final line with no
    trailing newline is a torn append from a crashed writer: if it fails
    to parse it is skipped with a :class:`UserWarning` so resumed runs
    can always read their own file.  Any *complete* (newline-terminated)
    line that fails to parse still raises, naming ``file:line`` — that
    is corruption, not a crash artifact.
    """
    import warnings

    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = text.split("\n")
    records = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if lineno == len(lines):  # no newline after it: torn
                warnings.warn(
                    f"{path}:{lineno}: skipping torn final line "
                    "(crash mid-append?)",
                    stacklevel=2,
                )
                continue
            raise ValueError(
                f"{path}:{lineno}: bad JSONL line: {exc}"
            ) from None
    return records


#: A manifest is a JSONL event log.
read_manifest = read_jsonl


def _cell_group(cell_id: str) -> str:
    """The reporting group of a cell — its leading path component.

    Both figure cells (``duato-nbc``) and campaign keys
    (``duato-nbc/r0.008/f5/s0/x0``) lead with the algorithm name.
    """
    return cell_id.split("/", 1)[0]


def summarize_manifest(events: list[dict]) -> dict:
    """Aggregate a manifest's events into the report model.

    Returns a dict with the run header (from the *last* ``run-start`` —
    campaign manifests accumulate across resumes), per-group cell
    statistics, the slowest cells, cache totals, and an ETA-model
    validation table (linear cells-done extrapolation at the 25/50/75%
    marks vs the actual total).
    """
    run_start = None
    run_finish = None
    finishes: list[dict] = []
    for ev in events:
        kind = ev.get("event")
        if kind == "run-start":
            run_start = ev
            finishes = []  # report the most recent run segment
            run_finish = None
        elif kind == "cell" and ev.get("phase") == "finish":
            finishes.append(ev)
        elif kind == "run-finish":
            run_finish = ev

    groups: dict[str, dict] = {}
    cache_totals = {"hits": 0, "misses": 0, "puts": 0, "bypassed": 0}
    have_cache = False
    for ev in finishes:
        g = groups.setdefault(
            _cell_group(ev.get("id", "?")),
            {"cells": 0, "seconds": 0.0, "cycles": 0, "errors": 0},
        )
        g["cells"] += 1
        g["seconds"] += ev.get("seconds", 0.0)
        g["cycles"] += ev.get("cycles", 0)
        if ev.get("status", "ok") != "ok":
            g["errors"] += 1
        cache = ev.get("cache")
        if cache:
            have_cache = True
            for k in cache_totals:
                cache_totals[k] += cache.get(k, 0)

    slowest = sorted(
        finishes, key=lambda ev: ev.get("seconds", 0.0), reverse=True
    )[:5]

    # ETA model validation: after k cells the naive model predicts
    # total = t_k * n / k; compare against the actual end time.
    eta_checks = []
    n = len(finishes)
    if n >= 4:
        end_t = (run_finish or finishes[-1]).get("t", finishes[-1].get("t", 0.0))
        start_t = run_start.get("t", 0.0) if run_start else 0.0
        actual = end_t - start_t
        if actual > 0:
            for frac in (0.25, 0.5, 0.75):
                k = max(1, int(n * frac))
                t_k = finishes[k - 1].get("t", 0.0) - start_t
                predicted = t_k * n / k
                eta_checks.append(
                    {
                        "at_pct": int(frac * 100),
                        "cells_done": k,
                        "predicted_s": round(predicted, 3),
                        "actual_s": round(actual, 3),
                        "error_pct": round(
                            100.0 * (predicted - actual) / actual, 1
                        ),
                    }
                )

    keyed = cache_totals["hits"] + cache_totals["misses"]
    return {
        "label": (run_start or {}).get("label", "?"),
        "kind": (run_start or {}).get("kind", "?"),
        "workers": (run_start or {}).get("workers", 1),
        "store": (run_start or {}).get("store"),
        "status": (run_finish or {}).get("status", "incomplete"),
        "total_seconds": (run_finish or {}).get("seconds"),
        "telemetry_digest": (run_finish or {}).get("telemetry_digest"),
        "n_cells": n,
        "groups": groups,
        "slowest": [
            {
                "id": ev.get("id", "?"),
                "seconds": ev.get("seconds", 0.0),
                "worker": ev.get("worker", 0),
            }
            for ev in slowest
        ],
        "cache": cache_totals if have_cache else None,
        "cache_hit_rate": (cache_totals["hits"] / keyed) if keyed else None,
        "eta_checks": eta_checks,
    }


def render_report(summary: dict) -> str:
    """The ASCII dashboard for ``python -m repro.obs report``."""
    lines = []
    header = (
        f"run {summary['label']!r} [{summary['kind']}] "
        f"workers={summary['workers']} status={summary['status']}"
    )
    lines.append(header)
    lines.append("=" * len(header))
    if summary.get("store"):
        lines.append(f"store: {summary['store']}")
    if summary.get("total_seconds") is not None:
        lines.append(f"total: {summary['total_seconds']:.2f}s "
                     f"over {summary['n_cells']} cells")
    else:
        lines.append(f"cells finished: {summary['n_cells']} (run incomplete)")
    if summary.get("telemetry_digest"):
        lines.append(f"telemetry digest: {summary['telemetry_digest']}")

    if summary["groups"]:
        lines.append("")
        lines.append(f"{'group':<24} {'cells':>5} {'seconds':>9} "
                     f"{'cells/s':>8} {'Mcycles':>8} {'errors':>6}")
        for name in sorted(summary["groups"]):
            g = summary["groups"][name]
            rate = g["cells"] / g["seconds"] if g["seconds"] > 0 else float("inf")
            lines.append(
                f"{name:<24} {g['cells']:>5} {g['seconds']:>9.2f} "
                f"{rate:>8.2f} {g['cycles'] / 1e6:>8.2f} {g['errors']:>6}"
            )

    if summary["slowest"]:
        lines.append("")
        lines.append("slowest cells:")
        for row in summary["slowest"]:
            lines.append(
                f"  {row['seconds']:>8.2f}s  w{row['worker']}  {row['id']}"
            )

    if summary.get("cache") is not None:
        c = summary["cache"]
        lines.append("")
        rate = summary.get("cache_hit_rate")
        rate_s = f"{100.0 * rate:.1f}%" if rate is not None else "n/a"
        lines.append(
            f"cache: {c['hits']} hits / {c['misses']} misses "
            f"({rate_s} hit rate), {c['puts']} puts, "
            f"{c['bypassed']} bypassed"
        )

    if summary["eta_checks"]:
        lines.append("")
        lines.append("ETA model validation (linear cells-done extrapolation):")
        lines.append(f"  {'at':>4} {'done':>5} {'predicted':>10} "
                     f"{'actual':>8} {'error':>7}")
        for row in summary["eta_checks"]:
            lines.append(
                f"  {row['at_pct']:>3}% {row['cells_done']:>5} "
                f"{row['predicted_s']:>9.2f}s {row['actual_s']:>7.2f}s "
                f"{row['error_pct']:>+6.1f}%"
            )
    return "\n".join(lines)
