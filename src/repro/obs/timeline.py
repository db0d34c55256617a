"""Render and export the engine's windowed telemetry series.

``obs timeline`` turns the ``engine.series.*`` instruments into a
terminal dashboard: one ASCII sparkline per series, a derived
per-window mean-latency row, and a saturation-onset annotation
(:func:`repro.metrics.saturation.series_onset`).  The same rows export
as CSV or JSONL for plotting.

Sources are anything that carries series snapshots: a live
:class:`~repro.obs.telemetry.TelemetryRegistry`, a (full or
series-only) snapshot dict, or a file — a JSON snapshot dump or a run
manifest whose ``run-finish`` event embedded ``telemetry_series``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.obs.telemetry import series_snapshot

__all__ = [
    "load_series",
    "render_timeline",
    "timeline_csv",
    "timeline_jsonl_lines",
    "timeline_rows",
]

#: Prefix the engine gives every windowed series; stripped for display.
SERIES_PREFIX = "engine.series."

#: Derived per-window mean latency (latency.sum / messages.delivered).
LATENCY_MEAN_ROW = "latency.mean"

_SPARK = " ▁▂▃▄▅▆▇█"


def load_series(path: Path | str) -> dict:
    """Series snapshot from a file: manifest JSONL or snapshot JSON.

    For a ``.jsonl`` run manifest, the last ``run-finish`` event with a
    ``telemetry_series`` payload wins (matching ``obs report``'s
    last-run-wins convention).  Any other file is parsed as JSON and
    filtered to its series instruments.
    """
    path = Path(path)
    if path.suffix == ".jsonl":
        found = None
        with open(path, encoding="utf-8") as src:
            for line in src:
                line = line.strip()
                if not line:
                    continue
                event = json.loads(line)
                if (
                    event.get("event") == "run-finish"
                    and event.get("telemetry_series") is not None
                ):
                    found = event["telemetry_series"]
        if found is None:
            raise ValueError(
                f"{path}: no run-finish event carries telemetry_series "
                "(was the run made with --telemetry?)"
            )
        return found
    payload = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return series_snapshot(payload)


def timeline_rows(source) -> tuple[int, dict[str, list[float]]]:
    """``(window, rows)`` for rendering/export.

    Rows map display names (series names with the ``engine.series.``
    prefix stripped) to per-window values, all padded to a common
    length, with the derived :data:`LATENCY_MEAN_ROW` appended when the
    latency series are present (NaN for windows with no deliveries).
    """
    series = series_snapshot(source)
    if not series:
        raise ValueError("source carries no series instruments")
    windows = {payload["window"] for payload in series.values()}
    if len(windows) != 1:
        raise ValueError(f"mixed series windows {sorted(windows)}")
    window = windows.pop()
    length = max(len(p["values"]) for p in series.values())
    rows: dict[str, list[float]] = {}
    for name in sorted(series):
        values = list(series[name]["values"])
        values.extend([0] * (length - len(values)))
        display = name.removeprefix(SERIES_PREFIX)
        rows[display] = values
    lat = rows.get("latency.sum")
    cnt = rows.get("messages.delivered")
    if lat is not None and cnt is not None:
        rows[LATENCY_MEAN_ROW] = [
            s / c if c else float("nan") for s, c in zip(lat, cnt)
        ]
    return window, rows


def sparkline(values, missing: str = ".") -> str:
    """Scale *values* to block characters against their peak; a NaN or
    ``None`` entry renders as *missing*."""
    absent = [v is None or math.isnan(v) for v in values]
    peak = max((v for v, gone in zip(values, absent) if not gone), default=0)
    return "".join(
        missing if gone
        else _SPARK[int(v / peak * (len(_SPARK) - 1) + 0.5) if peak > 0 else 0]
        for v, gone in zip(values, absent)
    )


def render_timeline(source, *, annotate: bool = True) -> str:
    """The terminal dashboard: one sparkline row per series."""
    window, rows = timeline_rows(source)
    n = max(len(v) for v in rows.values())
    width = max(len(name) for name in rows)
    lines = [f"{n} windows x {window} cycles ({n * window} cycles total)"]
    for name, values in rows.items():
        finite = [v for v in values if not math.isnan(v)]
        peak = max(finite, default=float("nan"))
        total = sum(finite)
        lines.append(
            f"{name:<{width}} |{sparkline(values)}| "
            f"peak={peak:g} total={total:g}"
        )
    if annotate and LATENCY_MEAN_ROW in rows:
        from repro.metrics.saturation import series_onset

        onset = series_onset(window, rows[LATENCY_MEAN_ROW])
        if onset is None:
            lines.append("saturation onset: none in this run")
        else:
            lines.append(
                f"saturation onset: cycle {onset.rate:g} "
                f"(window latency {onset.latency:.1f} vs baseline "
                f"{onset.zero_load_latency:.1f})"
            )
    return "\n".join(lines)


def timeline_csv(source) -> str:
    """CSV export: one line per window, one column per row."""
    window, rows = timeline_rows(source)
    names = list(rows)
    lines = [",".join(["window_start"] + names)]
    n = max(len(v) for v in rows.values())
    for i in range(n):
        cells = [str(i * window)]
        for name in names:
            v = rows[name][i]
            cells.append("" if math.isnan(v) else f"{v:g}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def timeline_jsonl_lines(source) -> list[str]:
    """JSONL export: one object per window (NaN becomes ``null``)."""
    window, rows = timeline_rows(source)
    n = max(len(v) for v in rows.values())
    lines = []
    for i in range(n):
        record: dict = {"window_start": i * window}
        for name, values in rows.items():
            v = values[i]
            record[name] = None if math.isnan(v) else v
        lines.append(json.dumps(record, sort_keys=True))
    return lines
