"""Message-lifecycle trace export: Chrome-trace JSON and JSONL.

The engine's :class:`~repro.simulator.trace.Tracer` records small
``(cycle, kind, msg_id, node, detail)`` tuples.  This module converts
that event stream into

* **Chrome trace format** (``chrome://tracing`` / Perfetto): one timeline
  row per sampled message, a complete ("X") slice spanning inject →
  retire, instant events for every per-hop crossbar traversal and VC
  allocation, and counter ("C") samples when a telemetry snapshot is
  supplied;
* **JSONL**: one JSON object per raw event, for programmatic analysis.

Cycles map 1:1 to trace microseconds (``ts = cycle``), so Perfetto's
duration readouts are directly in cycles.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.simulator.message import BODY, HEAD, TAIL
from repro.simulator.trace import Tracer

__all__ = [
    "chrome_trace",
    "jsonl_lines",
    "lifecycle_tracer",
    "spans_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "write_spans_trace",
    "write_trace",
]

#: Event kinds the exporters understand (the engine's full vocabulary).
EVENT_KINDS = ("inject", "alloc", "move", "deliver", "drain")

_FLIT_NAMES = {HEAD: "head", BODY: "body", TAIL: "tail"}


def lifecycle_tracer(sample: int = 1) -> Tracer:
    """A tracer capturing the full message lifecycle (up to a million
    events), sampled 1-in-N."""
    return Tracer(capacity=1_000_000, sample=sample)


def _event_args(kind: str, detail) -> dict:
    if kind == "alloc" and isinstance(detail, tuple) and len(detail) == 2:
        return {"port": detail[0], "vc": detail[1]}
    if kind == "move":
        return {"flit": _FLIT_NAMES.get(detail, str(detail))}
    if kind == "drain":
        return {"cause": detail}
    return {}


def chrome_trace(
    tracer_or_events: Tracer | Iterable[tuple],
    *,
    label: str = "repro",
    telemetry_snapshot: dict | None = None,
) -> dict:
    """Convert recorded events to a Chrome-trace JSON object.

    Each message gets its own thread row (``tid = msg_id``): a complete
    "X" slice from head injection to tail delivery (or drain), plus
    instant events for allocations and crossbar moves.  Unfinished
    messages (still in flight when the trace ended) emit no slice but
    keep their instants.  When *telemetry_snapshot* (a
    :meth:`~repro.obs.telemetry.TelemetryRegistry.snapshot`) is given,
    every counter becomes one "C" sample at the trace's last event
    cycle (the counters' values as the trace ends).
    """
    events = (
        list(tracer_or_events.events)
        if isinstance(tracer_or_events, Tracer)
        else list(tracer_or_events)
    )
    out: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": f"{label} (1 us = 1 cycle)"},
        }
    ]
    # First pass: per-message lifecycle bounds.
    start: dict[int, tuple[int, int]] = {}  # msg -> (cycle, node)
    end: dict[int, tuple[int, int, str]] = {}  # msg -> (cycle, node, how)
    for cycle, kind, msg_id, node, detail in events:
        if kind == "inject" and msg_id not in start:
            start[msg_id] = (cycle, node)
        elif kind == "deliver":
            end[msg_id] = (cycle, node, "deliver")
        elif kind == "drain":
            end[msg_id] = (cycle, node, str(detail))
    for msg_id, (t0, src) in sorted(start.items()):
        stop = end.get(msg_id)
        if stop is None:
            continue
        t1, last_node, how = stop
        out.append({
            "name": f"msg {msg_id}",
            "cat": "message",
            "ph": "X",
            "ts": t0,
            "dur": max(t1 - t0, 0),
            "pid": 0,
            "tid": msg_id,
            "args": {"src": src, "end_node": last_node, "outcome": how},
        })
    # Second pass: instants, in stream order.
    for cycle, kind, msg_id, node, detail in events:
        if kind == "inject":
            continue  # represented by the slice start
        out.append({
            "name": f"{kind}@{node}",
            "cat": kind,
            "ph": "i",
            "s": "t",
            "ts": cycle,
            "pid": 0,
            "tid": msg_id,
            "args": {"node": node, **_event_args(kind, detail)},
        })
    if telemetry_snapshot:
        ts = events[-1][0] if events else 0
        for name, inst in sorted(telemetry_snapshot.items()):
            if inst.get("type") != "counter":
                continue
            out.append({
                "name": name,
                "ph": "C",
                "ts": ts,
                "pid": 0,
                "tid": 0,
                "args": {"value": inst.get("value", 0)},
            })
    return {
        "traceEvents": out,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.obs", "label": label},
    }


def jsonl_lines(tracer_or_events: Tracer | Iterable[tuple]) -> Iterable[str]:
    """One compact JSON object per raw event (programmatic analysis)."""
    events = (
        tracer_or_events.events
        if isinstance(tracer_or_events, Tracer)
        else tracer_or_events
    )
    for cycle, kind, msg_id, node, detail in events:
        payload = {"cycle": cycle, "kind": kind, "msg": msg_id, "node": node}
        if detail is not None:
            payload["detail"] = (
                list(detail) if isinstance(detail, tuple) else detail
            )
        yield json.dumps(payload, separators=(",", ":"), sort_keys=True)


def write_chrome_trace(
    path: Path | str,
    tracer_or_events: Tracer | Iterable[tuple],
    *,
    label: str = "repro",
    telemetry_snapshot: dict | None = None,
) -> int:
    """Write a ``chrome://tracing``-loadable JSON file; returns #events."""
    trace = chrome_trace(
        tracer_or_events, label=label, telemetry_snapshot=telemetry_snapshot
    )
    Path(path).write_text(json.dumps(trace))
    return len(trace["traceEvents"])


def write_jsonl(
    path: Path | str, tracer_or_events: Tracer | Iterable[tuple]
) -> int:
    """Write one JSON object per event to *path*; returns #events."""
    n = 0
    with open(path, "w") as sink:
        for line in jsonl_lines(tracer_or_events):
            sink.write(line + "\n")
            n += 1
    return n


def write_trace(
    path: Path | str,
    tracer_or_events: Tracer | Iterable[tuple],
    *,
    label: str = "repro",
    telemetry_snapshot: dict | None = None,
) -> int:
    """Dispatch on suffix: ``.jsonl`` -> JSONL, anything else -> Chrome."""
    if str(path).endswith(".jsonl"):
        return write_jsonl(path, tracer_or_events)
    return write_chrome_trace(
        path, tracer_or_events, label=label,
        telemetry_snapshot=telemetry_snapshot,
    )


# ----------------------------------------------------------------------
# Cross-layer spans (repro.obs.spans) -> Chrome trace
# ----------------------------------------------------------------------
def spans_chrome_trace(spans: Iterable[dict], *, label: str = "repro") -> dict:
    """Convert :mod:`repro.obs.spans` spans to a Chrome-trace object.

    Each trace becomes one process row of wall-clock slices (seconds ->
    microseconds, zeroed at the trace's earliest start).
    """
    from repro.obs.spans import merge_spans

    merged = merge_spans(list(spans))
    out: list[dict] = []
    trace_ids = sorted({s["trace_id"] for s in merged})
    for pid, trace_id in enumerate(trace_ids, start=1):
        trace_spans = [s for s in merged if s["trace_id"] == trace_id]
        out.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": f"{label} trace {trace_id}"},
        })
        clock_zero = min(s["start"] for s in trace_spans)
        for span in trace_spans:
            out.append({
                "name": span["name"],
                "cat": span["kind"],
                "ph": "X",
                "ts": (span["start"] - clock_zero) * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "pid": pid,
                "tid": 0,
                "args": {
                    "span_id": span["span_id"],
                    "parent_id": span["parent_id"],
                    **span.get("attrs", {}),
                },
            })
    return {
        "traceEvents": out,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.obs.spans", "label": label},
    }


def write_spans_trace(
    path: Path | str, spans: Iterable[dict], *, label: str = "repro"
) -> int:
    """Write spans to *path*: ``.jsonl`` -> span JSONL, else Chrome JSON."""
    from repro.obs.spans import write_spans_jsonl

    spans = list(spans)
    if str(path).endswith(".jsonl"):
        return write_spans_jsonl(path, spans)
    trace = spans_chrome_trace(spans, label=label)
    Path(path).write_text(json.dumps(trace))
    return len(trace["traceEvents"])
