"""Per-message latency blame: *why* a message took the cycles it took.

The paper's figures say *that* latency grows under load and faults;
this module decomposes each delivered message's generation-to-delivery
latency into five causes:

``source_queue``
    Cycles between generation and the head flit entering the injection
    VC (``injected - created``): PE-side queueing before the network.
``header_blocked``
    Cycles the header sat at the front of an input VC with no free
    output VC — one per cycle the routing phase left it unrouted.
    Matches the engine's ``engine.headers.blocked_cycles`` counter
    event-for-event.
``route_compute``
    Non-ejection VC grants off the fault rings: one cycle per
    successful routing decision, i.e. the hop count of the path
    actually taken (minus any f-ring hops).
``f_ring_detour``
    Non-ejection VC grants taken while in Boppana–Chalasani f-ring
    transit (``msg.ring is not None`` and a ring-role VC) — the
    ``on_ring`` flag of the engine's ``granted`` event, which the
    telemetry ``engine.fring.*`` counters read too.  The cycles the
    detour cost, separated from productive routing.
``data_pipeline``
    The remainder: wormhole serialization of the body/tail flits plus
    switch-allocation waits.  For a contention-free L-flit, d-hop
    message this is exactly ``L - 1`` (and ``route_compute`` is ``d``),
    recovering the classic ``d + (L-1)`` wormhole latency model.

**Reconciliation invariant** (tested): the five components sum to the
recorded latency per message, each is non-negative (blocked/grant
events occupy distinct cycles between injection and delivery), and the
aggregates reconcile with the telemetry a run publishes —
``blocked_events`` equals ``engine.headers.blocked_cycles``, delivered
count and latency mass equal the ``engine.latency`` histogram.

A :class:`BlameRecorder` is an ordinary engine observer
(``sim.attach(recorder)``): it subscribes to ``blocked``, ``granted``,
``delivered`` and ``dropped``, only receives counts and draws no RNG, so
an attached run is bit-identical to a detached one.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = [
    "COMPONENTS",
    "BlameRecorder",
    "aggregate_blame",
    "blame_cell",
    "blame_csv",
    "blame_payload",
    "reconcile_blame",
    "render_blame_report",
    "top_slow",
    "write_blame_json",
]

#: Blame components, in the order reports print them.  They partition
#: each message's ``latency`` exactly.
COMPONENTS = (
    "source_queue",
    "header_blocked",
    "route_compute",
    "f_ring_detour",
    "data_pipeline",
)


class BlameRecorder:
    """Collects per-message blame events from one (or more) runs.

    The engine publishes :meth:`blocked` / :meth:`granted` per event,
    :meth:`delivered` at tail ejection (which finalizes the record) and
    :meth:`dropped` when recovery drains a message (its partial counters
    are discarded).  Memory is O(in-flight messages) for the counters
    plus O(delivered) for the finished records.

    *mesh* provides minimal-hop distances for the hops-taken vs
    minimal-hops comparison; attaching binds the simulation's mesh
    when none was given.
    """

    __slots__ = ("mesh", "records", "blocked_events", "_blocked", "_route",
                 "_ring")

    def __init__(self, mesh=None) -> None:
        self.mesh = mesh
        self.records: list[dict] = []
        #: Unconditional count of header-blocked events — reconciles
        #: with ``engine.headers.blocked_cycles`` exactly (delivered,
        #: in-flight and drained messages alike).
        self.blocked_events = 0
        self._blocked: dict[int, int] = {}
        self._route: dict[int, int] = {}
        self._ring: dict[int, int] = {}

    def bind(self, sim) -> None:
        """Adopt the run's mesh for minimal-hop lookups (first wins)."""
        if self.mesh is None:
            self.mesh = sim.mesh

    # -- engine events (see repro.simulator.engine.EVENTS) --------------
    def blocked(self, cycle, msg, node) -> None:
        self.blocked_events += 1
        self._blocked[msg.id] = self._blocked.get(msg.id, 0) + 1

    def granted(self, cycle, msg, node, port, vc, role, on_ring) -> None:
        if role is None:  # ejection grant: not a hop
            return
        counts = self._ring if on_ring else self._route
        counts[msg.id] = counts.get(msg.id, 0) + 1

    def delivered(self, cycle: int, msg) -> None:
        blocked = self._blocked.pop(msg.id, 0)
        route = self._route.pop(msg.id, 0)
        ring = self._ring.pop(msg.id, 0)
        latency = cycle - msg.created
        source_queue = msg.injected - msg.created
        self.records.append(
            {
                "id": msg.id,
                "src": msg.src,
                "dst": msg.dst,
                "created": msg.created,
                "injected": msg.injected,
                "delivered": cycle,
                "latency": latency,
                "source_queue": source_queue,
                "header_blocked": blocked,
                "route_compute": route,
                "f_ring_detour": ring,
                "data_pipeline": (
                    latency - source_queue - blocked - route - ring
                ),
                "hops": msg.hops,
                "min_hops": (
                    self.mesh.distance(msg.src, msg.dst)
                    if self.mesh is not None
                    else None
                ),
            }
        )

    def dropped(self, cycle, msg, livelock) -> None:
        self._blocked.pop(msg.id, None)
        self._route.pop(msg.id, None)
        self._ring.pop(msg.id, None)

    # -------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)


def aggregate_blame(records) -> dict:
    """Totals and shares over a record list (shares of latency mass)."""
    totals = {component: 0 for component in COMPONENTS}
    latency_sum = 0
    hops_sum = 0
    min_hops_sum = 0
    count = 0
    for rec in records:
        count += 1
        latency_sum += rec["latency"]
        hops_sum += rec["hops"]
        if rec["min_hops"] is not None:
            min_hops_sum += rec["min_hops"]
        for component in COMPONENTS:
            totals[component] += rec[component]
    return {
        "messages": count,
        "latency_sum": latency_sum,
        "components": totals,
        "shares": {
            component: (totals[component] / latency_sum if latency_sum else 0.0)
            for component in COMPONENTS
        },
        "hops_sum": hops_sum,
        "min_hops_sum": min_hops_sum,
        "avg_latency": latency_sum / count if count else float("nan"),
        "avg_excess_hops": (
            (hops_sum - min_hops_sum) / count if count else float("nan")
        ),
    }


def top_slow(records, k: int = 10) -> list[dict]:
    """The *k* highest-latency records (ties broken by message id)."""
    return sorted(records, key=lambda r: (-r["latency"], r["id"]))[:k]


def reconcile_blame(recorder: BlameRecorder, registry) -> list[str]:
    """Cross-check a recorder against the telemetry of the same run(s).

    Returns mismatch descriptions (empty list = reconciled).  Both
    instruments must have been attached for the same cycles: blocked
    events against ``engine.headers.blocked_cycles``, delivered count
    and latency mass against the ``engine.latency`` histogram, plus the
    per-message invariant that components sum to latency and stay
    non-negative.
    """
    problems = []
    for rec in recorder.records:
        parts = sum(rec[component] for component in COMPONENTS)
        if parts != rec["latency"]:
            problems.append(
                f"message {rec['id']}: components sum to {parts}, "
                f"latency is {rec['latency']}"
            )
        for component in COMPONENTS:
            if rec[component] < 0:
                problems.append(
                    f"message {rec['id']}: {component} is negative "
                    f"({rec[component]})"
                )
    blocked = registry.value("engine.headers.blocked_cycles")
    if recorder.blocked_events != blocked:
        problems.append(
            f"blocked events {recorder.blocked_events} != telemetry "
            f"blocked_cycles {blocked}"
        )
    hist = registry.get("engine.latency")
    if hist is not None:
        if len(recorder.records) != hist.total:
            problems.append(
                f"delivered records {len(recorder.records)} != latency "
                f"histogram total {hist.total}"
            )
        latency_sum = sum(rec["latency"] for rec in recorder.records)
        if latency_sum != hist.sum:
            problems.append(
                f"blame latency mass {latency_sum} != latency histogram "
                f"mass {hist.sum}"
            )
    return problems


# ----------------------------------------------------------------------
# Report cells (one per algorithm x fault case) and exports
# ----------------------------------------------------------------------
def blame_cell(
    label: str, algorithm: str, n_faults: int, recorder: BlameRecorder
) -> dict:
    """Package one run's blame into a report cell."""
    return {
        "label": label,
        "algorithm": algorithm,
        "n_faults": n_faults,
        "aggregate": aggregate_blame(recorder.records),
        "records": list(recorder.records),
    }


def render_blame_report(cells, *, top: int = 10) -> str:
    """The ``obs blame`` text report: shares table + top-K slow messages."""
    lines = []
    header = (
        f"{'cell':<28} {'msgs':>6} {'avg_lat':>8} "
        + " ".join(f"{c:>13}" for c in COMPONENTS)
        + f" {'xhops':>6}"
    )
    lines.append("blame shares (fraction of total latency mass)")
    lines.append(header)
    lines.append("-" * len(header))
    for cell in cells:
        agg = cell["aggregate"]
        shares = " ".join(
            f"{agg['shares'][c] * 100:>12.1f}%" for c in COMPONENTS
        )
        lines.append(
            f"{cell['label']:<28} {agg['messages']:>6} "
            f"{agg['avg_latency']:>8.1f} {shares} "
            f"{agg['avg_excess_hops']:>6.2f}"
        )
    for cell in cells:
        slow = top_slow(cell["records"], top)
        if not slow:
            continue
        lines.append("")
        lines.append(f"top {len(slow)} slow messages — {cell['label']}")
        sub = (
            f"{'msg':>8} {'src->dst':>10} {'lat':>6} "
            + " ".join(f"{c:>13}" for c in COMPONENTS)
            + f" {'hops':>5} {'min':>4}"
        )
        lines.append(sub)
        lines.append("-" * len(sub))
        for rec in slow:
            comps = " ".join(f"{rec[c]:>13}" for c in COMPONENTS)
            min_hops = rec["min_hops"] if rec["min_hops"] is not None else "-"
            lines.append(
                f"{rec['id']:>8} {rec['src']:>4}->{rec['dst']:<4} "
                f"{rec['latency']:>6} {comps} {rec['hops']:>5} {min_hops:>4}"
            )
    return "\n".join(lines)


def blame_csv(cells) -> str:
    """Per-cell, per-component shares as CSV (one row per pair)."""
    lines = [
        "label,algorithm,n_faults,messages,avg_latency,component,"
        "cycles,share"
    ]
    for cell in cells:
        agg = cell["aggregate"]
        for component in COMPONENTS:
            lines.append(
                f"{cell['label']},{cell['algorithm']},{cell['n_faults']},"
                f"{agg['messages']},{agg['avg_latency']:.3f},{component},"
                f"{agg['components'][component]},"
                f"{agg['shares'][component]:.6f}"
            )
    return "\n".join(lines) + "\n"


def blame_payload(cells, *, top: int = 10) -> dict:
    """JSON-safe export: per-cell aggregates plus the top-K records."""
    return {
        "kind": "blame-report",
        "components": list(COMPONENTS),
        "cells": [
            {
                "label": cell["label"],
                "algorithm": cell["algorithm"],
                "n_faults": cell["n_faults"],
                "aggregate": cell["aggregate"],
                "top_slow": top_slow(cell["records"], top),
            }
            for cell in cells
        ],
    }


def write_blame_json(path, cells, *, top: int = 10) -> None:
    """Write :func:`blame_payload` to *path* as JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(blame_payload(cells, top=top), indent=2))
