"""Engine phase profiler + the project's sanctioned monotonic timer.

Two things live here, deliberately together:

* :data:`clock` — the **one** place in ``src/repro`` where
  ``time.perf_counter`` may be named (lint rule REP016).  Every module
  that measures wall time (bench, manifests, figure drivers, campaign
  shards, the serving layer) imports ``clock`` from here, so timing
  sites stay greppable and the engine-facing no-wall-clock rule
  (REP006) cannot be eroded one ad-hoc ``import time`` at a time.
* :class:`PhaseProfiler` — an engine observer
  (``sim.attach(PhaseProfiler())``) subscribing to ``cycle_started`` /
  ``phase_lap`` / ``cycle_ended``.  The engine's per-cycle loop reports
  phase boundaries (``generate -> inject -> route -> switch_traverse ->
  watchdog -> collect_vc``) by index; all ``clock`` reads happen *here*,
  so the engine itself stays REP006-clean.

The profiler is strictly read-only with respect to the simulation: it
draws no RNG, mutates no engine state, and samples the busy sets only
*between* cycles — an attached-profiler run is bit-identical to a
detached one (same RNG stream, same :class:`SimulationResult`), which
``tests/test_obs_profile.py`` proves A/B.

Besides phase wall-time shares it records **activity attribution**:
per-cycle histograms of active routers, occupied input VCs, and headers
awaiting routing, against the mesh/VC totals — quantifying how much of
the fabric an eventual active-set scheduler could skip (the ROADMAP's
hot-path overhaul is judged against exactly these numbers).
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter as clock

__all__ = [
    "PHASE_NAMES",
    "PROFILE_SCHEMA",
    "PhaseProfiler",
    "clock",
    "render_profile",
]

PROFILE_SCHEMA = 1

#: Phase names, ordered to match the index constants the engine loop
#: reports (``repro.simulator.engine._PH_*``); a unit test pins the
#: correspondence.
PHASE_NAMES = (
    "generate",
    "inject",
    "route",
    "switch_traverse",
    "watchdog",
    "collect_vc",
)

_N_PHASES = len(PHASE_NAMES)


class PhaseProfiler:
    """Accumulates per-phase wall time and per-cycle activity samples.

    One instance may profile several runs in sequence (times and
    histograms accumulate, like telemetry counters); :meth:`report`
    snapshots the totals at any point.
    """

    __slots__ = (
        "phase_seconds", "phase_calls", "cycles", "_t0", "_sim",
        "active_routers", "occupied_vcs", "routing_headers",
        "mesh_nodes", "network_input_vcs",
    )

    def __init__(self) -> None:
        self.phase_seconds = [0.0] * _N_PHASES
        self.phase_calls = [0] * _N_PHASES
        self.cycles = 0
        self._t0 = 0.0
        #: Per-cycle histograms: observed value -> number of cycles.
        self.active_routers: dict[int, int] = {}
        self.occupied_vcs: dict[int, int] = {}
        self.routing_headers: dict[int, int] = {}
        self.mesh_nodes = 0
        self.network_input_vcs = 0

    # ------------------------------------------------------------------
    # Engine events (see repro.simulator.engine.EVENTS)
    # ------------------------------------------------------------------
    def bind(self, sim) -> None:
        """Record fabric totals; called by ``Simulation.attach``."""
        self._sim = sim
        self.mesh_nodes = sim.mesh.n_nodes
        # 4 network ports + 1 local port, V VCs each — the busy sets
        # sampled below draw from exactly this population.
        self.network_input_vcs = (
            sim.mesh.n_nodes * 5 * sim.config.vcs_per_channel
        )

    def cycle_started(self, cycle: int) -> None:
        self._t0 = clock()

    def phase_lap(self, phase: int) -> None:
        """Close the current phase: attribute elapsed time to *phase*."""
        now = clock()
        self.phase_seconds[phase] += now - self._t0
        self.phase_calls[phase] += 1
        self._t0 = now

    def cycle_ended(self, cycle: int) -> None:
        """Sample activity after the cycle's phases have all run.

        Pure reads of the engine's busy sets; the sampling cost itself
        falls *outside* every phase bucket (``cycle_started`` re-reads
        the clock), so phase shares describe the unprofiled loop.
        """
        self.cycles += 1
        sim = self._sim
        active = [invc.node for invc in sim.iter_active_vcs()]
        waiting = [invc.node for invc in sim.iter_blocked_headers()]
        nodes = {*active, *waiting}
        headers = len(waiting)
        vcs = len(active) + headers
        for hist, value in (
            (self.active_routers, len(nodes)),
            (self.occupied_vcs, vcs),
            (self.routing_headers, headers),
        ):
            hist[value] = hist.get(value, 0) + 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def phase_shares(self) -> dict[str, float]:
        """``{phase: fraction of measured wall time}`` (sums to 1.0)."""
        total = sum(self.phase_seconds)
        if not total:
            return {name: 0.0 for name in PHASE_NAMES}
        return {
            name: self.phase_seconds[i] / total
            for i, name in enumerate(PHASE_NAMES)
        }

    def report(self) -> dict:
        """The full JSON-serializable profile payload."""
        total = sum(self.phase_seconds)
        phases = {}
        for i, name in enumerate(PHASE_NAMES):
            seconds = self.phase_seconds[i]
            calls = self.phase_calls[i]
            phases[name] = {
                "seconds": seconds,
                "calls": calls,
                "share": seconds / total if total else 0.0,
                "us_per_call": 1e6 * seconds / calls if calls else 0.0,
            }
        return {
            "kind": "phase-profile",
            "schema": PROFILE_SCHEMA,
            "cycles": self.cycles,
            "total_seconds": total,
            "phases": phases,
            "activity": {
                "mesh_nodes": self.mesh_nodes,
                "network_input_vcs": self.network_input_vcs,
                "active_routers": _hist_summary(self.active_routers),
                "occupied_vcs": _hist_summary(self.occupied_vcs),
                "routing_headers": _hist_summary(self.routing_headers),
            },
        }

    def write_json(self, path: Path | str, **context) -> dict:
        """Write :meth:`report` (plus *context* fields) to *path*."""
        payload = self.report()
        payload.update(context)
        Path(path).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        return payload


def _hist_summary(hist: dict[int, int]) -> dict:
    """Summarize one per-cycle histogram for the report payload."""
    if not hist:
        return {"mean": 0.0, "max": 0, "min": 0, "hist": {}}
    cycles = sum(hist.values())
    mean = sum(v * n for v, n in hist.items()) / cycles
    return {
        "mean": mean,
        "max": max(hist),
        "min": min(hist),
        # JSON object keys are strings; sorted for stable files.
        "hist": {str(v): hist[v] for v in sorted(hist)},
    }


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _hist_spark(hist: dict[str, int], bins: int = 24) -> str:
    """Bucket a value->count histogram into a fixed-width sparkline."""
    # Imported here: ``clock`` must stay importable at the price of this
    # module alone (REP016 makes every timing site import it).
    from repro.obs.timeline import sparkline

    if not hist:
        return ""
    values = {int(v): n for v, n in hist.items()}
    top = max(values)
    width = min(bins, top + 1) or 1
    counts = [0] * width
    for v, n in values.items():
        idx = v * width // (top + 1) if top else 0
        counts[idx] += n
    return sparkline(counts)


def render_profile(report: dict) -> str:
    """ASCII phase breakdown + activity attribution for a terminal."""
    lines = [
        f"phase breakdown — {report['cycles']} cycles, "
        f"{report['total_seconds']:.3f} s measured"
    ]
    lines.append(
        f"  {'phase':<16} {'share':>7} {'seconds':>9} {'calls':>8} "
        f"{'us/call':>9}"
    )
    phases = report["phases"]
    for name in sorted(phases, key=lambda n: -phases[n]["seconds"]):
        p = phases[name]
        bar = "#" * int(round(40 * p["share"]))
        lines.append(
            f"  {name:<16} {100 * p['share']:>6.1f}% {p['seconds']:>9.4f} "
            f"{p['calls']:>8d} {p['us_per_call']:>9.1f}  {bar}"
        )
    act = report["activity"]
    nodes = act["mesh_nodes"]
    total_vcs = act["network_input_vcs"]
    lines.append(
        f"activity — {nodes}-node mesh, {total_vcs} input VCs "
        "(per-cycle, value-distribution sparklines)"
    )
    for label, key, denom in (
        ("active routers", "active_routers", nodes),
        ("occupied VCs", "occupied_vcs", total_vcs),
        ("routing headers", "routing_headers", 0),
    ):
        s = act[key]
        frac = f" ({100 * s['mean'] / denom:.1f}% of {denom})" if denom else ""
        lines.append(
            f"  {label:<16} mean {s['mean']:>7.1f}{frac}  "
            f"min {s['min']}  max {s['max']}  |{_hist_spark(s['hist'])}|"
        )
    routers = act["active_routers"]
    if nodes:
        lines.append(
            f"  idle-scan: {100 * (1 - routers['mean'] / nodes):.1f}% of "
            "routers idle on an average cycle — the active-set "
            "scheduler's reclaimable headroom"
        )
    return "\n".join(lines)
