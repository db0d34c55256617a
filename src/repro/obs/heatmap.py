"""Spatial telemetry export: per-node heat surfaces from the registry.

The engine publishes two labeled per-node counters when telemetry is
attached (one slot per mesh node, behind the same ``telemetry is not
None`` guard as every other instrument):

* ``engine.node_flit_hops`` — crossbar traversals charged to the node a
  flit left, the telemetry twin of ``SimulationResult.node_load``
  (identical when ``warmup=0``: ``node_load`` only counts the
  measurement window, the counter stamps every cycle);
* ``engine.node_blocked`` — cycles a routable header at the node found
  no grantable output VC.

This module turns those vectors into Figure 6-style surfaces: an ASCII
density map (via :func:`repro.experiments.mesh_art.render_heatmap`), a
plotting-friendly ``x,y,value`` CSV, and an f-ring vs non-f-ring split
(:func:`repro.metrics.traffic_load.surface_split`, the one body behind
``traffic_load_split``, re-exported here) — the reconciliation test in
``tests/test_obs_heatmap.py`` ties the telemetry surface at 10% faults
back to the paper's Fig. 6 claim.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.experiments.mesh_art import render_heatmap
from repro.metrics.traffic_load import surface_split

__all__ = [
    "METRICS",
    "heatmap_csv",
    "node_surface",
    "render_node_heatmap",
    "surface_split",
]

#: Short metric aliases accepted everywhere a metric name is.
METRICS = {
    "hops": "engine.node_flit_hops",
    "blocked": "engine.node_blocked",
}


def _metric_name(metric: str) -> str:
    return METRICS.get(metric, metric)


def node_surface(source, metric: str = "hops") -> list[int]:
    """The per-node vector for *metric* from a registry or snapshot.

    *source* is a :class:`~repro.obs.telemetry.TelemetryRegistry` or its
    :meth:`~repro.obs.telemetry.TelemetryRegistry.snapshot` dict (so
    surfaces can be pulled from merged worker snapshots or from JSON on
    disk).  *metric* is ``"hops"``, ``"blocked"``, or a full counter
    name.
    """
    name = _metric_name(metric)
    if isinstance(source, dict):
        payload = source.get(name)
        if payload is None:
            raise KeyError(f"snapshot has no {name!r} instrument")
        if payload.get("type") != "labeled_counter":
            raise TypeError(f"{name!r} is a {payload.get('type')}, "
                            "not a labeled_counter")
        return list(payload["values"])
    inst = source.get(name)
    if inst is None:
        raise KeyError(f"registry has no {name!r} instrument")
    values = getattr(inst, "values", None)
    if values is None:
        raise TypeError(f"{name!r} is a {type(inst).__name__}, "
                        "not a labeled counter")
    return list(values)


def render_node_heatmap(
    pattern, source, *, metric: str = "hops", title: str = ""
) -> str:
    """ASCII density map of a node metric over *pattern*'s mesh."""
    values = node_surface(source, metric)
    if not title:
        title = _metric_name(metric)
    return render_heatmap(pattern, values, title=title)


def heatmap_csv(mesh, values: Sequence[float]) -> str:
    """``x,y,value`` CSV of a per-node vector (header row included)."""
    if len(values) != mesh.n_nodes:
        raise ValueError(
            f"need {mesh.n_nodes} node values, got {len(values)}"
        )
    lines = ["x,y,value"]
    for node in mesh.nodes():
        x, y = mesh.coordinates(node)
        lines.append(f"{x},{y},{values[node]}")
    return "\n".join(lines) + "\n"
