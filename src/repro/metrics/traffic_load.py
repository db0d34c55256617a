"""Traffic-load distribution around fault rings (the paper's Figure 6).

The engine records per-node forwarded-flit counts; Figure 6 compares the
load on nodes lying on f-rings against the other nodes.  Following the
paper's presentation, loads are normalized by the *busiest* node so the
two bars are percentages of the hotspot peak.

For the fault-free baseline bars, pass the f-ring node set of the faulty
layout explicitly (``ring_nodes=...``): the paper evaluates the same node
positions with and without the faults present.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - the engine imports this package
    from repro.simulator.engine import SimulationResult


@dataclass(frozen=True)
class TrafficLoadSplit:
    """Mean traffic load of ring nodes vs other nodes, as % of peak."""

    ring_load_pct: float
    other_load_pct: float
    peak_load_flits_per_cycle: float
    peak_node: int
    n_ring_nodes: int
    n_other_nodes: int

    @property
    def hotspot_ratio(self) -> float:
        """Ring-to-other mean load ratio (>1 means f-rings run hotter)."""
        return hotspot_ratio(self.ring_load_pct, self.other_load_pct)


def hotspot_ratio(ring_pct: float, other_pct: float) -> float:
    """Ring-to-other mean load ratio; infinite when the other nodes
    carry nothing."""
    if other_pct == 0:
        return float("inf")
    return ring_pct / other_pct


def surface_split(
    values: Sequence[float],
    ring_nodes: Iterable[int],
    *,
    cycles: int,
    exclude: Iterable[int] = (),
) -> TrafficLoadSplit:
    """Split a per-node flit-count vector between *ring_nodes* and the
    rest, as loads per cycle over *cycles*.

    *values* is any per-node surface — ``SimulationResult.node_load``
    (:func:`traffic_load_split`) or the ``engine.node_flit_hops``
    telemetry counter, which on a ``warmup=0`` run with *cycles* =
    ``result.measured_cycles`` is the same vector.  *exclude* leaves
    nodes out of both groups (the faulty nodes themselves, which forward
    no traffic).
    """
    if not values:
        raise ValueError("empty node surface")
    ring = set(ring_nodes)
    excluded = set(exclude)
    healthy = [n for n in range(len(values)) if n not in excluded]
    cycles = max(cycles, 1)
    ring_loads = [values[n] / cycles for n in healthy if n in ring]
    other_loads = [values[n] / cycles for n in healthy if n not in ring]
    if not ring_loads or not other_loads:
        raise ValueError("both node groups must be non-empty")
    peak_node = max(healthy, key=lambda n: values[n])
    peak = values[peak_node] / cycles
    if peak == 0:
        return TrafficLoadSplit(
            0.0, 0.0, 0.0, peak_node, len(ring_loads), len(other_loads)
        )
    ring_mean = sum(ring_loads) / len(ring_loads)
    other_mean = sum(other_loads) / len(other_loads)
    return TrafficLoadSplit(
        ring_load_pct=100.0 * ring_mean / peak,
        other_load_pct=100.0 * other_mean / peak,
        peak_load_flits_per_cycle=peak,
        peak_node=peak_node,
        n_ring_nodes=len(ring_loads),
        n_other_nodes=len(other_loads),
    )


def traffic_load_split(
    result: SimulationResult,
    ring_nodes: Iterable[int],
    *,
    exclude: Iterable[int] = (),
) -> TrafficLoadSplit:
    """:func:`surface_split` of a run collected with
    ``collect_node_stats=True``; *ring_nodes* is typically
    ``pattern.ring_nodes`` of the faulty layout, reused for the
    fault-free baseline run."""
    if not result.node_load:
        raise ValueError(
            "node_load is empty; run the simulation with collect_node_stats=True"
        )
    return surface_split(
        result.node_load, ring_nodes, cycles=result.measured_cycles,
        exclude=exclude,
    )


@dataclass(frozen=True)
class RingCornerSplit:
    """Load on f-ring corner nodes vs the rings' side nodes."""

    corner_load: float  # mean flits/cycle on corner nodes
    side_load: float  # mean flits/cycle on non-corner ring nodes
    n_corners: int
    n_sides: int

    @property
    def corner_ratio(self) -> float:
        """>1 means the corners run hotter than the ring sides (the
        paper's Section 5.2 bottleneck observation)."""
        if self.side_load == 0:
            return float("inf") if self.corner_load else float("nan")
        return self.corner_load / self.side_load


def ring_corner_split(result: SimulationResult, pattern) -> RingCornerSplit:
    """Compare f-ring corner nodes against the rings' side nodes.

    *pattern* is the :class:`~repro.faults.pattern.FaultPattern` the run
    used (needed for the ring geometry).  Requires
    ``collect_node_stats=True``.
    """
    load = result.node_load
    if not load:
        raise ValueError(
            "node_load is empty; run the simulation with collect_node_stats=True"
        )
    mesh = pattern.mesh
    corners: set[int] = set()
    for ring in pattern.rings:
        corners.update(ring.corner_nodes(mesh))
    sides = set(pattern.ring_nodes) - corners
    if not corners or not sides:
        raise ValueError("need both corner and side ring nodes")
    cycles = max(result.measured_cycles, 1)
    corner_load = sum(load[n] for n in corners) / len(corners) / cycles
    side_load = sum(load[n] for n in sides) / len(sides) / cycles
    return RingCornerSplit(
        corner_load=corner_load,
        side_load=side_load,
        n_corners=len(corners),
        n_sides=len(sides),
    )
