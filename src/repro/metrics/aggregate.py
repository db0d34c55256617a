"""Aggregation of results over fault sets / seeds.

The paper averages each faulty configuration over several randomly drawn
fault patterns (10 fault sets for Figures 4-5, 1000 for the Section 5
experiments); :func:`aggregate` performs that averaging and keeps the
dispersion so EXPERIMENTS.md can report confidence alongside means.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - the engine imports this package
    from repro.simulator.engine import SimulationResult


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (NaN for empty input)."""
    return sum(values) / len(values) if values else float("nan")


def mean_std(values: Sequence[float]) -> tuple[float, float]:
    """Mean and sample standard deviation (std is NaN below 2 samples)."""
    m = mean(values)
    if len(values) < 2:
        return m, float("nan")
    var = sum((v - m) ** 2 for v in values) / (len(values) - 1)
    return m, math.sqrt(var)


@dataclass(frozen=True)
class AggregateResult:
    """Mean metrics over a set of runs of one configuration."""

    algorithm: str
    n_runs: int
    throughput: float
    throughput_std: float
    latency: float
    latency_std: float
    #: Injection-to-delivery latency (excludes source queueing).  The
    #: paper's latency figures match this scale at saturation — offered
    #: loads past capacity grow the source queues without bound, which
    #: would dominate the generation-to-delivery number.
    network_latency: float
    message_rate: float
    delivered: float
    dropped: float
    avg_hops: float
    #: Total cycles actually simulated across the aggregated runs
    #: (warmup + measured window each).  Fixed-cycle runs sum to
    #: ``n_runs * cycles``; ``cycles_mode="auto"`` runs that stopped
    #: early sum to less — the number the manifests and the
    #: ``--adaptive-cycles`` savings accounting report.
    simulated_cycles: int = 0

    @classmethod
    def empty(cls, algorithm: str) -> AggregateResult:
        nan = float("nan")
        return cls(algorithm, 0, nan, nan, nan, nan, nan, nan, nan, nan, nan)


def aggregate(results: Iterable[SimulationResult]) -> AggregateResult:
    """Average a collection of runs (typically one per fault set)."""
    results = list(results)
    if not results:
        raise ValueError("cannot aggregate zero results")
    names = {r.algorithm for r in results}
    if len(names) != 1:
        raise ValueError(f"mixed algorithms in aggregate: {sorted(names)}")
    thr, thr_std = mean_std([r.throughput for r in results])
    # Latency means can be NaN for runs that delivered nothing (deeply
    # saturated + tiny window); exclude those runs from the latency mean.
    lats = [r.avg_latency for r in results if r.delivered > 0]
    lat, lat_std = mean_std(lats) if lats else (float("nan"), float("nan"))
    net_lats = [r.avg_network_latency for r in results if r.delivered > 0]
    return AggregateResult(
        algorithm=names.pop(),
        n_runs=len(results),
        throughput=thr,
        throughput_std=thr_std,
        latency=lat,
        latency_std=lat_std,
        network_latency=mean(net_lats) if net_lats else float("nan"),
        message_rate=mean([r.message_rate for r in results]),
        delivered=mean([r.delivered for r in results]),
        dropped=mean(
            [float(r.dropped_deadlock + r.dropped_livelock) for r in results]
        ),
        avg_hops=mean([r.avg_hops for r in results if r.delivered > 0] or [float("nan")]),
        simulated_cycles=sum(
            r.measured_cycles + r.config.warmup for r in results
        ),
    )
