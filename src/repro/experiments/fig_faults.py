"""Figures 4 and 5: performance vs fault percentage at full load.

The paper simulates 0%, 5% and 10% faulty nodes at "100% traffic load"
(offered 1 flit/node/cycle), averaging each faulty case over several
randomly drawn fault sets, and reports normalized throughput (Figure 4)
and normalized message latency (Figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.ascii_plot import series_figure, whole_or_dash
from repro.experiments.parallel import run_per_algorithm
from repro.experiments.profiles import Profile
from repro.metrics.aggregate import AggregateResult
from repro.routing.registry import display_name


@dataclass
class FaultStudyResult:
    """Data behind Figures 4 and 5."""

    profile: str
    fault_counts: tuple[int, ...]
    fault_percents: tuple[float, ...]
    points: dict[str, list[AggregateResult]] = field(default_factory=dict)

    def to_payload(self) -> dict:
        return {
            "experiment": "fig4-fig5",
            "profile": self.profile,
            "fault_counts": list(self.fault_counts),
            "fault_percents": list(self.fault_percents),
            "throughput": {
                a: [p.throughput for p in pts] for a, pts in self.points.items()
            },
            "latency": {
                a: [p.network_latency for p in pts] for a, pts in self.points.items()
            },
            "dropped": {
                a: [p.dropped for p in pts] for a, pts in self.points.items()
            },
        }


def fault_study_job(evaluator, profile: Profile):
    """Figures 4/5 job: a full-load point per fault count, one run per
    fault set.  A point draws its own case, once per evaluator."""
    cases = {}
    sets, rate = profile.fault_sets, profile.full_load_rate

    def point(algorithm: str, n: int):
        if n not in cases:
            cases[n] = evaluator.fault_case(n, sets)
        result = evaluator.run_case(algorithm, cases[n], injection_rate=rate)
        return result, result.simulated_cycles

    return point, [((sets if n else 1) * rate, n) for n in profile.fault_counts]


def run_fault_study(
    profile: Profile, algorithms: tuple[str, ...] | None = None, **run
) -> FaultStudyResult:
    """Run the full-load fault sweep behind Figures 4 and 5.

    *run* takes the keywords of
    :func:`~repro.experiments.parallel.run_per_algorithm`.
    """
    n_nodes = profile.config.width * profile.config.height
    return FaultStudyResult(
        profile=profile.name,
        fault_counts=tuple(profile.fault_counts),
        fault_percents=tuple(100.0 * n / n_nodes for n in profile.fault_counts),
        points=run_per_algorithm(
            profile, algorithms, fault_study_job, label="fig4/5", **run
        ),
    )


def _figure(payload: dict, metric: str, **style) -> str:
    """One of the study's two figures: *metric* per algorithm vs fault
    percentage."""
    return series_figure(
        payload["fault_percents"],
        {display_name(a): ys for a, ys in payload[metric].items()},
        x_head="{:g}%".format, xlabel="% faulty nodes", **style,
    )


def print_fig4(payload: dict) -> str:
    """Figure 4: normalized throughput vs percentage of faults."""
    return _figure(
        payload, "throughput",
        title=(
            "Figure 4 - normalized throughput (flits/node/cycle) vs "
            "percentage of faulty nodes, 100% offered load"
        ),
        cell="{:.3f}".format,
        chart="Figure 4 (shape)", ylabel="throughput",
    )


def print_fig5(payload: dict) -> str:
    """Figure 5: normalized message latency vs percentage of faults."""
    return _figure(
        payload, "latency",
        title=(
            "Figure 5 - normalized message latency (flit cycles) vs "
            "percentage of faulty nodes, 100% offered load"
        ),
        cell=whole_or_dash,
        chart="Figure 5 (shape)", ylabel="latency (cycles)",
    )
