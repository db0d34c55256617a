"""Figures 1 and 2: throughput and latency vs traffic generation rate.

Both figures come from one fault-free rate sweep over all algorithms
(10x10 mesh, 24 VCs, fixed-length messages, uniform traffic), exactly the
configuration of the paper's Section 5.  Figure 1 plots saturation
throughput, Figure 2 average message latency; the Section 5.1 saturation
onsets and peak throughputs are derived from the same data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.ascii_plot import line_chart, table
from repro.experiments.parallel import run_per_algorithm
from repro.experiments.profiles import Profile
from repro.metrics.saturation import SaturationPoint, find_saturation, peak_throughput
from repro.routing.registry import display_name


@dataclass
class SweepResult:
    """Data behind Figures 1 and 2."""

    profile: str
    loads: tuple[float, ...]
    rates: tuple[float, ...]
    throughput: dict[str, list[float]] = field(default_factory=dict)
    latency: dict[str, list[float]] = field(default_factory=dict)

    def saturation_points(self) -> dict[str, SaturationPoint | None]:
        return {
            alg: find_saturation(self.rates, lats)
            for alg, lats in self.latency.items()
        }

    def peaks(self) -> dict[str, tuple[float, float]]:
        return {
            alg: peak_throughput(self.rates, thr)
            for alg, thr in self.throughput.items()
        }

    def to_payload(self) -> dict:
        return {
            "experiment": "fig1-fig2",
            "profile": self.profile,
            "loads": list(self.loads),
            "rates": list(self.rates),
            "throughput": self.throughput,
            "latency": self.latency,
        }


def sweep_job(evaluator, profile: Profile):
    """Figures 1/2 job: a fault-free point per rate, one run each."""
    case = evaluator.fault_case(0, 1)

    def point(algorithm: str, rate: float):
        result = evaluator.run_case(algorithm, case, injection_rate=rate)
        return result, result.simulated_cycles

    return point, [(rate, rate) for rate in profile.sweep_rates]


def run_sweep(
    profile: Profile, algorithms: tuple[str, ...] | None = None, **run
) -> SweepResult:
    """Run the fault-free rate sweep behind Figures 1 and 2.

    *run* takes the keywords of
    :func:`~repro.experiments.parallel.run_per_algorithm`.
    """
    points = run_per_algorithm(
        profile, algorithms, sweep_job, label="fig1/2", **run
    )
    return SweepResult(
        profile=profile.name,
        loads=profile.sweep_loads,
        rates=profile.sweep_rates,
        throughput={a: [p.throughput for p in pts] for a, pts in points.items()},
        latency={a: [p.network_latency for p in pts] for a, pts in points.items()},
    )


def print_fig1(result: SweepResult) -> str:
    """Figure 1: saturation throughput vs traffic generation rate."""
    rows = []
    peaks = result.peaks()
    for alg, thr in result.throughput.items():
        rows.append(
            [display_name(alg)]
            + [f"{t:.3f}" for t in thr]
            + [f"{peaks[alg][1]:.3f}"]
        )
    head = ["algorithm"] + [f"{r:.4g}" for r in result.rates] + ["peak"]
    out = [
        table(
            head,
            rows,
            title=(
                "Figure 1 - normalized accepted throughput (flits/node/cycle) "
                "vs injection rate (messages/node/cycle)"
            ),
        )
    ]
    out.append(
        line_chart(
            {
                display_name(a): (list(result.rates), t)
                for a, t in result.throughput.items()
            },
            title="Figure 1 (shape)",
            xlabel="injection rate (msgs/node/cycle)",
            ylabel="throughput (flits/node/cycle)",
        )
    )
    return "\n\n".join(out)


def print_fig2(result: SweepResult) -> str:
    """Figure 2: average message latency vs traffic generation rate."""
    rows = []
    sats = result.saturation_points()
    for alg, lats in result.latency.items():
        sat = sats[alg]
        rows.append(
            [display_name(alg)]
            + [f"{latv:.0f}" if latv == latv else "-" for latv in lats]
            + [f"{sat.rate:.4g}" if sat else ">max"]
        )
    head = ["algorithm"] + [f"{r:.4g}" for r in result.rates] + ["sat@"]
    out = [
        table(
            head,
            rows,
            title=(
                "Figure 2 - average message latency (flit cycles) vs "
                "injection rate (messages/node/cycle)"
            ),
        )
    ]
    out.append(
        line_chart(
            {
                display_name(a): (list(result.rates), lats)
                for a, lats in result.latency.items()
            },
            title="Figure 2 (shape)",
            xlabel="injection rate (msgs/node/cycle)",
            ylabel="latency (cycles)",
        )
    )
    return "\n\n".join(out)
