"""Figures 1 and 2: throughput and latency vs traffic generation rate.

Both figures come from one fault-free rate sweep over all algorithms
(10x10 mesh, 24 VCs, fixed-length messages, uniform traffic), exactly the
configuration of the paper's Section 5.  Figure 1 plots saturation
throughput, Figure 2 average message latency; the Section 5.1 saturation
onsets and peak throughputs are derived from the same data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.ascii_plot import series_figure, whole_or_dash
from repro.experiments.parallel import run_per_algorithm
from repro.experiments.profiles import Profile
from repro.metrics.saturation import find_saturation, peak_throughput
from repro.routing.registry import display_name


@dataclass
class SweepResult:
    """Data behind Figures 1 and 2."""

    profile: str
    loads: tuple[float, ...]
    rates: tuple[float, ...]
    throughput: dict[str, list[float]] = field(default_factory=dict)
    latency: dict[str, list[float]] = field(default_factory=dict)

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


def _figure(payload: dict, metric: str, **style) -> str:
    """One of the sweep's two figures: *metric* per algorithm vs rate."""
    return series_figure(
        payload["rates"],
        {display_name(a): ys for a, ys in payload[metric].items()},
        x_head="{:.4g}".format, xlabel="injection rate (msgs/node/cycle)",
        **style,
    )


def print_fig1(payload: dict) -> str:
    """Figure 1: saturation throughput vs traffic generation rate."""
    rates = payload["rates"]
    return _figure(
        payload, "throughput",
        title=(
            "Figure 1 - normalized accepted throughput (flits/node/cycle) "
            "vs injection rate (messages/node/cycle)"
        ),
        cell="{:.3f}".format,
        column=("peak", lambda thr: f"{peak_throughput(rates, thr)[1]:.3f}"),
        chart="Figure 1 (shape)", ylabel="throughput (flits/node/cycle)",
    )


def _onset(rates, lats) -> str:
    sat = find_saturation(rates, lats)
    return f"{sat.rate:.4g}" if sat else ">max"


def print_fig2(payload: dict) -> str:
    """Figure 2: average message latency vs traffic generation rate."""
    rates = payload["rates"]
    return _figure(
        payload, "latency",
        title=(
            "Figure 2 - average message latency (flit cycles) vs "
            "injection rate (messages/node/cycle)"
        ),
        cell=whole_or_dash,
        column=("sat@", lambda lats: _onset(rates, lats)),
        chart="Figure 2 (shape)", ylabel="latency (cycles)",
    )
