"""Figure 3: virtual-channel utilization under 5% faults.

The paper plots, per algorithm, the average usage of each VC index
(VC0..VC23) in a 10x10 mesh with 5% node failures, split over two panels:
(a) the basic routing algorithms, (b) the modified/fault-tolerant ones.
The headline observations we reproduce: free-choice (category 1)
algorithms spread usage almost evenly, hop-class (category 2) algorithms
skew toward low VC indices, and the 4 Boppana-Chalasani ring VCs (the
last four indices) light up only when faults are present.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.ascii_plot import table
from repro.experiments.parallel import run_per_algorithm
from repro.experiments.profiles import Profile
from repro.metrics.vc_usage import usage_imbalance, vc_usage_percent
from repro.routing.registry import display_name

#: The paper's two panels.
PANEL_A = ("fully-adaptive", "pbc", "minimal-adaptive", "nhop", "phop", "boura")
PANEL_B = ("nbc", "duato", "duato-pbc", "duato-nbc", "boura-ft")


@dataclass
class VcUsageResult:
    """Data behind Figure 3."""

    profile: str
    n_faults: int
    usage: dict[str, list[float]] = field(default_factory=dict)

    def to_payload(self) -> dict:
        return {
            "experiment": "fig3",
            "profile": self.profile,
            "n_faults": self.n_faults,
            "usage": self.usage,
        }


def vc_usage_job(evaluator, profile: Profile):
    """Figure 3 job: one point, a single run's per-VC busy percentages.

    The per-VC busy counters are part of the cached payload.  With a
    telemetry registry attached, the engine feeds Figure 3's ``vc_busy``
    and the registry's ``engine.vc_busy.<role>`` counters from the same
    occupancy sweep, so the two views reconcile exactly (see
    :func:`repro.metrics.vc_usage.reconcile_vc_usage`).
    """
    faults = evaluator.fault_case(profile.vc_usage_faults, 1).patterns[0]
    rate = profile.rate(profile.vc_usage_load)

    def point(algorithm: str, _):
        run = evaluator.run_single(
            algorithm, faults, injection_rate=rate, collect_vc_stats=True
        )
        return vc_usage_percent(run), run.measured_cycles + run.config.warmup

    return point, [(rate, None)]


def run_vc_usage(
    profile: Profile, algorithms: tuple[str, ...] | None = None, **run
) -> VcUsageResult:
    """Run the VC-utilization study behind Figure 3.

    *run* takes the keywords of
    :func:`~repro.experiments.parallel.run_per_algorithm`.
    """
    return VcUsageResult(
        profile=profile.name,
        n_faults=profile.vc_usage_faults,
        usage={
            alg: usage
            for alg, [usage] in run_per_algorithm(
                profile, algorithms, vc_usage_job, label="fig3", **run
            ).items()
        },
    )


def _panel(payload: dict, names: tuple[str, ...], label: str) -> str:
    usage = payload["usage"]
    present = [a for a in names if a in usage]
    if not present:
        return f"Figure 3{label}: (no algorithms run)"
    n_vcs = len(next(iter(usage.values())))
    rows = [
        [display_name(alg)]
        + [f"{x:.2f}" for x in usage[alg]]
        + [f"{usage_imbalance(usage[alg][:-4]):.2f}"]
        for alg in present
    ]
    head = ["algorithm"] + [f"VC{i}" for i in range(n_vcs)] + ["imbalance"]
    return table(
        head,
        rows,
        title=(
            f"Figure 3{label} - average VC usage (% of channel-cycles busy), "
            f"{payload['n_faults']} faulty nodes"
        ),
    )


def print_fig3(payload: dict) -> str:
    """Both panels of Figure 3 plus the ring-VC summary.  The imbalance
    coefficient is taken over the non-ring VCs: the last four are the
    ring VCs, idle wherever no message meets a fault."""
    parts = [_panel(payload, PANEL_A, "a"), _panel(payload, PANEL_B, "b")]
    ring_rows = [
        [display_name(alg), f"{sum(u[:-4]):.2f}", f"{sum(u[-4:]):.2f}"]
        for alg, u in payload["usage"].items()
    ]
    parts.append(
        table(
            ["algorithm", "sum non-ring VC %", "sum ring VC %"],
            ring_rows,
            title="Ring-VC (Boppana-Chalasani) share of utilization",
        )
    )
    return "\n\n".join(parts)
