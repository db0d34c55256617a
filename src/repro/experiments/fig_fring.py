"""Figure 6: traffic-load distribution around fault rings.

The paper fixes one fault layout — a 2x3 block fault plus two 1x1 block
faults whose f-rings overlap in a row — and compares the mean traffic
load of f-ring nodes against all other nodes, for every algorithm, with
the faults present and absent (same node positions).  Loads are reported
as a percentage of the busiest node's load.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.ascii_plot import bar_chart, table
from repro.experiments.parallel import run_per_algorithm
from repro.experiments.profiles import Profile
from repro.faults.generator import figure6_fault_pattern
from repro.faults.pattern import FaultPattern
from repro.metrics.traffic_load import (
    TrafficLoadSplit,
    hotspot_ratio,
    ring_corner_split,
    traffic_load_split,
)
from repro.routing.registry import display_name
from repro.topology.mesh import Mesh2D


@dataclass
class FRingResult:
    """Data behind Figure 6: per-algorithm load splits at 0% and ~10%."""

    profile: str
    n_faults: int
    #: ``splits[alg] = {"0%": TrafficLoadSplit, "faulty": TrafficLoadSplit}``
    splits: dict[str, dict[str, TrafficLoadSplit]] = field(default_factory=dict)
    #: Corner-vs-side load ratio of the faulty run (Section 5.2's
    #: "bottlenecks especially at the corners of fault rings").
    corner_ratios: dict[str, float] = field(default_factory=dict)

    def to_payload(self) -> dict:
        return {
            "experiment": "fig6",
            "profile": self.profile,
            "n_faults": self.n_faults,
            "splits": {
                alg: {
                    label: {
                        "ring_pct": s.ring_load_pct,
                        "other_pct": s.other_load_pct,
                        "peak": s.peak_load_flits_per_cycle,
                    }
                    for label, s in cases.items()
                }
                for alg, cases in self.splits.items()
            },
            "corner_ratio": dict(self.corner_ratios),
        }


#: Figure 6's two points: the layout's nodes healthy, then faulty.
LAYOUTS = ("0%", "faulty")


def fring_job(evaluator, profile: Profile):
    """Figure 6 job: a point per layout, one run each — the load split
    with the faults absent, then present (with its corner-vs-side
    ratio).

    The per-node load counters are part of the cached payload.  With a
    telemetry registry attached, the engine's
    ``engine.fring.*.traversals`` counters break the ring-VC traffic
    down per fault ring/chain and the ``engine.node_flit_hops`` labeled
    counter carries the spatial load surface (see
    :mod:`repro.obs.heatmap`).
    """
    faulty = figure6_fault_pattern(evaluator.mesh)
    patterns = dict(
        zip(LAYOUTS, (FaultPattern.fault_free(evaluator.mesh), faulty))
    )
    rate = profile.full_load_rate

    def point(algorithm: str, layout: str):
        fp = patterns[layout]
        run = evaluator.run_single(
            algorithm, fp, injection_rate=rate, collect_node_stats=True
        )
        split = traffic_load_split(run, faulty.ring_nodes, exclude=fp.faulty)
        ratio = None
        if fp is faulty:
            ratio = ring_corner_split(run, faulty).corner_ratio
        return (split, ratio), run.measured_cycles + run.config.warmup

    return point, [(rate, layout) for layout in LAYOUTS]


def run_fring_study(
    profile: Profile, algorithms: tuple[str, ...] | None = None, **run
) -> FRingResult:
    """Run the Figure 6 traffic-load study.

    *run* takes the keywords of
    :func:`~repro.experiments.parallel.run_per_algorithm`.
    """
    series = run_per_algorithm(
        profile, algorithms, fring_job, label="fig6", **run
    )
    mesh = Mesh2D(profile.config.width, profile.config.height)
    return FRingResult(
        profile=profile.name,
        n_faults=figure6_fault_pattern(mesh).n_faulty,
        splits={
            alg: {layout: split for layout, (split, _) in zip(LAYOUTS, points)}
            for alg, points in series.items()
        },
        corner_ratios={alg: points[-1][1] for alg, points in series.items()},
    )


def print_fig6(payload: dict) -> str:
    """Figure 6 as a table plus grouped bars."""
    corners = payload.get("corner_ratio", {})
    rows = []
    for alg, cases in payload["splits"].items():
        ff, fy = cases["0%"], cases["faulty"]
        corner = corners.get(alg, float("nan"))
        rows.append(
            [
                display_name(alg),
                f"{ff['ring_pct']:.1f}",
                f"{ff['other_pct']:.1f}",
                f"{fy['ring_pct']:.1f}",
                f"{fy['other_pct']:.1f}",
                f"{hotspot_ratio(fy['ring_pct'], fy['other_pct']):.2f}",
                f"{corner:.2f}" if corner == corner else "-",
            ]
        )
    head = [
        "algorithm",
        "f-ring% (0%)",
        "other% (0%)",
        "f-ring% (faulty)",
        "other% (faulty)",
        "hotspot ratio",
        "corner/side",
    ]
    out = [
        table(
            head,
            rows,
            title=(
                f"Figure 6 - traffic load on f-ring nodes vs other nodes "
                f"(% of peak node load), {payload['n_faults']} faulty nodes in "
                "the 2x3 + 1x1 + 1x1 layout"
            ),
        ),
        bar_chart(
            [
                (
                    display_name(alg),
                    {
                        "f-ring(faulty)": cases["faulty"]["ring_pct"],
                        "other (faulty)": cases["faulty"]["other_pct"],
                    },
                )
                for alg, cases in payload["splits"].items()
            ],
            title="Figure 6 (faulty case, shape)",
            unit="%",
        ),
    ]
    return "\n\n".join(out)
