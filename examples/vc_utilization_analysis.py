"""Inspect how algorithms spread load across virtual channels (Figure 3).

Runs two contrasting algorithms — PHop (rigid hop classes, unbalanced
usage) and Minimal-Adaptive (free choice, flat usage) — on the same
faulty mesh and renders their per-VC utilization as bars, highlighting
the 4 Boppana-Chalasani ring VCs at the top indices.

Run:  python examples/vc_utilization_analysis.py
"""

from repro.core import Evaluator
from repro.metrics import vc_usage_percent
from repro.metrics.vc_usage import usage_imbalance
from repro.simulator import SimConfig

config = SimConfig(
    width=10,
    vcs_per_channel=24,
    message_length=16,
    cycles=5_000,
    warmup=1_500,
)
evaluator = Evaluator(config, seed=3)
case = evaluator.fault_case(5, 1)  # 5% faults, one fixed pattern
rate = 0.35 / config.message_length  # near saturation

for alg in ("phop", "minimal-adaptive"):
    run = evaluator.run_single(
        alg, case.patterns[0], injection_rate=rate, collect_vc_stats=True
    )
    usage = vc_usage_percent(run)
    peak = max(usage) or 1.0
    imbalance = usage_imbalance(usage[:-4])  # over the non-ring VCs
    print(f"\n{alg}  (imbalance coefficient {imbalance:.2f})")
    for v, pct in enumerate(usage):
        tag = "ring" if v >= len(usage) - 4 else "    "
        bar = "#" * round(40 * pct / peak)
        print(f"  VC{v:<2d} {tag} |{bar:<40s}| {pct:5.2f}%")

print(
    "\nExpected shape (paper Figure 3): PHop piles usage onto the low\n"
    "hop classes while Minimal-Adaptive's profile is nearly flat; the\n"
    "ring VCs (last four) are busy only because faults are present."
)
