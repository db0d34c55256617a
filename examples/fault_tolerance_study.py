"""Compare how algorithms degrade as nodes fail (a mini Figure 4/5).

Sweeps the fault count 0 -> 10% for a handful of algorithms at a fixed
offered load, averaging over independent random fault sets, and prints
throughput/latency degradation tables — the same methodology as the
paper's Section 5.1, at demo scale.

Run:  python examples/fault_tolerance_study.py
"""

from repro.core import Evaluator
from repro.experiments.ascii_plot import table
from repro.simulator import SimConfig

ALGORITHMS = ("nhop", "pbc", "duato-nbc", "fully-adaptive")
FAULT_COUNTS = (0, 5, 10)
FAULT_SETS = 2

config = SimConfig(
    width=10,
    vcs_per_channel=24,
    message_length=16,
    cycles=2_500,
    warmup=800,
)
evaluator = Evaluator(config, seed=7)
cases = [evaluator.fault_case(n, FAULT_SETS) for n in FAULT_COUNTS]

# Offered load 0.4 flits/node/cycle (around saturation; the paper's
# Figures 4-5 use "100% traffic load", which `experiments fig4` reproduces).
rate = 0.4 / config.message_length

thr_rows, lat_rows = [], []
for alg in ALGORITHMS:
    points = [evaluator.run_case(alg, case, injection_rate=rate) for case in cases]
    base = points[0].throughput
    thr_rows.append(
        [alg]
        + [f"{p.throughput:.3f}" for p in points]
        + [f"{100 * (points[-1].throughput / base - 1):+.1f}%"]
    )
    lat_rows.append([alg] + [f"{p.latency:.0f}" for p in points])
    print(f"  {alg}: done")

head = ["algorithm"] + [f"{n} faults" for n in FAULT_COUNTS]
print()
print(table(head + ["vs 0%"], thr_rows, title="Throughput (flits/node/cycle)"))
print()
print(table(head, lat_rows, title="Average latency (cycles)"))
print(
    "\nExpected shape (paper Section 5.1): throughput falls and latency\n"
    "rises with the fault rate; the Duato-based hop schemes degrade the\n"
    "most gracefully."
)
