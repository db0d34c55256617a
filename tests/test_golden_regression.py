"""Golden regression tests: exact fixed-seed simulation outcomes.

These freeze the engine's behavior bit-for-bit: any change to the cycle
ordering, arbitration RNG consumption, routing decisions or statistics
accounting shifts these numbers and fails loudly.  When a change is
*intentional* (e.g. a new arbitration scheme), regenerate the constants
with :func:`regenerate`, which prints ``GOLDEN`` in this file's form,
and say so in the change description.

Regeneration::

    PYTHONPATH=src:tests python -c "import test_golden_regression as g; g.regenerate()"
"""

import random

import pytest

from repro.faults.generator import generate_block_fault_pattern
from repro.routing.registry import make_algorithm
from repro.simulator.config import SimConfig
from repro.simulator.engine import Simulation
from repro.topology.mesh import Mesh2D

# (algorithm, faulty?, seed) -> exact counters.
GOLDEN = {
    ("nhop", False, 7): dict(
        delivered=737, flits=5843, lat=12810, nlat=12314, hops=3810
    ),
    ("duato-nbc", True, 8): dict(
        delivered=688, flits=5501, lat=12607, nlat=12131, hops=3891
    ),
    ("fully-adaptive", True, 9): dict(
        delivered=701, flits=5613, lat=13136, nlat=12600, hops=3951
    ),
    ("pbc", False, 10): dict(
        delivered=692, flits=5522, lat=12114, nlat=11698, hops=3656
    ),
}


def run_case(algorithm: str, faulty: bool, seed: int) -> dict:
    cfg = SimConfig(
        width=8,
        vcs_per_channel=24,
        message_length=8,
        injection_rate=0.01,
        cycles=1500,
        warmup=400,
        seed=seed,
        on_deadlock="drain",
    )
    faults = (
        generate_block_fault_pattern(Mesh2D(8), 4, random.Random(99))
        if faulty
        else None
    )
    sim = Simulation(cfg, make_algorithm(algorithm), faults=faults)
    r = sim.run()
    return dict(
        delivered=r.delivered,
        flits=r.delivered_flits,
        lat=r.latency_sum,
        nlat=r.network_latency_sum,
        hops=r.hops_sum,
    )


def regenerate() -> None:  # pragma: no cover - maintenance helper
    print("GOLDEN = {")
    for algorithm, faulty, seed in GOLDEN:
        counters = run_case(algorithm, faulty, seed)
        print(f'    ("{algorithm}", {faulty}, {seed}): dict(')
        print("        " + ", ".join(f"{k}={v}" for k, v in counters.items()))
        print("    ),")
    print("}")


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: f"{c[0]}-{c[2]}")
def test_golden(case):
    algorithm, faulty, seed = case
    assert run_case(algorithm, faulty, seed) == GOLDEN[case]
