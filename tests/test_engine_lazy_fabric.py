"""The lazy VC fabric, the per-port free masks and the port stamps.

The engine materialises a virtual channel only when a message is granted
it (or a diagnostic accessor asks for it); these tests pin what "absent"
means, that ``check_invariants`` covers the new state, and that the
invariants hold on the four-pattern verify corpus for every algorithm.
"""

import pytest

from repro.routing.registry import ALGORITHM_NAMES, make_algorithm
from repro.simulator.config import SimConfig
from repro.simulator.engine import Simulation
from repro.topology.directions import EAST, LOCAL, NORTH, WEST
from repro.verify.corpus import CORPUS_NAMES, corpus_pattern


def make_sim(algorithm="nhop", faults=None, **overrides) -> Simulation:
    defaults = dict(
        width=4, vcs_per_channel=24, message_length=4, injection_rate=0.0,
        cycles=512, warmup=0, seed=3, on_deadlock="drain",
    )
    defaults.update(overrides)
    return Simulation(SimConfig(**defaults), make_algorithm(algorithm), faults)


def materialised(table) -> int:
    return sum(entry is not None for entry in table)


class TestLazyFabric:
    def test_construction_builds_no_vcs(self):
        sim = make_sim()
        assert materialised(sim._invcs) == materialised(sim._ovcs) == 0
        assert len(sim._ovcs) == sim.mesh.n_nodes * 5 * 24
        assert all(mask == (1 << 24) - 1 for mask in sim._free)
        sim.check_invariants()

    def test_output_accessor_creates_the_linked_pair(self):
        sim = make_sim()
        ovc = sim.output_vc(0, EAST, 5)
        assert ovc is sim.output_vc(0, EAST, 5)
        assert ovc.credits == sim.config.buffer_depth and ovc.owner is None
        down = sim.input_vc(1, WEST, 5)
        assert ovc.down_invc is down and down.up_ovc is ovc
        assert materialised(sim._ovcs) == materialised(sim._invcs) == 1

    def test_input_accessor_creates_its_upstream(self):
        sim = make_sim()
        invc = sim.input_vc(5, NORTH, 2)  # fed from node 9's south port
        assert invc.up_ovc is not None and invc.up_ovc.down_invc is invc
        assert (invc.up_ovc.node, invc.up_ovc.vc) == (9, 2)
        # Injection VCs and mesh-edge ports have nothing upstream.
        assert sim.input_vc(5, LOCAL, 0).up_ovc is None
        assert sim.input_vc(0, WEST, 0).up_ovc is None
        assert sim.output_vc(0, WEST, 0).down_invc is None

    def test_a_short_run_touches_a_fraction_of_the_fabric(self):
        sim = make_sim(width=6)
        sim.submit_message(0, 35)
        sim.step(60)
        assert sim.total_delivered == 1
        # 10 hops + ejection, one VC each; 6x6x5x24 = 4320 table slots.
        assert materialised(sim._ovcs) == 11
        sim.check_invariants()


class TestInvariantCoverage:
    def busy(self) -> Simulation:
        sim = make_sim(injection_rate=0.05)
        sim.step(80)
        assert sim._active
        sim.check_invariants()
        return sim

    def test_free_mask_out_of_step_is_caught(self):
        sim = self.busy()
        ovc = next(iter(sim._active)).out_ovc
        sim._free[ovc.key] |= ovc.bit  # owned VC marked free
        with pytest.raises(AssertionError, match="free-mask"):
            sim.check_invariants()

    def test_owned_bit_on_an_absent_vc_is_caught(self):
        sim = make_sim()
        sim._free[3] &= ~1
        with pytest.raises(AssertionError, match="absent output VC"):
            sim.check_invariants()

    def test_unmaterialised_busy_vc_is_caught(self):
        sim = self.busy()
        invc = next(iter(sim._active))
        sim._invcs[invc.key * 24 + invc.vc] = None
        with pytest.raises(AssertionError, match="materialised"):
            sim.check_invariants()

    def test_spent_ejection_sentinel_is_caught(self):
        sim = make_sim()
        sim.output_vc(2, LOCAL, 0).credits -= 1
        with pytest.raises(AssertionError, match="sentinel"):
            sim.check_invariants()


@pytest.mark.parametrize("pattern", CORPUS_NAMES)
@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
def test_invariants_hold_on_the_verify_corpus(algorithm, pattern):
    """Every 64 cycles, saturated, on each corpus pattern (4x4)."""
    sim = make_sim(
        algorithm, corpus_pattern(pattern), injection_rate=0.08,
        deadlock_timeout=96, seed=17,
    )
    for _ in range(8):
        sim.step(64)
        sim.check_invariants()
    assert sim.total_delivered > 0
