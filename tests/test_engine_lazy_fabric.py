"""The lazy VC fabric, the per-port free masks, the port stamps and the
two wake-up states (parked headers, sleeping injection ports).

The engine materialises a virtual channel only when a message is granted
it (or a diagnostic accessor asks for it); these tests pin what "absent"
means, that ``check_invariants`` covers the new state — a missed wake-up
included — and that the invariants hold on the four-pattern verify
corpus for every algorithm.
"""

import pytest

from repro.routing.registry import ALGORITHM_NAMES, make_algorithm
from repro.simulator.config import SimConfig
from repro.simulator.engine import Simulation
from repro.simulator.message import Message
from repro.topology.directions import EAST, LOCAL, NORTH, WEST
from repro.verify.corpus import CORPUS_NAMES, corpus_pattern
from test_deadlock_oracle import block_header, make_sim as make_tiny_sim, own


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


class TestWakeUpInvariants:
    """A skipped re-test or visit must be provably idle; each way of
    forgetting a wake-up trips ``check_invariants``."""

    def walled_in(self):
        """A 2x2 mesh where every output VC a 0 -> 3 header could ask for
        is held by a stalled worm (one consistent holder per VC)."""
        sim = make_tiny_sim()
        probe = Message(99, 0, 3, 4, 0)
        holders = []
        for tier in sim.algorithm.candidate_tiers(probe, 0):
            for d, vcs in tier:
                for v in vcs:
                    holder = sim.input_vc(3, LOCAL, len(holders))
                    holder.msg = Message(100 + len(holders), 3, 0, 4, 0)
                    sim._active[holder] = None
                    own(sim, 0, d, v, holder)
                    holder.out_ovc = sim.output_vc(0, d, v)
                    holders.append(holder)
        sim.check_invariants()
        return sim, holders

    def parked(self):
        sim, holders = self.walled_in()
        invc = block_header(sim, 0, 3, 0)
        sim.step(3)
        assert invc.tiers is not None and invc in sim._needs_routing
        sim.check_invariants()
        return sim, invc, holders

    def test_a_release_wakes_the_parked_header(self):
        sim, invc, holders = self.parked()
        freed = holders[0].out_ovc
        sim._drain(holders[0].msg, livelock=False)
        sim.check_invariants()
        sim.step(1)
        assert invc.out_ovc is freed and invc.tiers is None

    def test_freeing_a_vc_without_the_stamp_is_caught(self):
        sim, invc, holders = self.parked()
        holder = holders[0]  # release by hand, everything but the stamp
        holder.out_ovc.owner = None
        sim._free[holder.out_ovc.key] |= holder.out_ovc.bit
        holder.out_ovc = holder.msg = None
        del sim._active[holder]
        with pytest.raises(AssertionError, match="no wake-up stamp"):
            sim.check_invariants()
        sim.step(2)  # and the header does sleep through it
        assert invc in sim._needs_routing

    def stalled(self):
        """Node 0's injection port asleep: its header is walled in, the
        injection buffer is full and a second message is queued."""
        sim, _ = self.walled_in()
        sim.submit_message(0, 3)
        sim.submit_message(0, 3)
        sim.step(4)
        invc = sim.input_vc(0, LOCAL, 0)
        assert sim._inj_asleep[0] and len(invc.buffer) == 2
        sim.check_invariants()
        return sim, invc

    def test_popping_a_flit_without_the_wake_is_caught(self):
        sim, invc = self.stalled()
        invc.buffer.pop()
        with pytest.raises(AssertionError, match="asleep with buffer room"):
            sim.check_invariants()

    def test_a_bindable_vc_on_a_sleeping_port_is_caught(self):
        sim = make_sim()
        sim.submit_message(5, 10)
        sim._inj_asleep[5] = True  # never visited: VC 0 is idle, bindable
        with pytest.raises(AssertionError, match="bindable"):
            sim.check_invariants()

    def test_sleeping_without_pending_work_is_caught(self):
        sim = make_sim()
        sim._inj_asleep[5] = True
        with pytest.raises(AssertionError, match="not pending"):
            sim.check_invariants()

    def test_queueing_a_message_wakes_the_port(self):
        sim, _ = self.stalled()
        sim.submit_message(0, 3)
        assert not sim._inj_asleep[0]


@pytest.mark.parametrize("pattern", CORPUS_NAMES)
@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
def test_invariants_hold_on_the_verify_corpus(algorithm, pattern):
    """Every 64 cycles, saturated, on each corpus pattern (4x4)."""
    sim = make_sim(
        algorithm, corpus_pattern(pattern), injection_rate=0.25,
        deadlock_timeout=96, seed=17,
    )
    asleep = 0
    for _ in range(8):
        sim.step(64)
        sim.check_invariants()
        asleep += sum(sim._inj_asleep)
    assert sim.total_delivered > 0
    assert asleep, "no injection port ever stalled: the run is not saturated"
