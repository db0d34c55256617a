"""Direct tests for the wait-for-graph oracle `find_dependency_cycle`.

The integration tests exercise the oracle through full simulations; here
we build the wait-for graph by hand so the two decisive shapes are pinned
exactly: a genuine circular wait returns the cycle, and a congestion-only
stall (acyclic wait-for graph, however deep) returns ``None``.
"""

from repro.routing.registry import make_algorithm
from repro.simulator.config import SimConfig
from repro.simulator.deadlock import find_dependency_cycle
from repro.simulator.engine import Simulation
from repro.topology.directions import LOCAL
from repro.simulator.message import Message


def make_sim(width: int = 2, vcs: int = 5) -> Simulation:
    cfg = SimConfig(
        width=width,
        vcs_per_channel=vcs,
        message_length=4,
        injection_rate=0.0,
        cycles=10,
        warmup=0,
        seed=1,
    )
    return Simulation(cfg, make_algorithm("minimal-adaptive"))


def block_header(sim: Simulation, node: int, dst: int, msg_id: int):
    """Park a message's header on *node*'s local input VC, unrouted."""
    msg = Message(msg_id, node, dst, sim.config.message_length, 0)
    sim.algorithm.new_message(msg)
    invc = sim.input_vc(node, LOCAL, 0)
    invc.msg = msg
    invc.blocked_since = 0
    sim._needs_routing[invc] = None
    return invc


def own(sim: Simulation, node: int, port: int, vc: int, owner) -> None:
    """Hand-assign the owner of output VC ``(node, port, vc)``.

    The engine allocates VCs from a per-port free mask (bit set <=>
    ``owner is None``), so a test that writes ``owner`` directly must
    clear the bit too or the allocator would grant the VC again and
    ``check_invariants`` would flag the mismatch.  ``output_vc``
    materialises the (lazy) VC first.
    """
    ovc = sim.output_vc(node, port, vc)
    ovc.owner = owner
    sim._free[ovc.key] &= ~ovc.bit


class TestCircularWait:
    def test_two_vc_circular_wait_returns_cycle(self):
        """A holds what B wants and vice versa -> the cycle, exactly."""
        sim = make_sim()
        mesh = sim.mesh
        # A at node 0 heads for node 3 (may use E or N); B at node 1
        # heads for node 2 (may use W or N).  Cross-own every output VC
        # each one could request.
        invc_a = block_header(sim, mesh.node_id(0, 0), mesh.node_id(1, 1), 0)
        invc_b = block_header(sim, mesh.node_id(1, 0), mesh.node_id(0, 1), 1)
        for d, vcs in (t for tier in sim.algorithm.candidate_tiers(invc_a.msg, invc_a.node) for t in tier):
            for v in vcs:
                own(sim, invc_a.node, d, v, invc_b)
        for d, vcs in (t for tier in sim.algorithm.candidate_tiers(invc_b.msg, invc_b.node) for t in tier):
            for v in vcs:
                own(sim, invc_b.node, d, v, invc_a)

        cycle = find_dependency_cycle(sim)
        assert cycle is not None
        assert sorted(cycle) == [(0, LOCAL, 0), (1, LOCAL, 0)]

    def test_cycle_triples_are_input_vc_coordinates(self):
        sim = make_sim()
        invc_a = block_header(sim, 0, 3, 0)
        invc_b = block_header(sim, 1, 2, 1)
        for invc, other in ((invc_a, invc_b), (invc_b, invc_a)):
            for tier in sim.algorithm.candidate_tiers(invc.msg, invc.node):
                for d, vcs in tier:
                    for v in vcs:
                        own(sim, invc.node, d, v, other)
        cycle = find_dependency_cycle(sim)
        for node, port, vc in cycle:
            assert 0 <= node < sim.mesh.n_nodes
            assert 0 <= port <= LOCAL
            assert 0 <= vc < sim.config.vcs_per_channel


class TestCongestionOnly:
    def test_chain_wait_returns_none(self):
        """A waits on B, B's wants are all free: stall, not deadlock."""
        sim = make_sim()
        invc_a = block_header(sim, 0, 3, 0)
        invc_b = block_header(sim, 1, 2, 1)
        for tier in sim.algorithm.candidate_tiers(invc_a.msg, invc_a.node):
            for d, vcs in tier:
                for v in vcs:
                    own(sim, invc_a.node, d, v, invc_b)
        # B's candidates stay unowned: the wait-for graph is A -> B only.
        assert find_dependency_cycle(sim) is None

    def test_wait_on_unblocked_holder_returns_none(self):
        """Depending on a holder that is *moving* (not blocked) is fine."""
        sim = make_sim()
        invc_a = block_header(sim, 0, 3, 0)
        # The owner is an input VC that is not in the blocked set.
        mover = sim.input_vc(1, LOCAL, 0)
        for tier in sim.algorithm.candidate_tiers(invc_a.msg, invc_a.node):
            for d, vcs in tier:
                for v in vcs:
                    own(sim, invc_a.node, d, v, mover)
        assert find_dependency_cycle(sim) is None

    def test_empty_network_returns_none(self):
        assert find_dependency_cycle(make_sim()) is None


def test_own_keeps_the_free_mask_in_step():
    """A hand-owned VC is never granted: the blocked header stays blocked."""
    sim = make_sim()
    invc_a = block_header(sim, 0, 3, 0)
    holder = sim.input_vc(1, LOCAL, 0)
    for tier in sim.algorithm.candidate_tiers(invc_a.msg, invc_a.node):
        for d, vcs in tier:
            for v in vcs:
                own(sim, invc_a.node, d, v, holder)
    sim.step(3)
    assert invc_a in sim._needs_routing
    assert invc_a.out_ovc is None


def materialised(sim: Simulation) -> int:
    return sum(vc is not None for table in (sim._ovcs, sim._invcs) for vc in table)


def test_the_oracle_reads_without_building_fabric():
    """A diagnostic must not materialise the VCs it asks about (an absent
    VC is idle and has no owner): same verdict, same fabric."""
    sim = make_sim(width=4, vcs=24)
    invc_a = block_header(sim, 0, 15, 0)
    invc_b = block_header(sim, 5, 6, 1)
    own(sim, 0, 0, 0, invc_b)  # A waits on B; B's wants are all absent
    arrived = block_header(sim, 10, 9, 2)  # then a header at its destination:
    arrived.msg.dst = 10  # it asks for node 10's 24 ejection VCs
    before = materialised(sim)
    assert find_dependency_cycle(sim) is None
    assert materialised(sim) == before
    for d, vcs in sim.algorithm.candidate_tiers(invc_b.msg, 5)[0]:
        for v in vcs:
            own(sim, 5, d, v, invc_a)
    assert find_dependency_cycle(sim) == [(0, LOCAL, 0), (5, LOCAL, 0)]


def test_the_reported_cycle_follows_candidate_order():
    """A waits on B (east VC) and on C (north VC) and both wait on A: the
    cycle reported is the one through A's first candidate, on every run
    (edge sets are insertion-ordered, not id()-ordered)."""
    sim = make_sim()
    invc_a = block_header(sim, 0, 3, 0)
    invc_c = block_header(sim, 2, 1, 2)
    invc_b = block_header(sim, 1, 2, 1)
    (tier,) = sim.algorithm.candidate_tiers(invc_a.msg, 0)
    for (d, vcs), holder in zip(tier, (invc_b, invc_c)):
        for v in vcs:
            own(sim, 0, d, v, holder)
    for invc in (invc_b, invc_c):
        for d, vcs in sim.algorithm.candidate_tiers(invc.msg, invc.node)[0]:
            for v in vcs:
                own(sim, invc.node, d, v, invc_a)
    assert find_dependency_cycle(sim) == [(0, LOCAL, 0), (1, LOCAL, 0)]
