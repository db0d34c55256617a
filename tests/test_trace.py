"""Tests for the simulation tracer."""

import pytest

from repro.routing.registry import make_algorithm
from repro.simulator.config import SimConfig
from repro.simulator.engine import Simulation
from repro.simulator.trace import Tracer


def traced_sim(tracer, **overrides):
    defaults = dict(
        width=8, vcs_per_channel=24, message_length=4,
        injection_rate=0.0, cycles=500, warmup=0, seed=1,
    )
    defaults.update(overrides)
    sim = Simulation(SimConfig(**defaults), make_algorithm("nhop"))
    sim.attach(tracer)
    return sim


class TestRecording:
    def test_lifecycle_events(self):
        tracer = Tracer()
        sim = traced_sim(tracer)
        msg = sim.submit_message(0, 9)
        sim.run()
        kinds = [e[1] for e in tracer.of_message(msg.id)]
        assert kinds[0] == "inject"
        assert "alloc" in kinds
        assert kinds[-1] == "deliver"
        assert tracer.counts["deliver"] == 1

    def test_path_reconstruction(self):
        tracer = Tracer()
        sim = traced_sim(tracer)
        mesh = sim.mesh
        src, dst = mesh.node_id(1, 1), mesh.node_id(4, 3)
        msg = sim.submit_message(src, dst)
        sim.run()
        path = tracer.path_of(msg.id)
        # Path includes each routed node once, starting at the source and
        # ending at the destination (the ejection allocation).
        assert path[0] == src
        assert path[-1] == dst
        assert len(path) == mesh.distance(src, dst) + 1

    def test_move_count_matches_flits(self):
        tracer = Tracer()
        sim = traced_sim(tracer, message_length=6)
        mesh = sim.mesh
        msg = sim.submit_message(0, 3)  # 3 hops
        sim.run()
        moves = [e for e in tracer.of_message(msg.id) if e[1] == "move"]
        # Each of the 6 flits crosses 3 routers + the ejection crossbar
        # pass at the destination... every crossbar traversal is one move:
        # flits move once per router on the path including the ejection.
        assert len(moves) == 6 * (mesh.distance(0, 3) + 1)

    def test_drain_recorded(self):
        tracer = Tracer()
        sim = traced_sim(
            tracer, max_hops_factor=0, injection_rate=0.01,
            cycles=400, on_deadlock="drain",
        )
        sim.run()
        assert tracer.counts["drain"] > 0
        drain = next(e for e in tracer.events if e[1] == "drain")
        assert drain[4] == "livelock"


class TestFiltering:
    def test_kind_filter(self):
        tracer = Tracer(kinds={"deliver"})
        sim = traced_sim(tracer)
        sim.submit_message(0, 9)
        sim.run()
        assert set(tracer.counts) == {"deliver"}

    def test_message_filter(self):
        tracer = Tracer(message_ids={1})
        sim = traced_sim(tracer)
        sim.submit_message(0, 9)      # id 0
        m1 = sim.submit_message(5, 60)  # id 1
        sim.run()
        assert all(e[2] == m1.id for e in tracer.events)

    def test_capacity_bound(self):
        tracer = Tracer(capacity=10)
        sim = traced_sim(tracer, injection_rate=0.01, cycles=400)
        sim.run()
        assert len(tracer) <= 10

    def test_sink_called(self):
        seen = []
        tracer = Tracer(sink=seen.append, kinds={"deliver"})
        sim = traced_sim(tracer)
        sim.submit_message(0, 9)
        sim.run()
        assert len(seen) == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_clear(self):
        tracer = Tracer()
        sim = traced_sim(tracer)
        sim.submit_message(0, 9)
        sim.run()
        tracer.clear()
        assert len(tracer) == 0 and not tracer.counts
