"""End-to-end engine tests: single messages, timing, delivery."""

import statistics

import pytest

from repro.faults.pattern import FaultPattern
from repro.routing.registry import ALGORITHM_NAMES, make_algorithm
from repro.simulator.config import SimConfig
from repro.simulator.engine import Simulation
from repro.topology.mesh import Mesh2D


def idle_sim(algorithm="nhop", faults=None, **overrides):
    """A simulation with no background traffic."""
    defaults = dict(
        width=8,
        vcs_per_channel=24,
        message_length=6,
        injection_rate=0.0,
        cycles=1000,
        warmup=0,
        seed=3,
    )
    defaults.update(overrides)
    cfg = SimConfig(**defaults)
    return Simulation(cfg, make_algorithm(algorithm), faults=faults)


class TestSingleMessage:
    def test_delivered(self):
        sim = idle_sim()
        msg = sim.submit_message(0, 63)
        sim.run()
        assert msg.delivered >= 0
        assert sim.total_delivered == 1

    def test_minimal_hop_count_fault_free(self, algorithm_name):
        sim = idle_sim(algorithm_name)
        mesh = sim.mesh
        msg = sim.submit_message(0, 63)
        sim.run()
        assert msg.delivered >= 0, algorithm_name
        assert msg.hops == mesh.distance(0, 63), algorithm_name

    def test_pipeline_latency_bound(self):
        """Uncontended wormhole latency ~ distance + message length."""
        sim = idle_sim(message_length=10)
        mesh = sim.mesh
        msg = sim.submit_message(0, 63)
        sim.run()
        dist = mesh.distance(0, 63)
        # Wormhole pipeline: the tail leaves the source at cycle len-1
        # and needs dist more hops, so latency = dist + len - 1 exactly
        # when uncontended.
        assert msg.latency == dist + 10 - 1

    def test_single_flit_message(self):
        sim = idle_sim(message_length=1)
        msg = sim.submit_message(0, 7)
        sim.run()
        assert msg.delivered >= 0

    def test_adjacent_nodes(self):
        sim = idle_sim()
        msg = sim.submit_message(0, 1)
        sim.run()
        assert msg.delivered >= 0
        assert msg.hops == 1

    def test_self_message_rejected(self):
        sim = idle_sim()
        with pytest.raises(ValueError):
            sim.submit_message(5, 5)

    def test_faulty_endpoint_rejected(self, center_fault):
        sim = idle_sim(faults=center_fault)
        bad = next(iter(center_fault.faulty))
        with pytest.raises(ValueError):
            sim.submit_message(0, bad)
        with pytest.raises(ValueError):
            sim.submit_message(bad, 0)


class TestManyMessages:
    def test_all_pairs_from_corner(self):
        sim = idle_sim(cycles=4000)
        for dst in range(1, 64):
            sim.submit_message(0, dst)
        sim.run()
        assert sim.total_delivered == 63

    def test_bidirectional_cross_traffic(self):
        sim = idle_sim(cycles=3000)
        a = sim.submit_message(0, 63)
        b = sim.submit_message(63, 0)
        c = sim.submit_message(7, 56)
        d = sim.submit_message(56, 7)
        sim.run()
        assert all(m.delivered >= 0 for m in (a, b, c, d))

    def test_many_to_one(self):
        """Destination contention: ejection is 1 flit/cycle/node."""
        sim = idle_sim(cycles=5000, message_length=8)
        sources = [1, 2, 3, 8, 16, 24, 9, 18]
        for s in sources:
            sim.submit_message(s, 0)
        sim.run()
        assert sim.total_delivered == len(sources)

    def test_source_queueing(self):
        """Back-to-back messages from one source serialize."""
        sim = idle_sim(cycles=4000, message_length=10)
        msgs = [sim.submit_message(0, 63) for _ in range(5)]
        sim.run()
        assert all(m.delivered >= 0 for m in msgs)
        # Injection link is 1 flit/cycle: the k-th message cannot finish
        # before ~k * length cycles.
        finish = sorted(m.delivered for m in msgs)
        for k in range(1, 5):
            assert finish[k] >= finish[k - 1] + 10


class TestMeasurementWindow:
    def test_warmup_excluded(self):
        sim = idle_sim(cycles=1000, warmup=900)
        msg = sim.submit_message(0, 1)
        sim.run()
        # Delivered long before the warmup ended: not measured.
        assert msg.delivered < 900
        assert sim.result.delivered == 0
        assert sim.total_delivered == 1

    def test_generated_counted_after_warmup(self):
        cfg = SimConfig(
            width=8, vcs_per_channel=24, message_length=4,
            injection_rate=0.01, cycles=600, warmup=300, seed=1,
        )
        sim = Simulation(cfg, make_algorithm("nhop"))
        sim.run()
        assert 0 < sim.result.generated < sim.total_generated


class TestResultProperties:
    def test_throughput_normalization(self):
        cfg = SimConfig(
            width=8, vcs_per_channel=24, message_length=4,
            injection_rate=0.005, cycles=2000, warmup=500, seed=2,
        )
        sim = Simulation(cfg, make_algorithm("duato"))
        r = sim.run()
        assert r.throughput == pytest.approx(
            r.delivered_flits / (64 * r.measured_cycles)
        )
        assert 0 < r.throughput <= 1.0
        assert r.offered_load == pytest.approx(0.02)

    def test_latency_stats(self):
        cfg = SimConfig(
            width=8, vcs_per_channel=24, message_length=4,
            injection_rate=0.005, cycles=2000, warmup=500, seed=2,
        )
        r = Simulation(cfg, make_algorithm("duato")).run()
        assert r.delivered > 10
        assert r.avg_latency <= r.latency_max
        assert r.avg_network_latency <= r.avg_latency
        assert r.latency_std >= 0
        assert r.avg_hops >= 1


class TestReproducibility:
    def test_same_seed_same_results(self):
        cfg = SimConfig(
            width=8, vcs_per_channel=24, message_length=6,
            injection_rate=0.008, cycles=1500, warmup=300, seed=42,
        )
        r1 = Simulation(cfg, make_algorithm("nbc")).run()
        r2 = Simulation(cfg, make_algorithm("nbc")).run()
        assert r1.delivered == r2.delivered
        assert r1.latency_sum == r2.latency_sum
        assert r1.delivered_flits == r2.delivered_flits

    def test_different_seed_different_results(self):
        base = dict(
            width=8, vcs_per_channel=24, message_length=6,
            injection_rate=0.008, cycles=1500, warmup=300,
        )
        r1 = Simulation(SimConfig(seed=1, **base), make_algorithm("nbc")).run()
        r2 = Simulation(SimConfig(seed=2, **base), make_algorithm("nbc")).run()
        assert (r1.delivered, r1.latency_sum) != (r2.delivered, r2.latency_sum)


class TestMeshMismatch:
    def test_fault_pattern_mesh_must_match(self):
        other = FaultPattern.fault_free(Mesh2D(6))
        cfg = SimConfig(width=8, vcs_per_channel=24)
        with pytest.raises(ValueError, match="mesh"):
            Simulation(cfg, make_algorithm("nhop"), faults=other)


class TestSampleCollection:
    """``collect_latency_samples``: one latency per delivered message."""

    def test_samples_collected_when_enabled(self):
        cfg = SimConfig(
            width=8, vcs_per_channel=24, message_length=4,
            injection_rate=0.01, cycles=1500, warmup=400, seed=3,
            collect_latency_samples=True,
        )
        sim = Simulation(cfg, make_algorithm("nhop"))
        r = sim.run()
        assert len(r.latency_samples) == r.delivered
        assert sum(r.latency_samples) == r.latency_sum
        assert max(r.latency_samples) == r.latency_max

    def test_samples_off_by_default(self):
        cfg = SimConfig(
            width=8, vcs_per_channel=24, message_length=4,
            injection_rate=0.01, cycles=800, warmup=200, seed=3,
        )
        r = Simulation(cfg, make_algorithm("nhop")).run()
        assert r.latency_samples == []

    def test_saturation_fattens_the_tail(self):
        ratios = {}
        for rate in (0.002, 0.05):
            cfg = SimConfig(
                width=8, vcs_per_channel=24, message_length=4,
                injection_rate=rate, cycles=2500, warmup=600, seed=3,
                collect_latency_samples=True,
            )
            samples = Simulation(cfg, make_algorithm("nhop")).run().latency_samples
            # p99 over the median
            ratios[rate] = (
                statistics.quantiles(samples, n=100)[98]
                / statistics.median(samples)
            )
        assert ratios[0.05] > ratios[0.002]
