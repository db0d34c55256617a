"""Tests for the analytical model (distance, channel loads, latency)."""

import math

import pytest

from repro.analysis.channel_load import ChannelLoadMap
from repro.analysis.distance import distance_distribution, mean_distance
from repro.analysis.latency_model import AnalyticalLatencyModel
from repro.topology.directions import EAST, NORTH, OPPOSITE, SOUTH, WEST
from repro.topology.mesh import Mesh2D


class TestDistance:
    def test_distribution_sums_to_one(self, mesh10):
        dist = distance_distribution(mesh10)
        assert sum(dist.values()) == pytest.approx(1.0)
        assert 0 not in dist  # self-pairs excluded
        assert max(dist) == mesh10.diameter

    def test_mean_distance_closed_form(self):
        """Uniform k x k mesh, self-pairs excluded: mean distance is
        exactly 2k/3 (per-axis mean (k^2-1)/(3k) over all pairs, rescaled
        by k^2/(k^2-1) for the excluded self-pairs)."""
        for k in (4, 6, 10):
            mesh = Mesh2D(k)
            assert mean_distance(mesh) == pytest.approx(2 * k / 3)

    def test_subset_matches_bruteforce(self, mesh8):
        nodes = [0, 5, 20, 37, 63]
        dist = distance_distribution(mesh8, nodes)
        total = 0.0
        for a in nodes:
            for b in nodes:
                if a != b:
                    total += mesh8.distance(a, b)
        assert sum(d * p for d, p in dist.items()) == pytest.approx(
            total / (len(nodes) * (len(nodes) - 1))
        )

    def test_too_few_nodes(self, mesh8):
        with pytest.raises(ValueError):
            distance_distribution(mesh8, [3])


class TestChannelLoads:
    @pytest.fixture(scope="class")
    def loads8(self):
        return ChannelLoadMap(Mesh2D(8))

    def test_conservation(self, loads8):
        """Sum of flows per node equals the mean path length."""
        assert loads8.total_flow_check() == pytest.approx(
            mean_distance(loads8.mesh)
        )

    def test_symmetry(self, loads8):
        """Mesh symmetry: the flow east out of (x,y) equals the flow
        west out of the mirrored node."""
        mesh = loads8.mesh
        for y in range(8):
            for x in range(7):
                a = loads8.unit_flow(mesh.node_id(x, y), EAST)
                b = loads8.unit_flow(mesh.node_id(7 - x, y), WEST)
                assert a == pytest.approx(b)

    def test_center_busier_than_edge(self, loads8):
        mesh = loads8.mesh
        center = loads8.unit_flow(mesh.node_id(3, 3), EAST)
        edge = loads8.unit_flow(mesh.node_id(0, 0), EAST)
        assert center > edge

    def test_bottleneck_is_central(self, loads8):
        node, _ = loads8.bottleneck_channel()
        x, y = loads8.mesh.coordinates(node)
        assert 2 <= x <= 5 and 2 <= y <= 5

    def test_flit_load_scaling(self, loads8):
        a = loads8.flit_load(0.001, 10)
        b = loads8.flit_load(0.002, 10)
        for ch in a:
            assert b[ch] == pytest.approx(2 * a[ch])

    def test_saturation_rate_positive(self, loads8):
        assert 0 < loads8.saturation_rate(100) < 1


class TestLatencyModel:
    @pytest.fixture(scope="class")
    def model(self):
        return AnalyticalLatencyModel(Mesh2D(8), message_length=16)

    def test_zero_load_latency_is_pipeline(self, model):
        p = model.predict(0.0)
        assert p.latency == pytest.approx(model.mean_distance + 16 - 1)
        assert p.network_wait == 0 and p.source_wait == 0

    def test_monotone_in_rate(self, model):
        rates = [0.0005, 0.001, 0.002, 0.004, 0.008]
        lats = [model.predict(r).latency for r in rates]
        finite = [v for v in lats if math.isfinite(v)]
        assert finite == sorted(finite)

    def test_saturation_returns_inf(self, model):
        beyond = 1.2 * model.saturation_rate()
        assert model.predict(beyond).saturated

    def test_sweep(self, model):
        preds = model.sweep([0.001, 0.002])
        assert len(preds) == 2
        assert preds[0].rate == 0.001

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            AnalyticalLatencyModel(Mesh2D(8), message_length=0)
        with pytest.raises(ValueError):
            AnalyticalLatencyModel(Mesh2D(8), 16, vcs_per_direction=0)
        with pytest.raises(ValueError):
            AnalyticalLatencyModel(Mesh2D(8), 16).predict(-0.1)

    def test_more_vcs_less_waiting(self):
        narrow = AnalyticalLatencyModel(Mesh2D(8), 16, vcs_per_direction=1)
        wide = AnalyticalLatencyModel(Mesh2D(8), 16, vcs_per_direction=20)
        rate = 0.8 * narrow.saturation_rate()
        assert narrow.predict(rate).network_wait >= wide.predict(rate).network_wait


class TestModelAgainstSimulation:
    def test_zero_load_agreement(self):
        """At very low load the model must match the simulator closely."""
        from repro.routing.registry import make_algorithm
        from repro.simulator.config import SimConfig
        from repro.simulator.engine import Simulation

        mesh = Mesh2D(8)
        model = AnalyticalLatencyModel(mesh, message_length=8)
        cfg = SimConfig(
            width=8, vcs_per_channel=24, message_length=8,
            injection_rate=0.0005, cycles=4000, warmup=1000, seed=5,
        )
        sim = Simulation(cfg, make_algorithm("minimal-adaptive"))
        r = sim.run()
        predicted = model.predict(0.0005).latency
        assert r.avg_latency == pytest.approx(predicted, rel=0.15)

    @staticmethod
    def simulate(rate):
        from repro.routing.registry import make_algorithm
        from repro.simulator.config import SimConfig
        from repro.simulator.engine import Simulation

        cfg = SimConfig(
            width=8, vcs_per_channel=24, message_length=8,
            injection_rate=rate, cycles=3000, warmup=800, seed=9,
        )
        return Simulation(cfg, make_algorithm("minimal-adaptive")).run()

    @pytest.mark.parametrize("fraction", [0.2, 0.6])
    def test_right_ballpark_below_saturation(self, fraction):
        """Under load (not just at zero load) the predicted latency stays
        within 0.5-2x of the simulated one."""
        model = AnalyticalLatencyModel(Mesh2D(8), message_length=8)
        rate = fraction * model.saturation_rate()
        predicted = model.predict(rate).latency
        measured = self.simulate(rate).avg_latency
        assert math.isfinite(predicted)
        assert 0.5 * measured <= predicted <= 2.0 * measured

    def test_accepted_rate_never_above_the_fluid_bound(self):
        """Offered 1.5x the model's saturation rate, the network cannot
        accept more than the bottleneck channel's capacity allows."""
        model = AnalyticalLatencyModel(Mesh2D(8), message_length=8)
        run = self.simulate(1.5 * model.saturation_rate())
        assert run.message_rate <= model.saturation_rate() * 1.1
