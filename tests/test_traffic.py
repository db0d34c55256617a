"""Tests for traffic patterns and the arrival process."""

import random

import pytest

from repro.faults.generator import pattern_from_rectangles
from repro.faults.pattern import FaultPattern
from repro.faults.regions import FaultRegion
from repro.topology.mesh import Mesh2D
from repro.traffic.patterns import (
    BitComplementTraffic,
    HotspotTraffic,
    TransposeTraffic,
    UniformTraffic,
    make_pattern,
)
from repro.traffic.process import ExponentialArrivals


def prepared(pattern, mesh=None, faults=None):
    mesh = mesh or Mesh2D(8)
    pattern.prepare(mesh, faults or FaultPattern.fault_free(mesh))
    return pattern


class TestUniform:
    def test_never_self(self):
        p = prepared(UniformTraffic())
        rng = random.Random(1)
        assert all(p.destination(5, rng) != 5 for _ in range(200))

    def test_never_faulty(self):
        mesh = Mesh2D(8)
        faults = pattern_from_rectangles(mesh, [FaultRegion(3, 3, 4, 4)])
        p = prepared(UniformTraffic(), mesh, faults)
        rng = random.Random(2)
        for _ in range(300):
            assert not faults.faulty_mask[p.destination(0, rng)]

    def test_roughly_uniform(self):
        p = prepared(UniformTraffic())
        rng = random.Random(3)
        counts = {}
        n = 6400
        for _ in range(n):
            d = p.destination(0, rng)
            counts[d] = counts.get(d, 0) + 1
        assert len(counts) == 63  # every other node reachable
        expect = n / 63
        assert all(0.4 * expect < c < 2.0 * expect for c in counts.values())


class TestDeterministicPatterns:
    def test_transpose_map(self):
        mesh = Mesh2D(8)
        p = prepared(TransposeTraffic(), mesh)
        rng = random.Random(1)
        src = mesh.node_id(2, 5)
        assert p.destination(src, rng) == mesh.node_id(5, 2)

    def test_transpose_requires_square(self):
        mesh = Mesh2D(6, 4)
        with pytest.raises(ValueError, match="square"):
            TransposeTraffic().prepare(mesh, FaultPattern.fault_free(mesh))

    def test_transpose_diagonal_falls_back(self):
        mesh = Mesh2D(8)
        p = prepared(TransposeTraffic(), mesh)
        rng = random.Random(1)
        src = mesh.node_id(3, 3)  # self-map
        assert p.destination(src, rng) != src

    def test_transpose_faulty_target_falls_back(self):
        mesh = Mesh2D(8)
        faults = pattern_from_rectangles(mesh, [FaultRegion(5, 2, 5, 2)])
        p = prepared(TransposeTraffic(), mesh, faults)
        rng = random.Random(1)
        src = mesh.node_id(2, 5)  # maps to the faulty (5,2)
        for _ in range(50):
            d = p.destination(src, rng)
            assert not faults.faulty_mask[d]

    def test_bit_complement_map(self):
        mesh = Mesh2D(8)
        p = prepared(BitComplementTraffic(), mesh)
        rng = random.Random(1)
        assert p.destination(mesh.node_id(1, 2), rng) == mesh.node_id(6, 5)


class TestHotspot:
    def test_fraction_hits_hotspot(self):
        mesh = Mesh2D(8)
        spot = mesh.node_id(4, 4)
        p = prepared(HotspotTraffic(hotspots=(spot,), fraction=0.5), mesh)
        rng = random.Random(7)
        hits = sum(1 for _ in range(2000) if p.destination(0, rng) == spot)
        # ~50% plus the uniform share; comfortably above 40%.
        assert hits > 800

    def test_zero_fraction_is_uniform(self):
        mesh = Mesh2D(8)
        spot = mesh.node_id(4, 4)
        p = prepared(HotspotTraffic(hotspots=(spot,), fraction=0.0), mesh)
        rng = random.Random(7)
        hits = sum(1 for _ in range(2000) if p.destination(0, rng) == spot)
        assert hits < 100

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            HotspotTraffic(fraction=1.5)

    def test_all_hotspots_faulty_rejected(self):
        mesh = Mesh2D(8)
        faults = pattern_from_rectangles(mesh, [FaultRegion(4, 4, 4, 4)])
        p = HotspotTraffic(hotspots=(mesh.node_id(4, 4),))
        with pytest.raises(ValueError, match="faulty"):
            p.prepare(mesh, faults)

    def test_default_hotspot_is_center(self):
        mesh = Mesh2D(8)
        p = prepared(HotspotTraffic(fraction=1.0), mesh)
        rng = random.Random(7)
        assert p.destination(0, rng) == mesh.node_id(4, 4)


class TestRegistry:
    def test_make_pattern(self):
        assert isinstance(make_pattern("uniform"), UniformTraffic)
        assert isinstance(make_pattern("transpose"), TransposeTraffic)
        hp = make_pattern("hotspot", fraction=0.2)
        assert isinstance(hp, HotspotTraffic) and hp.fraction == 0.2

    def test_unknown_pattern(self):
        with pytest.raises(ValueError, match="unknown traffic pattern"):
            make_pattern("bursty")


class TestPatternSweep:
    """The paper evaluates uniform traffic only; the same machinery under
    the classic adversarial patterns must show the textbook ordering."""

    ALGS = ("ecube", "duato-nbc", "minimal-adaptive")
    PATTERNS = {
        "uniform": UniformTraffic,
        "transpose": TransposeTraffic,
        "hotspot": lambda: HotspotTraffic(fraction=0.15),
    }

    @pytest.fixture(scope="class")
    def grid(self):
        from repro.core.evaluator import Evaluator
        from repro.simulator.config import SimConfig

        cfg = SimConfig(
            width=8, vcs_per_channel=24, message_length=8,
            cycles=2500, warmup=600,
        )
        rate = 0.5 / cfg.message_length
        out = {}
        for pname, factory in self.PATTERNS.items():
            evaluator = Evaluator(cfg, seed=17, pattern_factory=factory)
            case = evaluator.fault_case(0, 1)
            out[pname] = {
                alg: evaluator.run_case(alg, case, injection_rate=rate).throughput
                for alg in self.ALGS
            }
        return out

    def test_adaptivity_wins_on_transpose(self, grid):
        """XY funnels every transpose flow through the diagonal."""
        assert grid["transpose"]["duato-nbc"] > grid["transpose"]["ecube"]

    def test_xy_is_competitive_on_uniform(self, grid):
        assert grid["uniform"]["ecube"] >= 0.9 * grid["uniform"]["duato-nbc"]

    def test_hotspot_costs_everyone_throughput(self, grid):
        for alg in self.ALGS:
            assert grid["hotspot"][alg] < grid["uniform"][alg], alg


class TestExponentialArrivals:
    def test_zero_rate_generates_nothing(self):
        arr = ExponentialArrivals(range(10), 0.0, random.Random(1))
        assert list(arr.due(10_000)) == []

    def test_rate_matches_mean(self):
        rng = random.Random(5)
        rate = 0.01
        nodes = range(50)
        arr = ExponentialArrivals(nodes, rate, rng)
        count = sum(1 for cycle in range(5000) for _ in arr.due(cycle))
        expect = 50 * 5000 * rate  # = 2500
        assert 0.85 * expect < count < 1.15 * expect

    def test_monotone_nondecreasing_times(self):
        rng = random.Random(6)
        arr = ExponentialArrivals(range(5), 0.05, rng)
        # Draining cycle by cycle never yields an arrival "in the past":
        # all due events are consumed at each step.
        for cycle in range(200):
            list(arr.due(cycle))
            assert all(t > cycle for t, _ in arr._heap)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            ExponentialArrivals(range(5), -0.1, random.Random(1))

    def test_len_tracks_streams(self):
        arr = ExponentialArrivals(range(7), 0.01, random.Random(1))
        assert len(arr) == 7
