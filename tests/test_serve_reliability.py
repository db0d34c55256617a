"""Monte-Carlo reliability (`repro.serve.reliability`): Wilson CIs,
seed determinism, worker-count invariance, boundary behavior."""

import math

import pytest

from repro.core.evaluator import ENGINE_VERSION
from repro.serve.reliability import (
    ReliabilityEstimate,
    _reliability_batch,
    _routable_fraction,
    estimate,
    wilson_interval,
)
from repro.topology.mesh import Mesh2D


class TestWilsonInterval:
    def test_contains_the_proportion(self):
        low, high = wilson_interval(80, 100)
        assert low < 0.8 < high

    def test_boundary_zero_and_full(self):
        low0, high0 = wilson_interval(0, 50)
        assert low0 == 0.0 and 0.0 < high0 < 0.2
        low1, high1 = wilson_interval(50, 50)
        assert 0.8 < low1 < 1.0 and high1 == 1.0

    def test_tightens_with_trials(self):
        narrow = wilson_interval(800, 1000)
        wide = wilson_interval(8, 10)
        assert narrow[1] - narrow[0] < wide[1] - wide[0]

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(7, 5)


class TestRoutableFraction:
    def test_fault_free_fully_routable(self):
        mesh = Mesh2D(4)
        connected, fraction = _routable_fraction(mesh, set())
        assert connected and fraction == 1.0

    def test_split_mesh_counts_component_pairs(self):
        # 2x2 with the off-diagonal killed: the two survivors sit on
        # opposite corners with no link — zero routable pairs.
        mesh = Mesh2D(2, 2)
        connected, fraction = _routable_fraction(mesh, {1, 2})
        assert not connected and fraction == 0.0

    def test_partial_component_fraction(self):
        # 3x3 minus the middle column: two 3-node side columns survive.
        # Routable pairs: 2 * 3*2 = 12 of 6*5 = 30 -> 0.4.
        mesh = Mesh2D(3, 3)
        connected, fraction = _routable_fraction(mesh, {1, 4, 7})
        assert not connected
        assert fraction == pytest.approx(12 / 30)

    def test_fewer_than_two_healthy_is_dead(self):
        mesh = Mesh2D(2, 2)
        connected, fraction = _routable_fraction(mesh, {0, 1, 2})
        assert not connected and fraction == 0.0


class TestDeterminism:
    def test_seed_reproducible_on_10x10(self):
        """The acceptance criterion: identical estimates, CIs included."""
        a = estimate(10, failure_rate=0.05, trials=400, seed=7)
        b = estimate(10, failure_rate=0.05, trials=400, seed=7)
        assert a == b
        assert 0.0 <= a.ci_low <= a.p_connected <= a.ci_high <= 1.0

    def test_different_seed_differs(self):
        a = estimate(10, failure_rate=0.08, trials=400, seed=7)
        b = estimate(10, failure_rate=0.08, trials=400, seed=8)
        assert a.p_connected != b.p_connected

    def test_worker_count_invariant(self):
        """Batching is fixed by the request, not by who executes it."""
        seq = estimate(8, failure_rate=0.06, trials=600, seed=3, workers=1)
        par = estimate(8, failure_rate=0.06, trials=600, seed=3, workers=3)
        assert seq == par

    def test_batch_worker_is_pure_and_repeatable(self):
        job = (6, 6, 0.1, 42, 0, 100)
        assert _reliability_batch(job) == _reliability_batch(job)


class TestBoundaries:
    def test_zero_failure_rate_is_certain(self):
        est = estimate(6, failure_rate=0.0, trials=50)
        assert est.p_connected == 1.0
        assert est.routable_fraction == 1.0

    def test_total_failure_is_dead(self):
        est = estimate(6, failure_rate=1.0, trials=50)
        assert est.p_connected == 0.0
        assert est.routable_fraction == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            estimate(6, failure_rate=1.5, trials=10)
        with pytest.raises(ValueError):
            estimate(6, failure_rate=0.1, trials=0)


class TestSchema:
    def test_to_dict_reports_engine_version(self):
        est = estimate(5, failure_rate=0.1, trials=60, seed=1)
        payload = est.to_dict()
        assert payload["engine_version"] == ENGINE_VERSION
        assert set(payload) == {
            "width", "height", "failure_rate", "trials", "seed",
            "p_connected", "ci_low", "ci_high", "routable_fraction",
            "engine_version",
        }

    def test_rectangular_mesh(self):
        est = estimate(6, height=3, failure_rate=0.1, trials=60)
        assert (est.width, est.height) == (6, 3)

    def test_sweep_is_monotone_in_failure_rate(self):
        """More failures can only hurt connectivity (statistically)."""
        points = [
            estimate(8, failure_rate=rate, trials=150, seed=5)
            for rate in (0.0, 0.3, 1.0)
        ]
        probs = [p.p_connected for p in points]
        assert probs[0] == 1.0 and probs[-1] == 0.0
        assert probs[0] >= probs[1] >= probs[2]
        assert all(isinstance(p, ReliabilityEstimate) for p in points)
        assert all(math.isfinite(p.routable_fraction) for p in points)
