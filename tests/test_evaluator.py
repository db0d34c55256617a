"""Tests for the core Evaluator (policies, fault cases, sweeps)."""

from repro.core.evaluator import Evaluator, deadlock_policy
from repro.faults.pattern import FaultPattern
from repro.routing.registry import make_algorithm
from repro.simulator.config import SimConfig
from repro.topology.mesh import Mesh2D


def small_evaluator(**overrides):
    cfg = SimConfig(
        width=8,
        vcs_per_channel=24,
        message_length=8,
        cycles=1200,
        warmup=300,
        **overrides,
    )
    return Evaluator(cfg, seed=99)


class TestDeadlockPolicy:
    def test_raise_for_deadlock_free_fault_free(self):
        mesh = Mesh2D(8)
        alg = make_algorithm("nhop")
        assert deadlock_policy(alg, FaultPattern.fault_free(mesh)) == "raise"

    def test_drain_for_unsupervised(self):
        mesh = Mesh2D(8)
        alg = make_algorithm("minimal-adaptive")
        assert deadlock_policy(alg, FaultPattern.fault_free(mesh)) == "drain"

    def test_drain_for_faulty(self, center_fault):
        alg = make_algorithm("nhop")
        assert deadlock_policy(alg, center_fault) == "drain"


class TestFaultCases:
    def test_zero_faults_single_pattern(self):
        ev = small_evaluator()
        case = ev.fault_case(0, 5)
        assert case.label == "0%"
        assert len(case.patterns) == 1
        assert case.patterns[0].n_faulty == 0

    def test_n_sets_patterns(self):
        ev = small_evaluator()
        case = ev.fault_case(4, 3)
        assert len(case.patterns) == 3
        assert all(p.n_faulty == 4 for p in case.patterns)

    def test_deterministic_draws(self):
        a = small_evaluator().fault_case(5, 3)
        b = small_evaluator().fault_case(5, 3)
        assert [p.faulty for p in a.patterns] == [p.faulty for p in b.patterns]


class TestRuns:
    def test_run_single_reproducible(self):
        ev = small_evaluator()
        faults = ev.fault_case(0, 1).patterns[0]
        r1 = ev.run_single("nhop", faults, injection_rate=0.01)
        r2 = ev.run_single("nhop", faults, injection_rate=0.01)
        assert r1.delivered == r2.delivered
        assert r1.latency_sum == r2.latency_sum

    def test_run_case_aggregates(self):
        ev = small_evaluator()
        case = ev.fault_case(3, 2)
        agg = ev.run_case("pbc", case, injection_rate=0.01)
        assert agg.n_runs == 2
        assert agg.algorithm == "pbc"
        assert agg.throughput > 0

    def test_rate_sweep_shape(self):
        ev = small_evaluator()
        points = ev.rate_sweep("duato", [0.002, 0.01])
        assert len(points) == 2
        # Higher rate -> higher accepted throughput below saturation.
        assert points[1].throughput > points[0].throughput

    def test_overrides_forwarded(self):
        ev = small_evaluator()
        faults = ev.fault_case(0, 1).patterns[0]
        r = ev.run_single(
            "nhop", faults, injection_rate=0.01, collect_vc_stats=True
        )
        assert sum(r.vc_busy) > 0

    def test_pattern_factory_used(self):
        from repro.traffic.patterns import TransposeTraffic

        cfg = SimConfig(
            width=8, vcs_per_channel=24, message_length=8,
            cycles=1200, warmup=300,
        )
        ev = Evaluator(cfg, seed=1, pattern_factory=TransposeTraffic)
        faults = ev.fault_case(0, 1).patterns[0]
        r = ev.run_single("nhop", faults, injection_rate=0.01)
        assert r.delivered > 0
