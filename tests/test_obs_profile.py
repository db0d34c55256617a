"""Phase profiler: neutrality (attached == detached), shares, report."""

import json
import random

import pytest

from repro.faults.generator import generate_block_fault_pattern
from repro.faults.pattern import FaultPattern
from repro.metrics.aggregate import aggregate
from repro.obs.profile import (
    PHASE_NAMES, PROFILE_SCHEMA, PhaseProfiler, clock, render_profile,
)
from repro.routing.registry import make_algorithm
from repro.simulator import engine as engine_mod
from repro.simulator.config import SimConfig
from repro.simulator.engine import Simulation
from repro.topology.mesh import Mesh2D


def faulty_sim(**overrides):
    """A 10x10 mesh with two fault regions under real load."""
    defaults = dict(
        width=10,
        vcs_per_channel=24,
        message_length=8,
        injection_rate=0.015,
        cycles=600,
        warmup=100,
        seed=11,
        on_deadlock="drain",
    )
    defaults.update(overrides)
    cfg = SimConfig(**defaults)
    mesh = Mesh2D(cfg.width, cfg.height)
    faults = generate_block_fault_pattern(mesh, 2, random.Random(cfg.seed))
    return Simulation(cfg, make_algorithm("duato-nbc"), faults=faults)


def rng_state(sim):
    return (sim.rng.getstate(), str(sim._perm_rng.bit_generator.state))


class TestNeutrality:
    """The telemetry A/B twin pattern, applied to the profiler."""

    def test_attached_run_is_bit_identical(self):
        plain = faulty_sim()
        plain.run()

        profiled = faulty_sim()
        profiled.attach(PhaseProfiler())
        profiled.run()

        assert profiled.result == plain.result
        assert rng_state(profiled) == rng_state(plain)
        # repr-compare: single-run stds are NaN, and NaN != NaN.
        assert repr(aggregate([profiled.result])) == repr(
            aggregate([plain.result])
        )

    def test_engine_version_unchanged(self):
        # The profiler hooks are observational: the engine contract
        # version must not move for them.
        assert engine_mod.ENGINE_VERSION == 2

    def test_mid_run_attach(self):
        sim = faulty_sim()
        sim.step(200)
        profiler = PhaseProfiler()
        sim.attach(profiler)
        sim.step(100)
        assert profiler.cycles == 100

        twin = faulty_sim()
        twin.step(300)
        assert rng_state(sim) == rng_state(twin)


class TestShares:
    def test_shares_sum_to_one_on_faulty_workload(self):
        sim = faulty_sim()
        profiler = PhaseProfiler()
        sim.attach(profiler)
        sim.run()
        shares = profiler.phase_shares()
        assert set(shares) == set(PHASE_NAMES)
        assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9)
        # The flit-moving phases dominate a loaded mesh.
        assert shares["switch_traverse"] + shares["route"] > 0.3

    def test_empty_profiler_shares_are_zero(self):
        shares = PhaseProfiler().phase_shares()
        assert set(shares) == set(PHASE_NAMES)
        assert sum(shares.values()) == 0.0

    def test_call_counts_match_cycle_structure(self):
        sim = faulty_sim(cycles=300, warmup=0)
        profiler = PhaseProfiler()
        sim.attach(profiler)
        sim.step(300)
        calls = dict(zip(PHASE_NAMES, profiler.phase_calls))
        assert profiler.cycles == 300
        for phase in ("generate", "inject", "route", "switch_traverse"):
            assert calls[phase] == 300
        # Watchdog fires on cycle % 128 == 0 (cycles 0, 128, 256).
        assert calls["watchdog"] == 3


class TestPhaseIndexContract:
    def test_engine_constants_match_phase_names(self):
        # The engine reports bare ints; PHASE_NAMES is ordered to match.
        expected = {
            "_PH_GENERATE": "generate",
            "_PH_INJECT": "inject",
            "_PH_ROUTE": "route",
            "_PH_SWITCH": "switch_traverse",
            "_PH_WATCHDOG": "watchdog",
            "_PH_COLLECT_VC": "collect_vc",
        }
        for const, name in expected.items():
            assert PHASE_NAMES[getattr(engine_mod, const)] == name

    def test_clock_is_monotonic(self):
        a, b = clock(), clock()
        assert b >= a


class TestReport:
    @pytest.fixture(scope="class")
    def profiled(self):
        sim = faulty_sim()
        profiler = PhaseProfiler()
        sim.attach(profiler)
        sim.run()
        return sim, profiler

    def test_report_shape(self, profiled):
        sim, profiler = profiled
        report = profiler.report()
        assert report["kind"] == "phase-profile"
        assert report["schema"] == PROFILE_SCHEMA
        assert report["cycles"] == profiler.cycles
        assert set(report["phases"]) == set(PHASE_NAMES)
        act = report["activity"]
        assert act["mesh_nodes"] == sim.mesh.n_nodes
        assert act["network_input_vcs"] == (
            sim.mesh.n_nodes * 5 * sim.config.vcs_per_channel
        )
        routers = act["active_routers"]
        assert 0 < routers["mean"] <= sim.mesh.n_nodes
        assert routers["max"] <= sim.mesh.n_nodes
        assert sum(routers["hist"].values()) == profiler.cycles

    def test_activity_bounds(self, profiled):
        sim, profiler = profiled
        act = profiler.report()["activity"]
        assert act["occupied_vcs"]["max"] <= act["network_input_vcs"]
        assert act["routing_headers"]["min"] >= 0

    def test_render_mentions_phases_and_idle_scan(self, profiled):
        _, profiler = profiled
        text = render_profile(profiler.report())
        for name in PHASE_NAMES:
            assert name in text
        assert "idle-scan" in text
        assert "active routers" in text

    def test_write_json_roundtrip(self, profiled, tmp_path):
        _, profiler = profiled
        out = tmp_path / "profile.json"
        payload = profiler.write_json(out, context={"workload": "x"})
        loaded = json.loads(out.read_text())
        assert loaded == payload
        assert loaded["context"] == {"workload": "x"}

    def test_json_serializable_report(self, profiled):
        _, profiler = profiled
        json.dumps(profiler.report())  # raises on non-serializable types
