"""CI-based early stopping (``cycles_mode="auto"``).

The contract under test:

* auto runs are deterministic and bounded by ``cycles``;
* attaching telemetry never changes where a run stops or what it
  measures;
* fixed and adaptive cells occupy disjoint store keys;
* the headline claim — a fig2-style sub-saturation latency sweep under
  ``--adaptive-cycles`` matches fixed-cycle latency within 2% while
  simulating at least 30% fewer total cycles.
"""

import math

import pytest

from repro.faults.pattern import FaultPattern
from repro.obs.telemetry import EngineTelemetry, TelemetryRegistry
from repro.routing.registry import make_algorithm
from repro.simulator.config import SimConfig
from repro.simulator.engine import Simulation
from repro.store.keys import run_key
from repro.topology.mesh import Mesh2D


def _auto_config(**overrides) -> SimConfig:
    base = dict(
        width=6,
        vcs_per_channel=24,
        message_length=8,
        injection_rate=0.02,
        cycles=8_000,
        warmup=400,
        seed=31,
        on_deadlock="drain",
        cycles_mode="auto",
        cycles_window=200,
        ci_rel_tol=0.2,
    )
    base.update(overrides)
    return SimConfig(**base)


def _run(config, algorithm="nhop", telemetry=None):
    sim = Simulation(config, make_algorithm(algorithm))
    if telemetry is not None:
        sim.attach(EngineTelemetry(telemetry))
    return sim.run()


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
def test_config_rejects_bad_auto_fields():
    with pytest.raises(ValueError, match="cycles_mode"):
        _auto_config(cycles_mode="sometimes")
    with pytest.raises(ValueError, match="cycles_window"):
        _auto_config(cycles_window=-1)
    with pytest.raises(ValueError, match="ci_rel_tol"):
        _auto_config(ci_rel_tol=0.0)


def test_resolved_window_defaults_to_about_30_per_run():
    assert _auto_config(cycles_window=400).resolved_window == 400
    cfg = _auto_config(cycles_window=0, cycles=12_000)
    assert cfg.resolved_window == 400
    assert _auto_config(cycles_window=0, cycles=600).resolved_window == 32


# ----------------------------------------------------------------------
# Engine behaviour
# ----------------------------------------------------------------------
def test_auto_run_stops_early_and_is_deterministic():
    cfg = _auto_config()
    a = _run(cfg)
    b = _run(cfg)
    assert a.measured_cycles == b.measured_cycles
    assert a.delivered == b.delivered
    assert a.latency_sum == b.latency_sum
    # It genuinely stopped early, on a window boundary, past the
    # 10-batch floor.
    total = a.measured_cycles + cfg.warmup
    assert total < cfg.cycles
    assert total % cfg.resolved_window == 0
    window = cfg.resolved_window
    first_boundary = math.ceil(cfg.warmup / window) + 10
    assert total >= first_boundary * window


def test_auto_run_is_bounded_by_cycles():
    # An unattainable tolerance runs the full fixed budget.
    cfg = _auto_config(ci_rel_tol=0.001)
    result = _run(cfg)
    assert result.measured_cycles == cfg.cycles - cfg.warmup


def test_auto_matches_fixed_rng_stream():
    # Early stopping only truncates the run; the cycles it does
    # simulate draw the same RNG stream as the fixed-cycle run.
    auto = _run(_auto_config())
    fixed_cfg = _auto_config(cycles_mode="fixed").with_(
        cycles=auto.measured_cycles + 400
    )
    fixed = _run(fixed_cfg)
    assert fixed.generated == auto.generated
    assert fixed.delivered == auto.delivered
    assert fixed.latency_sum == auto.latency_sum


def test_telemetry_does_not_perturb_auto_stop():
    cfg = _auto_config()
    plain = _run(cfg)
    reg = TelemetryRegistry()
    observed = _run(cfg, telemetry=reg)
    assert observed.measured_cycles == plain.measured_cycles
    assert observed.delivered == plain.delivered
    assert observed.latency_sum == plain.latency_sum
    # Series count from attach (warmup included), so reconcile against
    # the cumulative counter rather than the post-warmup aggregate.
    assert reg.value("engine.series.messages.delivered") == reg.value(
        "engine.messages.delivered"
    )


# ----------------------------------------------------------------------
# Store-key separation
# ----------------------------------------------------------------------
def test_fixed_and_auto_runs_never_share_store_keys():
    mesh = Mesh2D(6, 6)
    fault_free = FaultPattern.fault_free(mesh)
    auto_cfg = _auto_config()
    fixed_cfg = _auto_config(cycles_mode="fixed")
    assert run_key(auto_cfg, "nhop", fault_free) != run_key(
        fixed_cfg, "nhop", fault_free
    )
    # Tolerance and window width are part of the adaptive cell identity.
    assert run_key(auto_cfg, "nhop", fault_free) != run_key(
        auto_cfg.with_(ci_rel_tol=0.1), "nhop", fault_free
    )
    assert run_key(auto_cfg, "nhop", fault_free) != run_key(
        auto_cfg.with_(cycles_window=400), "nhop", fault_free
    )


# ----------------------------------------------------------------------
# The headline acceptance claim
# ----------------------------------------------------------------------
class TestAdaptiveSweepAccuracy:
    """Fig2-style sub-saturation sweep: <=2% latency drift, >=30% fewer
    cycles than the fixed-cycle baseline."""

    CONFIG = SimConfig(
        width=8,
        vcs_per_channel=24,
        message_length=16,
        cycles=12_000,
        warmup=1_500,
        on_deadlock="drain",
        cycles_window=400,
        seed=1234,
    )
    LOADS = (0.06, 0.12, 0.18)  # offered flit loads, all sub-saturation

    def test_latency_within_2pct_with_30pct_fewer_cycles(self):
        fixed_total = 0
        auto_total = 0
        for load in self.LOADS:
            rate = load / self.CONFIG.message_length
            fixed_cfg = self.CONFIG.with_(injection_rate=rate)
            auto_cfg = fixed_cfg.with_(cycles_mode="auto")
            fixed = _run(fixed_cfg)
            auto = _run(auto_cfg)
            assert fixed.delivered > 0 and auto.delivered > 0
            fixed_lat = fixed.latency_sum / fixed.delivered
            auto_lat = auto.latency_sum / auto.delivered
            drift = abs(auto_lat - fixed_lat) / fixed_lat
            assert drift <= 0.02, (
                f"load {load}: adaptive latency {auto_lat:.2f} drifts "
                f"{drift:.1%} from fixed {fixed_lat:.2f}"
            )
            fixed_total += fixed.measured_cycles + fixed_cfg.warmup
            auto_total += auto.measured_cycles + auto_cfg.warmup
            assert auto.measured_cycles + auto_cfg.warmup <= auto_cfg.cycles
        savings = 1 - auto_total / fixed_total
        assert savings >= 0.30, (
            f"adaptive sweep saved only {savings:.1%} of "
            f"{fixed_total} fixed cycles"
        )
