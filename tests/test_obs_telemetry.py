"""Tests for repro.obs.telemetry and the engine's publish sites."""

import random

import pytest

from repro.faults.generator import generate_block_fault_pattern
from repro.metrics.vc_usage import (
    reconcile_vc_usage,
    telemetry_busy_by_role,
    vc_busy_by_role,
)
from repro.obs.telemetry import (
    Counter,
    EngineTelemetry,
    Histogram,
    TelemetryRegistry,
)
from repro.routing.budgets import ROLE_NAMES
from repro.routing.registry import make_algorithm
from repro.simulator.config import SimConfig
from repro.simulator.engine import EVENTS, Simulation
from repro.topology.mesh import Mesh2D


def _config(**overrides) -> SimConfig:
    base = dict(
        width=6,
        vcs_per_channel=24,
        message_length=8,
        injection_rate=0.02,
        cycles=800,
        warmup=0,
        seed=11,
        on_deadlock="drain",
    )
    base.update(overrides)
    return SimConfig(**base)


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
def test_counter_inc_and_snapshot():
    c = Counter("x")
    c.inc()
    c.inc(3)
    assert c.value == 4
    assert c.snapshot() == {"type": "counter", "value": 4}


def test_histogram_buckets_and_mean():
    h = Histogram("lat", bounds=(10, 100))
    for v in (1, 10, 11, 100, 101, 5000):
        h.observe(v)
    # bucket edges are exclusive upper bounds: <10, <100, overflow
    assert h.counts == [1, 2, 3]
    assert h.total == 6
    assert h.mean == pytest.approx(sum((1, 10, 11, 100, 101, 5000)) / 6)


def test_histogram_rejects_unsorted_bounds():
    with pytest.raises(ValueError):
        Histogram("bad", bounds=(10, 10))
    with pytest.raises(ValueError):
        Histogram("bad", bounds=(100, 10))


def test_registry_get_or_create_and_type_guard():
    reg = TelemetryRegistry()
    c = reg.counter("a")
    assert reg.counter("a") is c
    with pytest.raises(TypeError):
        reg.histogram("a")
    assert reg.value("missing", default=7) == 7
    assert "a" in reg and len(reg) == 1


def test_registry_snapshot_and_render():
    reg = TelemetryRegistry()
    reg.counter("engine.x").inc(1)
    reg.histogram("engine.lat").observe(50)
    snap = reg.snapshot()
    assert snap["engine.x"]["value"] == 1
    assert snap["engine.lat"]["type"] == "histogram"
    out = reg.render(prefix="engine.")
    assert "engine.x" in out and "engine.lat" in out


# ----------------------------------------------------------------------
# Disabled overhead: nothing attached must execute no instrument code
# ----------------------------------------------------------------------
def test_disabled_run_touches_no_registry():
    """A run without telemetry leaves an unattached registry untouched."""
    bystander = TelemetryRegistry()
    sim = Simulation(_config(), make_algorithm("duato-nbc"))
    assert not any(getattr(sim, "_on_" + event) for event in EVENTS)
    sim.run()
    assert len(bystander) == 0


def test_telemetry_does_not_change_results():
    """Attaching a registry must not perturb the simulation itself."""
    plain = Simulation(_config(), make_algorithm("duato-nbc")).run()
    reg = TelemetryRegistry()
    observed = Simulation(_config(), make_algorithm("duato-nbc"))
    observed.attach(EngineTelemetry(reg))
    observed = observed.run()
    assert observed.generated == plain.generated
    assert observed.delivered == plain.delivered
    assert observed.delivered_flits == plain.delivered_flits
    assert observed.latency_sum == plain.latency_sum
    assert observed.vc_busy == plain.vc_busy


# ----------------------------------------------------------------------
# Reconciliation with SimulationResult aggregates
# ----------------------------------------------------------------------
def _instrumented_run(algorithm="duato-nbc", n_faults=3):
    cfg = _config(collect_vc_stats=True)
    mesh = Mesh2D(cfg.width, cfg.height)
    faults = generate_block_fault_pattern(mesh, n_faults, random.Random(4))
    reg = TelemetryRegistry()
    sim = Simulation(cfg, make_algorithm(algorithm), faults=faults)
    sim.attach(EngineTelemetry(reg))
    return sim, sim.run(), reg


def test_counters_match_result_aggregates():
    sim, result, reg = _instrumented_run()
    assert reg.value("engine.messages.generated") == result.generated
    assert reg.value("engine.messages.delivered") == result.delivered
    assert reg.value("engine.flits.ejected") == result.delivered_flits
    lat = reg.get("engine.latency")
    assert lat.total == result.delivered


def test_per_role_occupancy_reconciles():
    sim, result, reg = _instrumented_run()
    rollup = reconcile_vc_usage(result, reg, sim.algorithm.budget)
    assert set(rollup) == set(ROLE_NAMES)
    assert sum(rollup.values()) == sum(result.vc_busy)
    assert rollup == telemetry_busy_by_role(reg)
    assert rollup == vc_busy_by_role(result, sim.algorithm.budget)


def test_reconcile_raises_on_mismatch():
    sim, result, reg = _instrumented_run()
    reg.counter("engine.vc_busy.adaptive").inc()  # corrupt one view
    with pytest.raises(ValueError, match="disagree"):
        reconcile_vc_usage(result, reg, sim.algorithm.budget)


def test_fring_counters_appear_with_faults():
    _sim, _result, reg = _instrumented_run(n_faults=4)
    ring_counters = [n for n in reg.names() if n.startswith("engine.fring.")]
    assert ring_counters, "faulty run should traverse at least one f-ring"
    assert all(reg.value(n) > 0 for n in ring_counters)


def test_vc_busy_by_role_validates_lengths():
    sim, result, reg = _instrumented_run()
    other = make_algorithm("duato-nbc")
    other.prepare(Mesh2D(4), type(sim.faults).fault_free(Mesh2D(4)), 16)
    with pytest.raises(ValueError, match="covers"):
        vc_busy_by_role(result, other.budget)


# ----------------------------------------------------------------------
# Evaluator hook
# ----------------------------------------------------------------------
def test_make_instrument_via_evaluator():
    from repro.core.evaluator import Evaluator
    from repro.faults.pattern import FaultPattern

    reg = TelemetryRegistry()
    ev = Evaluator(_config(), seed=3, telemetry=reg)
    result = ev.run_single("nhop", FaultPattern.fault_free(ev.mesh))
    assert reg.value("engine.messages.generated") == result.generated
    # A second run accumulates into the same registry.
    result2 = ev.run_single("nhop", FaultPattern.fault_free(ev.mesh))
    assert (
        reg.value("engine.messages.generated")
        == result.generated + result2.generated
    )
