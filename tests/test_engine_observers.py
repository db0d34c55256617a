"""The engine's observer protocol (``Simulation.attach`` + ``EVENTS``).

One property, every combination: for each subset of {tracer, telemetry,
blame, profiler}, attached at cycle 0 or mid-run, the simulation is
bit-identical to the detached run (results and both RNG streams) and
each observer records exactly what it records when attached alone — so
observers neither perturb the engine nor each other, and subscription
order does not matter.  The workload is a small faulty mesh with a hop
cap of one diameter, so f-ring grants and livelock drains both occur.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations

import pytest

from repro.faults.generator import generate_block_fault_pattern
from repro.obs.bench import engine_state
from repro.obs.blame import BlameRecorder
from repro.obs.profile import PhaseProfiler
from repro.obs.telemetry import EngineTelemetry, TelemetryRegistry
from repro.routing.registry import make_algorithm
from repro.simulator.config import SimConfig
from repro.simulator.engine import EVENTS, Simulation
from repro.simulator.trace import Tracer
from repro.topology.mesh import Mesh2D

CYCLES = 400
MID = 150
KINDS = ("tracer", "telemetry", "blame", "profiler")
SUBSETS = [
    subset for n in range(len(KINDS) + 1) for subset in combinations(KINDS, n)
]


def build() -> Simulation:
    cfg = SimConfig(
        width=6, vcs_per_channel=24, message_length=8, injection_rate=0.05,
        cycles=CYCLES, warmup=100, seed=11, max_hops_factor=1,
        on_deadlock="drain", collect_vc_stats=True,
    )
    faults = generate_block_fault_pattern(Mesh2D(6), 3, random.Random(5))
    return Simulation(cfg, make_algorithm("duato-nbc"), faults=faults)


def make_observer(kind: str):
    """``(observer to attach, callable returning its recorded output)``."""
    if kind == "tracer":
        tracer = Tracer(capacity=1_000_000)
        return tracer, lambda: list(tracer.events)
    if kind == "telemetry":
        registry = TelemetryRegistry()
        return EngineTelemetry(registry), registry.digest
    if kind == "blame":
        recorder = BlameRecorder()
        return recorder, lambda: (recorder.records, recorder.blocked_events)
    profiler = PhaseProfiler()
    return profiler, lambda: (
        profiler.cycles, profiler.phase_calls, profiler.active_routers,
        profiler.occupied_vcs, profiler.routing_headers,
    )


def engine_output(sim: Simulation) -> tuple:
    """The whole result row on top of the totals and both RNG states."""
    return (sim.result, *engine_state(sim))


@lru_cache(maxsize=None)
def run_with(subset: tuple[str, ...], attach_at: int):
    """Run the workload with *subset* attached at cycle *attach_at*."""
    sim = build()
    sim.step(attach_at)
    outputs = {}
    for kind in subset:
        observer, outputs[kind] = make_observer(kind)
        sim.attach(observer)
    sim.step(CYCLES - attach_at)
    return engine_output(sim), {kind: read() for kind, read in outputs.items()}


def test_workload_exercises_rings_and_drains():
    registry = TelemetryRegistry()
    sim = build()
    sim.attach(EngineTelemetry(registry))
    sim.step(CYCLES)
    assert registry.value("engine.drains.livelock") > 0
    assert any(
        name.startswith("engine.fring.") and registry.value(name) > 0
        for name in registry.names()
    )


@pytest.mark.parametrize("attach_at", [0, MID], ids=["cycle0", "midrun"])
@pytest.mark.parametrize("subset", SUBSETS, ids="+".join)
def test_observers_are_neutral_and_independent(subset, attach_at):
    engine, outputs = run_with(subset, attach_at)
    assert engine == run_with((), 0)[0]
    for kind in subset:
        assert outputs[kind] == run_with((kind,), attach_at)[1][kind], kind


def test_partial_subscription_costs_only_its_events():
    """An observer defining one event gets that event and nothing else
    is ever looked up on it once attached."""

    class OnlyDelivered:
        def __init__(self):
            self.count = 0
            self.lookups = []

        def delivered(self, cycle, msg):
            if cycle >= 100:  # result.delivered counts post-warmup only
                self.count += 1

        def __getattr__(self, name):  # reached only for undefined names
            self.lookups.append(name)
            raise AttributeError(name)

    observer = OnlyDelivered()
    sim = build()
    sim.attach(observer)
    assert sorted(observer.lookups) == sorted(
        {"bind", *EVENTS} - {"delivered"}
    )
    assert sim._on_delivered == (observer.delivered,)
    assert not any(
        getattr(sim, "_on_" + event) for event in EVENTS if event != "delivered"
    )
    observer.lookups.clear()
    result = sim.run()
    assert observer.lookups == []
    assert observer.count == result.delivered > 0
