"""The production engine against the naive reference stepper.

``reference_stepper.ReferenceStepper`` asks every waiting header every
cycle and visits every pending node every cycle; the production engine
parks, sleeps, masks and stamps.  Over hypothesis-drawn configurations
the two must publish the same ``granted`` / ``blocked`` / ``flit_moved``
/ ``delivered`` / ``dropped`` events in the same order and leave both
RNG streams in the same state — the net under any engine optimisation
that claims to keep the draw structure.
"""

import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_stepper import ReferenceStepper
from repro.faults.generator import generate_block_fault_pattern
from repro.routing.hop_based import Pbc
from repro.routing.registry import ALGORITHM_NAMES, make_algorithm
from repro.simulator.config import SimConfig
from repro.simulator.engine import Simulation
from repro.topology.mesh import Mesh2D


class EventLog:
    """The reference's event tuples, from the engine's observer protocol."""

    def __init__(self):
        self.events = []

    def granted(self, cycle, msg, node, port, vc, role, on_ring):
        self.events.append(("granted", cycle, msg.id, node, port, vc))

    def blocked(self, cycle, msg, node):
        self.events.append(("blocked", cycle, msg.id, node))

    def flit_moved(self, cycle, msg, kind, node, ejected):
        self.events.append(("flit_moved", cycle, msg.id, kind, node, ejected))

    def delivered(self, cycle, msg):
        self.events.append(("delivered", cycle, msg.id))

    def dropped(self, cycle, msg, livelock):
        self.events.append(("dropped", cycle, msg.id, livelock))


def assert_same_run(algorithm, config, n_faults, fault_seed):
    """Run *config* on both engines; *algorithm* is a registry name or a
    zero-argument factory.  Returns ``(events, class_caps)``."""
    make = algorithm if callable(algorithm) else partial(make_algorithm, algorithm)
    faults = generate_block_fault_pattern(
        Mesh2D(config.width, config.height), n_faults, random.Random(fault_seed)
    ) if n_faults else None
    sim = Simulation(config, make(), faults=faults)
    log = EventLog()
    sim.attach(log)
    sim.run()
    sim.check_invariants()
    ref = ReferenceStepper(config, make(), faults)
    expected = ref.run()
    if log.events != expected:  # name the first divergence, not 10^5 tuples
        at = next(
            (i for i, (a, b) in enumerate(zip(log.events, expected)) if a != b),
            min(len(log.events), len(expected)),
        )
        pytest.fail(
            f"event {at} differs: engine {log.events[at:at + 1]} "
            f"reference {expected[at:at + 1]}"
        )
    assert sim.rng.getstate() == ref.rng.getstate()
    assert sim._perm_rng.bit_generator.state == ref.perm_rng.bit_generator.state
    assert sim.algorithm.class_caps == ref.alg.class_caps
    return log.events, sim.algorithm.class_caps


runs = st.fixed_dictionaries({
    "algorithm": st.sampled_from(ALGORITHM_NAMES),
    "width": st.sampled_from([4, 5, 6]),
    "height": st.sampled_from([None, 4]),
    "vcs_per_channel": st.sampled_from([16, 24]),
    "injection_vcs": st.sampled_from([1, 2, 3]),
    "buffer_depth": st.sampled_from([1, 2, 4]),
    "message_length": st.sampled_from([1, 3, 8]),
    "load": st.sampled_from([0.05, 0.4, 1.0, 1.5]),
    "seed": st.integers(0, 10_000),
    "n_faults": st.sampled_from([0, 1, 2, 3, 4]),
    "on_deadlock": st.sampled_from(["drain", "count"]),
    "deadlock_timeout": st.sampled_from([None, 30, 96]),
    "max_hops_factor": st.sampled_from([16, 1]),
})


@given(params=runs)
@settings(max_examples=40, deadline=None)
def test_engine_matches_the_reference_event_for_event(params):
    algorithm = params.pop("algorithm")
    n_faults = params.pop("n_faults")
    load = params.pop("load")
    config = SimConfig(
        cycles=260, warmup=0,
        injection_rate=load / params["message_length"], **params,
    )
    assert_same_run(algorithm, config, n_faults, fault_seed=config.seed)


@pytest.mark.parametrize(
    "algorithm, injection_vcs", [("pbc", 1), ("boura-ft", 2), ("duato", 1)]
)
def test_loaded_faulty_mesh_matches_the_reference(algorithm, injection_vcs):
    """The regime parking and sleeping serve: 8x8, 3 faults, 100 % load —
    most headers wait, most injection ports are stalled, drains occur."""
    config = SimConfig(
        width=8, vcs_per_channel=24, injection_vcs=injection_vcs,
        message_length=8, injection_rate=0.125, cycles=400, warmup=0,
        seed=2007, deadlock_timeout=96, on_deadlock="drain",
    )
    events, _ = assert_same_run(algorithm, config, n_faults=3, fault_seed=5)
    kinds = [e[0] for e in events]
    assert kinds.count("blocked") > kinds.count("granted")
    assert "dropped" in kinds or algorithm == "duato"


class StarvedPbc(Pbc):
    """Pbc with three hop classes: most asks saturate the class schedule,
    so ``candidate_tiers`` bumps ``class_caps`` by one or two per call."""

    def n_classes(self, mesh):
        return 3


def test_parked_headers_replay_their_class_caps():
    """A parked header adds, every waiting cycle, the ``class_caps`` its
    re-ask would have added: the counter ends where the reference's does
    (``assert_same_run`` compares it) and is far from zero."""
    config = SimConfig(
        width=6, vcs_per_channel=16, injection_vcs=2, message_length=4,
        injection_rate=0.25, cycles=400, warmup=0, seed=11,
        deadlock_timeout=96, on_deadlock="drain",
    )
    events, caps = assert_same_run(StarvedPbc, config, n_faults=3, fault_seed=4)
    assert sum(e[0] == "blocked" for e in events) > 10_000
    assert caps > 10_000
