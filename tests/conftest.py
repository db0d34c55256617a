"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.faults.generator import generate_block_fault_pattern, pattern_from_rectangles
from repro.faults.pattern import FaultPattern
from repro.faults.regions import FaultRegion
from repro.routing.registry import ALGORITHM_NAMES, make_algorithm
from repro.simulator.config import SimConfig
from repro.simulator.engine import Simulation
from repro.topology.mesh import Mesh2D


@pytest.fixture(scope="session")
def mesh8() -> Mesh2D:
    return Mesh2D(8)


@pytest.fixture(scope="session")
def mesh10() -> Mesh2D:
    return Mesh2D(10)


@pytest.fixture(scope="session")
def mesh_rect() -> Mesh2D:
    return Mesh2D(6, 4)


@pytest.fixture
def center_fault(mesh8) -> FaultPattern:
    """A single 2x2 block fault in the middle of the 8x8 mesh."""
    return pattern_from_rectangles(mesh8, [FaultRegion(3, 3, 4, 4)])


@pytest.fixture
def scattered_faults(mesh10) -> FaultPattern:
    """A reproducible random 8-fault pattern on the 10x10 mesh."""
    return generate_block_fault_pattern(mesh10, 8, random.Random(1234))


def quick_config(**overrides) -> SimConfig:
    """A small config for fast end-to-end simulations."""
    defaults = dict(
        width=8,
        vcs_per_channel=24,
        message_length=8,
        injection_rate=0.002,
        cycles=1_500,
        warmup=400,
        seed=9,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


def run_quick(algorithm: str, faults: FaultPattern | None = None, **overrides) -> Simulation:
    """Build, run and return a quick simulation (post-run state)."""
    cfg = quick_config(**overrides)
    sim = Simulation(cfg, make_algorithm(algorithm), faults=faults)
    sim.run()
    return sim


@pytest.fixture(params=ALGORITHM_NAMES)
def algorithm_name(request) -> str:
    """Parametrize a test over all eleven registered algorithms."""
    return request.param


def build_serve_campaign(root):
    """A completed fig2-style campaign grid for the serving-layer tests.

    Two algorithms x four rates x {fault-free, 2-fault} x two repeats:
    enough rates for held-out cross-validation (two interior points)
    and a repeat axis for real CIs, small enough to simulate in half a
    second.
    """
    from repro.campaigns.db import CampaignDB
    from repro.campaigns.shard import run_campaign
    from repro.campaigns.spec import CampaignSpec

    spec = CampaignSpec(
        name="serve-test",
        algorithms=("nhop", "duato-nbc"),
        config=SimConfig(
            width=6, vcs_per_channel=24, message_length=4,
            cycles=300, warmup=100,
        ),
        rates=(0.005, 0.01, 0.02, 0.03),
        fault_counts=(0, 2),
        fault_sets=1,
        repeats=2,
    )
    db = CampaignDB(spec, root)
    db.save()
    run_campaign(db)
    return db


@pytest.fixture(scope="session")
def serve_campaign(tmp_path_factory):
    """One :func:`build_serve_campaign` per session (tests that let the
    simulation tier write to the store share those rows)."""
    return build_serve_campaign(tmp_path_factory.mktemp("serve") / "c")
