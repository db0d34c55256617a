"""REP003, routing row: every import form of every banned module."""
from typing import TYPE_CHECKING

import repro.simulator.engine
import repro.experiments as ex
from repro.store import ResultStore
from repro.metrics.confidence import batch_means_ci as ci
import repro.store.keys, repro.metrics
from repro.experiments import cli, profiles
import repro.topology.mesh, repro.store.backend as backend


def late_binding():
    import repro.store.cache
    from repro.simulator.engine import Simulation

    return Simulation, repro.store.cache


if TYPE_CHECKING:
    from repro.simulator.engine import SimulationResult
else:
    import repro.experiments.cli

try:
    import repro.metrics.saturation
except ImportError:
    from repro.store.keys import run_key
