"""REP003, faults row."""
from typing import TYPE_CHECKING

import repro.simulator
import repro.routing.base as base
from repro.experiments import cli
from repro.simulator.config import SimConfig as Config
from repro.routing import registry, budgets


def label():
    import repro.routing.registry
    from repro.simulator.message import Message

    return Message


if TYPE_CHECKING:
    from repro.simulator.engine import Simulation
