"""REP003, routing row: what the pure decision layer may see."""
from __future__ import annotations

from typing import TYPE_CHECKING

import repro.simulator.message
import repro.simulator.config as config
from repro.simulator.message import Message
from repro.faults.pattern import FaultPattern as FP
from repro.topology.mesh import Mesh2D
from . import base
from .budgets import hop_class_budget

# Dotted-prefix matching: these only *start* like a banned module.
import repro.storefront
import repro.metrics_extra as mx
from repro.simulator.engineering import gears
from repro.experimentsx import nothing

if TYPE_CHECKING:
    import repro.store
    import repro.experiments as ex
    from repro.simulator.engine import Simulation
    from repro.metrics import confidence as conf

    if True:
        import repro.store.keys


def late_binding():
    from repro.routing.budgets import ROLE_RING
    import repro.faults.rings as rings

    if TYPE_CHECKING:
        from repro.simulator.engine import Simulation

    return ROLE_RING, rings
