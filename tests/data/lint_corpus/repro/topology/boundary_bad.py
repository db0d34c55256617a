"""REP003, topology row: a leaf layer importing upwards."""
from typing import TYPE_CHECKING

import repro.routing
import repro.simulator.engine as engine
from repro.faults import pattern
from repro.experiments.profiles import SMOKE_PROFILE as SMOKE
import repro.routing.base, repro.faults.rings


def neighbours():
    from repro.routing.registry import make_algorithm
    import repro.simulator as sim

    return make_algorithm, sim


if TYPE_CHECKING:
    import repro.routing.base
else:
    from repro.faults.pattern import FaultPattern
