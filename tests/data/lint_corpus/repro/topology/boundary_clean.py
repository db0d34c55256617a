"""REP003, topology row: the leaf layer sees itself and the stdlib."""
from typing import TYPE_CHECKING

import math
import repro.topology.mesh
import repro.topology.ndmesh as nd
from repro.topology.mesh import Mesh2D
from repro.topology.mesh import Mesh2D as Mesh
from repro.util.serialization import config_to_dict
import repro.store
from repro.obs.profile import clock
import repro.routings
from repro.faultsx import y

if TYPE_CHECKING:
    import repro.routing
    from repro.simulator.config import SimConfig
    from repro.faults.pattern import FaultPattern as FP
    import repro.experiments.cli as cli


def diameter():
    from repro.topology.mesh import Mesh2D

    return Mesh2D(4), math.inf, clock
