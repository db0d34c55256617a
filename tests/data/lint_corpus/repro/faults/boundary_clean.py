"""REP003, faults row: topology and the store are not banned here."""
import typing

import repro.topology.mesh
import repro.topology.mesh as mesh
from repro.topology.mesh import Mesh2D
from repro.topology.mesh import Mesh2D as Mesh
from repro.store.keys import canonical_json
import repro.metrics
import repro.obs.spans

if typing.TYPE_CHECKING:
    import repro.simulator
    import repro.routing.base as base
    from repro.experiments import cli
    from repro.simulator.config import SimConfig as Config


def regions():
    from repro.faults.regions import FaultRegion
    import repro.faults.rings as rings

    return FaultRegion, rings
