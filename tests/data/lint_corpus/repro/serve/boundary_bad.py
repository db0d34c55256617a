"""REP015: the serving layer never imports the simulator."""
from typing import TYPE_CHECKING

import repro.simulator
import repro.simulator.engine as engine
from repro.simulator import config
from repro.simulator.config import SimConfig as Config
from repro.simulator.engine import ENGINE_VERSION, Simulation
import repro.store.cache, repro.simulator.deadlock


def simulate(request):
    import repro.simulator.engine
    from repro.simulator.engine import Simulation

    return Simulation


if TYPE_CHECKING:
    from repro.simulator.config import SimConfig
else:
    from repro.simulator.message import Message
