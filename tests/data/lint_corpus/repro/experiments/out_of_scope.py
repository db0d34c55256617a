"""Out of every boundary's scope: an experiment driver may import the
engine, the observability layer, the whole span API, and read the wall
clock (through the sanctioned timer)."""
from typing import TYPE_CHECKING

import time
import repro.simulator.engine
import repro.simulator.engine as engine
import repro.obs
import repro.obs.spans
import repro.obs.spans as spans
from repro.simulator.engine import Simulation
from repro.simulator.config import SimConfig as Config
from repro.obs.spans import Trace
from repro.obs.spans import SpanRecorder as Recorder
from repro.obs.profile import clock
from repro.store import ResultStore
from repro.routing.registry import make_algorithm
from repro.faults.pattern import FaultPattern
from random import Random

CREATED = time.time()
STARTED = time.monotonic()
RNG = Random(2007)

if TYPE_CHECKING:
    from repro.metrics.confidence import batch_means_ci


def cell(algorithm):
    from repro.obs.telemetry import EngineTelemetry
    import repro.simulator.deadlock as deadlock

    t0 = clock()
    return EngineTelemetry, deadlock, clock() - t0
