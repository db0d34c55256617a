"""REP006 (wall-clock reads in the hot path); every perf_counter spelling
is also REP016's second half."""
from typing import TYPE_CHECKING

import time
import time as wall
from time import monotonic
from time import perf_counter as tick
from time import time_ns, sleep, process_time
from time import perf_counter, perf_counter_ns
from time import *

STARTED = time.time()
LAP = wall.perf_counter_ns()
NAME = time.perf_counter.__name__
SPAN = time.monotonic() - wall.monotonic()


def step(self):
    import time as t

    t0 = t.perf_counter()
    self.stamp = time.clock_gettime(0)
    return t0, late.process_time_ns()


def other():
    import time as late

    return late.time


if TYPE_CHECKING:
    import time as typed
    from time import monotonic_ns

UPTIME = typed.monotonic()

# The import level is not read: a sibling module named ``time`` is judged
# like the stdlib one.
from .time import monotonic as relative_monotonic
