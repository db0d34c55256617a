"""Out of REP006's scope (wall-clock reads are fine here) but not the
timer home: every perf_counter spelling is REP016's second half."""
from typing import TYPE_CHECKING

import time
import time as _t
from time import perf_counter
from time import perf_counter_ns as ns
from time import time as wall, monotonic
from time import perf_counter, perf_counter_ns

T0 = time.perf_counter()
T1 = _t.perf_counter_ns()
CREATED = time.time()
UP = _t.monotonic()


def timed(fn):
    import time as late

    t0 = late.perf_counter()
    fn()
    return late.perf_counter() - t0, typed.perf_counter


if TYPE_CHECKING:
    import time as typed
    from time import perf_counter_ns
