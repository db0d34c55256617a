"""The second no-wall-clock scope (path fragment ``repro/obs/telemetry``):
REP006, REP016 (both halves) and REP017 apply; REP003's simulator row
does not."""
from typing import TYPE_CHECKING

import time
from time import monotonic_ns as now_ns
import repro.obs.profile
from repro.obs.profile import clock
import repro.obs.spans as spans
from repro.obs.spans import Trace as T, make_span
from repro.obs.converge import batch_means_ci
import repro.obs.blame

STAMP = time.time_ns()
LAP = time.perf_counter()


def snapshot(self):
    from repro.obs.profile import PhaseProfiler
    from time import process_time

    return PhaseProfiler, process_time()


if TYPE_CHECKING:
    from repro.obs.profile import clock
    from repro.obs.spans import Trace
    from time import perf_counter
