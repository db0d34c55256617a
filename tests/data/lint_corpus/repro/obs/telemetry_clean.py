"""Still inside the ``repro/obs/telemetry`` fragment, and clean: the
telemetry layer is cycle-stamped."""
from typing import TYPE_CHECKING

import time
from time import strftime as fmt
from repro.obs.converge import batch_means_ci as ci
import repro.obs.blame as blame

if TYPE_CHECKING:
    import repro.obs.profile as profile
    from repro.obs.spans import Trace

LABEL = time.strftime("%H")


def stamp(self, cycle):
    return cycle, self.clock.perf_counter
