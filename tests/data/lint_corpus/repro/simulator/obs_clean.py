"""REP003, simulator row: shared arithmetic comes from repro.metrics."""
from typing import TYPE_CHECKING

import repro.metrics.confidence
import repro.metrics.confidence as confidence
from repro.metrics.confidence import batch_means_ci
from repro.metrics.confidence import batch_means_ci as ci
import repro.observatory
from repro.obsx import nothing

if TYPE_CHECKING:
    import repro.obs
    import repro.obs.profile
    import repro.obs.profile as profile
    import repro.obs.spans
    from repro.obs.profile import clock
    from repro.obs.spans import Trace
    from repro.obs.telemetry import EngineTelemetry as Telemetry


def attach(self, observer):
    from repro.routing.budgets import ROLE_RING

    if TYPE_CHECKING:
        from repro.obs.profile import clock

    return ROLE_RING
