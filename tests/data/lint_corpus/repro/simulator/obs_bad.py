"""REP003, simulator row: the engine never imports repro.obs, at module
level or inside a function.  The profile imports also trip REP016's
first half; the spans imports trip REP017 as well."""
from typing import TYPE_CHECKING

import repro.obs
import repro.obs.telemetry as telemetry
from repro.obs.converge import batch_means_ci
from repro.obs.blame import BlameRecorder as Blame
import repro.obs.heatmap, repro.obs.timeline
import repro.obs.profile
import repro.obs.profile as profile
from repro.obs.profile import clock
from repro.obs.profile import clock as now
from repro.obs import profile as timer_home
import repro.obs.spans
import repro.obs.spans.export


def _ci_converged(samples):
    from repro.obs.converge import batch_means_ci
    import repro.obs.profile

    return batch_means_ci(samples)


def _phase():
    from repro.obs.profile import clock

    return clock


if TYPE_CHECKING:
    from repro.obs.telemetry import TelemetryRegistry
    from repro.obs.profile import clock
else:
    from repro.obs.telemetry import EngineTelemetry
    import repro.obs.profile as fallback

# Under repro.obs (REP003), but not the timer home (no REP016).
from repro.obs.profilex import clock

# No span constructor is carved out.
from repro.obs.spans import make_span
from repro.obs.spans import make_span_id as span_id, trace_id_from


def attach(self, observer):
    from repro.obs.spans import make_span

    return make_span
