"""REP017: only the cycle-safe constructors cross into the engine."""
from typing import TYPE_CHECKING

import repro.obs.spans
import repro.obs.spans as spans
from repro.obs.spans import Trace
from repro.obs.spans import SpanRecorder as Recorder
from repro.obs.spans import make_span, Trace, current_trace
from repro.obs.spans import *
import repro.obs.spans, repro.obs.spans.export as export


def record(cycle):
    import repro.obs.spans
    from repro.obs.spans import Trace, make_span_id

    return Trace, make_span_id(cycle)


if TYPE_CHECKING:
    import repro.obs.spans
    from repro.obs.spans import Trace
else:
    from repro.obs.spans import write_spans

# Under repro.obs (REP003), but not the span module (no REP017).
from repro.obs.spansx import Trace
