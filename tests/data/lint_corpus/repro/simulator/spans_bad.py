"""REP017: no part of repro.obs.spans crosses into the engine, not even
the pure id constructors."""
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

# The formerly cycle-safe names, under any alias, at any level.
from repro.obs.spans import make_span
from repro.obs.spans import make_span_id as span_id
from repro.obs.spans import make_span, make_span_id, trace_id_from


def stamp(cycle):
    from repro.obs.spans import trace_id_from as trace_id

    return trace_id(cycle)
