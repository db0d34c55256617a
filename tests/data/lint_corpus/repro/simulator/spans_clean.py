"""REP017: the cycle-safe names, under any alias, at any level."""
from typing import TYPE_CHECKING

from repro.obs.spans import make_span
from repro.obs.spans import make_span_id as span_id
from repro.obs.spans import make_span, make_span_id, trace_id_from
from repro.metrics.spans import Trace as Metric

if TYPE_CHECKING:
    import repro.obs.spans
    import repro.obs.spans as spans
    from repro.obs.spans import Trace
    from repro.obs.spans import SpanRecorder as Recorder


def record(cycle):
    from repro.obs.spans import trace_id_from as trace_id

    return trace_id(cycle)
