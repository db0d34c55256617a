"""REP017: a cycle-driven module imports nothing from repro.obs.spans
(``if TYPE_CHECKING:`` imports never execute)."""
from typing import TYPE_CHECKING

from repro.metrics.spans import Trace as Metric

if TYPE_CHECKING:
    import repro.obs.spans
    import repro.obs.spans as spans
    from repro.obs.spans import Trace
    from repro.obs.spans import SpanRecorder as Recorder
