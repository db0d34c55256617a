"""Performance metrics and result aggregation.

The paper's three performance measures (Section 5): throughput, average
message latency, and average virtual-channel usage per node; plus the
Section 5.2 traffic-load split between f-ring nodes and the rest of the
network.
"""

from repro.metrics.aggregate import (
    AggregateResult,
    aggregate,
    mean,
    mean_std,
)
from repro.metrics.saturation import (
    SaturationPoint,
    find_saturation,
    peak_throughput,
)
from repro.metrics.traffic_load import (
    RingCornerSplit,
    TrafficLoadSplit,
    ring_corner_split,
    traffic_load_split,
)
from repro.metrics.vc_usage import vc_usage_percent

__all__ = [
    "AggregateResult",
    "SaturationPoint",
    "TrafficLoadSplit",
    "aggregate",
    "find_saturation",
    "mean",
    "mean_std",
    "peak_throughput",
    "ring_corner_split",
    "RingCornerSplit",
    "traffic_load_split",
    "vc_usage_percent",
]
