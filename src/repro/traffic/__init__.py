"""Traffic generation: spatial patterns and arrival processes.

The paper uses uniform traffic (every healthy node sends to every other
healthy node with equal probability) with exponential inter-arrival times
and fixed 100-flit messages.  The extra patterns (transpose, bit
complement, hotspot) are provided for the extension studies (the
uniform / transpose / hotspot sweep in ``tests/test_traffic.py``).
"""

from repro.traffic.patterns import (
    BitComplementTraffic,
    HotspotTraffic,
    TrafficPattern,
    TransposeTraffic,
    UniformTraffic,
    make_pattern,
)
from repro.traffic.process import ExponentialArrivals

__all__ = [
    "BitComplementTraffic",
    "ExponentialArrivals",
    "HotspotTraffic",
    "TrafficPattern",
    "TransposeTraffic",
    "UniformTraffic",
    "make_pattern",
]
