"""Analytical performance modeling (the paper's stated future work).

The paper closes with "future work includes driving an analytical
modeling approach to investigate the performance behavior of these
routing algorithms".  This package builds that model for the fault-free
adaptive-minimal case:

* :mod:`repro.analysis.distance` — exact hop-distance statistics of
  uniform traffic on a 2-D mesh,
* :mod:`repro.analysis.channel_load` — exact per-channel flow rates under
  minimal fully adaptive routing (equal splitting over minimal
  directions), computed by dynamic programming over all source/
  destination pairs,
* :mod:`repro.analysis.latency_model` — an M/G/1-style mean-latency
  predictor with virtual-channel multiplexing, plus a saturation-rate
  bound from the most-loaded channel.

``tests/test_analysis.py`` (``TestModelAgainstSimulation``) validates the
model against the flit-level simulator.
"""

from repro.analysis.channel_load import ChannelLoadMap
from repro.analysis.distance import distance_distribution, mean_distance
from repro.analysis.faulty_load import FaultyChannelLoadMap, fault_throughput_bound
from repro.analysis.latency_model import AnalyticalLatencyModel

__all__ = [
    "AnalyticalLatencyModel",
    "ChannelLoadMap",
    "FaultyChannelLoadMap",
    "distance_distribution",
    "fault_throughput_bound",
    "mean_distance",
]
