"""Simulation configuration.

One :class:`SimConfig` fully determines a run (given an algorithm and a
fault pattern): the paper's headline configuration is a 10x10 mesh,
100-flit messages, 24 virtual channels per physical channel, 30,000 cycles
with the first 10,000 discarded as warm-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Literal


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one simulation run.

    Parameters
    ----------
    width, height:
        Mesh dimensions (``height`` defaults to ``width``).
    vcs_per_channel:
        Virtual channels per physical channel (paper: 24).  Must be large
        enough for the algorithm's budget; algorithms raise otherwise.
    injection_vcs:
        Concurrent message streams a processing element may feed into its
        router (they share the 1 flit/cycle injection link).  The default
        of 1 is the classic single-port PE model.
    buffer_depth:
        Flit slots per virtual-channel buffer.
    message_length:
        Flits per message (paper: 100).
    injection_rate:
        Mean messages generated per node per cycle (exponential
        inter-arrival times).
    cycles:
        Total simulated cycles.
    warmup:
        Cycles at the start excluded from statistics (paper: 10,000 of
        30,000).
    seed:
        Seed for the run's private RNG (traffic, arbitration).
    deadlock_timeout:
        A header continuously blocked this many cycles triggers the
        deadlock action.  ``None`` (default) auto-scales with the message
        length (``max(1000, 25 * message_length)``) so long wormhole
        messages at saturation do not trip the watchdog spuriously.
    on_deadlock:
        ``"raise"`` aborts the run (used as an oracle for deadlock-free
        algorithms), ``"drain"`` removes the stuck message and counts it
        (needed for Minimal-/Fully-Adaptive which are not deadlock-free),
        ``"count"`` records it and keeps waiting.
    max_hops_factor:
        A message whose hop count exceeds ``factor * diameter`` is
        considered livelocked and drained (counted separately).
    collect_vc_stats, collect_node_stats:
        Enable the per-VC occupancy and per-node load collectors (small
        per-cycle overhead; required by Figures 3 and 6).
    collect_latency_samples:
        Record every delivered message's latency (generation to tail)
        in :attr:`~repro.simulator.engine.SimulationResult.latency_samples`.
    cycles_mode:
        ``"fixed"`` (default) always simulates exactly ``cycles``.
        ``"auto"`` may stop earlier: at the first post-warmup window
        boundary where the batch-means confidence interval on the
        per-window latency means has a relative half-width at or below
        ``ci_rel_tol``, the run ends and ``measured_cycles`` reflects
        the cycles actually measured.  ``cycles`` stays the hard upper
        bound, and the decision depends only on the simulated traffic —
        the run is deterministic and identical with or without
        telemetry attached.
    cycles_window:
        Width (cycles) of the timeline/early-stop windows.  ``0``
        (default) derives a width from the run length; see
        :attr:`resolved_window`.
    ci_rel_tol:
        Relative half-width target for ``cycles_mode="auto"`` (0.05
        means "stop once the 95% CI half-width is within 5% of the
        mean latency").
    """

    width: int = 10
    height: int | None = None
    vcs_per_channel: int = 24
    injection_vcs: int = 1
    buffer_depth: int = 2
    message_length: int = 100
    injection_rate: float = 0.001
    cycles: int = 30_000
    warmup: int = 10_000
    seed: int = 1
    deadlock_timeout: int | None = None
    on_deadlock: Literal["raise", "drain", "count"] = "raise"
    max_hops_factor: int = 16
    collect_vc_stats: bool = False
    collect_node_stats: bool = False
    collect_latency_samples: bool = False
    cycles_mode: Literal["fixed", "auto"] = "fixed"
    cycles_window: int = 0
    ci_rel_tol: float = 0.05

    def __post_init__(self) -> None:
        if self.height is None:
            object.__setattr__(self, "height", self.width)
        if self.vcs_per_channel < 1:
            raise ValueError("vcs_per_channel must be positive")
        if self.buffer_depth < 1:
            raise ValueError("buffer_depth must be positive")
        if self.message_length < 1:
            raise ValueError("message_length must be positive")
        if self.injection_rate < 0:
            raise ValueError("injection_rate must be non-negative")
        if not 1 <= self.injection_vcs <= self.vcs_per_channel:
            raise ValueError("injection_vcs must be in 1..vcs_per_channel")
        if not 0 <= self.warmup <= self.cycles:
            raise ValueError("warmup must lie within the simulated cycles")
        if self.deadlock_timeout is not None and self.deadlock_timeout < 1:
            raise ValueError("deadlock_timeout must be positive (or None)")
        if self.on_deadlock not in ("raise", "drain", "count"):
            raise ValueError(f"unknown on_deadlock action {self.on_deadlock!r}")
        if self.cycles_mode not in ("fixed", "auto"):
            raise ValueError(f"unknown cycles_mode {self.cycles_mode!r}")
        if self.cycles_window < 0:
            raise ValueError("cycles_window must be non-negative")
        if not 0 < self.ci_rel_tol < 1:
            raise ValueError("ci_rel_tol must lie in (0, 1)")

    @property
    def resolved_window(self) -> int:
        """The effective timeline window width (cycles).

        ``cycles_window`` when set, else roughly 30 windows per run
        (floored at 32 cycles so tiny test configs still get sane
        windows).  Shared by the engine series, ``cycles_mode="auto"``
        batching, and ``obs timeline`` rendering.
        """
        return self.cycles_window or max(32, self.cycles // 30)

    def with_(self, **changes) -> SimConfig:
        """A copy of this config with *changes* applied."""
        return replace(self, **changes)
