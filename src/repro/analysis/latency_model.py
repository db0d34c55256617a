"""M/G/1-style mean-latency model for adaptive wormhole routing.

First-order model (assumptions documented per term):

* **Pipeline term** — an uncontended L-flit message over d hops takes
  ``d + L - 1`` cycles (head overlaps injection; measured exactly by
  ``tests/test_engine_basics.py``).
* **Bandwidth-sharing stretch** — a wormhole pipeline moves at the rate
  of its most-contended link; with bottleneck utilization ``rho_max``
  the whole pipeline stretches by ``1 / (1 - rho_max)``.  (Validated
  against the simulator below saturation in
  ``tests/test_analysis.py``; slightly optimistic near
  saturation, where burstiness adds higher-order terms.)
* **Per-channel utilization** — from the exact fluid flows of
  :class:`~repro.analysis.channel_load.ChannelLoadMap`; a channel moves
  at most one flit per cycle, so ``rho_c`` is the flit rate itself.
* **Blocking probability** — a header needs one of the ``V`` virtual
  channels of (one of) its minimal-direction channels.  With Poisson
  message arrivals and mean channel occupancy ``rho``, the probability
  that all V VCs of a channel hold active messages is approximated by
  ``rho**V`` (independent-occupancy approximation; V here is the
  *effective* per-direction VC count).  With two minimal directions the
  header blocks only when both are exhausted.
* **Waiting time** — when blocked, the header waits for a VC whose
  residual service is modeled as M/G/1 with deterministic service
  ``L / (1 - rho)`` (wormhole messages hold a VC for their whole length,
  stretched by downstream contention).
* **Source queueing** — the injection link is an M/D/1 queue with
  service time L.

The model is calibrated for the fault-free uniform-traffic case below
saturation; its saturation bound comes from the busiest channel.
``tests/test_analysis.py`` checks both against the simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.channel_load import ChannelLoadMap
from repro.analysis.distance import mean_distance
from repro.topology.mesh import Mesh2D


@dataclass(frozen=True)
class LatencyPrediction:
    """Model output for one injection rate."""

    rate: float
    latency: float  # cycles, generation to tail delivery
    pipeline: float  # uncontended part
    network_wait: float  # blocking inside the network
    source_wait: float  # queueing at the injection link
    max_channel_utilization: float

    @property
    def saturated(self) -> bool:
        return not math.isfinite(self.latency)


class AnalyticalLatencyModel:
    """Mean-latency predictor for fault-free uniform traffic.

    Parameters
    ----------
    mesh:
        The mesh under study.
    message_length:
        Flits per message.
    vcs_per_direction:
        Effective adaptive VCs per physical channel available to a
        header (e.g. 20 for the paper's free-pool algorithms; hop-based
        schemes offer fewer simultaneously usable VCs, so pass their
        per-hop window size to model them).
    """

    def __init__(
        self,
        mesh: Mesh2D,
        message_length: int,
        vcs_per_direction: int = 20,
    ) -> None:
        if message_length < 1:
            raise ValueError("message_length must be positive")
        if vcs_per_direction < 1:
            raise ValueError("vcs_per_direction must be positive")
        self.mesh = mesh
        self.message_length = message_length
        self.vcs_per_direction = vcs_per_direction
        self.loads = ChannelLoadMap(mesh)
        self.mean_distance = mean_distance(mesh)

    # ------------------------------------------------------------------
    def saturation_rate(self) -> float:
        """Upper bound on the sustainable injection rate (msgs/node/cycle)."""
        return self.loads.saturation_rate(self.message_length)

    def predict(self, injection_rate: float) -> LatencyPrediction:
        """Mean message latency at *injection_rate* (messages/node/cycle)."""
        if injection_rate < 0:
            raise ValueError("injection_rate must be non-negative")
        L = self.message_length
        V = self.vcs_per_direction
        d_bar = self.mean_distance
        pipeline = d_bar + L - 1

        flit_loads = self.loads.flit_load(injection_rate, L)
        rhos = list(flit_loads.values())
        rho_max = max(rhos) if rhos else 0.0
        if rho_max >= 1.0:
            return LatencyPrediction(
                rate=injection_rate,
                latency=math.inf,
                pipeline=pipeline,
                network_wait=math.inf,
                source_wait=math.inf,
                max_channel_utilization=rho_max,
            )

        # Bandwidth sharing: the wormhole pipeline is paced by its most
        # contended link, stretching the whole pipeline term.
        stretched_pipeline = pipeline / (1.0 - rho_max)

        # Flow-weighted per-hop header waiting for a free VC: hops happen
        # on channels in proportion to the channel flows themselves.
        total_flow = sum(rhos)
        wait_per_hop = 0.0
        if total_flow > 0:
            acc = 0.0
            for rho in rhos:
                if rho <= 0:
                    continue
                stretched = L / (1.0 - rho)  # VC holding time
                p_block = rho**V  # all V VCs of this channel busy
                # M/G/1 residual wait for one VC to free, deterministic
                # service approximation: residual = stretched / 2.
                wait = p_block * stretched / 2.0 / max(1.0 - rho, 1e-9)
                acc += rho * wait
            wait_per_hop = acc / total_flow
        network_wait = (stretched_pipeline - pipeline) + d_bar * wait_per_hop

        # Injection link: M/D/1 with service L flits.
        rho_src = injection_rate * L
        if rho_src >= 1.0:
            source_wait = math.inf
        else:
            source_wait = rho_src * L / (2.0 * (1.0 - rho_src))

        latency = pipeline + network_wait + source_wait
        return LatencyPrediction(
            rate=injection_rate,
            latency=latency,
            pipeline=pipeline,
            network_wait=network_wait,
            source_wait=source_wait,
            max_channel_utilization=rho_max,
        )

    def sweep(self, rates) -> list[LatencyPrediction]:
        """Predictions for a sequence of injection rates."""
        return [self.predict(r) for r in rates]
