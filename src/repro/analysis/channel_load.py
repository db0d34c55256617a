"""Exact per-channel flow rates under minimal fully adaptive routing.

For every ordered (source, destination) pair, one unit of message flow is
propagated through the minimal-path rectangle, splitting equally over the
minimal directions at each node — the natural fluid model of the paper's
adaptive algorithms, which choose uniformly among free minimal VCs.  The
per-pair flows are accumulated into per-channel totals once per mesh and
then scaled by any injection rate, so the expensive part runs once.

The map exposes the classic facts the latency model needs: center
channels carry the most traffic (the mesh's lack of wrap-around links),
and the busiest channel bounds the saturation rate.
"""

from __future__ import annotations

from repro.topology.directions import DIRECTIONS
from repro.topology.mesh import Mesh2D


class ChannelLoadMap:
    """Unit channel flows for uniform traffic on *mesh*.

    ``unit_flow[(node, direction)]`` is the expected number of *messages*
    per cycle crossing that directed channel when every node generates
    one message per cycle, destinations uniform over the other nodes.
    Scale by the actual injection rate and message length to get flit
    loads (:meth:`flit_load`).
    """

    def __init__(self, mesh: Mesh2D) -> None:
        self.mesh = mesh
        self._unit = {
            (node, d): 0.0
            for node, d, _ in mesh.channels()
        }
        n = mesh.n_nodes
        weight = 1.0 / (n - 1)  # uniform destination probability
        for src in mesh.nodes():
            self._accumulate_from(src, weight)

    def _accumulate_from(self, src: int, weight: float) -> None:
        """Propagate flows from *src* to every destination at once.

        Flow conservation lets all destinations share one pass per
        source: process nodes in increasing distance from *src*... the
        split depends on the destination, so instead we run the per-pair
        rectangle propagation (cheap: the rectangle has at most N cells
        and each pair touches only its own rectangle).
        """
        mesh = self.mesh
        unit = self._unit
        for dst in mesh.nodes():
            if dst == src:
                continue
            # Process the minimal rectangle in distance order from src.
            flow = {src: weight}
            order = [src]
            seen = {src}
            qi = 0
            while qi < len(order):
                node = order[qi]
                qi += 1
                if node == dst:
                    continue
                dirs = mesh.minimal_directions(node, dst)
                share = flow[node] / len(dirs)
                for d in dirs:
                    nxt = mesh.neighbor(node, d)
                    unit[(node, d)] += share
                    flow[nxt] = flow.get(nxt, 0.0) + share
                    if nxt not in seen:
                        seen.add(nxt)
                        order.append(nxt)

    # ------------------------------------------------------------------
    @property
    def unit_flows(self) -> dict[tuple[int, int], float]:
        """Read-only view of the unit message flows."""
        return dict(self._unit)

    def unit_flow(self, node: int, direction: int) -> float:
        return self._unit[(node, direction)]

    def flit_load(
        self, injection_rate: float, message_length: int
    ) -> dict[tuple[int, int], float]:
        """Per-channel flit rates (flits/cycle) at the given traffic."""
        scale = injection_rate * message_length
        return {ch: f * scale for ch, f in self._unit.items()}

    def max_unit_flow(self) -> float:
        """The busiest channel's unit flow (messages/cycle at rate 1)."""
        return max(self._unit.values())

    def bottleneck_channel(self) -> tuple[int, int]:
        """``(node, direction)`` of the most-loaded channel."""
        return max(self._unit, key=self._unit.__getitem__)

    def saturation_rate(self, message_length: int) -> float:
        """Injection rate at which the busiest channel reaches 1 flit/cycle.

        An upper bound on the achievable rate; real saturation happens
        earlier because of burstiness and VC/switch contention.
        """
        return 1.0 / (self.max_unit_flow() * message_length)

    def total_flow_check(self) -> float:
        """Sum of unit flows; equals the mean distance by conservation
        (each message crosses exactly ``distance`` network channels)."""
        return sum(self._unit.values()) / self.mesh.n_nodes
