"""Boura's routing algorithm — adaptive and fault-tolerant variants.

Boura & Das [7] give a fully adaptive deadlock-free scheme with three
virtual channels per physical channel plus a node-labeling rule for fault
tolerance.  Following DESIGN.md §3.5, the partition splits messages by
their remaining Y offset into three virtual networks:

* ``y_plus``  — messages still needing to move +y (may hop E/W/N),
* ``y_minus`` — messages still needing to move -y (may hop E/W/S),
* ``x_only``  — messages with the Y offset corrected (may hop E/W).

A message never crosses between ``y_plus`` and ``y_minus`` (the sign of a
minimal Y offset cannot flip) and enters ``x_only`` at most once, so the
class order is acyclic; within a class, vertical hops strictly increase
(or decrease) y and horizontal hops keep one direction per message, so no
intra-class cycle exists either — the scheme is deadlock-free.

**Boura (Fault-Tolerant)** adds the labeling fixpoint (a node is unsafe
with >= 2 faulty-or-unsafe neighbors); unsafe nodes are avoided as
intermediate hops when a safe minimal alternative exists, and messages
fault-blocked despite that fall back on the ring transit of the base
class.
"""

from __future__ import annotations

from repro.faults.labeling import NodeStatus, boura_labeling
from repro.routing.base import RoutingAlgorithm, Tier
from repro.routing.budgets import VcBudget, boura_budget
from repro.simulator.message import Message
from repro.topology.mesh import Mesh2D


class BouraAdaptive(RoutingAlgorithm):
    """Boura's 3-class fully adaptive partition ("Boura (Adaptive)")."""

    name = "boura"
    deadlock_free = True

    def build_budget(self, mesh: Mesh2D, total_vcs: int) -> VcBudget:
        return boura_budget(total_vcs)

    def _group_for(self, msg: Message, node: int) -> tuple[int, ...]:
        _, dy = self.mesh.offsets(node, msg.dst)
        groups = self.budget.group_vcs
        if dy > 0:
            return groups["y_plus"]
        if dy < 0:
            return groups["y_minus"]
        return groups["x_only"]

    def tiers_for(self, msg: Message, node: int, dirs: tuple[int, ...]) -> list[Tier]:
        group = self._group_for(msg, node)
        return [[(d, group) for d in dirs]]


class BouraFaultTolerant(BouraAdaptive):
    """Boura's scheme with unsafe-node labeling ("Boura (Fault-Tolerant)")."""

    name = "boura-ft"
    deadlock_free = True

    def __init__(self) -> None:
        super().__init__()
        self._unsafe: list[bool] = []

    def _post_prepare(self) -> None:
        status = boura_labeling(self.mesh, self.faults.faulty)
        self._unsafe = [s == NodeStatus.UNSAFE for s in status]

    @property
    def unsafe_mask(self) -> list[bool]:
        """Per-node unsafe flags from the labeling fixpoint."""
        return self._unsafe

    def candidate_tiers(self, msg: Message, node: int) -> list[Tier]:
        unsafe = self._unsafe
        mdirs, free_dirs = self.minimal_dirs(node, msg.dst)
        neighbors = self.mesh.neighbor_table(node)
        if not free_dirs or not self._may_exit_ring(msg, node):
            return [self._ring_tier(msg, node, mdirs)]
        if msg.ring is not None:
            msg.ring = None
        # Prefer safe intermediate hops; a hop onto an unsafe node is fine
        # when that node is the destination, and the preference is waived
        # entirely for messages destined inside an unsafe pocket.
        if not unsafe[msg.dst]:
            safe_dirs = tuple(
                d
                for d in free_dirs
                if not unsafe[neighbors[d]] or neighbors[d] == msg.dst
            )
            if safe_dirs:
                return self.tiers_for(msg, node, safe_dirs)
        return self.tiers_for(msg, node, free_dirs)
