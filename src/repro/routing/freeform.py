"""Minimal-Adaptive and Fully-Adaptive routing.

The paper's "first category": algorithms that are completely free in
choosing virtual channels — every VC in the pool is equivalent and the
algorithm applies no supervision.  Neither scheme is deadlock-free;
simulations run them with the engine's drain-recovery watchdog (the paper
does not state how its simulator coped — DESIGN.md §3.6).

**Fully-Adaptive** additionally misroutes: when every VC on every
fault-free minimal direction is busy, the header may take a non-minimal
hop, at most :attr:`FullyAdaptive.max_misroutes` times per message
(paper: "the number of the misroutes is limited and is set to 10").
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.routing.base import RoutingAlgorithm, Tier
from repro.routing.budgets import VcBudget, free_pool_budget
from repro.simulator.message import Message
from repro.topology.directions import DIRECTIONS
from repro.topology.mesh import Mesh2D


class MinimalAdaptive(RoutingAlgorithm):
    """Any free VC on any fault-free minimal direction; no supervision."""

    name = "minimal-adaptive"
    deadlock_free = False

    def build_budget(self, mesh: Mesh2D, total_vcs: int) -> VcBudget:
        return free_pool_budget(total_vcs)

    def tiers_for(
        self, msg: Message, node: int, dirs: tuple[int, ...]
    ) -> Sequence[Tier]:
        return (self.adaptive_tier(dirs),)


class FullyAdaptive(MinimalAdaptive):
    """Minimal-Adaptive plus bounded misrouting."""

    name = "fully-adaptive"
    deadlock_free = False
    max_misroutes = 10

    def _post_prepare(self) -> None:
        self._detour_tiers: dict[tuple[int, tuple[int, ...]], Sequence[Tier]] = {}

    def tiers_for(
        self, msg: Message, node: int, dirs: tuple[int, ...]
    ) -> Sequence[Tier]:
        if msg.misroutes >= self.max_misroutes:
            return (self.adaptive_tier(dirs),)
        key = (node, dirs)
        tiers = self._detour_tiers.get(key)
        if tiers is None:
            adaptive = self.budget.adaptive_vcs
            neighbors = self.mesh.neighbor_table(node)
            faulty = self.faults.faulty_mask
            detour = tuple(
                (d, adaptive)
                for d in DIRECTIONS
                if d not in dirs and neighbors[d] >= 0 and not faulty[neighbors[d]]
            )
            tiers = (self.adaptive_tier(dirs),) + ((detour,) if detour else ())
            self._detour_tiers[key] = tiers
        return tiers

    def _account(self, msg: Message, node: int, direction: int, vc: int) -> None:
        if direction not in self.minimal_dirs(node, msg.dst)[0]:
            msg.misroutes += 1
