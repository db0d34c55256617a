"""Duato's methodology: adaptive class I over a deadlock-free class II.

A header first tries any class-I (adaptive) VC on any fault-free minimal
direction; only when all of those are busy does it request its class-II
escape VC.  Per Duato's theory the escape layer must itself be
deadlock-free; the paper never names it for the standalone "Duato's
routing", so we use dimension-order XY (canonical choice, see DESIGN.md
§3.4, which also records that on a faulty mesh the first ask for a
header differs from every later one).  Duato-Pbc and Duato-Nbc use the
bonus-card hop schemes as the escape layer, which is exactly how the
paper builds them: "the best performance is achieved when class II
contains minimum required virtual channels and extra virtual channels
are allocated to class I".
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.routing.base import RoutingAlgorithm, Tier
from repro.routing.budgets import ROLE_ADAPTIVE, VcBudget, adaptive_escape_budget, hop_class_budget
from repro.routing.hop_based import Nbc, Pbc
from repro.simulator.message import Message
from repro.topology.directions import EAST, WEST
from repro.topology.mesh import Mesh2D


class DuatoXY(RoutingAlgorithm):
    """Duato's routing with 2 XY dimension-order escape VCs."""

    name = "duato"
    deadlock_free = True
    escape_count = 2

    def build_budget(self, mesh: Mesh2D, total_vcs: int) -> VcBudget:
        return adaptive_escape_budget(total_vcs, escape=self.escape_count)

    def candidate_tiers(self, msg: Message, node: int) -> Sequence[Tier]:
        # The escape network must stay deadlock-free on its own; masking
        # the escape hop to "first *fault-free* minimal direction" lets it
        # turn Y-before-X around a fault region and close a channel cycle
        # (found by repro.verify).  So the escape layer is the *fortified*
        # e-cube: strict XY while the XY hop is alive, the B-C fault ring
        # when it is not.
        mdirs, free_dirs = self.minimal_dirs(node, msg.dst)
        if not free_dirs or not self._may_exit_ring(msg, node):
            return [self._ring_tier(msg, node, mdirs)]
        if msg.ring is not None:
            msg.ring = None  # ring exit: minimal routing resumes
        if free_dirs[0] == mdirs[0]:
            return self.tiers_for(msg, node, free_dirs)
        return [self.adaptive_tier(free_dirs), self._ring_tier(msg, node, mdirs)]

    def tiers_for(
        self, msg: Message, node: int, dirs: tuple[int, ...]
    ) -> Sequence[Tier]:
        # Escape: dimension order prefers correcting x first.
        # minimal_directions() lists the x direction first when present,
        # so dirs[0] is the XY choice among the fault-free directions.
        tier2: Tier = [(dirs[0], self.budget.escape_vcs)]
        return [self.adaptive_tier(dirs), tier2]


class _DuatoHop:
    """Mixin turning a hop scheme into Duato class II under adaptive VCs."""

    def tiers_for(
        self, msg: Message, node: int, dirs: tuple[int, ...]
    ) -> Sequence[Tier]:
        return [self.adaptive_tier(dirs), self.class_tier(msg, node, dirs)]


class DuatoPbc(_DuatoHop, Pbc):
    """Duato's methodology with Pbc as the escape layer."""

    name = "duato-pbc"
    deadlock_free = True

    def build_budget(self, mesh: Mesh2D, total_vcs: int) -> VcBudget:
        n_classes = self.n_classes(mesh)
        adaptive = total_vcs - n_classes - 4
        return hop_class_budget(n_classes, total_vcs, adaptive=adaptive)


class DuatoNbc(_DuatoHop, Nbc):
    """Duato's methodology with Nbc as the escape layer."""

    name = "duato-nbc"
    deadlock_free = True

    def build_budget(self, mesh: Mesh2D, total_vcs: int) -> VcBudget:
        n_classes = self.n_classes(mesh)
        adaptive = total_vcs - n_classes - 4
        return hop_class_budget(n_classes, total_vcs, adaptive=adaptive)

    def _account(self, msg: Message, node: int, direction: int, vc: int) -> None:
        # NHop's labeling argument needs every hop out of a label-1 node
        # to bump the class schedule; a class-I (adaptive) hop bypasses
        # the class-VC allocation where that bump lives, so a
        # card-holding message could re-enter the escape classes at an
        # unchanged class and close a same-class cycle (repro.verify
        # exhibits one on a fault-free 4x4).  Advance the floor here.
        if (
            self.budget.role_of[vc] == ROLE_ADAPTIVE
            and (self._labels or self._label_table())[node]
        ):
            msg.cls = self._capped(msg.cls + 1)
