"""Hop-based schemes: PHop, NHop and their bonus-card variants Pbc, Nbc.

These come from Boppana & Chalasani's deadlock-free design framework [9]:

* **PHop** (Positive-Hop): a message that has taken ``h`` hops uses a
  buffer (VC) class ``h`` for its next hop; classes strictly increase
  along every path, so the class order is acyclic and the scheme is
  deadlock-free.  Needs ``diameter + 1`` classes.
* **NHop** (Negative-Hop): the mesh is 2-colored like a checkerboard; a
  hop from a higher to a lower label is *negative*, and a message that
  has taken ``i`` negative hops uses class ``i``.  Any cycle of channels
  contains a negative hop, so cycles would require a class increase —
  deadlock-free with only ``1 + floor(diameter/2)`` classes.
* **Pbc / Nbc** add *bonus cards*: a message that needs fewer classes
  than the worst case may spend the difference to start (and continue)
  in higher — typically less congested — classes.  Spending a card keeps
  the class schedule monotone, so deadlock freedom is preserved.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.routing.base import RoutingAlgorithm, Tier
from repro.routing.budgets import VcBudget, hop_class_budget
from repro.simulator.message import Message
from repro.topology.mesh import Mesh2D


class _HopScheme(RoutingAlgorithm):
    """Shared machinery of the four hop-based schemes."""

    #: Whether messages receive bonus cards at injection.
    bonus_cards = False
    #: Duato class-I VCs reserved in front of the hop classes (0 for the
    #: plain schemes; the Duato-Pbc/Nbc subclasses override).
    adaptive_count = 0

    def n_classes(self, mesh: Mesh2D) -> int:
        raise NotImplementedError

    def build_budget(self, mesh: Mesh2D, total_vcs: int) -> VcBudget:
        return hop_class_budget(
            self.n_classes(mesh), total_vcs, adaptive=self.adaptive_count
        )

    def max_cards(self, msg: Message) -> int:
        """Bonus cards granted to *msg* at injection."""
        raise NotImplementedError

    def new_message(self, msg: Message) -> None:
        msg.cards = self.max_cards(msg) if self.bonus_cards else 0

    def _post_prepare(self) -> None:
        self._class_tiers: dict[tuple[tuple[int, ...], int, int], Tier] = {}

    def class_tier(self, msg: Message, node: int, dirs: tuple[int, ...]) -> Tier:
        """The hop-class candidate tier: classes ``lo .. lo + cards``.

        The tier itself is shared per ``(dirs, lo, hi)``; the class-cap
        accounting in ``min_class``/``_capped`` still runs every call.
        """
        lo = self.min_class(msg, node)
        hi = self._capped(lo + msg.cards)
        key = (dirs, lo, hi)
        tier = self._class_tiers.get(key)
        if tier is None:
            vcs = self.budget.class_range_vcs(lo, hi)
            tier = self._class_tiers[key] = tuple((d, vcs) for d in dirs)
        return tier

    def tiers_for(
        self, msg: Message, node: int, dirs: tuple[int, ...]
    ) -> Sequence[Tier]:
        return (self.class_tier(msg, node, dirs),)


class PHop(_HopScheme):
    """Positive-Hop routing (class = hops taken)."""

    name = "phop"
    deadlock_free = True

    def n_classes(self, mesh: Mesh2D) -> int:
        return mesh.diameter + 1

    def max_cards(self, msg: Message) -> int:
        # diameter minus the hops this message will take on a minimal path
        return self.mesh.diameter - self.mesh.distance(msg.src, msg.dst)

    def min_class(self, msg: Message, node: int) -> int:
        # Strictly increasing: above both the previous class and the hop
        # count (the latter matters when adaptive class-I hops advanced the
        # schedule without touching a class VC).
        return self._capped(max(msg.cls + 1, msg.counted_hops))


class Pbc(PHop):
    """PHop with bonus cards."""

    name = "pbc"
    deadlock_free = True
    bonus_cards = True


class NHop(_HopScheme):
    """Negative-Hop routing (class = negative hops taken)."""

    name = "nhop"
    deadlock_free = True

    def n_classes(self, mesh: Mesh2D) -> int:
        return 1 + mesh.diameter // 2

    def required_negative_hops(self, src: int, dst: int) -> int:
        """Negative hops on any minimal path from *src* to *dst*.

        With the checkerboard coloring every hop alternates label, so the
        count depends only on the path length and the source label: paths
        from a label-1 node start with a negative hop.
        """
        length = self.mesh.distance(src, dst)
        if (self._labels or self._label_table())[src]:
            return (length + 1) // 2
        return length // 2

    def max_cards(self, msg: Message) -> int:
        return self.budget.max_class - self.required_negative_hops(msg.src, msg.dst)

    def min_class(self, msg: Message, node: int) -> int:
        # >= negative hops taken; strictly above the previous class when
        # the upcoming hop is negative (all hops out of a label-1 node are
        # negative, so negativity is a property of the current node).
        bump = (self._labels or self._label_table())[node]
        return self._capped(max(msg.neg_hops, msg.cls + bump))


class Nbc(NHop):
    """NHop with bonus cards."""

    name = "nbc"
    deadlock_free = True
    bonus_cards = True
