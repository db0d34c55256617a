"""Routing-algorithm interface and the Boppana–Chalasani ring overlay.

Every algorithm answers one question for a header flit at node ``u``:
*which output virtual channels may carry this message's next hop?*  The
answer is a list of **tiers** — each tier a list of ``(direction, vcs)``
pairs — tried in order: a later tier is considered only when every VC of
the earlier tiers is busy (this encodes Duato's class-I/class-II rule and
Fully-Adaptive's "misroute only when all minimal VCs are busy").

The base class implements the parts shared by all ten algorithms:

* minimal-direction computation and fault filtering,
* the Boppana–Chalasani fault-ring transit (entry, fixed per-class
  orientation, chain-end reversal, exit at the first node where minimal
  routing resumes),
* per-hop bookkeeping (hop counts, negative hops, class/card updates).

Subclasses implement :meth:`tiers_for` (fault-free-direction candidates)
and, for hop-based schemes, :meth:`min_class`.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.faults.pattern import FaultPattern
from repro.routing.budgets import (
    ROLE_CLASS,
    ROLE_RING,
    VcBudget,
    VcSet,
)
from repro.simulator.message import (
    RING_EW,
    RING_NS,
    RING_SN,
    RING_WE,
    Message,
)
from repro.topology.directions import DIRECTIONS, EAST, NORTH, SOUTH, WEST
from repro.topology.mesh import Mesh2D, direction_of_hop

#: A candidate tier: ``[(direction, VcSet), ...]``.  Tiers that depend
#: only on geometry are cached and shared, so they are tuples; treat
#: every tier (and tier list) as read-only.
Tier = Sequence[tuple[int, VcSet]]


class RoutingError(RuntimeError):
    """An algorithm reached a state its invariants forbid."""


class RoutingAlgorithm:
    """Base class for all routing algorithms.

    Lifecycle: construct → :meth:`prepare` (binds mesh, fault pattern and
    VC budget) → per message :meth:`new_message` → per routing attempt
    :meth:`candidate_tiers` → on success :meth:`on_vc_allocated`.
    """

    #: Registry name; subclasses override.
    name = "abstract"
    #: Whether the scheme is provably deadlock-free (drives the default
    #: deadlock action in experiments: oracle-raise vs drain-recovery).
    deadlock_free = True

    def __init__(self) -> None:
        self.mesh: Mesh2D | None = None
        self.faults: FaultPattern | None = None
        self.budget: VcBudget | None = None
        #: Number of times the hop-class schedule had to saturate at the
        #: top class (only possible after ring detours/misroutes pushed a
        #: message past its worst-case class budget).
        self.class_caps = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def prepare(self, mesh: Mesh2D, faults: FaultPattern, total_vcs: int) -> None:
        """Bind the algorithm to a network before a simulation run."""
        if faults.mesh != mesh:
            raise ValueError("fault pattern belongs to a different mesh")
        self.mesh = mesh
        self.faults = faults
        self.budget = self.build_budget(mesh, total_vcs)
        self.class_caps = 0
        self._max_class = self.budget.max_class
        # Memo tables fill on first use, so a short run pays only for
        # the (node, dst) pairs and tiers it actually routes.
        self._geometry: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
        self._adaptive_tiers: dict[tuple[int, ...], Tier] = {}
        self._labels: tuple[int, ...] = ()
        self._post_prepare()

    def _post_prepare(self) -> None:
        """Hook for subclass precomputation (labelings etc.)."""

    def build_budget(self, mesh: Mesh2D, total_vcs: int) -> VcBudget:
        raise NotImplementedError

    def new_message(self, msg: Message) -> None:
        """Initialize per-message routing state (cards etc.)."""

    # ------------------------------------------------------------------
    # Candidate generation
    # ------------------------------------------------------------------
    def candidate_tiers(self, msg: Message, node: int) -> Sequence[Tier]:
        """Tiers of output-VC candidates for the header of *msg* at *node*.

        Handles fault blocking generically: when every minimal direction
        leads into a fault region the message enters (or continues) ring
        transit; otherwise the fault-free minimal directions are passed to
        the subclass.
        """
        mdirs, free_dirs = self.minimal_dirs(node, msg.dst)
        route_dirs = self.route_dirs(msg, node, mdirs, free_dirs)
        if route_dirs and self._may_exit_ring(msg, node):
            if msg.ring is not None:
                msg.ring = None  # ring exit: minimal routing resumes
            return self.tiers_for(msg, node, route_dirs)
        return [self._ring_tier(msg, node, mdirs)]

    def minimal_dirs(
        self, node: int, dst: int
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(mdirs, free_dirs)``: the minimal directions from *node* to
        *dst* and the subset whose neighbor is healthy (memoised)."""
        key = node * self.mesh.n_nodes + dst
        hit = self._geometry.get(key)
        if hit is None:
            mdirs = free_dirs = self.mesh.minimal_directions(node, dst)
            if self.faults.n_faulty:
                faulty = self.faults.faulty_mask
                neighbors = self.mesh.neighbor_table(node)
                free_dirs = tuple(d for d in mdirs if not faulty[neighbors[d]])
            hit = self._geometry[key] = (mdirs, free_dirs)
        return hit

    def adaptive_tier(self, dirs: tuple[int, ...]) -> Tier:
        """The adaptive pool on every direction of *dirs* (shared)."""
        tier = self._adaptive_tiers.get(dirs)
        if tier is None:
            adaptive = self.budget.adaptive_vcs
            tier = self._adaptive_tiers[dirs] = tuple((d, adaptive) for d in dirs)
        return tier

    def _label_table(self) -> tuple[int, ...]:
        """Build the per-node checkerboard labels (first use only; hot
        callers read ``self._labels or self._label_table()``)."""
        mesh = self.mesh
        self._labels = tuple(mesh.checkerboard_label(n) for n in mesh.nodes())
        return self._labels

    def route_dirs(
        self,
        msg: Message,
        node: int,
        mdirs: tuple[int, ...],
        free_dirs: tuple[int, ...],
    ) -> tuple[int, ...]:
        """Fault-free minimal directions this scheme may actually use.

        Returning ``()`` declares the message fault-blocked even though a
        minimal neighbor is alive: deterministic schemes whose one
        permitted hop is faulty must take the ring, because detouring on
        the other minimal dimension reintroduces exactly the turns their
        channel ordering forbids.
        """
        return free_dirs

    def _may_exit_ring(self, msg: Message, node: int) -> bool:
        """Whether a message in ring transit may resume minimal routing.

        Exiting requires being strictly closer to the destination than
        where the transit began; without this rule a message that detoured
        around one side of a region would take a minimal hop straight back
        to the node where it was blocked, oscillate, and eventually
        deadlock on its own flits (the "wrap-onto-own-tail" failure).
        """
        if msg.ring is None:
            return True
        return self.mesh.distance(node, msg.dst) < msg.ring_entry_dist

    def tiers_for(
        self, msg: Message, node: int, dirs: tuple[int, ...]
    ) -> Sequence[Tier]:
        """Candidate tiers over fault-free minimal directions *dirs*."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Boppana–Chalasani ring transit
    # ------------------------------------------------------------------
    def _ring_tier(self, msg: Message, node: int, mdirs: tuple[int, ...]) -> Tier:
        mesh, faults = self.mesh, self.faults
        neighbors = mesh.neighbor_table(node)
        blocking = -1
        for d in mdirs:
            nb = neighbors[d]
            if nb >= 0 and faults.faulty_mask[nb]:
                blocking = nb
                break
        if blocking >= 0:
            ring = faults.ring_around(blocking)
        elif msg.ring is not None and node in msg.ring:
            # Not fault-blocked here, but the exit bar is unmet: keep
            # walking the current ring toward the region's far side.
            ring = msg.ring
        else:
            raise RoutingError(
                f"message {msg.id} fault-blocked at node {node} but no "
                "minimal neighbor is faulty"
            )

        if msg.ring_class < 0:
            dx, dy = mesh.offsets(node, msg.dst)
            if dx > 0:
                msg.ring_class = RING_WE
            elif dx < 0:
                msg.ring_class = RING_EW
            elif dy > 0:
                msg.ring_class = RING_NS
            else:
                msg.ring_class = RING_SN
        if msg.ring is not ring:
            # (Re-)entering a ring: orientation is fixed per message class
            # (WE/NS clockwise, EW/SN counter-clockwise) so that two
            # same-class messages never traverse a ring head-on.  The
            # entry distance is the exit bar (see _may_exit_ring).
            msg.ring = ring
            msg.ring_orient_cw = msg.ring_class in (RING_WE, RING_NS)
            msg.ring_entry_dist = mesh.distance(node, msg.dst)

        nxt = ring.next_node(node, msg.ring_orient_cw)
        if nxt < 0:  # open f-chain end: reverse and walk back
            msg.ring_orient_cw = not msg.ring_orient_cw
            nxt = ring.next_node(node, msg.ring_orient_cw)
            if nxt < 0:
                raise RoutingError(
                    f"degenerate single-node fault chain at node {node}"
                )
        direction = direction_of_hop(mesh, node, nxt)
        return [(direction, self.budget.ring_sets[msg.ring_class])]

    # ------------------------------------------------------------------
    # Per-hop bookkeeping
    # ------------------------------------------------------------------
    def min_class(self, msg: Message, node: int) -> int:
        """Lowest hop class legal for the next non-ring hop (hop schemes)."""
        return 0

    def on_vc_allocated(self, msg: Message, node: int, direction: int, vc: int) -> None:
        """Record the hop implied by granting *vc* in *direction* at *node*.

        Called exactly once per header VC allocation; the header is then
        guaranteed to take that hop.
        """
        msg.hops += 1
        budget = self.budget
        role = budget.role_of[vc]
        if role == ROLE_RING:
            # Ring hops freeze the hop-class schedule (DESIGN.md §3.7).
            return
        if role == ROLE_CLASS:
            chosen = budget.class_of[vc]
            lo = self.min_class(msg, node)
            if chosen < lo:
                raise RoutingError(
                    f"message {msg.id} allocated class {chosen} below its "
                    f"minimum {lo}"
                )
            msg.cards -= chosen - lo
            msg.cls = chosen
        # Hop counters advance on every non-ring hop (including adaptive
        # class-I hops, so a later escape into the hop classes stays legal).
        msg.counted_hops += 1
        if (self._labels or self._label_table())[node]:
            msg.neg_hops += 1
        self._account(msg, node, direction, vc)

    def _account(self, msg: Message, node: int, direction: int, vc: int) -> None:
        """Subclass hook for extra per-hop state (misroute counts etc.)."""

    # ------------------------------------------------------------------
    def _capped(self, lo: int) -> int:
        """Saturate a class index at the top class, counting overflows."""
        if lo > self._max_class:
            self.class_caps += 1
            return self._max_class
        return lo

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
