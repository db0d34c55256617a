"""Channel-dependency-graph model checking (Duato's condition).

The engine's deadlock story so far is dynamic: a watchdog plus the exact
wait-for-graph oracle (:func:`repro.simulator.deadlock.find_dependency_cycle`)
confirm circular waits *when a simulation happens to reach one*.  This
module mechanizes the static argument instead: for one algorithm, mesh
and fault pattern it enumerates every reachable ``(node, message-state)``
pair for every healthy ``(src, dst)`` pair and builds the **channel
dependency graph** (CDG) the algorithm induces — an edge ``a -> b``
whenever some message can hold channel ``a`` while requesting ``b``.

Checked, following Duato's theorem for adaptive wormhole routing:

1. **Escape supply** — every reachable routing decision offers at least
   one virtual channel of the algorithm's deadlock-free (escape) layer,
   so a blocked message can always fall back on it.
2. **Escape acyclicity** — the *extended* CDG restricted to the escape
   layer is acyclic.  Extended means indirect dependencies count: if a
   message holds escape channel ``a``, takes any number of adaptive hops
   and then requests escape channel ``b``, that is an ``a -> b`` edge.

The escape layer is derived from the algorithm's
:class:`~repro.routing.budgets.VcBudget` roles: Duato's class-II VCs when
present, otherwise the hop-class VCs, otherwise (for algorithms whose
deadlock-freedom rests on routing restrictions alone, or on nothing) the
whole pool.  The four Boppana–Chalasani ring VCs always belong to the
escape layer.

Channels are ``(node, direction, vc)`` triples — the same shape the
dynamic oracle reports, except the static cycle names *output* VCs at the
upstream node while :func:`find_dependency_cycle` names the blocked
*input* VCs downstream of them.

Virtual channels that an algorithm treats identically (the VCs of one hop
class, the adaptive pool, the XY-escape pair) are collapsed into one
**VC class** per physical channel before the graph is built: the routing
functions only ever depend on a VC's role/class, never its index, so a
cycle exists through concrete VCs iff it exists through VC classes.  This
keeps the state space small enough to exhaust 6x6 meshes in seconds.

Soundness: exploration follows the real routing code (the same
``candidate_tiers``/``on_vc_allocated`` the engine calls), so every edge
is realizable by an actual message.  A cycle therefore means Duato's
sufficient condition genuinely fails for the implemented routing function
— for the algorithms whose deadlock-freedom proof *is* Duato/Dally-Seitz
acyclicity, that is a concrete deadlock recipe.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.faults.pattern import FaultPattern
from repro.obs.profile import clock
from repro.routing.base import RoutingAlgorithm, RoutingError
from repro.routing.budgets import ROLE_ADAPTIVE, ROLE_CLASS, ROLE_ESCAPE, ROLE_RING
from repro.routing.registry import make_algorithm
from repro.simulator.deadlock import find_cycle
from repro.simulator.message import RING_CLASS_NAMES, RING_NS, RING_WE, Message
from repro.topology.directions import DIRECTIONS, OPPOSITE
from repro.topology.mesh import Mesh2D

#: A concrete channel: output VC ``vc`` of *node*'s port *direction*.
Channel = tuple[int, int, int]

#: Message fields that influence routing decisions (``hops`` is engine
#: bookkeeping only; ``extra`` is unused by the shipped algorithms).
_MSG_FIELDS = (
    "hops",
    "counted_hops",
    "neg_hops",
    "cls",
    "cards",
    "misroutes",
    "ring",
    "ring_orient_cw",
    "ring_class",
    "ring_entry_dist",
)


@dataclass(frozen=True)
class Violation:
    """A non-cycle invariant breach found during exploration."""

    kind: str  # "tier-shape" | "no-escape-supply" | "routing-error" | ...
    node: int
    src: int
    dst: int
    detail: str

    def to_payload(self) -> dict:
        return {
            "kind": self.kind,
            "node": self.node,
            "src": self.src,
            "dst": self.dst,
            "detail": self.detail,
        }


#: Premise names of the ring-discharge argument, in evaluation order.
RING_PREMISES = (
    "ring-only",
    "single-class",
    "single-ring",
    "closed-ring",
    "oriented-advance",
)


@dataclass(frozen=True)
class RingPremise:
    """One hypothesis of the bounded-ring-occupancy lemma, evaluated."""

    name: str
    holds: bool
    detail: str

    def to_payload(self) -> dict:
        return {"name": self.name, "holds": self.holds, "detail": self.detail}


@dataclass(frozen=True)
class RingCycleAnalysis:
    """Per-cycle discharge verdict for a ring-traversing counterexample.

    DESIGN.md §3.7's lemma: within one message class, the fixed traversal
    orientation plus the exit bar (leave only strictly closer to the
    destination than the transit began) bound every ring occupancy to a
    proper arc — a class's messages never cover a closed ring's full
    cycle.  A counterexample cycle that is exactly a full single-class
    wrap of one closed f-ring in the class's legal orientation therefore
    cannot have all of its waits realized simultaneously: it is
    **discharged** (unreachable).  Any failed premise names precisely why
    the lemma does not apply — ``ring-only`` failing is the §3.7
    cross-layer coupling (tail on ring VCs, header on class channels).
    """

    premises: tuple[RingPremise, ...]

    @property
    def discharged(self) -> bool:
        return all(p.holds for p in self.premises)

    @property
    def failed(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.premises if not p.holds)

    def to_payload(self) -> dict:
        return {
            "discharged": self.discharged,
            "failed": list(self.failed),
            "premises": [p.to_payload() for p in self.premises],
        }


def _fmt_channel(ch: Channel) -> str:
    return f"({ch[0]},{ch[1]},{ch[2]})"


def analyze_ring_cycle(
    cycle: list[Channel],
    *,
    ring_vcs: tuple[int, ...],
    faults: FaultPattern,
) -> RingCycleAnalysis:
    """Evaluate the ring-discharge premises against one concrete cycle.

    *cycle* uses concrete ``(node, direction, vc)`` channels (the shape
    :attr:`CdgReport.cycle` and the dynamic oracle report); *ring_vcs*
    is the budget's 4 shared B-C ring VCs in class order (WE, EW, NS,
    SN).  All premises are evaluated — a waived cycle names every failed
    hypothesis, not just the first.
    """
    mesh = faults.mesh
    ring_set = set(ring_vcs)
    n = len(cycle)
    premises: list[RingPremise] = []

    non_ring = [ch for ch in cycle if ch[2] not in ring_set]
    ring_chans = [ch for ch in cycle if ch[2] in ring_set]
    if non_ring:
        detail = (
            f"{len(non_ring)}/{n} channels use non-ring VCs "
            f"(cross-layer coupling, e.g. {_fmt_channel(non_ring[0])})"
        )
    else:
        detail = f"all {n} channels on shared ring VCs"
    premises.append(RingPremise("ring-only", not non_ring, detail))

    classes = sorted({ring_vcs.index(ch[2]) for ch in ring_chans})
    single_class = len(classes) == 1
    if not ring_chans:
        detail = "no ring channels in the cycle"
    elif single_class:
        detail = f"one ring class: {RING_CLASS_NAMES[classes[0]]}"
    else:
        detail = "mixes ring classes " + ", ".join(
            RING_CLASS_NAMES[c] for c in classes
        )
    premises.append(RingPremise("single-class", single_class, detail))

    nodes = {ch[0] for ch in cycle}
    host = next(
        (r for r in faults.rings if all(nd in r for nd in nodes)), None
    )
    premises.append(
        RingPremise(
            "single-ring",
            host is not None,
            (
                f"all nodes on the f-ring of {host.region}"
                if host is not None
                else "cycle nodes do not all lie on one f-ring"
            ),
        )
    )

    closed = host is not None and host.closed
    premises.append(
        RingPremise(
            "closed-ring",
            closed,
            (
                "the f-ring is closed"
                if closed
                else "open f-chain: the wrap argument needs a closed ring"
                if host is not None
                else "no hosting f-ring to test for closure"
            ),
        )
    )

    if not (single_class and host is not None and not non_ring):
        premises.append(
            RingPremise(
                "oriented-advance",
                False,
                "not evaluable: earlier premises failed",
            )
        )
    else:
        cw = classes[0] in (RING_WE, RING_NS)
        bad = next(
            (
                (cycle[i], cycle[(i + 1) % n])
                for i in range(n)
                if mesh.neighbor(cycle[i][0], cycle[i][1])
                != cycle[(i + 1) % n][0]
                or host.next_node(cycle[i][0], cw) != cycle[(i + 1) % n][0]
            ),
            None,
        )
        orient = "clockwise" if cw else "counter-clockwise"
        premises.append(
            RingPremise(
                "oriented-advance",
                bad is None,
                (
                    f"every edge is the {orient} ring successor "
                    f"({RING_CLASS_NAMES[classes[0]]} orientation)"
                    if bad is None
                    else (
                        f"edge {_fmt_channel(bad[0])} -> "
                        f"{_fmt_channel(bad[1])} is not the {orient} "
                        "ring successor"
                    )
                ),
            )
        )
    return RingCycleAnalysis(premises=tuple(premises))


@dataclass
class CdgReport:
    """Result of model-checking one (algorithm, mesh, fault pattern)."""

    algorithm: str
    declared_deadlock_free: bool
    pattern: str
    width: int
    height: int
    total_vcs: int
    n_states: int = 0
    n_channels: int = 0
    n_edges: int = 0
    escape_vcs: tuple[int, ...] = ()
    ring_vcs: tuple[int, ...] = ()
    cycle: list[Channel] | None = None
    cycle_witnesses: list[tuple[int, int]] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)
    elapsed: float = 0.0
    #: True when *every* cycle in the CDG is discharged by the
    #: bounded-ring-occupancy argument (each non-trivial SCC consists
    #: solely of oriented single-class ring-advance edges on closed
    #: rings, so all of its cycles are unreachable full wraps).
    ring_proved: bool = False
    #: Premise-by-premise discharge verdict for the reported cycle.
    ring_analysis: RingCycleAnalysis | None = None

    @property
    def ok(self) -> bool:
        """Whether Duato's condition was verified (no cycle, no breach)."""
        return self.cycle is None and not self.violations

    @property
    def ring_cycle(self) -> bool:
        """Whether the counterexample cycle traverses a B-C ring VC.

        Such cycles are the *documented* residual of the paper's budget
        (hop classes frozen during ring transit plus 4 shared ring VCs,
        DESIGN.md §3.7): experiments run faulty configurations with
        drain-recovery because of them.  ``check`` therefore reports but
        does not fail them; a cycle that avoids the ring VCs on a faulty
        pattern — or any cycle on a fault-free one — is a real defect.
        """
        if self.cycle is None:
            return False
        ring = set(self.ring_vcs)
        return any(vc in ring for (_, _, vc) in self.cycle)

    @property
    def status(self) -> str:
        """``ok`` | ``ring-proved`` | ``ring-residual`` | ``cycle`` |
        ``violation`` | ``unknown``.

        ``ring-proved`` is strictly stronger than ``ring-residual``: a
        ring-traversing cycle was found, but every cycle in the graph is
        a full single-class wrap of a closed ring, which the exit-bar/
        bounded-occupancy lemma proves unreachable (DESIGN.md §3.7).
        ``unknown``: the exploration overflowed ``max_states`` before it
        met any other violation or a cycle avoiding the ring VCs, so the
        graph it saw is partial and the case is undecided.
        """
        overflow = [v for v in self.violations if v.kind == "state-overflow"]
        if len(overflow) < len(self.violations):
            return "violation"
        if self.cycle is not None and not self.ring_cycle:
            return "cycle"
        if overflow:
            return "unknown"
        if self.cycle is None:
            return "ok"
        return "ring-proved" if self.ring_proved else "ring-residual"

    @property
    def passed(self) -> bool:
        """Whether the case meets a deadlock-free declaration: no
        violation and no cycle but the documented ring residual."""
        return self.status in ("ok", "ring-residual", "ring-proved")

    def to_payload(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "declared_deadlock_free": self.declared_deadlock_free,
            "pattern": self.pattern,
            "mesh": [self.width, self.height],
            "total_vcs": self.total_vcs,
            "states": self.n_states,
            "channels": self.n_channels,
            "edges": self.n_edges,
            "escape_vcs": list(self.escape_vcs),
            "ring_vcs": list(self.ring_vcs),
            "ok": self.ok,
            "status": self.status,
            "cycle": [list(c) for c in self.cycle] if self.cycle else None,
            "cycle_witnesses": [list(w) for w in self.cycle_witnesses],
            "violations": [v.to_payload() for v in self.violations],
            "elapsed": round(self.elapsed, 3),
            "ring_proved": self.ring_proved,
            "ring_analysis": (
                self.ring_analysis.to_payload()
                if self.ring_analysis is not None
                else None
            ),
        }


class CdgChecker:
    """Exhaustive CDG construction for one algorithm on one network.

    Parameters
    ----------
    algorithm:
        A fresh (unprepared) algorithm instance.
    faults:
        Fault pattern; its mesh defines the network.
    total_vcs:
        VCs per physical channel.  The default (the minimum the algorithm
        accepts plus a small adaptive surplus) keeps VC classes while
        exercising every role.
    max_states:
        Abort guard against state-space blowups; generous for the meshes
        this is meant for (4x4-6x6).
    """

    def __init__(
        self,
        algorithm: RoutingAlgorithm,
        faults: FaultPattern,
        total_vcs: int = 16,
        *,
        pattern_name: str = "custom",
        max_states: int = 2_000_000,
    ) -> None:
        self.mesh: Mesh2D = faults.mesh
        self.faults = faults
        self.algorithm = algorithm
        self.total_vcs = total_vcs
        self.pattern_name = pattern_name
        self.max_states = max_states
        algorithm.prepare(self.mesh, faults, total_vcs)
        self._ring_index = {id(r): i for i, r in enumerate(faults.rings)}
        self._build_vc_classes()

    # ------------------------------------------------------------------
    # VC classes (symmetry reduction)
    # ------------------------------------------------------------------
    def _build_vc_classes(self) -> None:
        budget = self.algorithm.budget
        assert budget is not None
        group_of: dict[object, int] = {}
        vc_class: list[int] = []
        representative: list[int] = []
        group_name_of: dict[int, str] = {
            vc: name
            for name, vcs in budget.group_vcs.items()
            for vc in vcs
        }
        for vc in range(budget.total):
            role = budget.role_of[vc]
            if role == ROLE_RING:
                key = ("ring", budget.ring_vcs.index(vc))
            elif role == ROLE_CLASS:
                key = ("class", budget.class_of[vc])
            elif role == ROLE_ESCAPE:
                key = ("escape",)
            elif vc in group_name_of:
                # Boura-style named partitions: VCs are only symmetric
                # within one group, never across groups.
                key = ("group", group_name_of[vc])
            else:
                key = ("adaptive",)
            cid = group_of.get(key)
            if cid is None:
                cid = len(representative)
                group_of[key] = cid
                representative.append(vc)
            vc_class.append(cid)
        self._vc_class = tuple(vc_class)  # vc -> class id
        self._class_repr = tuple(representative)  # class id -> sample vc

        # Escape layer: Duato class II if declared, else the hop classes,
        # else the entire pool (restriction-based or unprotected schemes).
        if budget.escape_vcs:
            escape_roles = {ROLE_ESCAPE, ROLE_RING}
        elif budget.class_vcs:
            escape_roles = {ROLE_CLASS, ROLE_RING}
        else:
            escape_roles = {ROLE_ADAPTIVE, ROLE_ESCAPE, ROLE_CLASS, ROLE_RING}
        self._escape_class_ids = frozenset(
            self._vc_class[vc]
            for vc in range(budget.total)
            if budget.role_of[vc] in escape_roles
        )
        self._escape_vcs = tuple(
            vc
            for vc in range(budget.total)
            if budget.role_of[vc] in escape_roles
        )

    # ------------------------------------------------------------------
    # Message-state plumbing
    # ------------------------------------------------------------------
    def _snapshot(self, msg: Message) -> tuple:
        return tuple(getattr(msg, f) for f in _MSG_FIELDS)

    def _restore(self, msg: Message, snap: tuple) -> None:
        for f, v in zip(_MSG_FIELDS, snap):
            setattr(msg, f, v)

    def _state_key(self, node: int, msg: Message) -> tuple:
        """Canonical routing-relevant state (``hops`` excluded: monotone
        engine bookkeeping no algorithm reads)."""
        ring = msg.ring
        return (
            node,
            msg.counted_hops,
            msg.neg_hops,
            msg.cls,
            msg.cards,
            msg.misroutes,
            -1 if ring is None else self._ring_index[id(ring)],
            msg.ring_orient_cw,
            msg.ring_class,
            msg.ring_entry_dist,
        )

    # ------------------------------------------------------------------
    # Tier validation (the runtime half of the tier-shape invariant)
    # ------------------------------------------------------------------
    def _tier_error(self, tiers: object) -> str | None:
        if not isinstance(tiers, (list, tuple)) or not tiers:
            return f"candidate_tiers returned {type(tiers).__name__}, not a non-empty sequence"
        for tier in tiers:
            if not isinstance(tier, (list, tuple)) or not tier:
                return f"tier is {type(tier).__name__}, not a non-empty sequence"
            for pair in tier:
                if not (isinstance(pair, tuple) and len(pair) == 2):
                    return f"tier entry {pair!r} is not a (direction, vcs) pair"
                d, vcs = pair
                if d not in DIRECTIONS:
                    return f"direction {d!r} outside {DIRECTIONS}"
                if not isinstance(vcs, tuple) or not vcs:
                    return f"vcs {vcs!r} is not a non-empty tuple"
                for v in vcs:
                    if not isinstance(v, int) or not 0 <= v < self.total_vcs:
                        return f"vc {v!r} outside 0..{self.total_vcs - 1}"
        return None

    # ------------------------------------------------------------------
    # Exploration
    # ------------------------------------------------------------------
    def run(self) -> CdgReport:
        """Explore every healthy (src, dst) pair and check the CDG."""
        t0 = clock()
        report = CdgReport(
            algorithm=self.algorithm.name,
            declared_deadlock_free=self.algorithm.deadlock_free,
            pattern=self.pattern_name,
            width=self.mesh.width,
            height=self.mesh.height,
            total_vcs=self.total_vcs,
            escape_vcs=self._escape_vcs,
            ring_vcs=tuple(self.algorithm.budget.ring_vcs or ()),
        )
        edges: dict[tuple, set[tuple]] = {}
        witness: dict[tuple[tuple, tuple], tuple[int, int]] = {}
        # A message can take at most distance + 2*misroutes counted hops
        # plus slack for ring detours re-blocking; anything past this
        # bound means the hop schedule runs away.
        hop_bound = 4 * (self.mesh.diameter + 1) + 24
        healthy = self.faults.healthy_nodes
        seen_violation_kinds: set[tuple[str, int]] = set()

        def violate(kind: str, node: int, src: int, dst: int, detail: str) -> None:
            # One report per (kind, node) keeps the output readable.
            if (kind, node) in seen_violation_kinds:
                return
            seen_violation_kinds.add((kind, node))
            report.violations.append(Violation(kind, node, src, dst, detail))

        alg = self.algorithm
        mesh = self.mesh
        faulty_mask = self.faults.faulty_mask
        vc_class = self._vc_class
        escape_ids = self._escape_class_ids

        for src in healthy:
            for dst in healthy:
                if src == dst:
                    continue
                msg = Message(0, src, dst, 2, 0)
                alg.new_message(msg)
                init = self._snapshot(msg)
                start_key = (self._state_key(src, msg), None)
                frontier: list[tuple[tuple, tuple | None, tuple]] = [
                    (start_key[0], None, init)
                ]
                visited: set[tuple] = {start_key}
                while frontier:
                    state, last_escape, snap = frontier.pop()
                    node = state[0]
                    if node == dst:
                        continue
                    report.n_states += 1
                    if report.n_states > self.max_states:
                        violate(
                            "state-overflow", node, src, dst,
                            f"more than {self.max_states} reachable states",
                        )
                        report.elapsed = clock() - t0
                        return self._finish(report, edges, witness)
                    self._restore(msg, snap)
                    try:
                        tiers = alg.candidate_tiers(msg, node)
                    except (RoutingError, ValueError, KeyError) as exc:
                        violate(
                            "routing-error", node, src, dst,
                            f"candidate_tiers raised {type(exc).__name__}: {exc}",
                        )
                        continue
                    shape_err = self._tier_error(tiers)
                    if shape_err is not None:
                        violate("tier-shape", node, src, dst, shape_err)
                        continue
                    post = self._snapshot(msg)
                    # Candidates collapsed to (direction, vc-class).
                    cands: dict[tuple[int, int], None] = {}
                    for tier in tiers:
                        for d, vcs in tier:
                            for v in vcs:
                                cands[(d, vc_class[v])] = None
                    if not any(c in escape_ids for _, c in cands):
                        violate(
                            "no-escape-supply", node, src, dst,
                            "no escape-layer VC among the candidate tiers",
                        )
                    if last_escape is not None:
                        deps = edges.setdefault(last_escape, set())
                        for d, c in cands:
                            if c in escape_ids:
                                to = (node, d, c)
                                if to not in deps:
                                    deps.add(to)
                                    witness.setdefault(
                                        (last_escape, to), (src, dst)
                                    )
                    for d, c in cands:
                        nxt = mesh.neighbor(node, d)
                        if nxt < 0:
                            violate(
                                "off-mesh", node, src, dst,
                                f"candidate direction {d} leaves the mesh",
                            )
                            continue
                        if faulty_mask[nxt]:
                            violate(
                                "into-fault", node, src, dst,
                                f"candidate direction {d} enters faulty node {nxt}",
                            )
                            continue
                        self._restore(msg, post)
                        try:
                            alg.on_vc_allocated(msg, node, d, self._class_repr[c])
                        except (RoutingError, ValueError) as exc:
                            violate(
                                "routing-error", node, src, dst,
                                f"on_vc_allocated raised {type(exc).__name__}: {exc}",
                            )
                            continue
                        if msg.counted_hops > hop_bound:
                            violate(
                                "hop-runaway", node, src, dst,
                                f"counted_hops exceeded {hop_bound}",
                            )
                            continue
                        nxt_escape = (
                            (node, d, c) if c in escape_ids else last_escape
                        )
                        key = (self._state_key(nxt, msg), nxt_escape)
                        if key not in visited:
                            visited.add(key)
                            frontier.append((key[0], nxt_escape, self._snapshot(msg)))
        report.elapsed = clock() - t0
        return self._finish(report, edges, witness)

    # ------------------------------------------------------------------
    def _finish(
        self,
        report: CdgReport,
        edges: dict[tuple, set[tuple]],
        witness: dict[tuple[tuple, tuple], tuple[int, int]],
    ) -> CdgReport:
        report.n_channels = len(
            set(edges) | {to for deps in edges.values() for to in deps}
        )
        report.n_edges = sum(len(deps) for deps in edges.values())
        ring_class_ids = frozenset(
            self._vc_class[v]
            for v in (self.algorithm.budget.ring_vcs or ())
        )
        # Pure cycles (never touching a shared ring VC) are genuine
        # defects and must not be masked by whichever ring-traversing
        # cycle the DFS happens to meet first: search the ring-free
        # subgraph before the full graph.
        pure_edges = {
            a: {b for b in deps if b[2] not in ring_class_ids}
            for a, deps in edges.items()
            if a[2] not in ring_class_ids
        }
        cycle = find_cycle(pure_edges)
        if cycle is None:
            cycle = find_cycle(edges)
        if cycle is not None:
            report.cycle = [
                (node, d, self._class_repr[c]) for node, d, c in cycle
            ]
            report.cycle_witnesses = [
                witness.get(
                    (cycle[i], cycle[(i + 1) % len(cycle)]), (-1, -1)
                )
                for i in range(len(cycle))
            ]
            if report.ring_cycle:
                report.ring_analysis = analyze_ring_cycle(
                    report.cycle,
                    ring_vcs=report.ring_vcs,
                    faults=self.faults,
                )
                report.ring_proved = self._discharge_ring_sccs(
                    edges, ring_class_ids
                )
        self._edges = edges  # kept for the `cdg` CLI verb / tests
        return report

    def _discharge_ring_sccs(
        self,
        edges: dict[tuple, set[tuple]],
        ring_class_ids: frozenset[int],
    ) -> bool:
        """Whether *every* cycle in the CDG is an unreachable ring wrap.

        Every cycle lives inside a non-trivial strongly connected
        component.  If each edge inside each non-trivial SCC is an
        oriented single-class **ring-advance** edge on one closed f-ring
        (``a``'s successor in the class's fixed orientation is exactly
        ``b``'s node, on the same shared ring VC), then every cycle the
        graph contains is a full single-class wrap of a closed ring —
        all discharged at once by the bounded-ring-occupancy lemma, with
        no cycle enumeration.
        """
        for scc in _strongly_connected_components(edges):
            members = set(scc)
            nontrivial = len(scc) > 1 or any(
                a in edges and a in edges[a] for a in scc
            )
            if not nontrivial:
                continue
            for a in scc:
                for b in edges.get(a, ()):
                    if b in members and not self._edge_ring_advance(a, b):
                        return False
        return True

    def _edge_ring_advance(self, a: tuple, b: tuple) -> bool:
        """Is class-level edge ``a -> b`` a same-class oriented ring hop
        on a closed f-ring?"""
        ring_vcs = self.algorithm.budget.ring_vcs
        va = self._class_repr[a[2]]
        vb = self._class_repr[b[2]]
        if va != vb or va not in ring_vcs:
            return False
        if self.mesh.neighbor(a[0], a[1]) != b[0]:
            return False
        cw = ring_vcs.index(va) in (RING_WE, RING_NS)
        return any(
            ring.closed
            and a[0] in ring
            and ring.next_node(a[0], cw) == b[0]
            for ring in self.faults.rings
        )

    def concrete_edges(self) -> list[tuple[Channel, Channel]]:
        """All CDG edges with VC classes mapped back to sample VCs."""
        out = []
        for a, deps in self._edges.items():
            ca = (a[0], a[1], self._class_repr[a[2]])
            for b in deps:
                out.append((ca, (b[0], b[1], self._class_repr[b[2]])))
        return sorted(out)


def _strongly_connected_components(
    edges: dict[tuple, set[tuple]],
) -> list[list[tuple]]:
    """Tarjan's SCC algorithm, iterative (the CDGs overflow recursion)."""
    nodes = list(edges)
    nodes.extend(
        b for deps in edges.values() for b in deps if b not in edges
    )
    index: dict[tuple, int] = {}
    lowlink: dict[tuple, int] = {}
    on_stack: set[tuple] = set()
    stack: list[tuple] = []
    sccs: list[list[tuple]] = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        work: list[tuple[tuple, object]] = [(root, iter(edges.get(root, ())))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(edges.get(w, ()))))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if not advanced:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[v])
                if lowlink[v] == index[v]:
                    scc = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        scc.append(w)
                        if w == v:
                            break
                    sccs.append(scc)
    return sccs


def project_wait_cycle(
    checker: CdgChecker, wait_cycle: Sequence[Channel]
) -> list[Channel]:
    """The checker channels an engine wait-for cycle holds, in order.

    *wait_cycle* is a cycle of blocked input VCs ``(node, port, vc)`` as
    :func:`~repro.simulator.deadlock.find_dependency_cycle` reports it.
    Each cross-node edge ``a -> b`` is a held link: ``b``'s upstream
    output VC, ``(mesh.neighbor(b.node, b.port), OPPOSITE[b.port], vc)``,
    at the checker's VC class of ``b.vc`` (named by its sample VC, as
    :meth:`CdgChecker.concrete_edges` names channels).  A same-node edge
    (a header waiting on a VC another input VC of its router owns)
    crosses no link and is skipped.  If the checker is sound, the
    channels' consecutive pairs, taken cyclically, are edges of its
    graph.
    """
    channels = []
    for i, (node, _, _) in enumerate(wait_cycle):
        down, port, vc = wait_cycle[(i + 1) % len(wait_cycle)]
        if down != node:
            up = checker.mesh.neighbor(down, port)
            sample = checker._class_repr[checker._vc_class[vc]]
            channels.append((up, OPPOSITE[port], sample))
    return channels


def check_algorithm(
    name: str,
    faults: FaultPattern,
    total_vcs: int = 16,
    *,
    pattern_name: str = "custom",
) -> CdgReport:
    """Model-check one registered algorithm against one fault pattern."""
    return CdgChecker(
        make_algorithm(name), faults, total_vcs, pattern_name=pattern_name
    ).run()
