"""Deadlock detection support.

Two mechanisms:

* The engine's **watchdog** (in :mod:`repro.simulator.engine`): a header
  continuously blocked past ``deadlock_timeout`` cycles triggers the
  configured action.  For deadlock-free algorithms the default action is
  to raise :class:`DeadlockError`, which doubles as a correctness oracle
  in the test suite; for Minimal-/Fully-Adaptive the experiments use
  drain-recovery.
* :func:`find_dependency_cycle` — an exact wait-for-graph analysis used
  for diagnostics and tests: it distinguishes a true circular wait from
  mere congestion.  Its cycle search, :func:`find_cycle`, is the one the
  static checker (:mod:`repro.verify.cdg`) runs as well.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import TYPE_CHECKING, TypeVar

from repro.topology.directions import LOCAL

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulator.engine import InputVC, Simulation

N = TypeVar("N")


class DeadlockError(RuntimeError):
    """A header exceeded the deadlock timeout under the 'raise' policy."""

    def __init__(self, message: str, cycle: int, details: str = "") -> None:
        super().__init__(message)
        self.cycle = cycle
        self.details = details


def find_dependency_cycle(sim: "Simulation") -> list[tuple[int, int, int]] | None:
    """Search the VC wait-for graph for a cycle.

    Nodes of the graph are *busy input VCs*; there is an edge from input
    VC ``a`` to input VC ``b`` when ``a``'s header is waiting for an
    output VC currently owned by ``b``.  Returns the cycle as a list of
    ``(node, port, vc)`` triples, or ``None`` if the graph is acyclic
    (in which case any stall is congestion, not deadlock).
    """
    # Map each blocked header to the owners of every VC it could use.
    # Owners are read through ``vc_owner``, which never materialises a
    # VC (absent = idle, no owner); edge sets are insertion-ordered
    # dicts, so the cycle reported is the same on every run.
    edges: dict[InputVC, dict[InputVC, None]] = {}
    for invc in sim.iter_blocked_headers():
        msg = invc.msg
        if invc.node == msg.dst:
            wanted = [(LOCAL, v) for v in range(sim.config.vcs_per_channel)]
        else:
            # A re-ask like the router's own: it bumps class_caps the
            # same way, which is result-visible (DESIGN.md §3.4).
            tiers = sim.algorithm.candidate_tiers(msg, invc.node)
            wanted = [(d, v) for tier in tiers for (d, vcs) in tier for v in vcs]
        deps = edges[invc] = {}
        for d, v in wanted:
            owner = sim.vc_owner(invc.node, d, v)
            if owner is not None and owner is not invc:
                deps[owner] = None
    # Also: an input VC holding an allocated output VC depends on the
    # downstream input VC's front message draining (credit chain).
    for invc in sim.iter_active_vcs():
        ovc = invc.out_ovc
        if ovc is None or ovc.is_ejection or ovc.down_invc is None:
            continue
        down = ovc.down_invc
        if down.msg is not None:
            edges.setdefault(invc, {})[down] = None
    cycle = find_cycle(edges)
    return None if cycle is None else [(n.node, n.port, n.vc) for n in cycle]


def find_cycle(edges: Mapping[N, Iterable[N]]) -> list[N] | None:
    """One cycle of the directed graph *edges* (node -> successors), as
    its nodes in order, or ``None`` if the graph is acyclic.

    Iterative three-colour depth-first search over roots and successors
    in iteration order, so insertion-ordered *edges* give the same cycle
    on every run.  Both deadlock analyses search with it: the wait-for
    graph above and the static channel-dependency graph
    (:mod:`repro.verify.cdg`).
    """
    WHITE, GREY, BLACK = 0, 1, 2
    color: dict[N, int] = {}
    for root in edges:
        if color.get(root, WHITE) != WHITE:
            continue
        stack = [(root, iter(edges[root]))]
        color[root] = GREY
        path = [root]
        while stack:
            node, successors = stack[-1]
            for nxt in successors:
                c = color.get(nxt, WHITE)
                if c == GREY:
                    return path[path.index(nxt):]
                if c == WHITE:
                    color[nxt] = GREY
                    stack.append((nxt, iter(edges.get(nxt, ()))))
                    path.append(nxt)
                    break
            else:
                color[node] = BLACK
                stack.pop()
                path.pop()
    return None
