"""Model-checker (`repro.verify.cdg`) tests: the positive and negative
oracles of the static deadlock-freedom analysis.

* every algorithm declared ``deadlock_free=True`` must verify on the 4x4
  corpus (fault-free strictly acyclic; faulty patterns may only show the
  documented ring-residual cycles, DESIGN.md §3.7);
* the algorithms declared ``deadlock_free=False`` must yield a concrete
  counterexample cycle in `find_dependency_cycle`'s triple format.
"""

import pytest

from repro.routing.base import Tier
from repro.routing.freeform import MinimalAdaptive
from repro.routing.registry import ALGORITHM_NAMES, make_algorithm
from repro.simulator.message import Message
from repro.verify.cdg import (
    RING_PREMISES,
    CdgChecker,
    CdgReport,
    Violation,
    analyze_ring_cycle,
    check_algorithm,
)
from repro.verify.corpus import CORPUS_NAMES, corpus_pattern, default_corpus

SAFE = tuple(n for n in ALGORITHM_NAMES if make_algorithm(n).deadlock_free)
UNSAFE = tuple(n for n in ALGORITHM_NAMES if not make_algorithm(n).deadlock_free)


def run(name: str, pattern: str, width: int = 4, vcs: int = 16):
    return check_algorithm(
        name, corpus_pattern(pattern, width), vcs, pattern_name=pattern
    )


class TestPositiveOracle:
    @pytest.mark.parametrize("name", SAFE)
    def test_fault_free_strictly_acyclic(self, name):
        report = run(name, "fault-free")
        assert report.status == "ok", (report.cycle, report.violations)

    @pytest.mark.parametrize("name", SAFE)
    @pytest.mark.parametrize("pattern", [p for p in CORPUS_NAMES if p != "fault-free"])
    def test_faulty_patterns_at_worst_ring_residual(self, name, pattern):
        report = run(name, pattern)
        assert report.status in ("ok", "ring-residual", "ring-proved"), (
            report.cycle,
            report.violations,
        )
        if report.status in ("ring-residual", "ring-proved"):
            # the waiver applies only to cycles through a shared ring VC
            assert any(vc in report.ring_vcs for (_, _, vc) in report.cycle)
            # every waived cycle carries its premise-by-premise analysis
            assert report.ring_analysis is not None
            if report.status == "ring-residual":
                assert report.ring_analysis.failed, (
                    "a residual cycle must name the failed premise(s)"
                )
            else:
                assert report.ring_analysis.discharged


class TestNegativeOracle:
    @pytest.mark.parametrize("name", UNSAFE)
    def test_counterexample_cycle_found(self, name):
        report = run(name, "fault-free")
        assert report.cycle, f"{name} declared unsafe but no cycle found"

    def test_fully_adaptive_cycle_is_concrete(self):
        """Triples match find_dependency_cycle's (node, dir, vc) format
        and consecutive channels are physically adjacent."""
        report = run("fully-adaptive", "fault-free")
        mesh = corpus_pattern("fault-free").mesh
        cycle = report.cycle
        assert len(cycle) >= 2
        for i, (node, direction, vc) in enumerate(cycle):
            assert 0 <= node < mesh.n_nodes
            assert 0 <= direction < 4
            assert 0 <= vc < report.total_vcs
            # the dependency's tail sits where this channel delivers
            nxt_node = mesh.neighbor(node, direction)
            assert nxt_node >= 0
            assert cycle[(i + 1) % len(cycle)][0] == nxt_node


class TestRegressions:
    """Defects the checker originally surfaced must stay fixed."""

    def test_duato_nbc_fault_free_acyclic(self):
        # Bonus cards + class-I hops used to re-enter the escape classes
        # at an unchanged class (same-class cycle); DuatoNbc now advances
        # the class floor on adaptive hops out of label-1 nodes.
        assert run("duato-nbc", "fault-free").status == "ok"

    @pytest.mark.parametrize("name", ["ecube", "duato"])
    def test_dimension_order_never_turns_around_faults(self, name):
        # Masked escape hops used to take Y-before-X around an interior
        # fault region, closing a pure (non-ring) escape cycle; both now
        # detour on the B-C ring instead.
        report = run(name, "center-block")
        assert report.status in ("ok", "ring-residual")

    @pytest.mark.parametrize("pattern", ["center-block", "multi-ring"])
    def test_west_first_pure_cycle_stays_fixed(self, pattern):
        # West-first's fault-blocked wait (a west offset whose only legal
        # hop is faulty) used to close a *pure* escape cycle that hid
        # behind whichever ring-traversing cycle the DFS met first; the
        # fix sends the blocked hop onto the B-C ring, and the pure-first
        # search keeps any regression visible as status "cycle".
        report = run("west-first", pattern)
        assert report.status in ("ok", "ring-residual", "ring-proved"), (
            report.cycle
        )


#: The budget's shared B-C ring VCs at 16 total VCs, class order
#: WE, EW, NS, SN (the last four indices).
RING_VCS = (12, 13, 14, 15)


def _chan(mesh, a: int, b: int, vc: int):
    """The concrete channel for the mesh hop ``a -> b`` on *vc*."""
    for d in range(4):
        if mesh.neighbor(a, d) == b:
            return (a, d, vc)
    raise AssertionError(f"nodes {a} and {b} are not mesh-adjacent")


def _ring_wrap(pattern, vc: int, cw: bool):
    """A full wrap of the pattern's first f-ring on one ring VC."""
    ring = pattern.rings[0]
    start = min(nd for nd in range(pattern.mesh.n_nodes) if nd in ring)
    chans, cur = [], start
    while True:
        nxt = ring.next_node(cur, cw)
        chans.append(_chan(pattern.mesh, cur, nxt, vc))
        cur = nxt
        if cur == start:
            return chans


class TestRingDischarge:
    """`analyze_ring_cycle`: the §3.7 bounded-ring-occupancy argument."""

    def test_full_single_class_wrap_is_discharged(self):
        # NS messages traverse rings clockwise; a full clockwise wrap on
        # the NS ring VC satisfies every premise and is unreachable.
        pattern = corpus_pattern("center-block")
        wrap = _ring_wrap(pattern, vc=RING_VCS[2], cw=True)
        analysis = analyze_ring_cycle(
            wrap, ring_vcs=RING_VCS, faults=pattern
        )
        assert analysis.discharged
        assert analysis.failed == ()
        assert tuple(p.name for p in analysis.premises) == RING_PREMISES

    def test_wrong_orientation_wrap_is_not_discharged(self):
        # The same wrap against the class's legal orientation fails
        # exactly the oriented-advance premise.
        pattern = corpus_pattern("center-block")
        wrap = _ring_wrap(pattern, vc=RING_VCS[2], cw=False)
        analysis = analyze_ring_cycle(
            wrap, ring_vcs=RING_VCS, faults=pattern
        )
        assert not analysis.discharged
        assert analysis.failed == ("oriented-advance",)

    def test_open_chain_wrap_is_not_discharged(self):
        # corner-block's f-chain is open: the wrap argument's closed-ring
        # premise fails even for an otherwise well-formed traversal.
        pattern = corpus_pattern("corner-block")
        ring = pattern.rings[0]
        assert not ring.closed
        mesh = pattern.mesh
        nodes = [nd for nd in range(mesh.n_nodes) if nd in ring]
        cur = nodes[0]
        chans = []
        while True:
            nxt = ring.next_node(cur, True)
            if nxt is None or nxt < 0 or nxt == nodes[0]:
                break
            chans.append(_chan(mesh, cur, nxt, RING_VCS[2]))
            cur = nxt
        analysis = analyze_ring_cycle(
            chans, ring_vcs=RING_VCS, faults=pattern
        )
        assert "closed-ring" in analysis.failed

    def test_seventeen_channel_cross_layer_fixture(self):
        """The empirical 17-channel deadlock (DESIGN.md §3.7) stays the
        regression fixture: the analysis must name the cross-layer
        coupling rather than discharge it.

        Shape as observed by the dynamic oracle under drain-recovery:
        message A's tail still holds NS ring channels while its header
        has resumed class channels; B bridges on class VCs; C's tail
        holds SN ring channels — the waits between segments are indirect
        (across message bodies), which is exactly what defeats the
        single-class wrap argument.
        """
        pattern = corpus_pattern("center-block")
        mesh = pattern.mesh
        ns, sn = RING_VCS[2], RING_VCS[3]
        cycle = []
        # A tail: five clockwise NS ring channels 0->4->8->9->10->6.
        for a, b in ((0, 4), (4, 8), (8, 9), (9, 10), (10, 6)):
            cycle.append(_chan(mesh, a, b, ns))
        # A header, resumed on class channels off the ring.
        for a, b, vc in ((6, 7, 0), (7, 11, 0), (11, 15, 0)):
            cycle.append(_chan(mesh, a, b, vc))
        # B: class channels along the far edge.
        for a, b in ((15, 14), (14, 13), (13, 12), (12, 8)):
            cycle.append(_chan(mesh, a, b, 1))
        # C tail: counter-clockwise SN ring channels 10->9->8->4->0.
        for a, b in ((10, 9), (9, 8), (8, 4), (4, 0)):
            cycle.append(_chan(mesh, a, b, sn))
        # The closing coupling edge back into A's tail segment.
        cycle.append(_chan(mesh, 3, 2, 2))
        assert len(cycle) == 17

        analysis = analyze_ring_cycle(
            cycle, ring_vcs=RING_VCS, faults=pattern
        )
        assert not analysis.discharged
        failed = set(analysis.failed)
        # the cross-layer coupling and the class mix are both named
        assert {"ring-only", "single-class"} <= failed
        ring_only = next(
            p for p in analysis.premises if p.name == "ring-only"
        )
        assert "cross-layer coupling" in ring_only.detail

class TestCheckerProof:
    """`_discharge_ring_sccs`: the SCC-level all-cycles-are-wraps proof."""

    def _checker(self):
        return CdgChecker(
            make_algorithm("ecube"), corpus_pattern("center-block"), 16,
            pattern_name="center-block",
        )

    def _report(self, checker):
        return CdgReport(
            algorithm="ecube", declared_deadlock_free=True,
            pattern="center-block", width=4, height=4, total_vcs=16,
            escape_vcs=checker._escape_vcs, ring_vcs=RING_VCS,
        )

    def _wrap_edges(self, checker):
        cid = checker._vc_class[RING_VCS[2]]
        wrap = _ring_wrap(checker.faults, RING_VCS[2], cw=True)
        chans = [(n, d, cid) for n, d, _ in wrap]
        return {
            chans[i]: {chans[(i + 1) % len(chans)]}
            for i in range(len(chans))
        }

    def test_pure_wrap_graph_is_ring_proved(self):
        checker = self._checker()
        report = checker._finish(
            self._report(checker), self._wrap_edges(checker), {}
        )
        assert report.status == "ring-proved"
        assert report.ring_analysis is not None
        assert report.ring_analysis.discharged

    def test_chorded_wrap_graph_stays_residual(self):
        # One non-ring chord through the SCC breaks the proof: the graph
        # now contains cycles that are not full single-class wraps.
        checker = self._checker()
        edges = self._wrap_edges(checker)
        a = next(iter(edges))
        succ = next(iter(edges[a]))
        chord = (a[0], a[1], checker._vc_class[0])
        edges[a].add(chord)
        edges[chord] = {succ}
        report = checker._finish(self._report(checker), edges, {})
        assert report.status == "ring-residual"
        assert not report.ring_proved


class _BadTierShape(MinimalAdaptive):
    name = "bad-tier-shape"
    deadlock_free = False

    def tiers_for(self, msg: Message, node: int, dirs: tuple[int, ...]) -> list[Tier]:
        return [[(dirs[0], list(self.budget.adaptive_vcs))]]  # list, not tuple


class TestInvariantViolations:
    def test_tier_shape_violation_reported(self):
        checker = CdgChecker(
            _BadTierShape(), corpus_pattern("fault-free"), 16,
            pattern_name="fault-free",
        )
        report = checker.run()
        assert any(v.kind == "tier-shape" for v in report.violations)
        assert report.status == "violation"


class TestStateOverflow:
    def test_overflow_is_unknown_and_never_passes(self):
        """An exploration cut at ``max_states`` has seen a partial graph:
        its case is undecided, neither a pass nor a routing violation."""
        report = CdgChecker(
            make_algorithm("phop"), corpus_pattern("center-block"), 16,
            pattern_name="center-block", max_states=50,
        ).run()
        assert [v.kind for v in report.violations] == ["state-overflow"]
        assert report.status == "unknown"
        assert not report.passed

    def test_overflow_beside_another_violation_is_a_violation(self):
        report = CdgReport("x", True, "p", 4, 4, 16)
        for kind in ("state-overflow", "tier-shape"):
            report.violations.append(_violation(kind))
        assert report.status == "violation"

    def test_overflow_beside_a_pure_cycle_is_a_cycle(self):
        report = CdgReport("x", True, "p", 4, 4, 16, ring_vcs=(12, 13, 14, 15))
        report.violations.append(_violation("state-overflow"))
        report.cycle = [(0, 0, 1), (1, 0, 1)]
        assert report.status == "cycle"
        report.cycle = [(0, 0, 12), (1, 0, 12)]  # a ring cycle: undecided
        assert report.status == "unknown"

    def test_passed_is_the_accepted_statuses(self):
        report = CdgReport("x", True, "p", 4, 4, 16)
        assert report.status == "ok" and report.passed


def _violation(kind: str) -> Violation:
    return Violation(kind, 0, 0, 1, "test")


class TestReportShape:
    def test_payload_keys(self):
        payload = run("ecube", "fault-free").to_payload()
        for key in (
            "algorithm", "pattern", "mesh", "states", "channels", "edges",
            "escape_vcs", "ring_vcs", "ok", "status", "cycle", "violations",
        ):
            assert key in payload

    def test_corpus_has_all_structural_cases(self):
        names = [n for n, _ in default_corpus(4)]
        assert names == list(CORPUS_NAMES)
        # closed interior ring, open corner chain, two coexisting rings
        assert len(corpus_pattern("center-block").rings) == 1
        assert not corpus_pattern("corner-block").rings[0].closed
        assert len(corpus_pattern("multi-ring").rings) == 2

    def test_checker_is_fast_enough_for_ci(self):
        # acceptance: the full 13-algorithm corpus finishes in <60s; a
        # single algorithm must therefore stay comfortably under 5s.
        report = run("phop", "center-block")
        assert report.elapsed < 5.0
