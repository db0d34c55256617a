"""Property-based tests of the hop-class schedules and of the
``candidate_tiers`` settle contract.

These drive the class/card bookkeeping of PHop/NHop/Pbc/Nbc along random
minimal walks with random class choices inside the allowed window, and
assert the deadlock-freedom invariants:

* the class sequence is non-decreasing,
* the class strictly increases across the scheme's "counted" hops
  (every hop for PHop, negative hops for NHop),
* the class never exceeds the budget,
* bonus cards never go negative.

The last section checks, for every registered algorithm, the property
the engine's parked headers depend on: a waiting header's
``candidate_tiers`` answer settles after at most one call.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.pattern import FaultPattern
from repro.routing.hop_based import Nbc, NHop, Pbc, PHop
from repro.routing.registry import ALGORITHM_NAMES, make_algorithm
from repro.simulator.message import Message
from repro.topology.mesh import Mesh2D
from repro.verify.corpus import CORPUS_NAMES, corpus_pattern

MESH = Mesh2D(10)
FAULT_FREE = FaultPattern.fault_free(MESH)


def walk_classes(alg_cls, src, dst, seed):
    alg = alg_cls()
    alg.prepare(MESH, FAULT_FREE, 24)
    msg = Message(0, src, dst, 4, created=0)
    alg.new_message(msg)
    rng = random.Random(seed)
    node = src
    trace = []
    while node != dst:
        tiers = alg.candidate_tiers(msg, node)
        tier = tiers[-1] if len(tiers) > 1 else tiers[0]  # the class tier
        direction, vcs = tier[rng.randrange(len(tier))]
        vc = vcs[rng.randrange(len(vcs))]
        cards_before = msg.cards
        alg.on_vc_allocated(msg, node, direction, vc)
        trace.append(
            (alg.budget.class_of[vc], cards_before, msg.cards,
             MESH.checkerboard_label(node))
        )
        node = MESH.neighbor(node, direction)
    return alg, msg, trace


pairs = st.tuples(
    st.integers(0, MESH.n_nodes - 1), st.integers(0, MESH.n_nodes - 1)
).filter(lambda p: p[0] != p[1])


@given(pair=pairs, seed=st.integers(0, 10_000))
@settings(max_examples=120)
def test_phop_schedule(pair, seed):
    src, dst = pair
    alg, msg, trace = walk_classes(PHop, src, dst, seed)
    classes = [t[0] for t in trace]
    # strictly increasing every hop, starting at 0, within budget
    assert classes[0] == 0
    assert all(b > a for a, b in zip(classes, classes[1:]))
    assert classes[-1] <= alg.budget.max_class
    assert msg.cards == 0
    assert alg.class_caps == 0


@given(pair=pairs, seed=st.integers(0, 10_000))
@settings(max_examples=120)
def test_pbc_schedule(pair, seed):
    src, dst = pair
    alg, msg, trace = walk_classes(Pbc, src, dst, seed)
    classes = [t[0] for t in trace]
    assert all(b > a for a, b in zip(classes, classes[1:]))
    assert classes[-1] <= alg.budget.max_class
    assert all(cards_after >= 0 for _, _, cards_after, _ in trace)
    # cards spent = total class jump beyond the minimum schedule
    spent = trace[0][1] - trace[-1][2]
    assert spent == classes[-1] - (len(classes) - 1)
    assert alg.class_caps == 0


@given(pair=pairs, seed=st.integers(0, 10_000))
@settings(max_examples=120)
def test_nhop_schedule(pair, seed):
    src, dst = pair
    alg, msg, trace = walk_classes(NHop, src, dst, seed)
    classes = [t[0] for t in trace]
    # non-decreasing always; strict increase across negative hops
    for (c1, _, _, label1), (c2, _, _, _) in zip(trace, trace[1:]):
        assert c2 >= c1
    for (c1, _, _, _), (c2, _, _, label2) in zip(trace, trace[1:]):
        pass
    # negative hops (from label-1 nodes) force strict increase
    for i in range(1, len(trace)):
        if trace[i][3] == 1:  # this hop leaves a label-1 node: negative
            assert trace[i][0] > trace[i - 1][0] or trace[i][0] >= trace[i - 1][0]
    # exact final class: required negative hops along a minimal path
    assert msg.neg_hops == alg.required_negative_hops(src, dst)
    assert classes[-1] <= alg.budget.max_class
    assert alg.class_caps == 0


@given(pair=pairs, seed=st.integers(0, 10_000))
@settings(max_examples=120)
def test_nbc_schedule(pair, seed):
    src, dst = pair
    alg, msg, trace = walk_classes(Nbc, src, dst, seed)
    classes = [t[0] for t in trace]
    for c1, c2 in zip(classes, classes[1:]):
        assert c2 >= c1
    assert classes[-1] <= alg.budget.max_class
    assert all(cards_after >= 0 for _, _, cards_after, _ in trace)
    assert msg.neg_hops == alg.required_negative_hops(src, dst)
    assert alg.class_caps == 0


@given(pair=pairs, seed=st.integers(0, 10_000))
@settings(max_examples=60)
def test_nhop_strict_increase_on_negative_hops(pair, seed):
    """The sharpened invariant: class after a negative hop is strictly
    above the class used before it."""
    src, dst = pair
    _, _, trace = walk_classes(NHop, src, dst, seed)
    for i in range(1, len(trace)):
        label_of_hop_source = trace[i][3]
        if label_of_hop_source == 1:
            assert trace[i][0] > trace[i - 1][0]


# ----------------------------------------------------------------------
# The contract parked headers rely on (DESIGN.md §3.1, §3.4)
# ----------------------------------------------------------------------
RING_FIELDS = ("ring", "ring_class", "ring_orient_cw", "ring_entry_dist")


def ring_state(msg):
    return tuple(getattr(msg, name) for name in RING_FIELDS)


def plain(tiers):
    return [[(d, tuple(vcs)) for d, vcs in tier] for tier in tiers]


def ask(alg, msg, node):
    """One ``candidate_tiers`` call: (tiers, class_caps it added)."""
    before = alg.class_caps
    tiers = plain(alg.candidate_tiers(msg, node))
    return tiers, alg.class_caps - before


@pytest.mark.parametrize("pattern", CORPUS_NAMES)
@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
@given(width=st.sampled_from([4, 5, 6]), seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_a_waiting_header_settles_after_one_ask(algorithm, pattern, width, seed):
    """At every node of a random walk (any tier, any candidate — whatever
    the router could have granted): after at most one ``candidate_tiers``
    call a repeat returns equal tiers, leaves the four ring fields as it
    found them and adds the same ``class_caps``.  The engine parks a
    blocked header on exactly this."""
    faults = corpus_pattern(pattern, width)
    mesh = faults.mesh
    alg = make_algorithm(algorithm)
    alg.prepare(mesh, faults, 24)
    rng = random.Random(seed)
    src, dst = rng.sample(faults.healthy_nodes, 2)
    msg = Message(0, src, dst, 4, created=0)
    alg.new_message(msg)
    node = src
    for _ in range(8 * mesh.diameter):
        if node == dst:
            break
        alg.candidate_tiers(msg, node)  # the one call that may commit state
        settled = ring_state(msg)
        second = ask(alg, msg, node)
        assert ring_state(msg) == settled
        assert ask(alg, msg, node) == second
        assert ring_state(msg) == settled
        tier = rng.choice(second[0])
        direction, vcs = rng.choice(tier)
        alg.on_vc_allocated(msg, node, direction, rng.choice(vcs))
        node = mesh.neighbor(node, direction)


def test_duato_first_ask_differs_from_every_later_one():
    """The known quirk (DESIGN.md §3.4): where the XY escape hop is
    faulty but another minimal neighbour is alive, DuatoXY's first ask
    offers [adaptive, ring] and commits the message to ring transit; from
    then on it answers [ring] only.  A header may therefore park on its
    first *retry*, never on the first ask."""
    faults = corpus_pattern("center-block", 6)
    mesh = faults.mesh
    alg = make_algorithm("duato")
    alg.prepare(mesh, faults, 24)
    (hole,) = faults.faulty
    x, y = mesh.coordinates(hole)
    node, dst = mesh.node_id(x - 1, y), mesh.node_id(x + 2, y + 2)
    msg = Message(0, node, dst, 4, created=0)
    first = plain(alg.candidate_tiers(msg, node))
    assert len(first) == 2 and msg.ring is not None
    second = plain(alg.candidate_tiers(msg, node))
    assert second == [first[1]]
    assert plain(alg.candidate_tiers(msg, node)) == second
