"""Virtual-channel budgets.

A :class:`VcBudget` assigns every VC index of a physical channel a role:

* **hop classes** — the ordered buffer classes of the hop-based schemes
  (PHop/NHop and their bonus-card/escape variants),
* **adaptive** — Duato's class I (or the whole pool for the unsupervised
  algorithms),
* **escape** — Duato's class II when the escape algorithm is XY,
* **ring** — the four Boppana–Chalasani fault-ring VCs (one per message
  class WE/EW/NS/SN), always the *last four* indices.

The same layout applies to every physical channel in the network; the
paper equalizes all algorithms at 24 VCs per channel for "almost equal
hardware cost".

Every VC tuple a budget hands out is a :class:`VcSet` — a plain tuple
(ordering, equality and iteration unchanged) that also carries its
bitmask, which is what the engine's free-mask VC allocation intersects
with a port's free bits (DESIGN.md §3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Role tags for :attr:`VcBudget.role_of`.
ROLE_CLASS = 0
ROLE_ADAPTIVE = 1
ROLE_ESCAPE = 2
ROLE_RING = 3

#: Printable role names, indexed by the ``ROLE_*`` tags (telemetry
#: counters and the Figure 3 class rollup key on these).
ROLE_NAMES = ("class", "adaptive", "escape", "ring")

N_RING_CLASSES = 4


class VcBudgetError(ValueError):
    """The requested VC count cannot accommodate the algorithm's needs."""


class VcSet(tuple):
    """An ordered tuple of VC indices plus ``mask``, the OR of their bits.

    Tier entries are ``(direction, VcSet)`` pairs: routing code and tests
    treat the set as the tuple it is, the engine reads ``mask``.  Tuple
    order is the allocation order (the k-th free VC is counted along the
    tuple, not along the bit positions).
    """

    mask: int

    def __new__(cls, vcs=()) -> VcSet:
        self = super().__new__(cls, vcs)
        mask = 0
        for v in self:
            mask |= 1 << v
        self.mask = mask
        return self


@dataclass(frozen=True)
class VcBudget:
    """Per-physical-channel virtual-channel layout.

    Attributes
    ----------
    total:
        VCs per physical channel.
    class_vcs:
        ``class_vcs[i]`` is the tuple of VC indices of hop class *i*
        (empty tuple-of-tuples for algorithms without hop classes).
    adaptive_vcs:
        Duato class I / unsupervised pool.
    escape_vcs:
        Duato class II when the escape algorithm is XY.
    ring_vcs:
        ``ring_vcs[c]`` is the VC index reserved for ring class *c*
        (``RING_WE`` .. ``RING_SN``); ``ring_sets[c]`` is the same VC as
        a one-element :class:`VcSet` for ring tiers.
    ejection_vcs:
        Every VC index: the candidate row of a header at its destination.
    group_vcs:
        Optional named VC groups (used by Boura's partition).
    """

    total: int
    class_vcs: tuple[VcSet, ...] = ()
    adaptive_vcs: VcSet = VcSet()
    escape_vcs: VcSet = VcSet()
    ring_vcs: tuple[int, ...] = ()
    group_vcs: dict[str, VcSet] = field(default_factory=dict)
    role_of: tuple[int, ...] = ()
    class_of: tuple[int, ...] = ()
    ring_sets: tuple[VcSet, ...] = ()
    ejection_vcs: VcSet = VcSet()
    _range_cache: dict[tuple[int, int], VcSet] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def n_classes(self) -> int:
        return len(self.class_vcs)

    @property
    def max_class(self) -> int:
        """Highest hop-class index (-1 if the budget has no classes)."""
        return len(self.class_vcs) - 1

    def class_range_vcs(self, lo: int, hi: int) -> VcSet:
        """All VC indices of classes ``lo..hi`` inclusive (cached)."""
        key = (lo, hi)
        cached = self._range_cache.get(key)
        if cached is None:
            vcs: list[int] = []
            for c in range(lo, hi + 1):
                vcs.extend(self.class_vcs[c])
            cached = self._range_cache[key] = VcSet(vcs)
        return cached

    def validate(self) -> None:
        """Check that the layout partitions ``0..total-1`` exactly."""
        seen: list[int] = []
        for vcs in self.class_vcs:
            seen.extend(vcs)
        seen.extend(self.adaptive_vcs)
        seen.extend(self.escape_vcs)
        seen.extend(self.ring_vcs)
        if sorted(seen) != list(range(self.total)):
            raise VcBudgetError(
                f"budget does not partition VCs 0..{self.total - 1}: {sorted(seen)}"
            )
        if len(self.ring_vcs) != N_RING_CLASSES:
            raise VcBudgetError("budget must reserve exactly 4 ring VCs")


def _finalize(
    total: int,
    class_vcs: list[list[int]],
    adaptive: list[int],
    escape: list[int],
    ring: list[int],
    groups: dict[str, tuple[int, ...]] | None = None,
) -> VcBudget:
    role = [ROLE_ADAPTIVE] * total
    cls = [-1] * total
    for i, vcs in enumerate(class_vcs):
        for v in vcs:
            role[v] = ROLE_CLASS
            cls[v] = i
    for v in escape:
        role[v] = ROLE_ESCAPE
    for v in ring:
        role[v] = ROLE_RING
    budget = VcBudget(
        total=total,
        class_vcs=tuple(VcSet(v) for v in class_vcs),
        adaptive_vcs=VcSet(adaptive),
        escape_vcs=VcSet(escape),
        ring_vcs=tuple(ring),
        group_vcs={name: VcSet(v) for name, v in (groups or {}).items()},
        role_of=tuple(role),
        class_of=tuple(cls),
        ring_sets=tuple(VcSet((v,)) for v in ring),
        ejection_vcs=VcSet(range(total)),
    )
    budget.validate()
    return budget


def _ring_tail(total: int) -> list[int]:
    """The four ring VCs: always the last four indices."""
    return [total - 4, total - 3, total - 2, total - 1]


def hop_class_budget(
    n_classes: int, total: int, *, adaptive: int = 0
) -> VcBudget:
    """Budget for a hop-based scheme with *n_classes* buffer classes.

    The four ring VCs take the top indices; *adaptive* VCs (Duato class I,
    at the low indices, matching the paper's "VC0 and VC1 belong to class
    I") come next; the remaining VCs are dealt round-robin to the hop
    classes starting from class 0, so any surplus widens the low classes
    first (the paper's 24th PHop VC).
    """
    if n_classes < 1:
        raise VcBudgetError("need at least one hop class")
    if adaptive < 0:
        raise VcBudgetError(
            f"{total} VCs cannot fit the hop classes plus ring VCs "
            f"(adaptive share would be {adaptive})"
        )
    need = n_classes + adaptive + N_RING_CLASSES
    if total < need:
        raise VcBudgetError(
            f"need at least {need} VCs ({n_classes} classes + {adaptive} "
            f"adaptive + 4 ring), got {total}"
        )
    ring = _ring_tail(total)
    adaptive_vcs = list(range(adaptive))
    class_vcs: list[list[int]] = [[] for _ in range(n_classes)]
    pool = list(range(adaptive, total - N_RING_CLASSES))
    for i, v in enumerate(pool):
        class_vcs[i % n_classes].append(v)
    return _finalize(total, class_vcs, adaptive_vcs, [], ring)


def adaptive_escape_budget(total: int, *, escape: int = 2) -> VcBudget:
    """Budget for Duato-with-XY-escape: class I adaptive + *escape* VCs."""
    need = escape + 1 + N_RING_CLASSES
    if total < need:
        raise VcBudgetError(
            f"need at least {need} VCs (1 adaptive + {escape} escape + 4 "
            f"ring), got {total}"
        )
    ring = _ring_tail(total)
    n_adaptive = total - escape - N_RING_CLASSES
    adaptive = list(range(n_adaptive))
    escape_vcs = list(range(n_adaptive, n_adaptive + escape))
    return _finalize(total, [], adaptive, escape_vcs, ring)


def free_pool_budget(total: int) -> VcBudget:
    """Budget for the unsupervised algorithms: one big adaptive pool."""
    if total < 1 + N_RING_CLASSES:
        raise VcBudgetError(f"need at least 5 VCs, got {total}")
    ring = _ring_tail(total)
    adaptive = list(range(total - N_RING_CLASSES))
    return _finalize(total, [], adaptive, [], ring)


def boura_budget(total: int) -> VcBudget:
    """Budget for Boura's 3-class partition (Y+, Y-, X-only).

    The non-ring VCs split as evenly as possible into the three groups
    (the X-only group absorbs the remainder last, mirroring the original
    scheme's bias toward the Y virtual networks).
    """
    if total < 3 + N_RING_CLASSES:
        raise VcBudgetError(f"need at least 7 VCs, got {total}")
    ring = _ring_tail(total)
    pool = total - N_RING_CLASSES
    base, rem = divmod(pool, 3)
    sizes = [base + (1 if i < rem else 0) for i in range(3)]
    start = 0
    groups = {}
    for name, size in zip(("y_plus", "y_minus", "x_only"), sizes):
        groups[name] = tuple(range(start, start + size))
        start += size
    adaptive = list(range(pool))
    return _finalize(total, [], adaptive, [], ring, groups)
