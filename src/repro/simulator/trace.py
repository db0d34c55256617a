"""Simulation tracing: a cycle-stamped event log.

Attach a :class:`Tracer` to a :class:`~repro.simulator.engine.Simulation`
(``sim.attach(Tracer(...))``) to record routing decisions, flit
traversals, deliveries and recoveries.  A tracer is an ordinary engine
observer: it subscribes to the engine events below and turns each into
one small tuple ``(cycle, kind, msg_id, node, detail)``:

========= ============== ==========================================
kind      engine event   meaning
========= ============== ==========================================
``inject``   ``injected``   head flit entered the network at ``node``
``alloc``    ``granted``    header granted an output VC (detail: ``(port, vc)``)
``move``     ``flit_moved`` a flit crossed the crossbar at ``node`` (detail: kind)
``deliver``  ``delivered``  tail ejected at the destination
``drain``    ``dropped``    message removed by deadlock/livelock recovery
========= ============== ==========================================
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Callable

#: Trace kind -> the engine event that produces it.
_EVENT_OF_KIND = {
    "inject": "injected",
    "alloc": "granted",
    "move": "flit_moved",
    "deliver": "delivered",
    "drain": "dropped",
}


class Tracer:
    """Bounded in-memory event recorder with optional filtering.

    Parameters
    ----------
    capacity:
        Maximum retained events (oldest dropped first).
    message_ids:
        When given, record only events of these message ids.
    kinds:
        When given, record (and subscribe to the engine events of)
        only these kinds: a lifecycle-only trace costs nothing per flit.
    sample:
        Record only messages whose id is divisible by *sample* (default
        1 = every message).  Message ids are assigned deterministically
        from the run seed, so sampled traces are exactly reproducible,
        and a full-scale run's trace stays bounded by ``1/sample``.
    sink:
        Optional callable invoked with every recorded event (e.g.
        ``print`` for live debugging).
    """

    # Event slots: attach() finds only the subscriptions __init__ filled.
    __slots__ = ("events", "message_ids", "kinds", "sample", "sink", "counts",
                 *_EVENT_OF_KIND.values())

    def __init__(
        self,
        capacity: int = 100_000,
        message_ids: set[int] | None = None,
        kinds: set[str] | None = None,
        sample: int = 1,
        sink: Callable[[tuple], None] | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if sample < 1:
            raise ValueError("sample must be >= 1")
        self.events: deque[tuple] = deque(maxlen=capacity)
        self.message_ids = message_ids
        self.kinds = kinds
        self.sample = sample
        self.sink = sink
        self.counts: Counter[str] = Counter()
        for kind, event in _EVENT_OF_KIND.items():
            if kinds is None or kind in kinds:
                setattr(self, event, getattr(self, "_" + event))

    # -- engine events (see repro.simulator.engine.EVENTS) --------------
    def _injected(self, cycle, msg, node):
        self.record(cycle, "inject", msg.id, node)

    def _granted(self, cycle, msg, node, port, vc, role, on_ring):
        self.record(cycle, "alloc", msg.id, node, (port, vc))

    def _flit_moved(self, cycle, msg, kind, node, ejected):
        self.record(cycle, "move", msg.id, node, kind)

    def _delivered(self, cycle, msg):
        self.record(cycle, "deliver", msg.id, msg.dst)

    def _dropped(self, cycle, msg, livelock):
        cause = "livelock" if livelock else "deadlock"
        self.record(cycle, "drain", msg.id, msg.src, cause)

    # ------------------------------------------------------------------
    def record(self, cycle: int, kind: str, msg_id: int, node: int, detail=None):
        if self.sample > 1 and msg_id % self.sample:
            return
        if self.kinds is not None and kind not in self.kinds:
            return
        if self.message_ids is not None and msg_id not in self.message_ids:
            return
        event = (cycle, kind, msg_id, node, detail)
        self.events.append(event)
        self.counts[kind] += 1
        if self.sink is not None:
            self.sink(event)

    # ------------------------------------------------------------------
    def of_message(self, msg_id: int) -> list[tuple]:
        """All recorded events of one message, in order."""
        return [e for e in self.events if e[2] == msg_id]

    def path_of(self, msg_id: int) -> list[int]:
        """Node sequence a message's header was routed through."""
        return [e[3] for e in self.events if e[2] == msg_id and e[1] == "alloc"]

    def __len__(self) -> int:
        return len(self.events)

    def clear(self) -> None:
        self.events.clear()
        self.counts.clear()
