"""The cycle-driven flit-level simulation engine.

Router model (DESIGN.md §3.1): per cycle, every router performs

1. **routing + VC allocation** — header flits at buffer heads ask the
   routing algorithm for candidate output VCs (in tiers) and grab a free
   one, chosen uniformly at random among the free candidates; contention
   between headers is randomized by shuffling the service order,
2. **switch allocation** — allocated input VCs with a flit and a credit
   bid for the crossbar; at most one flit per input port and one per
   output port per cycle, winners picked in random order,
3. **traversal** — winning flits move to the downstream buffer (arriving
   next cycle), credits flow back, tail flits release channels.

Only busy virtual channels are visited and a virtual channel object
exists only once a message has been granted it, so both construction
and per-cycle cost scale with traffic, not with the VC budget.  Waiting
costs per event, not per waiter: a header that found every candidate
held is parked until its router releases a VC, and a stalled injection
port sleeps until its buffer pops (same draws, same published events).
All randomness is seeded from ``SimConfig.seed`` (a ``random.Random``
for choices plus a NumPy generator for the hot per-cycle service-order
permutations — ~3x faster than ``random.shuffle`` at saturation); busy
sets are insertion-ordered dicts, so runs are exactly reproducible.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.faults.pattern import FaultPattern
from repro.metrics.confidence import batch_means_ci
from repro.routing.budgets import ROLE_RING
from repro.simulator.config import SimConfig
from repro.simulator import deadlock
from repro.simulator.deadlock import DeadlockError
from repro.simulator.message import BODY, HEAD, TAIL, Message
from repro.topology.directions import LOCAL, OPPOSITE
from repro.topology.mesh import Mesh2D
from repro.traffic.patterns import TrafficPattern, UniformTraffic
from repro.traffic.process import ExponentialArrivals

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from collections.abc import Sequence

    from repro.routing.base import RoutingAlgorithm, Tier

_WATCHDOG_INTERVAL = 128

#: Minimum number of complete post-warmup windows before a
#: ``cycles_mode="auto"`` run may stop: the batch-means CI needs enough
#: batches for the t-quantile to be meaningful, and stopping on fewer
#: would make the early-stop decision noise-driven.
_MIN_AUTO_BATCHES = 10

#: Behavioral version of the simulation engine.  Bump this on ANY change
#: that can alter the statistics a run produces (router pipeline, RNG
#: draws, watchdog policy, metric accounting...).  :mod:`repro.store`
#: folds it into every run key, so cached results from an older engine
#: self-invalidate instead of silently serving stale numbers.
ENGINE_VERSION = 2

#: Phase indices the per-cycle loop reports in ``phase_lap``.
#: ``repro.obs.profile.PHASE_NAMES`` is ordered to match (pinned by a
#: unit test); keeping bare ints here means the engine never imports
#: the observability layer.
(_PH_GENERATE, _PH_INJECT, _PH_ROUTE, _PH_SWITCH,
 _PH_WATCHDOG, _PH_COLLECT_VC) = range(6)

#: Every event the engine publishes, with the arguments a subscriber's
#: method of that name receives (table in ``docs/observability.md``).
#: An observer is any object defining some of these methods, subscribed
#: with :meth:`Simulation.attach`.
EVENTS = (
    "generated",         # (cycle, msg)   cycle = msg.created
    "injected",          # (cycle, msg, node)   head flit entered the network
    "blocked",           # (cycle, msg, node)   header found no free output VC
    "granted",           # (cycle, msg, node, port, vc, role, on_ring)
    "flit_moved",        # (cycle, msg, kind, node, ejected)
    "delivered",         # (cycle, msg)   tail ejected at the destination
    "dropped",           # (cycle, msg, livelock)   recovery drain
    "vc_sampled",        # (cycle, busy_vcs)   post-warmup occupancy sweep
    "inflight_sampled",  # (cycle, flits)   watchdog tick
    "cycle_started",     # (cycle)
    "phase_lap",         # (phase)   a _PH_* phase just finished
    "cycle_ended",       # (cycle)
)


class InputVC:
    """One virtual channel on the input side of a router port."""

    __slots__ = ("node", "port", "vc", "key", "buffer", "msg", "out_ovc",
                 "up_ovc", "blocked_since", "checked", "tiers", "caps")

    def __init__(self, node: int, port: int, vc: int) -> None:
        self.node = node
        self.port = port
        self.vc = vc
        self.key = node * 5 + port  # physical-port index (switch stamps)
        self.buffer: deque = deque()
        self.msg: Message | None = None  # message whose flit is at the front
        self.out_ovc: OutputVC | None = None  # allocated output VC
        self.up_ovc: OutputVC | None = None  # upstream output VC feeding us
        self.blocked_since = -1
        # The waiting header's allocation state (DESIGN.md §3.1): the
        # cycle its candidates were last found all held (-1 = not asked
        # yet) and, once parked, the tiers every re-ask would return and
        # the class_caps increments each re-ask would make.
        self.checked = -1
        self.tiers: Sequence[Tier] | None = None
        self.caps = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InputVC(node={self.node}, port={self.port}, vc={self.vc})"


class OutputVC:
    """One virtual channel on the output side of a router port."""

    __slots__ = ("node", "port", "vc", "key", "bit", "credits", "owner",
                 "down_invc", "is_ejection")

    def __init__(self, node: int, port: int, vc: int, credits: int,
                 is_ejection: bool) -> None:
        self.node = node
        self.port = port
        self.vc = vc
        self.key = node * 5 + port  # physical-port index (stamps, free mask)
        self.bit = 1 << vc  # this VC's bit in the port's free mask
        # Ejection VCs never spend credits: theirs stay at the initial
        # value as an always-truthy sentinel for the switch ready filter.
        self.credits = credits
        self.owner: InputVC | None = None
        self.down_invc: InputVC | None = None
        self.is_ejection = is_ejection

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OutputVC(node={self.node}, port={self.port}, vc={self.vc})"


class _Stream:
    """A message being fed from a PE into an injection VC."""

    __slots__ = ("invc", "msg", "sent")

    def __init__(self, invc: InputVC, msg: Message) -> None:
        self.invc = invc
        self.msg = msg
        self.sent = 0


@dataclass
class SimulationResult:
    """Statistics from one run's measurement window (post-warmup).

    ``measured_cycles`` is ``cycles - warmup`` for fixed-length runs; a
    ``cycles_mode="auto"`` run that stopped early records the cycles it
    actually measured, so the rate metrics (:attr:`throughput`,
    :attr:`message_rate`) stay correctly normalized.
    """

    algorithm: str
    config: SimConfig
    n_faulty: int
    n_healthy: int
    measured_cycles: int
    generated: int = 0
    delivered: int = 0
    delivered_flits: int = 0
    dropped_deadlock: int = 0
    dropped_livelock: int = 0
    deadlock_suspects: int = 0
    latency_sum: int = 0
    latency_sq_sum: int = 0
    latency_max: int = 0
    network_latency_sum: int = 0
    hops_sum: int = 0
    class_caps: int = 0
    vc_busy: list[int] = field(default_factory=list)
    node_load: list[int] = field(default_factory=list)
    latency_samples: list[int] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def avg_latency(self) -> float:
        """Mean generation-to-delivery latency in cycles."""
        return self.latency_sum / self.delivered if self.delivered else float("nan")

    @property
    def avg_network_latency(self) -> float:
        """Mean injection-to-delivery latency in cycles."""
        return (
            self.network_latency_sum / self.delivered
            if self.delivered
            else float("nan")
        )

    @property
    def latency_std(self) -> float:
        if self.delivered < 2:
            return float("nan")
        mean = self.avg_latency
        var = self.latency_sq_sum / self.delivered - mean * mean
        return max(var, 0.0) ** 0.5

    @property
    def avg_hops(self) -> float:
        return self.hops_sum / self.delivered if self.delivered else float("nan")

    @property
    def throughput(self) -> float:
        """Normalized accepted throughput: flits/node/cycle in [0, 1].

        This is the paper's scale (peak values like 0.389 for NHop): the
        injection/ejection links move at most one flit per node per cycle,
        so 1.0 is the per-node capacity.
        """
        denom = self.n_healthy * self.measured_cycles
        return self.delivered_flits / denom if denom else float("nan")

    @property
    def message_rate(self) -> float:
        """Delivered messages per node per cycle."""
        denom = self.n_healthy * self.measured_cycles
        return self.delivered / denom if denom else float("nan")

    @property
    def offered_load(self) -> float:
        """Offered traffic in flits/node/cycle (rate x message length)."""
        return self.config.injection_rate * self.config.message_length


class Simulation:
    """One simulation run binding a config, algorithm and fault pattern.

    Instruments (tracer, telemetry, blame, profiler — see
    ``docs/observability.md``) subscribe through :meth:`attach`; the
    engine knows only the :data:`EVENTS` it publishes.  With nothing
    attached every publish site is one test of an empty tuple.
    """

    __slots__ = (
        "config", "mesh", "faults", "algorithm", "pattern",
        "rng", "_perm_rng", "cycle", "_msg_counter", "_hop_cap",
        "_timeout", "_arrivals", "_queues", "_streams",
        "_inj_pending", "_needs_routing", "_active",
        "total_generated", "total_delivered", "total_dropped",
        "_auto", "_win", "_win_lat_sum", "_win_lat_cnt",
        "result",
        "_invcs", "_ovcs", "_free", "_in_last", "_out_last", "_eject_tiers",
        "_released", "_inj_asleep",
    ) + tuple("_on_" + event for event in EVENTS)

    def __init__(
        self,
        config: SimConfig,
        algorithm: RoutingAlgorithm,
        faults: FaultPattern | None = None,
        pattern: TrafficPattern | None = None,
    ) -> None:
        self.config = config
        self.mesh = Mesh2D(config.width, config.height)
        self.faults = (
            faults if faults is not None else FaultPattern.fault_free(self.mesh)
        )
        if self.faults.mesh != self.mesh:
            raise ValueError("fault pattern mesh does not match config mesh")
        self.algorithm = algorithm
        algorithm.prepare(self.mesh, self.faults, config.vcs_per_channel)
        self.pattern = pattern if pattern is not None else UniformTraffic()
        self.pattern.prepare(self.mesh, self.faults)

        self.rng = random.Random(config.seed)
        # Dedicated fast generator for the per-cycle service-order
        # permutations (the hottest RNG call at saturation); seeded from
        # the run seed so runs stay exactly reproducible.  numpy loads
        # here, at the first Simulation of a process: importing this
        # module (every store / plan / query / serve verb does) stays
        # free of its ~0.13 s.
        import numpy as np

        self._perm_rng = np.random.default_rng(config.seed ^ 0x5EED)
        self.cycle = 0
        self._msg_counter = 0
        self._hop_cap = config.max_hops_factor * self.mesh.diameter
        self._timeout = (
            config.deadlock_timeout
            if config.deadlock_timeout is not None
            else max(1000, 25 * config.message_length)
        )

        # Lazy fabric (DESIGN.md §3.1): flat (node, port, vc) tables
        # whose entries materialise on first grant or accessor call.  An
        # absent VC is idle with full credits; _free holds one bit per
        # output VC of a port (set <=> owner is None); the stamp lists
        # record the last cycle each physical port carried a flit.
        V = config.vcs_per_channel
        ports = self.mesh.n_nodes * 5
        self._invcs: list[InputVC | None] = [None] * (ports * V)
        self._ovcs: list[OutputVC | None] = [None] * (ports * V)
        self._free = [(1 << V) - 1] * ports
        self._in_last = [-1] * ports
        self._out_last = [-1] * ports
        self._eject_tiers = (((LOCAL, algorithm.budget.ejection_vcs),),)
        # Wake-up state (DESIGN.md §3.1): the last cycle each router
        # released an output VC (parked headers re-test their masks only
        # after it moves), and the injection ports whose last visit could
        # move nothing (skipped until a flit pops, a message is queued or
        # a drain touches them).
        self._released = [-1] * self.mesh.n_nodes
        self._inj_asleep = [False] * self.mesh.n_nodes

        healthy = self.faults.healthy_nodes
        self._arrivals = ExponentialArrivals(
            healthy, config.injection_rate, self.rng
        )
        self._queues: list[deque[Message]] = [deque() for _ in self.mesh.nodes()]
        self._streams: list[list[_Stream]] = [[] for _ in self.mesh.nodes()]
        self._inj_pending: dict[int, None] = {}

        # Busy-set dicts (ordered -> reproducible iteration).
        self._needs_routing: dict[InputVC, None] = {}
        self._active: dict[InputVC, None] = {}

        # Conservation counters (whole run, not just measurement window).
        self.total_generated = 0
        self.total_delivered = 0
        self.total_dropped = 0

        # Early-stop state (cycles_mode="auto").  The per-window latency
        # accumulators are engine-internal — deliberately independent of
        # any observer — so the stop decision (and therefore the RNG
        # stream and every statistic) is identical whatever is attached.
        self._auto = config.cycles_mode == "auto"
        self._win = config.resolved_window
        self._win_lat_sum: list[int] = []
        self._win_lat_cnt: list[int] = []

        none: tuple = ()  # one subscriber tuple per EVENTS entry (attach)
        self._on_generated = self._on_injected = self._on_blocked = none
        self._on_granted = self._on_flit_moved = self._on_delivered = none
        self._on_dropped = self._on_vc_sampled = self._on_inflight_sampled = none
        self._on_cycle_started = self._on_phase_lap = self._on_cycle_ended = none

        self.result = SimulationResult(
            algorithm=algorithm.name,
            config=config,
            n_faulty=self.faults.n_faulty,
            n_healthy=len(healthy),
            measured_cycles=max(config.cycles - config.warmup, 0),
            vc_busy=[0] * config.vcs_per_channel,
            node_load=[0] * self.mesh.n_nodes,
        )

    # ------------------------------------------------------------------
    # Fabric access (materialises VCs on first touch)
    # ------------------------------------------------------------------
    def output_vc(self, node: int, port: int, vc: int) -> OutputVC:
        """The output VC at ``(node, port, vc)``, created on first use
        together with the downstream input VC it feeds."""
        V = self.config.vcs_per_channel
        idx = (node * 5 + port) * V + vc
        ovc = self._ovcs[idx]
        if ovc is None:
            ovc = self._ovcs[idx] = OutputVC(
                node, port, vc, self.config.buffer_depth, port == LOCAL
            )
            dst = self.mesh.neighbor(node, port) if port != LOCAL else -1
            if dst >= 0:
                invc = InputVC(dst, OPPOSITE[port], vc)
                self._invcs[invc.key * V + vc] = invc
                ovc.down_invc = invc
                invc.up_ovc = ovc
        return ovc

    def input_vc(self, node: int, port: int, vc: int) -> InputVC:
        """The input VC at ``(node, port, vc)``, created on first use
        (with its upstream output VC when the port faces a neighbor)."""
        idx = (node * 5 + port) * self.config.vcs_per_channel + vc
        invc = self._invcs[idx]
        if invc is None:
            up = self.mesh.neighbor(node, port) if port != LOCAL else -1
            if up >= 0:
                invc = self.output_vc(up, OPPOSITE[port], vc).down_invc
            else:
                invc = self._invcs[idx] = InputVC(node, port, vc)
        return invc

    def vc_owner(self, node: int, port: int, vc: int) -> InputVC | None:
        """The input VC holding output VC ``(node, port, vc)``, ``None``
        when it is free.  A read: an absent VC is idle and stays absent."""
        ovc = self._ovcs[(node * 5 + port) * self.config.vcs_per_channel + vc]
        return None if ovc is None else ovc.owner

    def iter_blocked_headers(self):
        """Input VCs whose header is awaiting an output VC."""
        return iter(self._needs_routing)

    def iter_active_vcs(self):
        """Input VCs with an allocated output VC."""
        return iter(self._active)

    # ------------------------------------------------------------------
    # Observers
    # ------------------------------------------------------------------
    def attach(self, observer) -> None:
        """Subscribe *observer* to every :data:`EVENTS` method it defines.

        Its optional ``bind(sim)`` runs first.  Each ``_on_<event>`` slot
        is the tuple of subscribed bound methods, in attach order, and
        the engine publishes by iterating it — a run pays only for the
        events someone listens to.  May be called mid-run (e.g. after an
        uninstrumented warmup).  Observers only receive: they draw no
        RNG and mutate no engine state, which keeps an attached run
        bit-identical to a detached one.
        """
        bind = getattr(observer, "bind", None)
        if bind is not None:
            bind(self)
        for event in EVENTS:
            publish = getattr(observer, event, None)
            if publish is not None:
                slot = "_on_" + event
                setattr(self, slot, getattr(self, slot) + (publish,))

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _cycle(self) -> None:
        """Advance one cycle: the body :meth:`run` and :meth:`step` share."""
        cfg = self.config
        cycle = self.cycle
        on_lap = self._on_phase_lap
        for publish in self._on_cycle_started:
            publish(cycle)
        # The router pipeline, in _PH_GENERATE.._PH_SWITCH order.
        for phase, advance in enumerate(
            (self._generate, self._inject, self._route, self._switch_and_traverse)
        ):
            advance(cycle)
            for publish in on_lap:
                publish(phase)
        if cycle % _WATCHDOG_INTERVAL == 0:
            self._watchdog(cycle)
            for publish in on_lap:
                publish(_PH_WATCHDOG)
        if cycle >= cfg.warmup and (cfg.collect_vc_stats or self._on_vc_sampled):
            self._collect_vc(cycle)
            for publish in on_lap:
                publish(_PH_COLLECT_VC)
        for publish in self._on_cycle_ended:
            publish(cycle)
        self.cycle = cycle + 1

    def run(self) -> SimulationResult:
        """Run the configured number of cycles and return the statistics.

        With ``cycles_mode="auto"`` the loop additionally checks, at
        every post-warmup window boundary, whether the batch-means CI
        on the per-window latency means has converged
        (:meth:`_ci_converged`); if so it stops early and records the
        cycles actually measured.  ``cfg.cycles`` remains the bound.
        """
        cfg = self.config
        auto = self._auto
        win = self._win
        for _ in range(cfg.cycles):
            self._cycle()
            if (
                auto
                and self.cycle % win == 0
                and self.cycle > cfg.warmup
                and self._ci_converged()
            ):
                self.result.measured_cycles = self.cycle - cfg.warmup
                break
        self.result.class_caps = self.algorithm.class_caps
        return self.result

    def step(self, cycles: int = 1) -> None:
        """Advance the simulation a fixed number of cycles (for tests).

        ``step`` never early-stops — ``cycles_mode="auto"`` only acts
        in :meth:`run`, so incremental test drivers see every cycle
        they ask for.
        """
        for _ in range(cycles):
            self._cycle()

    # ------------------------------------------------------------------
    # Phase 0: traffic generation
    # ------------------------------------------------------------------
    def submit_message(self, src: int, dst: int, cycle: int | None = None) -> Message:
        """Inject a hand-crafted message (examples and tests)."""
        if self.faults.faulty_mask[src] or self.faults.faulty_mask[dst]:
            raise ValueError("messages must travel between healthy nodes")
        msg = Message(
            self._msg_counter, src, dst, self.config.message_length,
            self.cycle if cycle is None else cycle,
        )
        self._msg_counter += 1
        self.algorithm.new_message(msg)
        self._queues[src].append(msg)
        self._inj_pending[src] = None
        self._inj_asleep[src] = False
        self.total_generated += 1
        for publish in self._on_generated:
            publish(msg.created, msg)
        if msg.created >= self.config.warmup:
            self.result.generated += 1
        return msg

    def _generate(self, cycle: int) -> None:
        for src in self._arrivals.due(cycle):
            dst = self.pattern.destination(src, self.rng)
            self.submit_message(src, dst, cycle)

    # ------------------------------------------------------------------
    # Phase 1: injection (PE -> router local port, 1 flit/cycle/node)
    # ------------------------------------------------------------------
    def _inject(self, cycle: int) -> None:
        if not self._inj_pending:
            return
        depth = self.config.buffer_depth
        inj_vcs = self.config.injection_vcs
        rng = self.rng
        on_injected = self._on_injected
        asleep = self._inj_asleep
        done_nodes = []
        for node in self._inj_pending:
            if asleep[node]:
                continue
            queue = self._queues[node]
            streams = self._streams[node]
            # Bind queued messages to free injection VCs.
            if queue and len(streams) < inj_vcs:
                used = {s.invc.vc for s in streams}
                for v in range(inj_vcs):
                    if not queue:
                        break
                    if v in used:
                        continue
                    invc = self.input_vc(node, LOCAL, v)
                    if invc.msg is None and not invc.buffer:
                        streams.append(_Stream(invc, queue.popleft()))
            # Move one flit across the injection link.
            if len(streams) == 1:  # fast path: the common single-port case
                s = streams[0] if len(streams[0].invc.buffer) < depth else None
            else:
                ready = [s for s in streams if len(s.invc.buffer) < depth]
                s = (
                    ready[rng.randrange(len(ready))]
                    if len(ready) > 1
                    else (ready[0] if ready else None)
                )
            if s is not None:
                msg = s.msg
                invc = s.invc
                if s.sent == 0:
                    msg.injected = cycle
                    for publish in on_injected:
                        publish(cycle, msg, node)
                s.sent += 1
                if s.sent == msg.length:  # (a single flit is head and tail)
                    invc.buffer.append((msg, TAIL))
                    streams.remove(s)
                else:
                    invc.buffer.append((msg, HEAD if s.sent == 1 else BODY))
                if invc.msg is None:
                    invc.msg = msg
                    invc.blocked_since = cycle
                    self._needs_routing[invc] = None
            elif queue or streams:
                # Nothing bindable and no stream with buffer room: every
                # later visit repeats this one until an injection VC here
                # pops a flit, a message is queued or a drain touches
                # the node — the three sites that clear the flag.
                asleep[node] = True
                continue
            if not queue and not streams:
                done_nodes.append(node)
        for node in done_nodes:
            del self._inj_pending[node]

    # ------------------------------------------------------------------
    # Phase 2: routing + VC allocation
    # ------------------------------------------------------------------
    def _route(self, cycle: int) -> None:
        needs = self._needs_routing
        if not needs:
            return
        items = list(needs)
        if len(items) > 1:
            order = self._perm_rng.permutation(len(items)).tolist()
            items = [items[i] for i in order]
        on_blocked = self._on_blocked
        on_granted = self._on_granted
        rng = self.rng
        alg = self.algorithm
        role_of = alg.budget.role_of
        free = self._free
        released = self._released
        eject = self._eject_tiers
        hop_cap = self._hop_cap
        V = self.config.vcs_per_channel
        for invc in items:
            if invc not in needs:  # drained meanwhile
                continue
            msg = invc.msg
            node = invc.node
            tiers = invc.tiers
            if tiers is not None:
                # Parked: a re-ask would return these tiers and add
                # these class_caps, and no candidate can be free unless
                # this router released a VC since the last test.
                if invc.caps:
                    alg.class_caps += invc.caps
                if released[node] < invc.checked:
                    for publish in on_blocked:
                        publish(cycle, msg, node)
                    continue
                settled = False
            elif msg.hops >= hop_cap:
                self._drain(msg, livelock=True)
                continue
            elif node == msg.dst:
                tiers = eject
                caps = 0
                settled = True
            elif invc.checked < 0:
                tiers = alg.candidate_tiers(msg, node)
                settled = False
            else:
                # A retry.  candidate_tiers reads nothing that changes
                # while a header waits except the ring state it writes
                # itself, so a call that leaves those four fields as it
                # found them is a fixed point: every later call repeats
                # it (tiers, class_caps delta and all) — park.  The
                # first ask may not be one (DuatoXY commits to the ring).
                ring = msg.ring
                ring_class = msg.ring_class
                orient = msg.ring_orient_cw
                entry = msg.ring_entry_dist
                caps = alg.class_caps
                tiers = alg.candidate_tiers(msg, node)
                caps = alg.class_caps - caps
                settled = (
                    msg.ring is ring
                    and msg.ring_class == ring_class
                    and msg.ring_orient_cw == orient
                    and msg.ring_entry_dist == entry
                )
            # A tier's free candidates are the set bits of (port free
            # mask & VcSet mask) over its entries; the winner is the k-th
            # of them in tier order, k from the same draw as if they had
            # been listed one by one (DESIGN.md §3.1).
            base = node * 5
            for tier in tiers:
                total = 0
                for direction, vcs in tier:
                    total += (free[base + direction] & vcs.mask).bit_count()
                if total:
                    break
            else:
                invc.checked = cycle
                if settled:
                    invc.tiers = tiers
                    invc.caps = caps
                for publish in on_blocked:
                    publish(cycle, msg, node)
                continue
            k = rng.randrange(total) if total > 1 else 0
            for direction, vcs in tier:
                avail = free[base + direction] & vcs.mask
                n = avail.bit_count()
                if k < n:
                    break
                k -= n
            if n == len(vcs):  # whole set free: the k-th is positional
                vc = vcs[k]
            else:
                for vc in vcs:
                    if avail >> vc & 1:
                        if k == 0:
                            break
                        k -= 1
            granted = self._ovcs[(base + direction) * V + vc]
            if granted is None:
                granted = self.output_vc(node, direction, vc)
            free[granted.key] &= ~granted.bit
            granted.owner = invc
            invc.out_ovc = granted
            invc.blocked_since = invc.checked = -1
            invc.tiers = None
            del needs[invc]
            self._active[invc] = None
            if on_granted:
                # Classified once (an ejection grant has no role), before
                # the algorithm updates msg.ring, so every subscriber
                # sees the same (role, on_ring) pair.
                role = None if direction == LOCAL else role_of[vc]
                on_ring = role == ROLE_RING and msg.ring is not None
                for publish in on_granted:
                    publish(cycle, msg, node, direction, vc, role, on_ring)
            if direction != LOCAL:
                alg.on_vc_allocated(msg, node, direction, vc)

    # ------------------------------------------------------------------
    # Phase 3: switch allocation + traversal
    # ------------------------------------------------------------------
    def _switch_and_traverse(self, cycle: int) -> None:
        if not self._active:
            return
        cfg = self.config
        measuring = cycle >= cfg.warmup
        node_stats = cfg.collect_node_stats and measuring
        # Ejection VCs keep their credit sentinel, so one test covers both.
        cands = [
            invc for invc in self._active
            if invc.buffer and invc.out_ovc.credits
        ]
        if len(cands) > 1:
            order = self._perm_rng.permutation(len(cands)).tolist()
            cands = [cands[i] for i in order]
        on_moved = self._on_flit_moved
        in_last = self._in_last
        out_last = self._out_last
        asleep = self._inj_asleep
        result = self.result
        node_load = result.node_load
        arrivals: list[tuple[InputVC, tuple]] = []
        for invc in cands:
            ovc = invc.out_ovc
            in_port = invc.key
            out_port = ovc.key
            # One flit per input port and per output port per cycle.
            if in_last[in_port] == cycle or out_last[out_port] == cycle:
                continue
            in_last[in_port] = out_last[out_port] = cycle
            flit = invc.buffer.popleft()
            if invc.up_ovc is not None:
                invc.up_ovc.credits += 1
            else:  # an injection VC made room: its port may move again
                asleep[invc.node] = False
            if node_stats:
                node_load[invc.node] += 1
            if on_moved:
                for publish in on_moved:
                    publish(cycle, flit[0], flit[1], invc.node, ovc.is_ejection)
            if ovc.is_ejection:
                if measuring:
                    result.delivered_flits += 1
                if flit[1] != TAIL:
                    continue
                self._deliver(flit[0], cycle)
            else:
                ovc.credits -= 1
                arrivals.append((ovc.down_invc, flit))
                if flit[1] != TAIL:
                    continue
            self._release(ovc, cycle)  # the tail left
            self._retire_front(invc, cycle)
        for invc, flit in arrivals:
            invc.buffer.append(flit)
            if invc.msg is None:
                invc.msg = flit[0]
                invc.blocked_since = cycle
                self._needs_routing[invc] = None

    def _deliver(self, msg: Message, cycle: int) -> None:
        """Account the delivery of *msg* (its tail was just ejected)."""
        msg.delivered = cycle
        self.total_delivered += 1
        latency = cycle - msg.created
        if self._auto:
            self._auto_observe(cycle, latency)
        for publish in self._on_delivered:
            publish(cycle, msg)
        if cycle >= self.config.warmup:
            result = self.result
            result.delivered += 1
            if self.config.collect_latency_samples:
                result.latency_samples.append(latency)
            result.latency_sum += latency
            result.latency_sq_sum += latency * latency
            if latency > result.latency_max:
                result.latency_max = latency
            result.network_latency_sum += cycle - msg.injected
            result.hops_sum += msg.hops

    def _release(self, ovc: OutputVC, cycle: int) -> None:
        """Free *ovc*: the one place an output VC loses its owner, so
        the stamp that wakes its router's parked headers is never
        forgotten."""
        ovc.owner = None
        self._free[ovc.key] |= ovc.bit
        self._released[ovc.node] = cycle

    def _retire_front(self, invc: InputVC, cycle: int) -> None:
        """The front message left *invc* (tail sent, or drained): promote
        the next buffered message to the routing queue, or go idle."""
        invc.out_ovc = None
        self._active.pop(invc, None)
        if invc.buffer:
            # In-order wormhole delivery: the next flit must be a header.
            invc.msg = invc.buffer[0][0]
            invc.blocked_since = cycle
            self._needs_routing[invc] = None
        else:
            invc.msg = None

    # ------------------------------------------------------------------
    # Early stopping (cycles_mode="auto")
    # ------------------------------------------------------------------
    def _auto_observe(self, cycle: int, latency: int) -> None:
        """Fold one delivered message into the per-window accumulators."""
        idx = cycle // self._win
        sums = self._win_lat_sum
        if idx >= len(sums):
            grow = idx + 1 - len(sums)
            sums.extend([0] * grow)
            self._win_lat_cnt.extend([0] * grow)
        sums[idx] += latency
        self._win_lat_cnt[idx] += 1

    def _ci_converged(self) -> bool:
        """True when the post-warmup latency batches have converged.

        Batches are the complete windows strictly after the warmup
        boundary; convergence means at least ``_MIN_AUTO_BATCHES`` of
        them, every batch non-empty, and a 95% batch-means CI half-width
        at or below ``ci_rel_tol`` of the batch-mean latency.
        """
        cfg = self.config
        win = self._win
        first = -(-cfg.warmup // win)  # ceil: first fully post-warmup window
        last = self.cycle // win  # exclusive; windows [first, last) complete
        if last - first < _MIN_AUTO_BATCHES:
            return False
        cnts = self._win_lat_cnt
        if len(cnts) < last:
            return False  # trailing windows delivered nothing at all
        sums = self._win_lat_sum
        means = []
        for i in range(first, last):
            if cnts[i] == 0:
                return False  # an empty batch: not in steady state
            means.append(sums[i] / cnts[i])
        mean, half_width = batch_means_ci(means)
        return mean > 0 and half_width <= cfg.ci_rel_tol * mean

    # ------------------------------------------------------------------
    # Watchdog: deadlock & livelock handling
    # ------------------------------------------------------------------
    def _watchdog(self, cycle: int) -> None:
        timeout = self._timeout
        action = self.config.on_deadlock
        for publish in self._on_inflight_sampled:
            publish(cycle, self.flits_in_network())
        stuck = [
            invc
            for invc in self._needs_routing
            if invc.blocked_since >= 0 and cycle - invc.blocked_since > timeout
        ]
        for invc in stuck:
            if invc not in self._needs_routing:
                continue
            if action == "raise":
                # Long waits at deep saturation are legitimate (a 100-flit
                # message holds a VC for hundreds of stretched cycles), so
                # the timeout alone is not proof: confirm with the exact
                # wait-for-graph analysis and raise only on a true
                # circular wait.  Plain starvation is counted and rearmed.
                found = deadlock.find_dependency_cycle(self)
                if found is not None:
                    msg = invc.msg
                    raise DeadlockError(
                        f"circular wait of {len(found)} VCs detected; first "
                        f"stuck header: message {msg.id} ({msg.src}->"
                        f"{msg.dst}) blocked at node {invc.node} port "
                        f"{invc.port} vc {invc.vc} since cycle "
                        f"{invc.blocked_since} (algorithm "
                        f"{self.algorithm.name!r}, cycle {cycle})",
                        cycle=cycle,
                        details=repr(found),
                    )
                self.result.deadlock_suspects += 1
                for other in stuck:
                    if other in self._needs_routing:
                        other.blocked_since = cycle  # rearm all
                break
            if action == "count":
                self.result.deadlock_suspects += 1
                invc.blocked_since = cycle  # rearm
            else:  # drain
                self._drain(invc.msg, livelock=False)

    def _drain(self, msg: Message, *, livelock: bool) -> None:
        """Remove every flit of *msg* from the network (recovery)."""
        msg.dropped = True
        self.total_dropped += 1
        for publish in self._on_dropped:
            publish(self.cycle, msg, livelock)
        if self.cycle >= self.config.warmup:
            if livelock:
                self.result.dropped_livelock += 1
            else:
                self.result.dropped_deadlock += 1
        # Stop the injection stream, if still feeding.
        streams = self._streams[msg.src]
        streams[:] = [s for s in streams if s.msg is not msg]
        self._inj_asleep[msg.src] = False
        # Sweep every busy input VC for this message's flits.
        for invc in (*self._active, *self._needs_routing):
            removed = sum(1 for f in invc.buffer if f[0] is msg)
            if removed:
                invc.buffer = deque(f for f in invc.buffer if f[0] is not msg)
                if invc.up_ovc is not None:
                    invc.up_ovc.credits += removed
            if invc.msg is msg:
                if invc.out_ovc is not None:
                    self._release(invc.out_ovc, self.cycle)
                self._needs_routing.pop(invc, None)
                invc.checked = -1  # a waiting header takes its state along
                invc.tiers = None
                self._retire_front(invc, self.cycle)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def _collect_vc(self, cycle: int) -> None:
        # One sweep feeds Figure 3's vc_busy and the vc_sampled
        # subscribers, so the two views agree by construction
        # (reconcile_vc_usage checks this).
        busy = [
            invc.vc
            for source in (self._needs_routing, self._active)
            for invc in source
            if invc.port != LOCAL
        ]
        if self.config.collect_vc_stats:
            vc_busy = self.result.vc_busy
            for vc in busy:
                vc_busy[vc] += 1
        for publish in self._on_vc_sampled:
            publish(cycle, busy)

    def check_invariants(self) -> None:
        """Verify internal consistency (used by the test suite).

        Checks credit accounting, ownership symmetry, busy-set
        membership and the lazy-fabric state: every busy VC is the
        materialised table entry, a port's free-mask bit is set exactly
        when that output VC has no owner (an absent VC is idle with full
        credits), and ejection VCs still hold their credit sentinel.
        The two wake-up states must be safe to skip: a parked header
        whose router released nothing since its last test has no free
        candidate, and a sleeping injection port has no stream with
        buffer room and nothing it could bind.
        Raises :class:`AssertionError` with a description on the first
        violation.
        """
        depth = self.config.buffer_depth
        V = self.config.vcs_per_channel
        for invc in self._needs_routing:
            tiers = invc.tiers
            if tiers is None or self._released[invc.node] >= invc.checked:
                continue
            base = invc.node * 5
            assert not any(
                self._free[base + direction] & vcs.mask
                for tier in tiers
                for direction, vcs in tier
            ), f"{invc!r} parked with a free candidate and no wake-up stamp"
        for node, asleep in enumerate(self._inj_asleep):
            if not asleep:
                continue
            assert node in self._inj_pending, f"node {node} asleep, not pending"
            streams = self._streams[node]
            assert all(len(s.invc.buffer) == depth for s in streams), (
                f"injection port {node} asleep with buffer room"
            )
            if self._queues[node] and len(streams) < self.config.injection_vcs:
                for v in range(self.config.injection_vcs):
                    invc = self._invcs[(node * 5 + LOCAL) * V + v]
                    assert invc is not None and (
                        invc.msg is not None or invc.buffer
                    ), (
                        f"injection port {node} asleep with VC {v} bindable"
                    )
        for invc in (*self._active, *self._needs_routing):
            assert self._invcs[invc.key * V + invc.vc] is invc, (
                f"{invc!r} is busy but not the materialised table entry"
            )
        for invc in self._invcs:
            if invc is None:
                continue
            if invc.msg is not None:
                in_routing = invc in self._needs_routing
                in_active = invc in self._active
                assert in_routing != in_active, (
                    f"{invc!r} busy but in routing={in_routing}, "
                    f"active={in_active}"
                )
                assert len(invc.buffer) <= depth, f"{invc!r} overflow"
                if in_active:
                    assert invc.out_ovc is not None
                    assert invc.out_ovc.owner is invc
            else:
                assert not invc.buffer, f"{invc!r} idle with flits"
                assert invc.out_ovc is None
            if invc not in self._needs_routing:
                assert invc.tiers is None and invc.checked < 0, (
                    f"{invc!r} holds allocation state but no waiting header"
                )
        for idx, ovc in enumerate(self._ovcs):
            port, vc = divmod(idx, V)
            is_free = bool(self._free[port] >> vc & 1)
            if ovc is None:
                assert is_free, f"absent output VC {idx} marked owned"
                continue
            assert is_free == (ovc.owner is None), (
                f"{ovc!r} free-mask bit {is_free} disagrees with its owner"
            )
            if ovc.owner is not None:
                assert ovc.owner.out_ovc is ovc, (
                    f"{ovc!r} owner does not point back"
                )
            if ovc.is_ejection:
                assert ovc.credits == depth, (
                    f"{ovc!r} ejection credit sentinel was spent"
                )
            elif ovc.down_invc is not None:
                expect = depth - len(ovc.down_invc.buffer)
                assert ovc.credits == expect, (
                    f"{ovc!r} credits {ovc.credits} != {expect}"
                )

    def flits_in_network(self) -> int:
        """Flits currently buffered anywhere (conservation checks)."""
        # A busy input VC is in exactly one of the two sets (invariant).
        return sum(len(invc.buffer) for invc in self._active) + sum(
            len(invc.buffer) for invc in self._needs_routing
        )

    def messages_pending(self) -> int:
        """Messages generated but not yet fully injected."""
        queued = sum(len(q) for q in self._queues)
        streaming = sum(len(s) for s in self._streams)
        return queued + streaming
