"""A deliberately naive reference for the flit engine (ROADMAP item 1(a)).

It implements the router model of DESIGN.md §3.1 the plainest way that
still draws from the same two RNG streams in the same order: an eager
fabric of plain objects, ownership read from ``owner`` fields (no free
masks), port conflicts in per-cycle sets (no stamps), busy sets as lists
in insertion order, **every waiting header asked every cycle** and
**every pending node visited every cycle** — no parking, no sleeping, no
observers.  What happens is appended to :attr:`ReferenceStepper.events`;
``tests/test_reference_stepper.py`` compares that list, and both RNG end
states, with the production engine's.

Not covered (the production-only paths keep their own tests): the
``"raise"`` watchdog policy (it needs the wait-for-graph oracle),
``cycles_mode="auto"`` and the statistics accounting.
"""

from __future__ import annotations

import random

import numpy as np

from repro.faults.pattern import FaultPattern
from repro.simulator.message import BODY, HEAD, TAIL, Message
from repro.topology.directions import LOCAL, OPPOSITE
from repro.topology.mesh import Mesh2D
from repro.traffic.patterns import UniformTraffic
from repro.traffic.process import ExponentialArrivals

WATCHDOG_INTERVAL = 128


class _In:
    def __init__(self, node, port, vc):
        self.node, self.port, self.vc = node, port, vc
        self.buffer, self.msg, self.out, self.up = [], None, None, None
        self.blocked_since = -1


class _Out:
    def __init__(self, node, port, vc, credits):
        self.node, self.port, self.vc, self.credits = node, port, vc, credits
        self.owner, self.down = None, None


class _Stream:
    def __init__(self, invc, msg):
        self.invc, self.msg, self.sent = invc, msg, 0


class ReferenceStepper:
    def __init__(self, config, algorithm, faults=None):
        assert config.on_deadlock in ("drain", "count")
        assert config.cycles_mode == "fixed"
        self.cfg, self.alg = config, algorithm
        self.mesh = mesh = Mesh2D(config.width, config.height)
        self.faults = faults or FaultPattern.fault_free(mesh)
        algorithm.prepare(mesh, self.faults, config.vcs_per_channel)
        self.pattern = UniformTraffic()
        self.pattern.prepare(mesh, self.faults)
        self.rng = random.Random(config.seed)
        self.perm_rng = np.random.default_rng(config.seed ^ 0x5EED)
        self.arrivals = ExponentialArrivals(
            self.faults.healthy_nodes, config.injection_rate, self.rng
        )
        self.timeout = config.deadlock_timeout or max(
            1000, 25 * config.message_length
        )
        self.hop_cap = config.max_hops_factor * mesh.diameter
        slots = [
            (n, p, v) for n in mesh.nodes() for p in range(5)
            for v in range(config.vcs_per_channel)
        ]
        self.ins = {s: _In(*s) for s in slots}
        self.outs = {s: _Out(*s, config.buffer_depth) for s in slots}
        for (n, p, v), out in self.outs.items():
            if p != LOCAL and mesh.neighbor(n, p) >= 0:
                out.down = self.ins[mesh.neighbor(n, p), OPPOSITE[p], v]
                out.down.up = out
        self.queues = [[] for _ in mesh.nodes()]
        self.streams = [[] for _ in mesh.nodes()]
        self.pending, self.waiting, self.active = [], [], []
        self.events, self.next_id, self.cycle = [], 0, 0

    def run(self):
        for cycle in range(self.cfg.cycles):
            self.cycle = cycle
            self.generate(cycle)
            self.inject(cycle)
            self.route(cycle)
            self.switch(cycle)
            if cycle % WATCHDOG_INTERVAL == 0:
                self.watchdog(cycle)
        return self.events

    def shuffled(self, items):
        if len(items) > 1:
            order = self.perm_rng.permutation(len(items)).tolist()
            items = [items[i] for i in order]
        return items

    def generate(self, cycle):
        for src in self.arrivals.due(cycle):
            dst = self.pattern.destination(src, self.rng)
            msg = Message(self.next_id, src, dst, self.cfg.message_length, cycle)
            self.next_id += 1
            self.alg.new_message(msg)
            self.queues[src].append(msg)
            if src not in self.pending:
                self.pending.append(src)

    def inject(self, cycle):
        cfg = self.cfg
        for node in list(self.pending):
            queue, streams = self.queues[node], self.streams[node]
            for v in range(cfg.injection_vcs):
                invc = self.ins[node, LOCAL, v]
                if (queue and invc.msg is None and not invc.buffer
                        and all(s.invc is not invc for s in streams)):
                    streams.append(_Stream(invc, queue.pop(0)))
            ready = [s for s in streams if len(s.invc.buffer) < cfg.buffer_depth]
            if ready:
                s = ready[self.rng.randrange(len(ready))] if len(ready) > 1 else ready[0]
                s.sent += 1
                if s.sent == s.msg.length:
                    kind = TAIL
                    streams.remove(s)
                else:
                    kind = HEAD if s.sent == 1 else BODY
                self.arrive(s.invc, (s.msg, kind), cycle)
            if not queue and not streams:
                self.pending.remove(node)

    def arrive(self, invc, flit, cycle):
        invc.buffer.append(flit)
        if invc.msg is None:
            invc.msg = flit[0]
            invc.blocked_since = cycle
            self.waiting.append(invc)

    def route(self, cycle):
        for invc in self.shuffled(list(self.waiting)):
            if invc not in self.waiting:  # drained meanwhile
                continue
            msg, node = invc.msg, invc.node
            if msg.hops >= self.hop_cap:
                self.drain(msg, True)
                continue
            if node == msg.dst:
                tiers = [[(LOCAL, self.alg.budget.ejection_vcs)]]
            else:
                tiers = self.alg.candidate_tiers(msg, node)
            for tier in tiers:
                free = [
                    self.outs[node, d, v] for d, vcs in tier for v in vcs
                    if self.outs[node, d, v].owner is None
                ]
                if free:
                    break
            else:
                self.events.append(("blocked", cycle, msg.id, node))
                continue
            out = free[self.rng.randrange(len(free))] if len(free) > 1 else free[0]
            out.owner, invc.out, invc.blocked_since = invc, out, -1
            self.waiting.remove(invc)
            self.active.append(invc)
            self.events.append(("granted", cycle, msg.id, node, out.port, out.vc))
            if out.port != LOCAL:
                self.alg.on_vc_allocated(msg, node, out.port, out.vc)

    def switch(self, cycle):
        ready = [
            i for i in self.active
            if i.buffer and (i.out.port == LOCAL or i.out.credits > 0)
        ]
        ins_used, outs_used, arrivals = set(), set(), []
        for invc in self.shuffled(ready):
            out = invc.out
            if (invc.node, invc.port) in ins_used or (out.node, out.port) in outs_used:
                continue
            ins_used.add((invc.node, invc.port))
            outs_used.add((out.node, out.port))
            msg, kind = flit = invc.buffer.pop(0)
            if invc.up is not None:
                invc.up.credits += 1
            ejected = out.port == LOCAL
            self.events.append(("flit_moved", cycle, msg.id, kind, invc.node, ejected))
            if not ejected:
                out.credits -= 1
                arrivals.append((out.down, flit))
            if kind == TAIL:
                if ejected:
                    self.events.append(("delivered", cycle, msg.id))
                out.owner = None
                self.retire(invc, cycle)
        for invc, flit in arrivals:
            self.arrive(invc, flit, cycle)

    def retire(self, invc, cycle):
        invc.out = None
        if invc in self.active:
            self.active.remove(invc)
        invc.msg = None
        if invc.buffer:
            invc.msg = invc.buffer[0][0]
            invc.blocked_since = cycle
            self.waiting.append(invc)

    def watchdog(self, cycle):
        stuck = [
            i for i in self.waiting
            if i.blocked_since >= 0 and cycle - i.blocked_since > self.timeout
        ]
        for invc in stuck:
            if invc not in self.waiting:
                continue
            if self.cfg.on_deadlock == "count":
                invc.blocked_since = cycle
            else:
                self.drain(invc.msg, False)

    def drain(self, msg, livelock):
        self.events.append(("dropped", self.cycle, msg.id, livelock))
        streams = self.streams[msg.src]
        streams[:] = [s for s in streams if s.msg is not msg]
        for invc in [*self.active, *self.waiting]:
            kept = [f for f in invc.buffer if f[0] is not msg]
            if invc.up is not None:
                invc.up.credits += len(invc.buffer) - len(kept)
            invc.buffer = kept
            if invc.msg is msg:
                if invc.out is not None:
                    invc.out.owner = None
                if invc in self.waiting:
                    self.waiting.remove(invc)
                self.retire(invc, self.cycle)
