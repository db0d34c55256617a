"""Near-zero-overhead engine telemetry: counters, series, histograms.

The registry is the sanctioned runtime-observability mechanism for the
simulation engine (the project linter's REP006 forbids wall-clock calls
inside :mod:`repro.simulator`): every instrument is a **plain sum** of
the values it is given, and the engine gives counts and latencies in
cycles, never ``time.time()`` — so engine telemetry is exactly
reproducible and free of clock syscalls in the hot path.

Design rules:

* **Disabled = nothing runs.**  The engine knows no instrument names:
  :class:`EngineTelemetry` subscribes to its events
  (``Simulation.attach``); nothing attached, no instrument code runs.
* **Enabled = attribute bumps.**  :meth:`EngineTelemetry.bind` resolves
  the instruments once; event methods do ``counter.inc()`` — an int
  add, no dict lookup, no string formatting.
* **One registry, many runs.**  A registry may be attached to several
  simulations in sequence (e.g. one per algorithm in a figure sweep);
  counters then accumulate across runs.  Use a fresh registry for
  per-run numbers.
* **Distribution = snapshot + merge.**  Registries never cross process
  boundaries; pool workers attach a *fresh* registry each, ship its
  JSON-safe :meth:`~TelemetryRegistry.snapshot` back with their result,
  and the parent folds the snapshots into its own registry with
  :meth:`~TelemetryRegistry.merge`.  Every instrument merges by
  summation (histograms bucket-wise, series window-wise), so the merged
  snapshot is identical to a sequential run's over the same cells,
  independent of how they were split or of merge order.

The engine's counter catalog is documented in ``docs/observability.md``;
:func:`repro.metrics.vc_usage.reconcile_vc_usage` cross-checks the
per-role occupancy counters against the Figure 3 ``vc_busy`` aggregates.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.routing.budgets import ROLE_NAMES

__all__ = [
    "Counter",
    "EngineTelemetry",
    "Histogram",
    "LabeledCounter",
    "Series",
    "TelemetryRegistry",
    "series_snapshot",
]


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}

    def merge(self, payload: dict) -> None:
        """Fold another counter's snapshot in: values sum."""
        self.value += payload["value"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, value={self.value})"


class LabeledCounter:
    """A fixed-size vector of counts (e.g. one per node).

    One instrument object covers a whole index space — the engine's
    spatial counters (``engine.node_flit_hops``, ``engine.node_blocked``)
    use one slot per mesh node, so the hot path pays a list-index add
    instead of a dict lookup over hundreds of named counters, and a
    snapshot ships the whole surface as one array.
    """

    __slots__ = ("name", "values")

    def __init__(self, name: str, size: int) -> None:
        if size <= 0:
            raise ValueError("labeled counter needs a positive size")
        self.name = name
        self.values = [0] * size

    def inc(self, index: int, n: int = 1) -> None:
        self.values[index] += n

    @property
    def value(self) -> int:
        """Total across all labels (what :meth:`TelemetryRegistry.value`
        and :meth:`~TelemetryRegistry.render` report)."""
        return sum(self.values)

    def snapshot(self) -> dict:
        return {"type": "labeled_counter", "values": list(self.values)}

    def merge(self, payload: dict) -> None:
        """Fold another labeled counter's snapshot in: slot-wise sums."""
        other = payload["values"]
        if len(other) != len(self.values):
            raise ValueError(
                f"{self.name!r}: cannot merge {len(other)} labels into "
                f"{len(self.values)}"
            )
        values = self.values
        for i, v in enumerate(other):
            values[i] += v

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LabeledCounter({self.name!r}, size={len(self.values)})"


class Series:
    """A windowed time series: one accumulating count per cycle window.

    ``add(cycle, n)`` folds *n* into the window ``cycle // window`` —
    the hot path pays an integer divide and a list-index add, the same
    order of cost as a :class:`LabeledCounter` bump.  Windows are
    allocated lazily up to the highest cycle seen, so a run stopped
    early (``cycles_mode="auto"``) simply ships fewer windows.

    Merging is element-wise summation with length extension, which
    covers both distribution shapes with one rule:

    * **worker shards** — workers simulating the same cycle range sum
      window-by-window, exactly like counters;
    * **disjoint run segments** — a segment that only touched later
      windows extends the series, concatenating in absolute cycle
      coordinates (earlier windows merge with implicit zeros).
    """

    __slots__ = ("name", "window", "values")

    def __init__(self, name: str, window: int) -> None:
        if window <= 0:
            raise ValueError("series needs a positive window width")
        self.name = name
        self.window = window
        self.values: list[int] = []

    def add(self, cycle: int, n: int = 1) -> None:
        idx = cycle // self.window
        values = self.values
        if idx >= len(values):
            values.extend([0] * (idx + 1 - len(values)))
        values[idx] += n

    @property
    def value(self):
        """Total across all windows (what :meth:`TelemetryRegistry.value`
        and :meth:`~TelemetryRegistry.render` report)."""
        return sum(self.values)

    def snapshot(self) -> dict:
        return {
            "type": "series",
            "window": self.window,
            "values": list(self.values),
        }

    def merge(self, payload: dict) -> None:
        """Fold another series' snapshot in: window-wise sums.

        The incoming series may be longer or shorter; missing windows on
        either side are implicit zeros, so worker shards sum and
        disjoint segments concatenate with the same rule.
        """
        if payload["window"] != self.window:
            raise ValueError(
                f"{self.name!r}: cannot merge window={payload['window']} "
                f"into window={self.window}"
            )
        other = payload["values"]
        values = self.values
        if len(other) > len(values):
            values.extend([0] * (len(other) - len(values)))
        for i, v in enumerate(other):
            values[i] += v

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Series({self.name!r}, window={self.window}, "
            f"n={len(self.values)})"
        )


#: Default histogram bucket upper bounds (cycles): powers of two give a
#: latency profile from "one router" to "deeply saturated".
DEFAULT_BOUNDS = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192)


class Histogram:
    """A fixed-bucket histogram (upper-bound buckets plus overflow)."""

    __slots__ = ("name", "bounds", "counts", "total", "sum")

    def __init__(self, name: str, bounds: tuple[int, ...] = DEFAULT_BOUNDS) -> None:
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram bounds must be strictly increasing")
        self.name = name
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(bounds) + 1)  # last bucket = overflow
        self.total = 0
        self.sum = 0

    def observe(self, value: int) -> None:
        self.counts[bisect_right(self.bounds, value)] += 1
        self.total += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else float("nan")

    def snapshot(self) -> dict:
        return {
            "type": "histogram",
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "total": self.total,
            "sum": self.sum,
        }

    def merge(self, payload: dict) -> None:
        """Fold another histogram's snapshot in: bucket-wise sums."""
        if tuple(payload["bounds"]) != self.bounds:
            raise ValueError(
                f"{self.name!r}: cannot merge histogram with bounds "
                f"{payload['bounds']} into {list(self.bounds)}"
            )
        counts = self.counts
        for i, c in enumerate(payload["counts"]):
            counts[i] += c
        self.total += payload["total"]
        self.sum += payload["sum"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, total={self.total})"


class TelemetryRegistry:
    """Named instruments; get-or-create accessors, snapshot export.

    Instruments are plain objects (no locks — the engine is
    single-threaded per process); process pools should give each worker
    its own registry and merge snapshots afterwards.
    """

    def __init__(self) -> None:
        self._instruments: dict[
            str, Counter | Histogram | LabeledCounter | Series
        ] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        inst = self._instruments.get(name)
        if inst is None:
            inst = self._instruments[name] = Counter(name)
        elif not isinstance(inst, Counter):
            raise TypeError(f"{name!r} is already a {type(inst).__name__}")
        return inst

    def histogram(
        self, name: str, bounds: tuple[int, ...] = DEFAULT_BOUNDS
    ) -> Histogram:
        inst = self._instruments.get(name)
        if inst is None:
            inst = self._instruments[name] = Histogram(name, bounds)
        elif not isinstance(inst, Histogram):
            raise TypeError(f"{name!r} is already a {type(inst).__name__}")
        return inst

    def labeled_counter(self, name: str, size: int) -> LabeledCounter:
        inst = self._instruments.get(name)
        if inst is None:
            inst = self._instruments[name] = LabeledCounter(name, size)
        elif not isinstance(inst, LabeledCounter):
            raise TypeError(f"{name!r} is already a {type(inst).__name__}")
        elif len(inst.values) != size:
            raise ValueError(
                f"{name!r} already has {len(inst.values)} labels, not {size}"
            )
        return inst

    def series(self, name: str, window: int) -> Series:
        inst = self._instruments.get(name)
        if inst is None:
            inst = self._instruments[name] = Series(name, window)
        elif not isinstance(inst, Series):
            raise TypeError(f"{name!r} is already a {type(inst).__name__}")
        elif inst.window != window:
            raise ValueError(
                f"{name!r} already has window {inst.window}, not {window}"
            )
        return inst

    # ------------------------------------------------------------------
    def get(self, name: str):
        """The instrument named *name*, or ``None``."""
        return self._instruments.get(name)

    def value(self, name: str, default: int = 0):
        """Shorthand: the value of a counter (``default`` if absent)."""
        inst = self._instruments.get(name)
        return default if inst is None else inst.value

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def snapshot(self) -> dict:
        """JSON-safe dump of every instrument, sorted by name."""
        return {
            name: self._instruments[name].snapshot()
            for name in sorted(self._instruments)
        }

    def merge(self, other) -> None:
        """Fold a snapshot (or another registry) into this registry.

        *other* is either a :meth:`snapshot` dict or a
        :class:`TelemetryRegistry`.  Instruments absent here are created
        with the snapshot's type (and bounds/size, for histograms and
        labeled counters); instruments present in both sum per type —
        counters and labeled counters slot-wise, histograms bucket-wise,
        series window-wise.  The result is therefore independent of
        merge order, so a parent that merges N worker snapshots has the
        snapshot of a sequential run over the same cells exactly.

        Raises ``TypeError`` when a name is bound to a different
        instrument type on the two sides, ``ValueError`` on histogram
        bound or labeled-counter size mismatches.
        """
        if isinstance(other, TelemetryRegistry):
            other = other.snapshot()
        for name in sorted(other):
            payload = other[name]
            kind = payload["type"]
            inst = self._instruments.get(name)
            if inst is None:
                if kind == "counter":
                    inst = self.counter(name)
                elif kind == "histogram":
                    inst = self.histogram(name, tuple(payload["bounds"]))
                elif kind == "labeled_counter":
                    inst = self.labeled_counter(name, len(payload["values"]))
                elif kind == "series":
                    inst = self.series(name, payload["window"])
                else:
                    raise TypeError(
                        f"{name!r}: unknown instrument type {kind!r}"
                    )
            else:
                expected = {
                    Counter: "counter",
                    Histogram: "histogram",
                    LabeledCounter: "labeled_counter",
                    Series: "series",
                }[type(inst)]
                if kind != expected:
                    raise TypeError(
                        f"{name!r} is a {expected} here but a {kind} "
                        "in the snapshot"
                    )
            inst.merge(payload)

    def merge_digest(self) -> str:
        """A short stable hash of :meth:`snapshot`, equal across sharding.

        Run manifests record this (``telemetry_digest``) so two runs'
        telemetry can be compared at a glance without embedding the full
        snapshot: a sequential run and an N-worker or N-shard merged run
        over the same cells produce the same digest by construction.
        """
        from repro.store.keys import content_digest

        return content_digest(self.snapshot(), 16)

    def render(self, prefix: str = "") -> str:
        """A human-readable table of instruments (optionally filtered)."""
        lines = []
        for name in sorted(self._instruments):
            if prefix and not name.startswith(prefix):
                continue
            inst = self._instruments[name]
            if isinstance(inst, Histogram):
                lines.append(
                    f"{name:<40} n={inst.total} mean={inst.mean:.1f}"
                )
            elif isinstance(inst, Series):
                lines.append(
                    f"{name:<40} {inst.value} "
                    f"({len(inst.values)}x{inst.window}-cycle windows)"
                )
            else:
                lines.append(f"{name:<40} {inst.value}")
        return "\n".join(lines)


def series_snapshot(source) -> dict:
    """The series-only slice of a registry snapshot.

    *source* is a :class:`TelemetryRegistry` or a full
    :meth:`~TelemetryRegistry.snapshot` dict.  Run manifests embed this
    slice in their ``run-finish`` event so ``obs timeline`` can render a
    finished run's dynamics without re-simulating; the scalar
    instruments stay summarized by the snapshot digest alone.
    """
    if isinstance(source, TelemetryRegistry):
        source = source.snapshot()
    return {
        name: payload
        for name, payload in source.items()
        if payload.get("type") == "series"
    }


class EngineTelemetry:
    """The engine observer that publishes ``engine.*`` into a registry.

    ``sim.attach(EngineTelemetry(registry))`` subscribes it; ``bind``
    resolves every instrument once, so an event costs an attribute
    bump.  Counters accumulate: one registry may serve several runs in
    sequence (one ``EngineTelemetry`` per attach).  Subscribing to
    ``vc_sampled`` turns on the engine's per-cycle VC-occupancy sweep —
    the pass Figure 3's ``collect_vc_stats`` uses, so per-role occupancy
    and ``vc_busy`` agree by construction.
    """

    def __init__(self, registry: TelemetryRegistry) -> None:
        self.registry = registry

    def bind(self, sim) -> None:
        registry = self.registry
        self._role_of = sim.algorithm.budget.role_of
        c = registry.counter
        self._generated = c("engine.messages.generated")
        self._injected = c("engine.messages.injected")
        self._delivered = c("engine.messages.delivered")
        self._flit_hops = c("engine.flits.hops")
        self._ejected = c("engine.flits.ejected")
        self._blocked = c("engine.headers.blocked_cycles")
        self._drain = (c("engine.drains.deadlock"), c("engine.drains.livelock"))
        self._alloc_role = tuple(c(f"engine.vc_alloc.{r}") for r in ROLE_NAMES)
        self._busy_role = tuple(c(f"engine.vc_busy.{r}") for r in ROLE_NAMES)
        self._latency = registry.histogram("engine.latency")
        per_node = registry.labeled_counter
        self._node_hops = per_node("engine.node_flit_hops", sim.mesh.n_nodes)
        self._node_blocked = per_node("engine.node_blocked", sim.mesh.n_nodes)
        # Per-f-ring traversal counters, created on first traversal
        # (keyed by ring identity).
        self._fring: dict[int, Counter] = {}
        # Windowed time series (the `obs timeline` surface): same events
        # as the run-cumulative counters above, bucketed into
        # fixed-width cycle windows.
        w = sim.config.resolved_window
        s = registry.series
        self._s_ejected = s("engine.series.flits.ejected", w)
        self._s_delivered = s("engine.series.messages.delivered", w)
        self._s_latency = s("engine.series.latency.sum", w)
        self._s_blocked = s("engine.series.headers.blocked_cycles", w)
        self._s_busy_role = tuple(
            s(f"engine.series.vc_busy.{r}", w) for r in ROLE_NAMES
        )

    # -- engine events (see repro.simulator.engine.EVENTS) --------------
    def generated(self, cycle, msg) -> None:
        self._generated.inc()

    def injected(self, cycle, msg, node) -> None:
        self._injected.inc()

    def blocked(self, cycle, msg, node) -> None:
        self._blocked.inc()
        self._node_blocked.inc(node)
        self._s_blocked.add(cycle)

    def granted(self, cycle, msg, node, port, vc, role, on_ring) -> None:
        if role is None:  # ejection grant
            return
        self._alloc_role[role].inc()
        if on_ring:
            ring = msg.ring
            counter = self._fring.get(id(ring))
            if counter is None:
                r = ring.region
                kind = "ring" if ring.closed else "chain"
                counter = self._fring[id(ring)] = self.registry.counter(
                    f"engine.fring.{kind}[{r.x0},{r.y0},{r.x1},{r.y1}]"
                    ".traversals"
                )
            counter.inc()

    def flit_moved(self, cycle, msg, kind, node, ejected) -> None:
        self._flit_hops.inc()
        self._node_hops.inc(node)
        if ejected:
            self._ejected.inc()
            self._s_ejected.add(cycle)

    def delivered(self, cycle, msg) -> None:
        latency = cycle - msg.created
        self._delivered.inc()
        self._latency.observe(latency)
        self._s_delivered.add(cycle)
        self._s_latency.add(cycle, latency)

    def dropped(self, cycle, msg, livelock) -> None:
        self._drain[livelock].inc()

    def vc_sampled(self, cycle, busy) -> None:
        role_of = self._role_of
        busy_role = self._busy_role
        s_busy_role = self._s_busy_role
        for vc in busy:
            role = role_of[vc]
            busy_role[role].inc()
            s_busy_role[role].add(cycle)

