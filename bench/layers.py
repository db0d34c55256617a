"""In-memory span tracer and the per-layer metrics derived from it.

The tracer lives entirely in ``bench/``: it patches class methods of the
``repro`` packages for the duration of a traced pass and restores them
afterwards, so nothing under ``src/`` knows it exists.  A span is
``[name, start, end, parent, units]`` — *parent* is the index of the
enclosing span (``-1`` at the top) and *units* a per-span count the
wrapper read off the return value (store hits, fault patterns drawn).
A layer's **self time** is the sum of its spans' durations minus the
part their direct children cover.

Functions other modules import by name cannot be intercepted this way;
they are timed at their caller.  Per-call hot functions
(``candidate_tiers``) are never wrapped inside a run — the routing
numbers come from :func:`routing_probe`, a separate timed loop.
"""

from __future__ import annotations

import functools
import json
import random
import statistics
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter as clock

__all__ = ["Tracer", "layer_metrics", "routing_probe"]


def _patterns_drawn(case) -> int:
    return len(case.patterns) if case.n_faults else 0


def _patch_points() -> list[tuple]:
    """``(class, method, span name, units-from-result)`` to wrap."""
    from repro.campaigns.db import CampaignDB
    from repro.core.evaluator import Evaluator
    from repro.obs.manifest import ManifestWriter
    from repro.serve.resolver import Resolver
    from repro.simulator.engine import Simulation
    from repro.store.backend import ResultStore
    from repro.store.cache import CachedEvaluator

    return [
        (Simulation, "__init__", "simulator.build", None),
        (Simulation, "run", "simulator.run", None),
        (Evaluator, "fault_case", "faults.case", _patterns_drawn),
        (Evaluator, "run_single", "core.run_single", None),
        (CachedEvaluator, "run_single", "core.run_single", None),
        (ResultStore, "get", "store.get", lambda hit: int(hit is not None)),
        (ResultStore, "put", "store.put", int),
        (CampaignDB, "plan", "campaigns.plan", None),
        (ManifestWriter, "event", "obs.manifest", None),
        (Resolver, "resolve", "serve.resolve", None),
    ]


class Tracer:
    """Records spans while :meth:`installed` is active."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """A span around a call the runner makes itself."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _open(self, name: str) -> list:
        record = [name, clock(), 0.0, self._stack[-1] if self._stack else -1, 1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = clock()
        self._stack.pop()

    def _wrapped(self, original, name: str, units):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            record = self._open(name)
            try:
                result = original(*args, **kwargs)
                if units is not None:
                    record[4] = units(result)
                return result
            finally:
                self._close(record)

        return wrapper

    @contextmanager
    def installed(self):
        """Patch the layer boundaries; always restore them."""
        originals = []
        try:
            for cls, attr, name, units in _patch_points():
                original = cls.__dict__[attr]
                originals.append((cls, attr, original))
                setattr(cls, attr, self._wrapped(original, name, units))
            yield self
        finally:
            for cls, attr, original in originals:
                setattr(cls, attr, original)

    def write_jsonl(self, path: Path) -> None:
        """One ``{name, start, end, parent, workload}`` object per line."""
        with open(path, "w", encoding="utf-8") as sink:
            for name, start, end, parent, _units in self.spans:
                sink.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": None if parent < 0 else parent,
                    "workload": self.workload,
                }) + "\n")


def _totals(spans: list[list]):
    """Per-name total duration, self time, count, units and durations."""
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    units: dict[str, int] = defaultdict(int)
    durations: dict[str, list[float]] = defaultdict(list)
    covered = [0.0] * len(spans)
    for name, start, end, parent, n in spans:
        total[name] += end - start
        count[name] += 1
        units[name] += n
        durations[name].append(end - start)
        if parent >= 0:
            covered[parent] += end - start
    for (name, start, end, _parent, _n), child_time in zip(spans, covered):
        self_time[name] += end - start - child_time
    return total, self_time, count, units, durations


def _time_under(spans: list[list], names: tuple[str, ...], ancestor: str) -> float:
    """Total duration of *names* spans that sit below an *ancestor* span."""
    seconds = 0.0
    for name, start, end, parent, _n in spans:
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        if parent >= 0:
            seconds += end - start
    return seconds


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[list], passes: int, facts: dict) -> dict:
    """The span-derived per-layer metrics, as per-pass means.

    *facts* carries what the passes counted without spans (simulated
    cycles, flit hops, store bytes, traced wall seconds), already
    averaged per traced pass.
    """
    total, self_time, count, units, durations = _totals(spans)

    def per_pass(table, name: str) -> float:
        return table[name] / passes

    run_s = per_pass(total, "simulator.run")
    build_s = per_pass(total, "simulator.build")
    runs = per_pass(count, "simulator.run")
    campaign_s = per_pass(total, "campaigns.run")
    engine_in_campaign = _time_under(
        spans, ("simulator.run", "simulator.build"), "campaigns.run"
    ) / passes
    puts = durations["store.put"]
    return {
        "simulator.run_s": run_s,
        "simulator.build_s": build_s,
        "simulator.runs": runs,
        "simulator.us_per_cycle": _ratio(run_s * 1e6, facts["cycles"]),
        "simulator.us_per_flit_hop": _ratio(run_s * 1e6, facts["flit_hops"]),
        "simulator.build_ms_per_run": _ratio(build_s * 1e3, runs),
        "simulator.share": _ratio(run_s + build_s, facts["traced_wall_s"]),
        "faults.case_s": per_pass(total, "faults.case"),
        "faults.patterns": per_pass(units, "faults.case"),
        "faults.ms_per_pattern": _ratio(
            total["faults.case"] * 1e3, units["faults.case"]
        ),
        "core.evaluator_self_s": per_pass(self_time, "core.run_single"),
        "core.runs": per_pass(count, "core.run_single"),
        "store.put_s": per_pass(total, "store.put"),
        "store.puts": per_pass(units, "store.put"),
        "store.put_ms_p50": statistics.median(puts) * 1e3 if puts else 0.0,
        "store.get_s": per_pass(total, "store.get"),
        "store.gets": per_pass(count, "store.get"),
        "store.hits": per_pass(units, "store.get"),
        "store.hit_ratio": _ratio(units["store.get"], count["store.get"]),
        "experiments.cli_self_s": per_pass(self_time, "experiments.cli"),
        "campaigns.plan_s": per_pass(total, "campaigns.plan"),
        "campaigns.replan_s": per_pass(total, "campaigns.replan"),
        "campaigns.run_self_s": per_pass(self_time, "campaigns.run"),
        "campaigns.merge_s": per_pass(total, "campaigns.merge"),
        "campaigns.query_s": per_pass(total, "campaigns.query"),
        "campaigns.overhead_share": _ratio(
            campaign_s - engine_in_campaign, campaign_s
        ),
        "obs.manifest_s": per_pass(total, "obs.manifest"),
        "trace.spans": len(spans) / passes,
    }


def serve_metrics(passes: list[dict], shares: dict[str, float]) -> dict:
    """The ``serve.*`` metrics from what the HTTP passes counted.

    Latency percentiles pool every request of the run; *shares* weighs
    the in-process resolve medians by the traffic mix, so
    ``http_overhead_us`` is what the transport adds to a median answer.
    """
    latencies = sorted(s for p in passes for s in p["latencies"])
    connects = [s for p in passes for s in p["connects"]]
    requests = sum(p["requests"] for p in passes)
    resolve = [p["resolve_us"] for p in passes if "resolve_us" in p]
    resolve_us = {
        tier: statistics.fmean(r[tier] for r in resolve) for tier in shares
    }

    def percentile(q: float) -> float:
        return latencies[min(int(q * len(latencies)), len(latencies) - 1)]

    metrics = {
        f"serve.resolve_us.{tier}": value for tier, value in resolve_us.items()
    }
    metrics.update({
        "serve.http_overhead_us": statistics.median(latencies) * 1e6 - sum(
            shares[tier] * resolve_us[tier] for tier in shares
        ),
        "serve.connect_us": statistics.median(connects) * 1e6,
        "serve.cpu_us_per_req": sum(p["cpu_s"] for p in passes) / requests * 1e6,
        "serve.http_p99_ms": percentile(0.99) * 1e3,
        "serve.http_p999_ms": percentile(0.999) * 1e3,
        "serve.refused": statistics.fmean(p["refused"] for p in passes),
        "serve.sim_runs": statistics.fmean(p["sim_runs"] for p in passes),
        "serve.sim_rehit_ms": statistics.median(p["sim_rehit_ms"] for p in passes),
        "serve.time_wait_at_start": passes[0]["time_wait_at_start"],
    })
    return metrics


def routing_probe(calls: int = 4000) -> dict:
    """``candidate_tiers`` calls per second for ``nbc``, fault-free and
    around a fixed 5-fault pattern, over a fixed (source, destination) set.

    A separate timed loop: wrapping ``candidate_tiers`` inside a run
    would cost more than the call itself.
    """
    from repro.faults.generator import generate_block_fault_pattern
    from repro.routing.registry import make_algorithm
    from repro.simulator.config import SimConfig
    from repro.simulator.engine import Simulation
    from repro.topology.mesh import Mesh2D

    config = SimConfig(width=10, vcs_per_channel=24, message_length=16)
    pattern = generate_block_fault_pattern(
        Mesh2D(config.width, config.height), 5, random.Random(2007)
    )
    rates = {}
    for label, faults in (("fault_free", None), ("faulty", pattern)):
        sim = Simulation(config, make_algorithm("nbc"), faults=faults)
        healthy = [
            n for n in range(sim.mesh.n_nodes)
            if not pattern.faulty_mask[n]
        ]
        pairs = random.Random(2007).sample(
            [(s, d) for s in healthy for d in healthy if s != d], 64
        )
        messages = [(sim.submit_message(s, d), s) for s, d in pairs]
        tiers = sim.algorithm.candidate_tiers
        start = clock()
        for i in range(calls):
            msg, node = messages[i % len(messages)]
            tiers(msg, node)
        rates[f"routing.tiers_per_s.{label}"] = calls / (clock() - start)
    return rates
