"""Headless perf harness: a pinned workload suite with JSON trajectories.

``python -m repro.obs bench --label mine`` executes every pinned workload
and writes a canonical ``BENCH_mine.json`` at the current directory (the
repo root, by convention; bench files are not committed — the perf
ledger keeps one condensed row per label).  ``python -m repro.obs compare A.json B.json
--max-regress 15%`` exits nonzero when any shared workload regressed, so
a non-blocking CI lane can track the repo's performance trajectory
commit over commit.

Methodology:

* **Engine workloads**: the network is warmed to steady state, then a
  fixed number of cycles is timed.  Timing runs attach nothing (the
  production hot path); two separate, untimed runs of the same seed —
  hence the same flit schedule — carry one instrument each: telemetry
  supplies the flit-hop count, so the file reports both
  ``cycles_per_sec`` and ``flit_hops_per_sec`` without the instrumented
  path contaminating the timings, and the phase profiler, alone,
  supplies ``phases`` and ``activity`` (below).
* Every workload is repeated ``--repeats`` times from scratch; the
  **minimum** wall time is the headline (least-noise estimator), with
  all samples recorded.
* Each workload carries a **key**: a SHA-256 digest (via
  :func:`repro.store.keys.content_digest`) of its full parameter spec.
  ``compare`` only compares workloads whose keys match, so a re-pinned
  workload silently stops gating instead of producing bogus deltas.
* ``peak_rss_kb`` is ``ru_maxrss`` after the workload (process-lifetime
  peak: monotone across the suite, meaningful per-file).
* Engine workloads additionally carry ``phases`` (per-phase wall-time
  shares) and an ``activity`` summary from the run ``obs profile
  --workload W`` makes — only the :class:`repro.obs.profile.
  PhaseProfiler` attached, so ``collect_vc`` reads 0 as it does in a
  timed run — so the perf ledger (``obs history``) can attribute a
  regression to the phase whose share grew, not just name the workload.

Every run an obs verb or an engine row makes goes through
:func:`instrumented_run`: build, warm detached, attach, measure, and —
on request — compare with a detached twin.

Wall-clock reads go through :data:`repro.obs.profile.clock` — the
project's sanctioned timer (REP016); REP006 keeps clocks out of the
engine itself, where cycle-stamped telemetry is the mechanism.
"""

from __future__ import annotations

import json
import platform
import random
import resource
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import NamedTuple

from repro.cli import Refused
from repro.obs.profile import clock
from repro.store.keys import content_digest

__all__ = [
    "BENCH_SCHEMA",
    "Workload",
    "WORKLOADS",
    "bench_key",
    "compare_payloads",
    "host_warnings",
    "parse_regress",
    "run_suite",
    "write_bench_file",
]

BENCH_SCHEMA = 1


def bench_key(name: str, params: dict) -> str:
    """Stable digest of one workload's full parameter spec.

    Deliberately excludes :data:`~repro.simulator.engine.ENGINE_VERSION`:
    perf comparisons across engine changes are exactly what the
    trajectory is for (the file records the version at top level).
    """
    return content_digest(
        {"kind": "bench-key", "name": name, "params": params}, 16
    )


@dataclass(frozen=True)
class Workload:
    """One pinned benchmark workload.

    ``kind`` selects the runner: ``"engine"`` times warmed
    ``Simulation.step`` cycles; ``"attached"`` times the same window
    detached and with each instrument attached in turn; ``"ops"`` times
    a callable built by :func:`_ops_runner` and reports
    operations/second.
    """

    name: str
    kind: str
    params: dict

    @property
    def key(self) -> str:
        return bench_key(self.name, self.params)


#: The pinned suite.  Changing any parameter changes the workload's key,
#: which un-gates it in ``compare`` — bump deliberately, not silently.
WORKLOADS: tuple[Workload, ...] = (
    Workload("engine_moderate", "engine", {
        "algorithm": "nhop", "width": 10, "vcs": 24, "message_length": 16,
        "rate": 0.01, "warm": 500, "cycles": 1000, "seed": 5, "faults": 0,
    }),
    Workload("engine_saturated", "engine", {
        "algorithm": "duato-nbc", "width": 10, "vcs": 24,
        "message_length": 16, "rate": 0.05, "warm": 500, "cycles": 1000,
        "seed": 5, "faults": 0,
    }),
    Workload("engine_faulty_rings", "engine", {
        "algorithm": "duato-nbc", "width": 10, "vcs": 24,
        "message_length": 16, "rate": 0.02, "warm": 500, "cycles": 1000,
        "seed": 7, "faults": 5,
    }),
    # The price of each instrument (ROADMAP aim 4): the engine_saturated
    # window timed detached (cycles_per_sec), then with telemetry, blame
    # and the lifecycle tracer attached alone ("attached": rate, overhead).
    Workload("obs_attached_cost", "attached", {
        "algorithm": "duato-nbc", "width": 10, "vcs": 24,
        "message_length": 16, "rate": 0.05, "warm": 500, "cycles": 1000,
        "seed": 5, "faults": 0,
    }),
    Workload("fault_pattern_generation", "ops", {
        "op": "fault_patterns", "width": 10, "faults": 10, "draws": 30,
        "seed": 11,
    }),
    Workload("routing_candidates", "ops", {
        "op": "candidate_tiers", "algorithm": "nbc", "width": 10, "vcs": 24,
        "calls": 20000,
    }),
    Workload("simulation_construction", "ops", {
        "op": "construction", "algorithm": "duato-nbc", "width": 10,
        "vcs": 24, "message_length": 100, "builds": 3,
    }),
    # Constructions per second at the campaign-cell (6x6) and paper
    # (10x10) mesh sizes, 24 VCs: what every short cell pays before its
    # first cycle.  The fabric is lazy, so this must stay independent of
    # the VC budget (it was ~9 ms / ~26 ms per build when eager).
    Workload("engine_build", "ops", {
        "op": "construction", "algorithm": "duato-nbc", "widths": [6, 10],
        "vcs": 24, "message_length": 4, "builds": 50,
    }),
    # Campaign-scale path: spec -> grid -> store round-trip per cell.
    # Times the orchestration overhead (planning, key hashing, the
    # campaign.json save, manifest appends, store puts, the digest) on
    # top of the small engine runs, which the engine_* workloads cannot
    # see.
    Workload("campaign_grid_store", "ops", {
        "op": "campaign", "algorithms": ["nhop", "duato-nbc"],
        "width": 8, "vcs": 20, "message_length": 16, "cycles": 300,
        "warmup": 100, "rates": [0.01, 0.03], "fault_counts": [0, 3],
        "seed": 13,
    }),
    # Write-side store scaling: N processes hammer one ResultStore at
    # once (the pool-worker pattern of the figure drivers).  Times the
    # locked-append path under real contention, which the
    # single-process campaign workload cannot see.
    Workload("store_contention", "ops", {
        "op": "store_contention", "writers": 4, "puts_per_writer": 25,
        "payload_floats": 32,
    }),
    # Campaign planning path: declare a space, mark half the cells done
    # in the store, replan.  Times run-key derivation (prepare_run +
    # run_key per cell) and the index diff without simulating anything —
    # the cost a resumed million-run campaign pays before its first
    # cell, invisible to every other workload.
    Workload("campaign_plan_resume", "ops", {
        "op": "campaign_plan_resume", "algorithms": ["nhop", "duato-nbc"],
        "width": 8, "vcs": 20, "message_length": 16, "cycles": 300,
        "warmup": 100, "rates": [0.005, 0.01, 0.02, 0.03, 0.05],
        "fault_counts": [0, 3], "fault_sets": 2, "repeats": 2,
        "seed": 17,
    }),
    # Serving path: tiered resolution latency over a prebuilt campaign
    # grid.  The grid is simulated and the surrogate/calibration fitted
    # once, untimed, at setup; timed passes issue store-hit, surrogate-
    # interpolation and calibrated-model queries and self-check the tier
    # each answer came from — so the pinned trajectory tracks how fast
    # an answer is served, not how fast it is computed from scratch.
    Workload("serve_query_tiers", "ops", {
        "op": "serve_query_tiers", "algorithms": ["nhop", "duato-nbc"],
        "width": 6, "vcs": 24, "message_length": 4, "cycles": 300,
        "warmup": 100, "rates": [0.005, 0.01, 0.02], "repeats": 2,
        "passes": 50, "seed": 19,
    }),
    # The same answers over a real socket: an in-process QueryServer on a
    # background event loop, one closed-loop client, a fresh connection
    # per GET (the server closes after each reply), store / surrogate /
    # model / refused in equal shares, status and tier self-checked.
    # What serve_query_tiers leaves out is the transport; the gap between
    # the two is what a served answer pays for it.
    Workload("serve_http_roundtrip", "ops", {
        "op": "serve_http_roundtrip", "algorithms": ["nhop", "duato-nbc"],
        "width": 6, "vcs": 24, "message_length": 4, "cycles": 300,
        "warmup": 100, "rates": [0.005, 0.01, 0.02, 0.03], "repeats": 2,
        "passes": 50, "seed": 19,
    }),
    # What a call that never simulates pays before its few ms of work:
    # three fresh interpreters per repeat — the bare import of the three
    # entry points (``bench/run.py``'s set-up probe), ``campaigns
    # status`` on a completed 4-cell campaign and a fully warm figure —
    # each self-checked (exit 0, "complete", figure output identical to
    # the cold call's, store untouched).  The campaign and the warm
    # store are built once, untimed.  Process start is the whole cost
    # here, so this is the row an import creeping back to module level
    # shows up on.
    Workload("cli_cold_start", "ops", {
        "op": "cli_cold_start", "algorithms": ["nhop", "duato-nbc"],
        "width": 6, "vcs": 24, "message_length": 4, "cycles": 300,
        "warmup": 100, "rates": [0.01, 0.02], "repeats": 1, "seed": 2007,
        "figure": "fig1", "profile": "smoke",
    }),
    Workload("verify_check_corpus", "ops", {
        # Model-checker runtime on a representative slice of the 4x4
        # fault corpus: a deterministic escape scheme, Duato's fortified
        # variant, and a hop-class scheme, on the fault-free and
        # closed-interior-ring patterns.  Tracks the CDG exploration +
        # cycle/discharge analysis cost in the pinned trajectory.
        "op": "verify_check",
        "algorithms": ["ecube", "duato", "nhop"],
        "patterns": ["fault-free", "center-block"],
        "width": 4, "vcs": 16,
    }),
)


# ----------------------------------------------------------------------
# Runners
# ----------------------------------------------------------------------
def _store_contention_writer(args: tuple[str, int, int, int]) -> int:
    """Pool worker: put *count* distinct payloads into the shared store.

    Module-level so it pickles under the default ``spawn``/``fork``
    start methods, like the experiment-driver workers.
    """
    from repro.store.backend import ResultStore

    store_dir, start, count, floats = args
    store = ResultStore(store_dir)
    written = 0
    for i in range(start, start + count):
        payload = {
            "kind": "bench-contention",
            "index": i,
            "values": [j / (i + 1) for j in range(floats)],
        }
        key = content_digest({"kind": "bench-contention-key", "index": i})
        written += bool(store.put(key, payload, algorithm="bench"))
    return written


@dataclass(frozen=True)
class RunPlan:
    """One instrumented run, as data: ``config().cycles`` cycles of
    *algorithm* over *n_faults* random block faults — drawn from
    ``random.Random(seed)``, 0 = fault-free — or over the pattern
    ``layout(mesh)`` returns, the first *warm* cycles detached.  Nothing
    is validated until :func:`instrumented_run` builds it."""

    algorithm: str
    config: Callable[[], object]
    n_faults: int = 0
    layout: Callable | None = None
    warm: int = 0


def flags_plan(args, *, layout=None, **config) -> RunPlan:
    """The run behind ``smoke``/``heatmap``/``timeline``: 16-flit
    messages, no warmup, drain recovery, sized by the verbs' shared
    ``--algorithm/--width/--vcs/--faults/--rate/--cycles/--seed``."""
    from repro.simulator.config import SimConfig

    return RunPlan(
        args.algorithm,
        partial(
            SimConfig, width=args.width, vcs_per_channel=args.vcs,
            message_length=16, injection_rate=args.rate, cycles=args.cycles,
            warmup=0, seed=args.seed, on_deadlock="drain", **config,
        ),
        n_faults=args.faults, layout=layout,
    )


def workload_plan(params: dict) -> RunPlan:
    """The run an engine :class:`Workload`'s *params* pin: ``warm``
    cycles detached, then the ``cycles`` window."""
    from repro.simulator.config import SimConfig

    return RunPlan(
        params["algorithm"],
        partial(
            SimConfig, width=params["width"], vcs_per_channel=params["vcs"],
            message_length=params["message_length"],
            injection_rate=params["rate"],
            cycles=params["warm"] + params["cycles"], warmup=0,
            seed=params["seed"], on_deadlock="drain",
        ),
        n_faults=params["faults"], warm=params["warm"],
    )


def engine_state(sim) -> tuple:
    """What a neutral observer must leave untouched (headline statistics,
    conservation totals, both RNG states): equal for an attached run and
    its detached twin."""
    r = sim.result
    return (
        r.generated, r.delivered, r.delivered_flits, r.latency_sum,
        r.hops_sum, sim.total_generated, sim.total_delivered,
        sim.total_dropped, sim.rng.getstate(),
        str(sim._perm_rng.bit_generator.state),
    )


class InstrumentedRun(NamedTuple):
    sim: object
    #: Wall time of the attached window.
    seconds: float
    #: Attached run == detached twin (``None``: not checked).
    neutral: bool | None


def instrumented_run(
    plan: RunPlan, *observers, selfcheck: bool = False
) -> InstrumentedRun:
    """Build *plan*, step its warm cycles detached, attach *observers*,
    run (and time) the rest; with *selfcheck*, run a detached twin to
    the same cycle and compare :func:`engine_state`.

    Only construction is guarded: what it refuses (a VC budget too
    small, an unknown algorithm, ``SimConfig`` validation, an
    ungenerable fault pattern) becomes :class:`repro.cli.Refused`, while
    an error out of a running engine is a bug and keeps its traceback.
    """
    from repro.faults.generator import (
        FaultPatternError, generate_block_fault_pattern,
    )
    from repro.routing.registry import make_algorithm
    from repro.simulator.engine import Simulation
    from repro.topology.mesh import Mesh2D

    def build():
        try:
            config = plan.config()
            mesh = Mesh2D(config.width, config.height)
            faults = None
            if plan.layout is not None:
                faults = plan.layout(mesh)
            elif plan.n_faults:
                faults = generate_block_fault_pattern(
                    mesh, plan.n_faults, random.Random(config.seed)
                )
            return Simulation(
                config, make_algorithm(plan.algorithm), faults=faults
            )
        except (ValueError, FaultPatternError) as exc:
            raise Refused(str(exc)) from exc

    sim = build()
    cycles = sim.config.cycles
    sim.step(plan.warm)
    for observer in observers:
        sim.attach(observer)
    t0 = clock()
    sim.step(cycles - plan.warm)
    seconds = clock() - t0
    neutral = None
    if selfcheck:
        twin = build()
        twin.step(cycles)
        neutral = engine_state(sim) == engine_state(twin)
    return InstrumentedRun(sim, seconds, neutral)


def _run_engine_workload(params: dict, repeats: int) -> dict:
    from repro.obs.profile import PhaseProfiler
    from repro.obs.telemetry import EngineTelemetry, TelemetryRegistry

    plan = workload_plan(params)
    cycles = params["cycles"]
    # Two untimed runs, same seed as the timed ones -> identical flit
    # schedule.  The profiler runs alone, as under ``obs profile``: with
    # telemetry beside it the VC sweep telemetry subscribes to would be
    # charged to ``collect_vc``, a phase no timed run has.
    profiler = PhaseProfiler()
    instrumented_run(plan, profiler)
    registry = TelemetryRegistry()
    instrumented_run(plan, EngineTelemetry(registry))
    flit_hops = registry.value("engine.flits.hops")
    activity = profiler.report()["activity"]

    samples = [instrumented_run(plan).seconds for _ in range(repeats)]
    best = min(samples)
    return {
        "seconds": best,
        "samples": samples,
        "cycles": cycles,
        "cycles_per_sec": cycles / best if best else float("inf"),
        "flit_hops": flit_hops,
        "flit_hops_per_sec": flit_hops / best if best else float("inf"),
        "delivered_messages": registry.value("engine.messages.delivered"),
        "phases": profiler.phase_shares(),
        "activity": {
            "mesh_nodes": activity["mesh_nodes"],
            "active_routers_mean": activity["active_routers"]["mean"],
            "occupied_vcs_mean": activity["occupied_vcs"]["mean"],
        },
    }


def _run_attached_cost(params: dict, repeats: int) -> dict:
    from repro.obs.blame import BlameRecorder
    from repro.obs.telemetry import EngineTelemetry, TelemetryRegistry
    from repro.obs.trace_export import lifecycle_tracer

    variants: dict[str, Callable[[], object] | None] = {
        "detached": None,
        "telemetry": lambda: EngineTelemetry(TelemetryRegistry()),
        "blame": BlameRecorder,
        "tracer": lifecycle_tracer,
    }
    plan = workload_plan(params)
    cycles = params["cycles"]
    samples: dict[str, list[float]] = {name: [] for name in variants}
    # Variants interleave within a repeat so host drift hits all alike.
    for _ in range(repeats):
        for name, make in variants.items():
            observers = () if make is None else (make(),)
            samples[name].append(instrumented_run(plan, *observers).seconds)
    best = {name: min(times) for name, times in samples.items()}
    base = best.pop("detached")
    return {
        "seconds": base,
        "samples": samples["detached"],
        "cycles": cycles,
        "cycles_per_sec": cycles / base,
        "attached": {
            name: {
                "seconds": seconds,
                "cycles_per_sec": cycles / seconds,
                "overhead_pct": 100.0 * (seconds - base) / base,
            }
            for name, seconds in best.items()
        },
    }


def _campaign_spec(name: str, params: dict):
    """The ``CampaignSpec`` a campaign-shaped workload's *params* pin;
    an axis the workload does not name keeps the spec's default."""
    from repro.campaigns.spec import CampaignSpec
    from repro.simulator.config import SimConfig

    axes = {k: params[k] for k in ("fault_sets", "repeats") if k in params}
    if "fault_counts" in params:
        axes["fault_counts"] = tuple(params["fault_counts"])
    return CampaignSpec(
        name=name,
        algorithms=tuple(params["algorithms"]),
        config=SimConfig(
            width=params["width"],
            vcs_per_channel=params["vcs"],
            message_length=params["message_length"],
            cycles=params["cycles"],
            warmup=params["warmup"],
            seed=params["seed"],
            on_deadlock="drain",
        ),
        rates=tuple(params["rates"]),
        seed=params["seed"],
        **axes,
    )


def _serve_campaign(params: dict):
    """``(tmp dir, completed CampaignDB)`` for the serving workloads: the
    grid is simulated once, untimed.  The caller's closure keeps the tmp
    dir object alive so the campaign outlives every timed repeat."""
    import tempfile

    from repro.campaigns.db import CampaignDB
    from repro.campaigns.shard import run_campaign

    tmp = tempfile.TemporaryDirectory(prefix="repro-bench-")
    db = CampaignDB(
        _campaign_spec("bench-serve", params), Path(tmp.name) / "campaign"
    )
    db.save()
    run_campaign(db, workers=1)
    return tmp, db


def _ops_runner(params: dict):
    """(callable, ops) for an ``"ops"`` workload."""
    op = params["op"]
    if op == "fault_patterns":
        from repro.faults.generator import generate_block_fault_pattern
        from repro.topology.mesh import Mesh2D

        mesh = Mesh2D(params["width"])
        draws, faults, seed = params["draws"], params["faults"], params["seed"]

        def run() -> None:
            for i in range(draws):
                generate_block_fault_pattern(
                    mesh, faults, random.Random(seed + i)
                )

        return run, draws
    if op == "candidate_tiers":
        from repro.routing.registry import make_algorithm
        from repro.simulator.config import SimConfig
        from repro.simulator.engine import Simulation

        cfg = SimConfig(
            width=params["width"], vcs_per_channel=params["vcs"],
            message_length=16,
        )
        sim = Simulation(cfg, make_algorithm(params["algorithm"]))
        msg = sim.submit_message(0, sim.mesh.n_nodes - 1)
        alg, calls = sim.algorithm, params["calls"]

        def run() -> None:
            for _ in range(calls):
                alg.candidate_tiers(msg, 0)

        return run, calls
    if op == "construction":
        from repro.routing.registry import make_algorithm
        from repro.simulator.config import SimConfig
        from repro.simulator.engine import Simulation

        configs = [
            SimConfig(
                width=width, vcs_per_channel=params["vcs"],
                message_length=params["message_length"],
            )
            for width in params.get("widths") or [params["width"]]
        ]
        builds = params["builds"]

        def run() -> None:
            for cfg in configs:
                for _ in range(builds):
                    Simulation(cfg, make_algorithm(params["algorithm"]))

        return run, builds * len(configs)
    if op == "campaign":
        import tempfile

        from repro.campaigns import CampaignDB, run_campaign

        spec = _campaign_spec("bench-grid", params)

        def run() -> None:
            # Fresh campaign directory per repeat: every sample pays the
            # full plan-simulate-and-put cost, never a cache hit; in
            # process, the path the ledger has always timed.
            with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
                executed = run_campaign(
                    CampaignDB(spec, tmp), workers=1
                )["executed"]
                if executed != spec.n_jobs:
                    raise RuntimeError(
                        f"campaign bench executed {executed} of "
                        f"{spec.n_jobs} cells"
                    )

        return run, spec.n_jobs
    if op == "campaign_plan_resume":
        import tempfile

        from repro.campaigns.db import CampaignDB

        spec = _campaign_spec("bench-plan", params)

        def run() -> None:
            # Plan the full space, mark every other cell done with a
            # dummy payload ("kill half the cells"), replan: the second
            # plan must list exactly the untouched half.  No simulation
            # runs — this times pure planning (key hashing + index diff).
            with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
                db = CampaignDB(spec, Path(tmp) / "campaign")
                full = db.plan()
                if len(full.missing) != spec.n_jobs:
                    raise RuntimeError(
                        f"fresh plan found {len(full.missing)} missing "
                        f"cells, expected {spec.n_jobs}"
                    )
                survivors = full.missing[::2]
                for cell in survivors:
                    db.store.put(cell["key"], {"bench": True})
                resumed = CampaignDB(spec, Path(tmp) / "campaign").plan()
                expect = {c["key"] for c in full.missing[1::2]}
                got = {c["key"] for c in resumed.missing}
                if got != expect:
                    raise RuntimeError(
                        "resume plan diverged from the killed half: "
                        f"{len(got ^ expect)} keys differ"
                    )

        return run, 2 * spec.n_jobs  # cells keyed across the two plans
    if op == "store_contention":
        import tempfile
        from multiprocessing import get_context

        writers = params["writers"]
        per = params["puts_per_writer"]
        floats = params["payload_floats"]

        def run() -> None:
            # Fresh store per repeat: every sample pays the full
            # create-lock-append cost, never an already-present hit.
            with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
                store_dir = str(Path(tmp) / "store")
                jobs = [
                    (store_dir, w * per, per, floats)
                    for w in range(writers)
                ]
                with get_context().Pool(processes=writers) as pool:
                    written = sum(
                        pool.map(_store_contention_writer, jobs)
                    )
                if written != writers * per:
                    raise RuntimeError(
                        f"store contention bench wrote {written} of "
                        f"{writers * per} payloads"
                    )

        return run, writers * per
    if op == "serve_query_tiers":
        from repro.serve.resolver import Query, Resolver

        tmp, db = _serve_campaign(params)
        spec = db.spec
        resolver = Resolver(db)
        resolver.surrogate()
        resolver.calibration()
        rates = list(params["rates"])
        mids = [
            (a + b) / 2.0 for a, b in zip(rates, rates[1:])
        ]
        below = rates[0] / 2.0
        queries = (
            [(Query(alg, r), "store")
             for alg in spec.algorithms for r in rates]
            + [(Query(alg, m), "surrogate")
               for alg in spec.algorithms for m in mids]
            + [(Query(alg, below), "model") for alg in spec.algorithms]
        )
        passes = params["passes"]

        def run() -> None:
            keep_alive = tmp  # noqa: F841  (pin the campaign dir)
            for _ in range(passes):
                for q, expected in queries:
                    answer = resolver.resolve(q)
                    if answer.tier != expected:
                        raise RuntimeError(
                            f"serve bench: {q.to_dict()} resolved from "
                            f"tier {answer.tier!r}, expected {expected!r}"
                        )

        return run, passes * len(queries)
    if op == "serve_http_roundtrip":
        import asyncio
        import socket
        import threading

        from repro.serve.api import QueryServer

        tmp, db = _serve_campaign(params)
        rates = list(params["rates"])
        mids = [(a + b) / 2.0 for a, b in zip(rates, rates[1:])]
        targets = [
            (f"/query?algorithm={alg}&rate={rate!r}&metric={metric}", expected)
            for alg in params["algorithms"]
            for rate, metric, expected in (
                [(r, "latency", b'"tier": "store"') for r in rates[:3]]
                + [(m, "latency", b'"tier": "surrogate"') for m in mids]
                + [(rates[0] * f, "latency", b'"tier": "model"')
                   for f in (0.3, 0.5, 0.7)]
                + [(rates[-1] * f, "throughput", b" 422 ")
                   for f in (2.0, 2.5, 3.0)]
            )
        ]
        passes = params["passes"]

        def run() -> None:
            # A fresh server per repeat; binding and fitting it (~10 ms)
            # is timed with the requests.
            keep_alive = tmp  # noqa: F841  (pin the campaign dir)
            loop = asyncio.new_event_loop()
            thread = threading.Thread(target=loop.run_forever, daemon=True)
            thread.start()
            server = QueryServer(db)
            asyncio.run_coroutine_threadsafe(server.start(), loop).result(60)
            try:
                for _ in range(passes):
                    for target, expected in targets:
                        with socket.create_connection(
                            ("127.0.0.1", server.port), timeout=60
                        ) as conn:
                            conn.sendall(
                                f"GET {target} HTTP/1.1\r\n"
                                "Host: bench\r\n\r\n".encode()
                            )
                            reply = b""
                            while chunk := conn.recv(65536):
                                reply += chunk
                        if expected not in reply:
                            raise RuntimeError(
                                f"serve http bench: GET {target} answered "
                                f"{reply[:200]!r}, expected {expected!r}"
                            )
            finally:
                asyncio.run_coroutine_threadsafe(server.stop(), loop).result(60)
                loop.call_soon_threadsafe(loop.stop)
                thread.join(60)
                loop.close()

        return run, passes * len(targets)
    if op == "cli_cold_start":
        import os
        import subprocess

        tmp, db = _serve_campaign(params)
        # The children run the source tree this module was loaded from.
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(__file__).resolve().parents[2]),
        }

        def fresh(*argv: str) -> str:
            return subprocess.run(
                [sys.executable, *argv], env=env, check=True,
                capture_output=True, text=True,
            ).stdout

        store_rows = Path(tmp.name) / "figure-store" / "rows.jsonl"
        figure = (
            "-m", "repro.experiments", params["figure"],
            "--profile", params["profile"],
            "--algorithms", *params["algorithms"],
            "--store", str(store_rows.parent), "--quiet",
        )
        cold = fresh(*figure)  # untimed: simulates, fills the store
        rows = store_rows.read_bytes()
        starts = (
            ("-c", "import repro.experiments.cli, repro.campaigns, "
                   "repro.serve.api"),
            ("-m", "repro.campaigns", "status", str(db.root)),
            figure,
        )

        def run() -> None:
            keep_alive = tmp  # noqa: F841  (pin the campaign dir)
            _, status, warm = (fresh(*argv) for argv in starts)
            if "complete" not in status:
                raise RuntimeError(
                    f"cli cold-start bench: campaign not complete: {status}"
                )
            if warm != cold or store_rows.read_bytes() != rows:
                raise RuntimeError(
                    "cli cold-start bench: the warm figure was not served "
                    "from the store"
                )

        return run, len(starts)
    if op == "verify_check":
        from repro.routing.registry import make_algorithm
        from repro.verify.cdg import CdgChecker
        from repro.verify.corpus import corpus_pattern

        cases = [
            (name, pname)
            for name in params["algorithms"]
            for pname in params["patterns"]
        ]
        width, vcs = params["width"], params["vcs"]

        def run() -> None:
            for name, pname in cases:
                report = CdgChecker(
                    make_algorithm(name),
                    corpus_pattern(pname, width),
                    total_vcs=vcs,
                    pattern_name=pname,
                ).run()
                if report.status not in ("ok", "ring-residual", "ring-proved"):
                    raise RuntimeError(
                        f"verify bench: {name} on {pname} unexpectedly "
                        f"reported {report.status}"
                    )

        return run, len(cases)
    raise ValueError(f"unknown ops workload {op!r}")


def _run_ops_workload(params: dict, repeats: int) -> dict:
    run, ops = _ops_runner(params)
    samples = []
    for _ in range(repeats):
        t0 = clock()
        run()
        samples.append(clock() - t0)
    best = min(samples)
    return {
        "seconds": best,
        "samples": samples,
        "ops": ops,
        "ops_per_sec": ops / best if best else float("inf"),
    }


def run_suite(
    *,
    workloads: tuple[Workload, ...] = WORKLOADS,
    repeats: int = 3,
    select: tuple[str, ...] | None = None,
    progress=None,
) -> dict:
    """Execute the suite; returns the per-workload metrics dict."""
    out: dict[str, dict] = {}
    for w in workloads:
        if select and w.name not in select:
            continue
        if progress:
            progress(f"[bench] {w.name}: running")
        runner = {
            "engine": _run_engine_workload,
            "attached": _run_attached_cost,
            "ops": _run_ops_workload,
        }[w.kind]
        metrics = runner(w.params, repeats)
        metrics["key"] = w.key
        metrics["params"] = dict(w.params)
        metrics["peak_rss_kb"] = resource.getrusage(
            resource.RUSAGE_SELF
        ).ru_maxrss
        out[w.name] = metrics
        if progress:
            progress(
                f"[bench] {w.name}: {metrics['seconds']:.3f}s "
                f"(rss {metrics['peak_rss_kb']} kB)"
            )
            for name, cost in metrics.get("attached", {}).items():
                progress(
                    f"[bench]   + {name}: {cost['cycles_per_sec']:.0f} "
                    f"cycles/s ({cost['overhead_pct']:+.1f}% over detached)"
                )
    return out


def write_bench_file(
    path: Path | str,
    label: str,
    workload_metrics: dict,
    *,
    repeats: int,
) -> dict:
    """Assemble and write the canonical ``BENCH_<label>.json`` payload."""
    from repro.simulator.engine import ENGINE_VERSION

    payload = {
        "kind": "bench",
        "schema": BENCH_SCHEMA,
        "label": label,
        "engine_version": ENGINE_VERSION,
        "created_unix": int(time.time()),
        "repeats": repeats,
        "host": {
            "platform": platform.platform(),
            "python": sys.version.split()[0],
            "machine": platform.machine(),
        },
        "workloads": workload_metrics,
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def parse_regress(text: str) -> float:
    """``"15%"`` or ``"0.15"`` -> 0.15 (fraction of allowed regression)."""
    text = text.strip()
    value = float(text[:-1]) / 100.0 if text.endswith("%") else float(text)
    if not 0 <= value < 1:
        raise ValueError(f"max-regress must be in [0, 1), got {text!r}")
    return value


#: Rate metrics compared per workload, in preference order (higher=better).
_RATE_METRICS = ("cycles_per_sec", "flit_hops_per_sec", "ops_per_sec")


def host_warnings(old: dict, new: dict) -> list[str]:
    """Comparability warnings between two bench payloads' host stanzas.

    Rates measured on different platforms or interpreter versions are
    not the same experiment; ``obs compare`` and ``obs history`` print
    these instead of silently comparing (the gate still runs — a noisy
    warning beats a silent apples-to-oranges delta).
    """
    warnings = []
    old_host = old.get("host", {}) or {}
    new_host = new.get("host", {}) or {}
    for field in ("platform", "python", "machine"):
        a, b = old_host.get(field), new_host.get(field)
        if a and b and a != b:
            warnings.append(
                f"host.{field} differs: baseline {a!r} vs candidate {b!r} "
                "— timings may not be comparable"
            )
    return warnings


def compare_payloads(
    old: dict, new: dict, *, max_regress: float = 0.15
) -> tuple[list[dict], int]:
    """Compare two bench payloads.

    Returns ``(rows, exit_code)``: one row per shared same-key workload
    and rate metric, with exit code 1 when any metric regressed beyond
    *max_regress*, 2 when nothing was comparable, else 0.
    """
    rows: list[dict] = []
    regressed = False
    old_w = old.get("workloads", {})
    new_w = new.get("workloads", {})
    for name in sorted(set(old_w) & set(new_w)):
        a, b = old_w[name], new_w[name]
        if a.get("key") != b.get("key"):
            rows.append({
                "workload": name, "metric": "-", "status": "skipped",
                "note": "workload spec changed (key mismatch)",
            })
            continue
        for metric in _RATE_METRICS:
            if metric not in a or metric not in b:
                continue
            old_rate, new_rate = a[metric], b[metric]
            if not old_rate:
                continue
            delta = (new_rate - old_rate) / old_rate
            bad = delta < -max_regress
            regressed = regressed or bad
            rows.append({
                "workload": name,
                "metric": metric,
                "old": old_rate,
                "new": new_rate,
                "delta_pct": 100.0 * delta,
                "status": "REGRESSED" if bad else "ok",
            })
    compared = [r for r in rows if r["status"] != "skipped"]
    if not compared:
        return rows, 2
    return rows, 1 if regressed else 0


def render_comparison(rows: list[dict], *, max_regress: float) -> str:
    lines = [
        f"{'workload':<26} {'metric':<18} {'old':>12} {'new':>12} {'delta':>8}"
    ]
    for row in rows:
        if row["status"] == "skipped":
            lines.append(f"{row['workload']:<26} {row['note']}")
            continue
        flag = "  <-- REGRESSED" if row["status"] == "REGRESSED" else ""
        lines.append(
            f"{row['workload']:<26} {row['metric']:<18} "
            f"{row['old']:>12.1f} {row['new']:>12.1f} "
            f"{row['delta_pct']:>+7.1f}%{flag}"
        )
    lines.append(f"(gate: regression beyond {100 * max_regress:.0f}% fails)")
    return "\n".join(lines)
