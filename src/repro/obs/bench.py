"""Headless perf harness: a pinned workload suite with JSON trajectories.

``python -m repro.obs bench --label mine`` executes every pinned workload
and writes a canonical ``BENCH_mine.json`` at the current directory (the
repo root, by convention; bench files are not committed — the perf
ledger keeps one condensed row per label).  ``python -m repro.obs
history --gate BENCH_mine.json --max-regress 15%`` exits nonzero when
any workload it shares with the ledger baseline regressed, so a
non-blocking CI lane can track the repo's performance trajectory commit
over commit.

The suite times kernels and paths no end-to-end workload isolates: the
engine, instrument prices, fault generation, routing candidates,
construction, store contention and the model checker.  How long a
figure, a campaign or a served answer takes end to end is
``bench/run.py``'s to time (``fig1_smoke_cold``, ``campaign_small_cells``,
``serve_http_loopback``); a path one of those runs has no workload here.

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
  :func:`compare_payloads` only compares workloads whose keys match, so
  a re-pinned workload silently stops gating instead of producing bogus
  deltas.
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
#: which un-gates it in :func:`compare_payloads` — bump deliberately,
#: not silently.
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
    # 100 builds a sample (≈20 ms): at 3 (≈0.7 ms) host jitter alone
    # moved the sample past the 15 % gate.
    Workload("simulation_construction", "ops", {
        "op": "construction", "algorithm": "duato-nbc", "width": 10,
        "vcs": 24, "message_length": 100, "builds": 100,
    }),
    # Constructions per second at the campaign-cell (6x6) and paper
    # (10x10) mesh sizes, 24 VCs: what every short cell pays before its
    # first cycle.  The fabric is lazy, so this must stay independent of
    # the VC budget (it was ~9 ms / ~26 ms per build when eager).
    Workload("engine_build", "ops", {
        "op": "construction", "algorithm": "duato-nbc", "widths": [6, 10],
        "vcs": 24, "message_length": 4, "builds": 50,
    }),
    # Write-side store scaling: N processes append to one ResultStore at
    # once, as two commands sharing --store do (a figure's pool workers
    # write private held/ stores; only the parent appends).  Times the
    # locked-append path under real cross-process contention.
    Workload("store_contention", "ops", {
        "op": "store_contention", "writers": 4, "puts_per_writer": 25,
        "payload_floats": 32,
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
                if not report.passed:
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
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, not {repeats}")
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
    not the same experiment; ``obs history --gate`` prints
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
