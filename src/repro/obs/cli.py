"""Observability verbs: ``python -m repro.obs
{bench,compare,smoke,report,heatmap,timeline,converge,profile,history,
spans,blame}``.

* ``bench --label mine`` runs the pinned perf suite and writes
  ``BENCH_mine.json`` (see :mod:`repro.obs.bench`).
* ``compare BENCH_a.json BENCH_b.json --max-regress 15%`` exits 1 when
  any shared workload's rate metric regressed beyond the gate (naming
  each regressed workload on stderr), 2 when nothing was comparable,
  else 0 — the non-blocking CI perf lane.
* ``smoke`` runs one instrumented simulation, prints every telemetry
  counter, and self-verifies that the counters reconcile with the
  engine's :class:`~repro.simulator.engine.SimulationResult` aggregates
  (per-role VC occupancy vs ``vc_busy``, ejected flits vs delivered
  messages).  ``--trace-out file.json`` additionally exports a
  Chrome-trace (or ``.jsonl``) of the sampled message lifecycles.
* ``report <events.jsonl>`` renders a run manifest (from a campaign's
  ``events.jsonl`` or a figure run's ``--manifest`` file) as an ASCII
  dashboard: per-algorithm cell throughput, slowest cells, cache hit
  rate, ETA-model validation (see :mod:`repro.obs.manifest`).
* ``heatmap`` runs one instrumented simulation and renders the per-node
  ``engine.node_flit_hops`` / ``engine.node_blocked`` surface as an
  ASCII density map (``--csv`` exports ``x,y,value`` rows), plus the
  Figure 6 f-ring vs other-nodes load split when faults are present
  (see :mod:`repro.obs.heatmap`).
* ``timeline [source]`` renders the windowed ``engine.series.*``
  telemetry as ASCII sparklines with a saturation-onset annotation
  (``--csv`` / ``--jsonl`` export the per-window rows).  The source is
  a run manifest whose run carried ``--telemetry`` (the ``run-finish``
  event embeds the series), a telemetry-snapshot JSON file, or — with
  no source — a fresh instrumented run (see :mod:`repro.obs.timeline`).
* ``converge`` runs the MSER warm-up truncation + batch-means CI
  analysis per shipped profile and prints an adequacy verdict on the
  profile's configured ``warmup`` (see :mod:`repro.obs.converge`).
* ``profile`` runs a pinned bench workload (``--workload
  engine_saturated``) or an experiment profile (``--profile quick``)
  under the engine phase profiler and renders the per-phase wall-time
  breakdown + activity attribution (active routers / occupied VCs /
  routing headers vs mesh size); ``--json FILE`` exports the payload.
  A detached twin run self-checks bit-identical results by default
  (see :mod:`repro.obs.profile`).
* ``history`` maintains ``tools/perf_ledger.jsonl``: positional
  ``BENCH_*.json`` files are ingested (deduped by label), then the
  per-workload trajectory renders as sparklines.  ``--delta A B``
  prints the compare table between two ledger labels; ``--gate
  CANDIDATE.json`` gates a fresh bench file against the ledger
  baseline, naming the regressed workload, metric, and phase (see
  :mod:`repro.obs.history`).
* ``spans <file>...`` renders cross-layer trace spans — from span JSONL
  files (``serve query --trace-out``), run manifests carrying ``span``
  events, or a campaign directory's ``events.jsonl`` — as an ASCII
  waterfall per trace, after a partition-independent merge.
  ``--digest`` prints the structural merge digest (equal across any
  sharding of the same run); ``--out FILE`` re-exports the merged spans
  (``.jsonl`` or Chrome-trace JSON); ``--trace ID`` filters to one
  trace (see :mod:`repro.obs.spans`).
* ``blame`` runs pinned bench workloads (default
  ``engine_faulty_rings``) with a :class:`~repro.obs.blame.
  BlameRecorder` attached and renders per-algorithm, per-fault-case
  latency blame shares plus the top-K slow messages with their
  per-component cycles.  Reconciliation against telemetry is checked
  on every run; a detached twin self-checks bit-identical results by
  default.  ``--csv`` / ``--json`` export (see :mod:`repro.obs.blame`).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def bench_main(argv: list[str]) -> int:
    from repro.obs.bench import run_suite, WORKLOADS, write_bench_file

    parser = argparse.ArgumentParser(
        prog="repro-obs bench",
        description="Run the pinned perf suite and write BENCH_<label>.json.",
    )
    parser.add_argument(
        "--label", required=True,
        help="output label: writes BENCH_<label>.json",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing repetitions per workload; minimum is kept (default 3)",
    )
    parser.add_argument(
        "--only", nargs="+", default=None, metavar="NAME",
        choices=[w.name for w in WORKLOADS],
        help="run a subset of workloads (partial files compare per-name)",
    )
    parser.add_argument(
        "--out-dir", type=Path, default=Path("."),
        help="directory for BENCH_<label>.json (default: current dir)",
    )
    parser.add_argument(
        "--store", type=Path, nargs="?", const=None, default=False,
        metavar="DIR",
        help="also archive the payload in the content-addressed result "
        "store (optional DIR overrides the default location)",
    )
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    progress = None if args.quiet else (lambda s: print(s, file=sys.stderr))
    metrics = run_suite(
        repeats=args.repeats,
        select=tuple(args.only) if args.only else None,
        progress=progress,
    )
    if not metrics:
        print("no workloads selected", file=sys.stderr)
        return 2
    path = args.out_dir / f"BENCH_{args.label}.json"
    payload = write_bench_file(path, args.label, metrics, repeats=args.repeats)
    print(f"[bench] wrote {path} ({len(metrics)} workloads)")
    if args.store is not False:
        from repro.store import ResultStore, default_store_dir
        from repro.store.keys import content_digest

        store = ResultStore(
            args.store if args.store is not None else default_store_dir()
        )
        key = content_digest({"kind": "bench-run", "label": args.label,
                              "created": payload["created_unix"]})
        store.put(key, payload)
        print(f"[bench] archived under key {key[:16]}… in {store.root}")
    return 0


def compare_main(argv: list[str]) -> int:
    from repro.obs.bench import (
        compare_payloads, parse_regress, render_comparison,
    )

    parser = argparse.ArgumentParser(
        prog="repro-obs compare",
        description="Gate a new BENCH file against a baseline "
        "(exit 1 on regression, 2 when nothing is comparable).",
    )
    parser.add_argument("old", type=Path, help="baseline BENCH_*.json")
    parser.add_argument("new", type=Path, help="candidate BENCH_*.json")
    parser.add_argument(
        "--max-regress", default="15%",
        help="allowed rate-metric drop, '15%%' or '0.15' (default 15%%)",
    )
    args = parser.parse_args(argv)
    try:
        tolerance = parse_regress(args.max_regress)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        old = json.loads(args.old.read_text())
        new = json.loads(args.new.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from repro.obs.bench import host_warnings

    for warning in host_warnings(old, new):
        print(f"warning: {warning}", file=sys.stderr)
    rows, code = compare_payloads(old, new, max_regress=tolerance)
    print(
        f"comparing {args.old.name} (engine v{old.get('engine_version', '?')})"
        f" -> {args.new.name} (engine v{new.get('engine_version', '?')})"
    )
    print(render_comparison(rows, max_regress=tolerance))
    if code == 1:
        bad = [r for r in rows if r["status"] == "REGRESSED"]
        names = ", ".join(
            f"{r['workload']}.{r['metric']} ({r['delta_pct']:+.1f}%)"
            for r in bad
        )
        print(
            f"regressed beyond {100 * tolerance:.0f}%: {names}",
            file=sys.stderr,
        )
    elif code == 2:
        print("no comparable workloads (keys changed?)", file=sys.stderr)
    return code


def _instrumented_sim(args, *, faults=None, observers=(), **config):
    """The run behind ``smoke``/``heatmap``/``timeline``: 16-flit
    messages, no warmup, drain recovery, sized by the verb's shared
    ``--algorithm/--width/--vcs/--faults/--rate/--cycles/--seed`` args,
    with engine telemetry attached.  Returns ``(sim, registry)``."""
    from repro.obs.bench import build_sim
    from repro.obs.telemetry import EngineTelemetry, TelemetryRegistry
    from repro.simulator.config import SimConfig

    cfg = SimConfig(
        width=args.width, vcs_per_channel=args.vcs, message_length=16,
        injection_rate=args.rate, cycles=args.cycles, warmup=0,
        seed=args.seed, on_deadlock="drain", **config,
    )
    registry = TelemetryRegistry()
    sim = build_sim(
        cfg, args.algorithm, n_faults=args.faults, faults=faults,
        observers=[EngineTelemetry(registry), *observers],
    )
    return sim, registry


def smoke_main(argv: list[str]) -> int:
    from repro.metrics.vc_usage import reconcile_vc_usage
    from repro.obs.trace_export import lifecycle_tracer, write_trace

    parser = argparse.ArgumentParser(
        prog="repro-obs smoke",
        description="One instrumented run: print counters, self-verify "
        "that telemetry reconciles with the engine's aggregates.",
    )
    parser.add_argument("--algorithm", default="duato-nbc")
    parser.add_argument("--width", type=int, default=10)
    parser.add_argument("--vcs", type=int, default=24)
    parser.add_argument("--faults", type=int, default=5)
    parser.add_argument("--rate", type=float, default=0.02)
    parser.add_argument("--cycles", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument(
        "--trace-out", type=Path, default=None, metavar="FILE",
        help="export sampled lifecycle trace (.json Chrome / .jsonl)",
    )
    parser.add_argument(
        "--trace-sample", type=int, default=1, metavar="N",
        help="trace 1-in-N messages (deterministic by message id)",
    )
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_out is not None:
        tracer = lifecycle_tracer(sample=args.trace_sample)
    sim, registry = _instrumented_sim(
        args, observers=[tracer] if tracer is not None else (),
        collect_vc_stats=True,
    )
    result = sim.run()

    print(registry.render(prefix="engine."))
    failures = [
        f"{label}: telemetry {registry.value(name)} != result {expected}"
        for label, name, expected in (
            ("generated", "engine.messages.generated", result.generated),
            ("delivered", "engine.messages.delivered", result.delivered),
            ("ejected flits", "engine.flits.ejected", result.delivered_flits),
        )
        if registry.value(name) != expected
    ]
    try:
        rollup = reconcile_vc_usage(result, registry, sim.algorithm.budget)
        print(f"[smoke] per-role VC occupancy reconciled: {rollup}")
    except ValueError as exc:
        failures.append(str(exc))
    if tracer is not None:
        n = write_trace(
            args.trace_out, tracer,
            label=f"{args.algorithm} {args.width}x{args.width}",
            telemetry_snapshot=registry.snapshot(),
        )
        print(f"[smoke] wrote {n} trace events to {args.trace_out}")
    if failures:
        for line in failures:
            print(f"[smoke] FAIL: {line}", file=sys.stderr)
        return 1
    print(
        f"[smoke] ok: {result.delivered}/{result.generated} messages, "
        "telemetry reconciles with SimulationResult"
    )
    return 0


def report_main(argv: list[str]) -> int:
    from repro.obs.manifest import (
        read_manifest, render_report, summarize_manifest,
    )

    parser = argparse.ArgumentParser(
        prog="repro-obs report",
        description="Render a run manifest (campaign events.jsonl or a "
        "figure run's --manifest file) as an ASCII dashboard.",
    )
    parser.add_argument(
        "manifest", type=Path,
        help="manifest file, or a campaign output directory containing "
        "events.jsonl",
    )
    args = parser.parse_args(argv)
    path = args.manifest
    if path.is_dir():
        path = path / "events.jsonl"
    try:
        events = read_manifest(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not events:
        print(f"error: {path} holds no events", file=sys.stderr)
        return 2
    print(render_report(summarize_manifest(events)))
    return 0


def heatmap_main(argv: list[str]) -> int:
    from repro.faults.generator import figure6_fault_pattern
    from repro.obs.heatmap import (
        METRICS, heatmap_csv, node_surface, render_node_heatmap,
        surface_split,
    )
    from repro.topology.mesh import Mesh2D

    parser = argparse.ArgumentParser(
        prog="repro-obs heatmap",
        description="One instrumented run; render the per-node telemetry "
        "surface as an ASCII density map (and optionally CSV).",
    )
    parser.add_argument("--algorithm", default="duato-nbc")
    parser.add_argument("--width", type=int, default=10)
    parser.add_argument("--vcs", type=int, default=24)
    parser.add_argument(
        "--faults", type=int, default=10,
        help="random block-faulty nodes (default 10 = the paper's 10%% "
        "on a 10x10 mesh); 0 for fault-free",
    )
    parser.add_argument(
        "--fig6", action="store_true",
        help="use the paper's fixed Figure 6 fault layout (2x3 + 1x1 + "
        "1x1) instead of --faults random nodes",
    )
    parser.add_argument("--rate", type=float, default=0.02)
    parser.add_argument("--cycles", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument(
        "--metric", default="hops", choices=sorted(METRICS),
        help="which per-node counter to render (default: hops)",
    )
    parser.add_argument(
        "--csv", type=Path, default=None, metavar="FILE",
        help="also write the surface as x,y,value CSV",
    )
    args = parser.parse_args(argv)

    sim, registry = _instrumented_sim(
        args,
        faults=figure6_fault_pattern(Mesh2D(args.width)) if args.fig6 else None,
    )
    mesh, faults = sim.mesh, sim.faults
    result = sim.run()
    print(render_node_heatmap(
        faults, registry, metric=args.metric,
        title=f"{METRICS[args.metric]} — {args.algorithm}, "
        f"{faults.n_faulty} faults, rate {args.rate}",
    ))
    values = node_surface(registry, args.metric)
    if faults.ring_nodes:
        split = surface_split(
            values, faults.ring_nodes, cycles=result.measured_cycles,
            exclude=faults.faulty,
        )
        print(
            f"\nf-ring nodes: {split.ring_load_pct:.1f}% of peak | "
            f"other nodes: {split.other_load_pct:.1f}% of peak | "
            f"hotspot ratio {split.hotspot_ratio:.2f} "
            f"(peak node {split.peak_node})"
        )
    if args.csv is not None:
        args.csv.parent.mkdir(parents=True, exist_ok=True)
        args.csv.write_text(heatmap_csv(mesh, values))
        print(f"[heatmap] wrote {mesh.n_nodes} rows to {args.csv}")
    return 0


def timeline_main(argv: list[str]) -> int:
    from repro.obs.timeline import (
        load_series, render_timeline, timeline_csv, timeline_jsonl_lines,
    )

    parser = argparse.ArgumentParser(
        prog="repro-obs timeline",
        description="Render windowed engine telemetry as ASCII "
        "sparklines; export per-window rows as CSV/JSONL.",
    )
    parser.add_argument(
        "source", type=Path, nargs="?", default=None,
        help="run manifest (.jsonl, from --manifest/--telemetry runs) or "
        "telemetry snapshot JSON; omitted = run a fresh instrumented "
        "simulation",
    )
    parser.add_argument("--algorithm", default="duato-nbc",
                        help="algorithm for the fresh run (no source)")
    parser.add_argument("--width", type=int, default=10)
    parser.add_argument("--vcs", type=int, default=24)
    parser.add_argument("--faults", type=int, default=0)
    parser.add_argument("--rate", type=float, default=0.02)
    parser.add_argument("--cycles", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument(
        "--csv", type=Path, default=None, metavar="FILE",
        help="write the per-window rows as CSV",
    )
    parser.add_argument(
        "--jsonl", type=Path, default=None, metavar="FILE",
        help="write the per-window rows as JSONL",
    )
    parser.add_argument(
        "--no-annotate", action="store_true",
        help="skip the saturation-onset annotation",
    )
    args = parser.parse_args(argv)

    if args.source is not None:
        try:
            source = load_series(args.source)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sim, source = _instrumented_sim(args)
        sim.run()

    try:
        print(render_timeline(source, annotate=not args.no_annotate))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.csv is not None:
        args.csv.parent.mkdir(parents=True, exist_ok=True)
        args.csv.write_text(timeline_csv(source))
        print(f"[timeline] wrote CSV to {args.csv}")
    if args.jsonl is not None:
        args.jsonl.parent.mkdir(parents=True, exist_ok=True)
        args.jsonl.write_text(
            "\n".join(timeline_jsonl_lines(source)) + "\n"
        )
        print(f"[timeline] wrote JSONL to {args.jsonl}")
    return 0


def converge_main(argv: list[str]) -> int:
    from repro.experiments.profiles import PROFILES, get_profile
    from repro.obs.converge import analyze_profile, render_verdicts

    base_profiles = sorted(n for n in PROFILES if "+" not in n)
    parser = argparse.ArgumentParser(
        prog="repro-obs converge",
        description="MSER warm-up truncation + batch-means CI analysis: "
        "is each profile's configured warmup adequate?",
    )
    parser.add_argument(
        "--profile", choices=base_profiles, default=None,
        help="analyze one profile (default: all base profiles)",
    )
    parser.add_argument("--algorithm", default="nhop")
    parser.add_argument(
        "--load", type=float, default=None,
        help="offered flit load (default: the profile's 4th sweep point)",
    )
    parser.add_argument("--seed", type=int, default=2007)
    args = parser.parse_args(argv)

    names = [args.profile] if args.profile else base_profiles
    verdicts = [
        analyze_profile(
            get_profile(name), algorithm=args.algorithm,
            load=args.load, seed=args.seed,
        )
        for name in names
    ]
    print(render_verdicts(verdicts))
    inadequate = [v for v in verdicts if not v.adequate]
    if inadequate:
        for v in inadequate:
            print(
                f"[converge] {v.profile}: configured warmup "
                f"{v.configured_warmup} < recommended "
                f"{v.recommended_warmup}",
                file=sys.stderr,
            )
        return 1
    return 0


def profile_main(argv: list[str]) -> int:
    from repro.obs.bench import (
        WORKLOADS, _build_engine_sim, build_sim, engine_state,
    )
    from repro.obs.profile import PhaseProfiler, render_profile
    from repro.simulator.engine import ENGINE_VERSION

    engine_workloads = [w.name for w in WORKLOADS if w.kind == "engine"]
    from repro.experiments.profiles import PROFILES

    base_profiles = sorted(n for n in PROFILES if "+" not in n)
    parser = argparse.ArgumentParser(
        prog="repro-obs profile",
        description="Run one workload under the engine phase profiler; "
        "render per-phase wall-time shares and activity attribution "
        "(active routers / occupied VCs / routing headers vs mesh size).",
    )
    parser.add_argument(
        "--workload", choices=engine_workloads, default=None,
        help="pinned bench workload to profile (default: "
        "engine_saturated when --profile is not given)",
    )
    parser.add_argument(
        "--profile", choices=base_profiles, default=None,
        help="profile an experiment profile's configuration instead of "
        "a pinned bench workload",
    )
    parser.add_argument("--algorithm", default="duato-nbc",
                        help="algorithm for --profile mode")
    parser.add_argument(
        "--load", type=float, default=None,
        help="offered flit load for --profile mode (default: the "
        "profile's 4th sweep point)",
    )
    parser.add_argument("--faults", type=int, default=0,
                        help="random block-faulty nodes for --profile mode")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--json", type=Path, default=None, metavar="FILE",
        help="also write the profile payload as JSON",
    )
    parser.add_argument(
        "--no-selfcheck", action="store_true",
        help="skip the detached twin run proving bit-identical results",
    )
    args = parser.parse_args(argv)
    if args.workload is not None and args.profile is not None:
        print("give --workload or --profile, not both", file=sys.stderr)
        return 2

    profiler = PhaseProfiler()
    if args.profile is not None:
        from repro.experiments.profiles import get_profile

        prof = get_profile(args.profile)
        load = (
            args.load
            if args.load is not None
            else prof.sweep_loads[min(3, len(prof.sweep_loads) - 1)]
        )
        cfg = prof.config.with_(
            injection_rate=prof.rate(load), on_deadlock="drain",
        )
        if args.seed is not None:
            cfg = cfg.with_(seed=args.seed)

        def build():
            return build_sim(cfg, args.algorithm, n_faults=args.faults)

        warm, measured = cfg.warmup, cfg.cycles - cfg.warmup
        context = {
            "profile": args.profile, "algorithm": args.algorithm,
            "load": load, "faults": args.faults, "seed": cfg.seed,
        }
        title = (
            f"profile {args.profile} ({args.algorithm}, load {load}, "
            f"{args.faults} faults)"
        )
    else:
        workload = {w.name: w for w in WORKLOADS}[
            args.workload or "engine_saturated"
        ]
        params = dict(workload.params)
        if args.seed is not None:
            params["seed"] = args.seed

        def build():
            return _build_engine_sim(params)

        warm, measured = params["warm"], params["cycles"]
        context = {"workload": workload.name, "params": params}
        title = f"workload {workload.name}"

    print(f"[profile] {title}: warm {warm}, measure {measured} cycles "
          f"(engine v{ENGINE_VERSION})")
    sim = build()
    sim.step(warm)
    sim.attach(profiler)
    sim.step(measured)

    selfcheck = None
    if not args.no_selfcheck:
        twin = build()
        twin.step(warm + measured)
        selfcheck = engine_state(sim) == engine_state(twin)

    report = profiler.report()
    print(render_profile(report))
    if selfcheck is not None:
        if not selfcheck:
            print(
                "[profile] FAIL: attached run diverged from detached twin "
                "(profiler is not neutral)",
                file=sys.stderr,
            )
            return 1
        print(
            "[profile] self-check ok: attached == detached "
            "(bit-identical results and RNG stream)"
        )
    if args.json is not None:
        profiler.write_json(
            args.json,
            context=context,
            engine_version=ENGINE_VERSION,
            selfcheck=selfcheck,
        )
        print(f"[profile] wrote {args.json}")
    return 0


def history_main(argv: list[str]) -> int:
    from repro.obs.bench import parse_regress, render_comparison
    from repro.obs.history import (
        DEFAULT_LEDGER, compare_payloads, gate_against_ledger, ingest,
        read_ledger, render_history,
    )

    parser = argparse.ArgumentParser(
        prog="repro-obs history",
        description="Maintain and render the perf ledger "
        "(tools/perf_ledger.jsonl): ingest BENCH_*.json files, render "
        "per-workload trajectories, diff labels, gate candidates.",
    )
    parser.add_argument(
        "bench_files", nargs="*", type=Path, metavar="BENCH.json",
        help="bench payloads to ingest into the ledger before rendering",
    )
    parser.add_argument(
        "--ledger", type=Path, default=DEFAULT_LEDGER,
        help=f"ledger path (default {DEFAULT_LEDGER})",
    )
    parser.add_argument("--workload", default=None,
                        help="restrict rendering to one workload")
    parser.add_argument("--metric", default=None,
                        help="restrict rendering to one rate metric")
    parser.add_argument(
        "--delta", nargs=2, metavar=("OLD", "NEW"), default=None,
        help="print the compare table between two ledger labels",
    )
    parser.add_argument(
        "--gate", type=Path, default=None, metavar="BENCH.json",
        help="gate a fresh bench payload against the ledger baseline "
        "(exit 1 on regression, naming workload/metric/phase)",
    )
    parser.add_argument(
        "--baseline", default=None,
        help="ledger label to gate against (default: newest entry)",
    )
    parser.add_argument(
        "--max-regress", default="15%",
        help="allowed rate-metric drop for --gate/--delta (default 15%%)",
    )
    args = parser.parse_args(argv)
    try:
        tolerance = parse_regress(args.max_regress)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def load(path: Path) -> dict | None:
        try:
            return json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return None

    if args.bench_files:
        payloads = [load(p) for p in args.bench_files]
        if any(p is None for p in payloads):
            return 2
        added, replaced = ingest(payloads, args.ledger)
        print(
            f"[history] ingested {len(payloads)} file(s) into "
            f"{args.ledger} ({added} new, {replaced} replaced)"
        )
    try:
        entries = read_ledger(args.ledger)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.gate is not None:
        candidate = load(args.gate)
        if candidate is None:
            return 2
        rows, code, messages = gate_against_ledger(
            entries, candidate,
            baseline=args.baseline, max_regress=tolerance,
        )
        print(messages[0] if messages else "")
        for message in messages[1:]:
            print(message, file=sys.stderr)
        if rows:
            print(render_comparison(rows, max_regress=tolerance))
        return code

    if args.delta is not None:
        old_label, new_label = args.delta
        by_label = {e.get("label"): e for e in entries}
        missing = [lbl for lbl in (old_label, new_label) if lbl not in by_label]
        if missing:
            have = ", ".join(sorted(filter(None, by_label)))
            print(
                f"error: label(s) {', '.join(missing)} not in ledger "
                f"(have: {have})",
                file=sys.stderr,
            )
            return 2
        rows, code = compare_payloads(
            by_label[old_label], by_label[new_label], max_regress=tolerance
        )
        print(f"delta {old_label} -> {new_label}")
        print(render_comparison(rows, max_regress=tolerance))
        return code

    print(render_history(
        entries, workload=args.workload, metric=args.metric
    ))
    return 0


def spans_main(argv: list[str]) -> int:
    from repro.obs.spans import (
        merge_spans, read_spans_jsonl, render_waterfall,
        spans_from_manifest, spans_merge_digest,
    )
    from repro.obs.trace_export import write_spans_trace

    parser = argparse.ArgumentParser(
        prog="repro-obs spans",
        description="Merge and render cross-layer trace spans from span "
        "JSONL files, run manifests, or campaign directories.",
    )
    parser.add_argument(
        "sources", nargs="+", type=Path, metavar="FILE",
        help="span JSONL file, manifest with span events, or a campaign "
        "directory containing events.jsonl",
    )
    parser.add_argument(
        "--trace", default=None, metavar="ID",
        help="render only the trace with this id",
    )
    parser.add_argument(
        "--digest", action="store_true",
        help="print the structural merge digest (partition-independent)",
    )
    parser.add_argument(
        "--out", type=Path, default=None, metavar="FILE",
        help="re-export merged spans (.jsonl, or Chrome-trace JSON)",
    )
    parser.add_argument("--width", type=int, default=40,
                        help="waterfall bar width (default 40)")
    args = parser.parse_args(argv)

    collected: list[list[dict]] = []
    for source in args.sources:
        path = source / "events.jsonl" if source.is_dir() else source
        try:
            records = read_spans_jsonl(path)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if any("event" in record for record in records):
            collected.append(spans_from_manifest(records))
        else:
            collected.append(records)
    spans = merge_spans(*collected)
    if args.trace is not None:
        spans = [s for s in spans if s["trace_id"] == args.trace]
    if not spans:
        print("error: no spans found", file=sys.stderr)
        return 2
    print(render_waterfall(spans, width=args.width))
    if args.digest:
        print(f"\nmerge digest: {spans_merge_digest(spans)}")
    if args.out is not None:
        n = write_spans_trace(args.out, spans, label="repro spans")
        print(f"[spans] wrote {n} records to {args.out}")
    return 0


def blame_main(argv: list[str]) -> int:
    from repro.obs.bench import WORKLOADS, _build_engine_sim, engine_state
    from repro.obs.blame import (
        BlameRecorder, blame_cell, blame_csv, reconcile_blame,
        render_blame_report, write_blame_json,
    )
    from repro.obs.telemetry import EngineTelemetry, TelemetryRegistry
    from repro.simulator.engine import ENGINE_VERSION

    engine_workloads = [w.name for w in WORKLOADS if w.kind == "engine"]
    parser = argparse.ArgumentParser(
        prog="repro-obs blame",
        description="Run pinned workloads with per-message latency blame "
        "attached; render blame shares and the top-K slow messages.",
    )
    parser.add_argument(
        "--workload", nargs="+", choices=engine_workloads, default=None,
        metavar="NAME",
        help="pinned engine workload(s), one report cell each "
        "(default: engine_faulty_rings); choices: "
        + ", ".join(engine_workloads),
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="override each workload's pinned seed")
    parser.add_argument("--top", type=int, default=10,
                        help="slow messages per cell (default 10)")
    parser.add_argument(
        "--csv", type=Path, default=None, metavar="FILE",
        help="write per-cell, per-component shares as CSV",
    )
    parser.add_argument(
        "--json", type=Path, default=None, metavar="FILE",
        help="write the blame report payload as JSON",
    )
    parser.add_argument(
        "--no-selfcheck", action="store_true",
        help="skip the detached twin run proving bit-identical results",
    )
    args = parser.parse_args(argv)

    by_name = {w.name: w for w in WORKLOADS}
    names = args.workload or ["engine_faulty_rings"]
    cells = []
    failures: list[str] = []
    for name in names:
        params = dict(by_name[name].params)
        if args.seed is not None:
            params["seed"] = args.seed
        cycles = params["warm"] + params["cycles"]
        print(f"[blame] {name}: {cycles} cycles "
              f"(engine v{ENGINE_VERSION})", file=sys.stderr)
        registry = TelemetryRegistry()
        recorder = BlameRecorder()
        sim = _build_engine_sim(params, EngineTelemetry(registry), recorder)
        sim.step(cycles)
        for problem in reconcile_blame(recorder, registry):
            failures.append(f"{name}: {problem}")
        cells.append(
            blame_cell(name, params["algorithm"], params["faults"], recorder)
        )
        if not args.no_selfcheck:
            twin = _build_engine_sim(params)
            twin.step(cycles)
            if engine_state(sim) != engine_state(twin):
                failures.append(
                    f"{name}: attached run diverged from detached twin "
                    "(blame recorder is not neutral)"
                )

    print(render_blame_report(cells, top=args.top))
    if args.csv is not None:
        args.csv.parent.mkdir(parents=True, exist_ok=True)
        args.csv.write_text(blame_csv(cells))
        print(f"[blame] wrote CSV to {args.csv}")
    if args.json is not None:
        write_blame_json(args.json, cells, top=args.top)
        print(f"[blame] wrote {args.json}")
    if failures:
        for line in failures:
            print(f"[blame] FAIL: {line}", file=sys.stderr)
        return 1
    checks = "reconciliation"
    if not args.no_selfcheck:
        checks += " + detached-twin self-check"
    print(f"[blame] ok: {checks} passed for {', '.join(names)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    verbs = {
        "bench": bench_main,
        "compare": compare_main,
        "smoke": smoke_main,
        "report": report_main,
        "heatmap": heatmap_main,
        "timeline": timeline_main,
        "converge": converge_main,
        "profile": profile_main,
        "history": history_main,
        "spans": spans_main,
        "blame": blame_main,
    }
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        print(f"verbs: {', '.join(sorted(verbs))}")
        return 0
    verb = argv[0]
    if verb not in verbs:
        print(f"unknown verb {verb!r}; expected one of "
              f"{', '.join(sorted(verbs))}", file=sys.stderr)
        return 2
    return verbs[verb](argv[1:])


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
