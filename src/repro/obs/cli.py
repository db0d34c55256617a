"""``python -m repro.obs <verb>``: the observability verbs as one table.

:data:`VERBS` has one row per verb and :func:`main` is the runner of
:mod:`repro.cli` over it (the listing, one parser per verb, refusals as
``error: <reason>`` / exit 2, a quiet closed pipe).  Every verb that
simulates goes through :func:`repro.obs.bench.instrumented_run`.  What
each verb attaches and exports is tabled in ``docs/observability.md``
("The verbs"), which a test holds against :data:`VERBS`.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path

from repro.cli import Refused, Verb, positive_count, refusing, run


def _try(call, arg, prefix: str = ""):
    """``call(arg)``; an unreadable file or a malformed value is refused."""
    with refusing(prefix):  # JSONDecodeError is a ValueError
        return call(arg)


def _bench_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _events_file(path: Path) -> Path:
    """A campaign directory stands for its ``events.jsonl``."""
    return path / "events.jsonl" if path.is_dir() else path


def _failed(verb: str, failures: list[str]) -> bool:
    for line in failures:
        print(f"[{verb}] FAIL: {line}", file=sys.stderr)
    return bool(failures)


def _export(verb: str, path: Path | None, write, what: str = "") -> None:
    """One ``--csv``/``--json``/``--jsonl`` export, if asked for: make
    the directory, let ``write(path)`` fill the file, say so."""
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        write(path)
        print(f"[{verb}] wrote {what + ' to ' if what else ''}{path}")


# Flag blocks more than one verb declares
def _file_flag(parser, flag: str, help: str, metavar: str = "FILE") -> None:
    parser.add_argument(flag, type=Path, default=None, metavar=metavar,
                        help=help)


def _sim_flags(parser, *, faults: int, then) -> None:
    """The flags that size one fresh run (``bench.flags_plan``), with
    the verb's default fault count, *then* the verb's own flags."""
    add = parser.add_argument
    add("--algorithm", default="duato-nbc")
    add("--width", type=int, default=10)
    add("--vcs", type=int, default=24)
    add("--faults", type=int, default=faults,
        help=f"random block-faulty nodes (default {faults}; 10 = the "
        "paper's 10%% on a 10x10 mesh, 0 = fault-free)")
    add("--rate", type=float, default=0.02)
    add("--cycles", type=int, default=3000)
    add("--seed", type=int, default=2007)
    then(parser)


def _engine_workloads() -> dict:
    from repro.obs.bench import WORKLOADS

    return {w.name: w for w in WORKLOADS if w.kind == "engine"}


def _workload_flags(parser, *, many: bool, then) -> None:
    """The flags of a verb that runs pinned engine workloads (one, or
    with *many* one report cell each) beside a detached twin."""
    add = parser.add_argument
    names = list(_engine_workloads())
    add("--workload", nargs="+" if many else None, choices=names,
        default=None, metavar="NAME",
        help="pinned engine workload: " + ", ".join(names))
    add("--seed", type=int, default=None, help="override the pinned seed")
    _file_flag(parser, "--json", "also write the report payload as JSON")
    add("--no-selfcheck", action="store_true",
        help="skip the detached twin run proving bit-identical results")
    then(parser)


def _pinned_params(name: str, seed: int | None) -> dict:
    """A pinned engine workload's params, ``--seed`` applied."""
    params = dict(_engine_workloads()[name].params)
    if seed is not None:
        params["seed"] = seed
    return params


def _base_profiles() -> list[str]:
    from repro.experiments.profiles import PROFILES

    return sorted(n for n in PROFILES if "+" not in n)


def _profile_flags(parser, *, algorithm: str, then) -> None:
    """The flags that pick one operating point of an experiment
    profile, with the verb's default algorithm."""
    add = parser.add_argument
    add("--profile", default=None, choices=_base_profiles(),
        help="experiment profile whose configuration to run")
    add("--algorithm", default=algorithm)
    add("--load", type=float, default=None,
        help="offered flit load (default: the profile's 4th sweep point)")
    then(parser)


# bench, history: the perf harness and its ledger
def _bench_flags(parser: argparse.ArgumentParser) -> None:
    from repro.obs.bench import WORKLOADS

    add = parser.add_argument
    add("--label", required=True,
        help="output label: writes BENCH_<label>.json")
    add("--repeats", type=positive_count, default=3,
        help="timing repetitions per workload; minimum is kept (default 3)")
    add("--only", nargs="+", default=None, metavar="NAME",
        choices=[w.name for w in WORKLOADS],
        help="run a subset of workloads (partial files compare per-name)")
    add("--out-dir", type=Path, default=Path("."),
        help="directory for BENCH_<label>.json (default: current dir)")
    add("--store", type=Path, nargs="?", const=None, default=False,
        metavar="DIR",
        help="also archive the payload in the content-addressed result "
        "store (optional DIR overrides the default location)")
    add("--quiet", action="store_true")


def _bench(args: argparse.Namespace) -> int:
    from repro.obs.bench import run_suite, write_bench_file

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


def _history_flags(parser: argparse.ArgumentParser) -> None:
    from repro.obs.history import DEFAULT_LEDGER

    add = parser.add_argument
    add("bench_files", nargs="*", type=Path, metavar="BENCH.json",
        help="bench payloads to ingest into the ledger before rendering")
    add("--ledger", type=Path, default=DEFAULT_LEDGER,
        help=f"ledger path (default {DEFAULT_LEDGER})")
    add("--workload", default=None, help="restrict rendering to one workload")
    add("--metric", default=None,
        help="restrict rendering to one rate metric")
    add("--delta", nargs=2, metavar=("OLD", "NEW"), default=None,
        help="print the compare table between two ledger labels")
    _file_flag(
        parser, "--gate", "gate a fresh bench payload against the ledger "
        "baseline (exit 1 on regression, naming workload/metric/phase)",
        metavar="BENCH.json")
    add("--baseline", default=None,
        help="ledger label to gate against (default: newest entry)")
    add("--max-regress", default="15%",
        help="allowed rate-metric drop for --gate/--delta (default 15%%)")


def _history(args: argparse.Namespace) -> int:
    from repro.obs.bench import (
        compare_payloads, parse_regress, render_comparison,
    )
    from repro.obs.history import (
        gate_against_ledger, ingest, read_ledger, render_history,
    )

    tolerance = _try(parse_regress, args.max_regress)
    if args.bench_files:
        payloads = [_try(_bench_json, p, f"{p}: ") for p in args.bench_files]
        added, replaced = ingest(payloads, args.ledger)
        print(f"[history] ingested {len(payloads)} file(s) into "
              f"{args.ledger} ({added} new, {replaced} replaced)")
    entries = _try(read_ledger, args.ledger)

    if args.gate is not None:
        rows, code, messages = gate_against_ledger(
            entries, _try(_bench_json, args.gate, f"{args.gate}: "),
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
            raise Refused(f"label(s) {', '.join(missing)} not in ledger "
                          f"(have: {have})")
        rows, code = compare_payloads(
            by_label[old_label], by_label[new_label], max_regress=tolerance
        )
        print(f"delta {old_label} -> {new_label}")
        print(render_comparison(rows, max_regress=tolerance))
        return code

    print(render_history(entries, workload=args.workload, metric=args.metric))
    return 0


# smoke, heatmap, timeline: one fresh run sized by the shared flags
def _telemetry_run(plan, *observers, selfcheck: bool = False):
    """``(run, registry)`` of *plan* run with engine telemetry (and
    *observers*) attached."""
    from repro.obs.bench import instrumented_run
    from repro.obs.telemetry import EngineTelemetry, TelemetryRegistry

    registry = TelemetryRegistry()
    return instrumented_run(
        plan, EngineTelemetry(registry), *observers, selfcheck=selfcheck
    ), registry


def _smoke_flags(parser: argparse.ArgumentParser) -> None:
    _file_flag(parser, "--trace-out",
               "export sampled lifecycle trace (.json Chrome / .jsonl)")
    parser.add_argument(
        "--trace-sample", type=int, default=1, metavar="N",
        help="trace 1-in-N messages (deterministic by message id)")


def _smoke(args: argparse.Namespace) -> int:
    from repro.metrics.vc_usage import reconcile_vc_usage
    from repro.obs.bench import flags_plan
    from repro.obs.trace_export import lifecycle_tracer, write_trace

    tracers = []
    if args.trace_out is not None:
        tracers.append(lifecycle_tracer(sample=args.trace_sample))
    run, registry = _telemetry_run(
        flags_plan(args, collect_vc_stats=True), *tracers
    )
    sim, result = run.sim, run.sim.result

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
    for tracer in tracers:
        n = write_trace(
            args.trace_out, tracer,
            label=f"{args.algorithm} {args.width}x{args.width}",
            telemetry_snapshot=registry.snapshot(),
        )
        print(f"[smoke] wrote {n} trace events to {args.trace_out}")
    if _failed("smoke", failures):
        return 1
    print(f"[smoke] ok: {result.delivered}/{result.generated} messages, "
          "telemetry reconciles with SimulationResult")
    return 0


def _heatmap_flags(parser: argparse.ArgumentParser) -> None:
    from repro.obs.heatmap import METRICS

    parser.add_argument(
        "--fig6", action="store_true",
        help="use the paper's fixed Figure 6 fault layout (2x3 + 1x1 + "
        "1x1) instead of --faults random nodes")
    parser.add_argument(
        "--metric", default="hops", choices=sorted(METRICS),
        help="which per-node counter to render (default: hops)")
    _file_flag(parser, "--csv", "also write the surface as x,y,value CSV")


def _heatmap(args: argparse.Namespace) -> int:
    from repro.faults.generator import figure6_fault_pattern
    from repro.obs.bench import flags_plan
    from repro.obs.heatmap import (
        METRICS, heatmap_csv, node_surface, render_node_heatmap,
        surface_split,
    )

    run, registry = _telemetry_run(flags_plan(
        args, layout=figure6_fault_pattern if args.fig6 else None,
    ))
    sim, mesh, faults = run.sim, run.sim.mesh, run.sim.faults
    print(render_node_heatmap(
        faults, registry, metric=args.metric,
        title=f"{METRICS[args.metric]} — {args.algorithm}, "
        f"{faults.n_faulty} faults, rate {args.rate}",
    ))
    values = node_surface(registry, args.metric)
    if faults.ring_nodes:
        split = surface_split(
            values, faults.ring_nodes, cycles=sim.result.measured_cycles,
            exclude=faults.faulty,
        )
        print(
            f"\nf-ring nodes: {split.ring_load_pct:.1f}% of peak | "
            f"other nodes: {split.other_load_pct:.1f}% of peak | "
            f"hotspot ratio {split.hotspot_ratio:.2f} "
            f"(peak node {split.peak_node})"
        )
    _export("heatmap", args.csv,
            lambda path: path.write_text(heatmap_csv(mesh, values)),
            f"{mesh.n_nodes} rows")
    return 0


def _timeline_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "source", type=Path, nargs="?", default=None,
        help="run manifest (.jsonl, from --manifest/--telemetry runs) or "
        "telemetry snapshot JSON; omitted = run a fresh instrumented "
        "simulation")
    _file_flag(parser, "--csv", "write the per-window rows as CSV")
    _file_flag(parser, "--jsonl", "write the per-window rows as JSONL")
    parser.add_argument("--no-annotate", action="store_true",
                        help="skip the saturation-onset annotation")


def _timeline(args: argparse.Namespace) -> int:
    from repro.obs.timeline import (
        load_series, render_timeline, timeline_csv, timeline_jsonl_lines,
    )

    if args.source is not None:
        source = _try(load_series, args.source)
    else:
        from repro.obs.bench import flags_plan

        _, source = _telemetry_run(flags_plan(args))
    render = partial(render_timeline, annotate=not args.no_annotate)
    print(_try(render, source))  # refused: no series, or mixed windows
    _export("timeline", args.csv,
            lambda path: path.write_text(timeline_csv(source)), "CSV")
    _export("timeline", args.jsonl, lambda path: path.write_text(
        "\n".join(timeline_jsonl_lines(source)) + "\n"), "JSONL")
    return 0


# converge, profile, blame: runs sized by a profile or a pinned workload
def _converge(args: argparse.Namespace) -> int:
    from repro.experiments.profiles import get_profile
    from repro.obs.converge import analyze_profile, render_verdicts

    verdicts = [
        analyze_profile(
            get_profile(name), algorithm=args.algorithm,
            load=args.load, seed=args.seed,
        )
        for name in ([args.profile] if args.profile else _base_profiles())
    ]
    print(render_verdicts(verdicts))
    inadequate = [v for v in verdicts if not v.adequate]
    for v in inadequate:
        print(
            f"[converge] {v.profile}: configured warmup "
            f"{v.configured_warmup} < recommended {v.recommended_warmup}",
            file=sys.stderr,
        )
    return 1 if inadequate else 0


def _profile(args: argparse.Namespace) -> int:
    from repro.obs.bench import RunPlan, instrumented_run, workload_plan
    from repro.obs.profile import PhaseProfiler, render_profile
    from repro.simulator.engine import ENGINE_VERSION

    if args.workload is not None and args.profile is not None:
        print("give --workload or --profile, not both", file=sys.stderr)
        return 2
    if args.profile is not None:
        from repro.experiments.profiles import get_profile

        prof = get_profile(args.profile)
        load = args.load
        if load is None:
            load = prof.sweep_loads[min(3, len(prof.sweep_loads) - 1)]
        seed = prof.config.seed if args.seed is None else args.seed
        warm = prof.config.warmup
        measured = prof.config.cycles - warm
        plan = RunPlan(
            args.algorithm,
            partial(prof.config.with_, injection_rate=prof.rate(load),
                    on_deadlock="drain", seed=seed),
            n_faults=args.faults, warm=warm,
        )
        context = {
            "profile": args.profile, "algorithm": args.algorithm,
            "load": load, "faults": args.faults, "seed": seed,
        }
        title = (f"profile {args.profile} ({args.algorithm}, load {load}, "
                 f"{args.faults} faults)")
    else:
        name = args.workload or "engine_saturated"
        params = _pinned_params(name, args.seed)
        plan = workload_plan(params)
        warm, measured = params["warm"], params["cycles"]
        context = {"workload": name, "params": params}
        title = f"workload {name}"

    print(f"[profile] {title}: warm {warm}, measure {measured} cycles "
          f"(engine v{ENGINE_VERSION})")
    profiler = PhaseProfiler()
    neutral = instrumented_run(
        plan, profiler, selfcheck=not args.no_selfcheck
    ).neutral
    print(render_profile(profiler.report()))
    if neutral is False:
        print("[profile] FAIL: attached run diverged from detached twin "
              "(profiler is not neutral)", file=sys.stderr)
        return 1
    if neutral:
        print("[profile] self-check ok: attached == detached "
              "(bit-identical results and RNG stream)")
    _export("profile", args.json, lambda path: profiler.write_json(
        path, context=context, engine_version=ENGINE_VERSION,
        selfcheck=neutral,
    ))
    return 0


def _blame_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--top", type=int, default=10,
                        help="slow messages per cell (default 10)")
    _file_flag(parser, "--csv", "write per-cell, per-component shares as CSV")


def _blame(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.obs.bench import workload_plan
    from repro.obs.blame import (
        BlameRecorder, blame_cell, blame_csv, reconcile_blame,
        render_blame_report, write_blame_json,
    )
    from repro.simulator.engine import ENGINE_VERSION

    names = args.workload or ["engine_faulty_rings"]
    cells = []
    failures: list[str] = []
    for name in names:
        params = _pinned_params(name, args.seed)
        print(f"[blame] {name}: {params['warm'] + params['cycles']} cycles "
              f"(engine v{ENGINE_VERSION})", file=sys.stderr)
        recorder = BlameRecorder()
        # Attached from cycle 0: a message generated before the recorder
        # listens has no record to reconcile against telemetry.
        run, registry = _telemetry_run(
            replace(workload_plan(params), warm=0), recorder,
            selfcheck=not args.no_selfcheck,
        )
        failures += [
            f"{name}: {p}" for p in reconcile_blame(recorder, registry)
        ]
        cells.append(
            blame_cell(name, params["algorithm"], params["faults"], recorder)
        )
        if run.neutral is False:
            failures.append(
                f"{name}: attached run diverged from detached twin "
                "(blame recorder is not neutral)"
            )

    print(render_blame_report(cells, top=args.top))
    _export("blame", args.csv,
            lambda path: path.write_text(blame_csv(cells)), "CSV")
    _export("blame", args.json,
            lambda path: write_blame_json(path, cells, top=args.top))
    if _failed("blame", failures):
        return 1
    checks = "reconciliation"
    if not args.no_selfcheck:
        checks += " + detached-twin self-check"
    print(f"[blame] ok: {checks} passed for {', '.join(names)}")
    return 0


# report, spans: read what a run left behind
def _report(args: argparse.Namespace) -> int:
    from repro.obs.manifest import (
        read_manifest, render_report, summarize_manifest,
    )

    path = _events_file(args.manifest)
    events = _try(read_manifest, path)
    if not events:
        raise Refused(f"{path} holds no events")
    print(render_report(summarize_manifest(events)))
    return 0


def _spans_flags(parser: argparse.ArgumentParser) -> None:
    add = parser.add_argument
    add("sources", nargs="+", type=Path, metavar="FILE",
        help="span JSONL file, manifest with span events, or a campaign "
        "directory containing events.jsonl")
    add("--trace", default=None, metavar="ID",
        help="render only the trace with this id")
    add("--digest", action="store_true",
        help="print the structural merge digest (partition-independent)")
    _file_flag(parser, "--out",
               "re-export merged spans (.jsonl, or Chrome-trace JSON)")
    add("--width", type=int, default=40,
        help="waterfall bar width (default 40)")


def _spans(args: argparse.Namespace) -> int:
    from repro.obs.spans import (
        merge_spans, read_spans_jsonl, render_waterfall,
        spans_from_manifest, spans_merge_digest,
    )
    from repro.obs.trace_export import write_spans_trace

    collected: list[list[dict]] = []
    for source in args.sources:
        records = _try(read_spans_jsonl, _events_file(source))
        if any("event" in record for record in records):
            records = spans_from_manifest(records)
        collected.append(records)
    spans = merge_spans(*collected)
    if args.trace is not None:
        spans = [s for s in spans if s["trace_id"] == args.trace]
    if not spans:
        raise Refused("no spans found")
    print(render_waterfall(spans, width=args.width))
    if args.digest:
        print(f"\nmerge digest: {spans_merge_digest(spans)}")
    if args.out is not None:
        n = write_spans_trace(args.out, spans, label="repro spans")
        print(f"[spans] wrote {n} records to {args.out}")
    return 0


VERBS: tuple[Verb, ...] = (
    Verb("bench", "Run the pinned perf suite and write BENCH_<label>.json.",
         _bench_flags, _bench),
    Verb("smoke", "One instrumented run: print counters, self-verify that "
         "telemetry reconciles with the engine's aggregates.",
         partial(_sim_flags, faults=5, then=_smoke_flags), _smoke),
    Verb("report", "Render a run manifest (campaign events.jsonl or a "
         "figure run's --manifest file) as an ASCII dashboard.",
         lambda parser: parser.add_argument(
             "manifest", type=Path, help="manifest file, or a campaign "
             "output directory containing events.jsonl"), _report),
    Verb("heatmap", "One instrumented run; render the per-node telemetry "
         "surface as an ASCII density map (and optionally CSV).",
         partial(_sim_flags, faults=10, then=_heatmap_flags), _heatmap),
    Verb("timeline", "Render windowed engine telemetry as ASCII sparklines; "
         "export per-window rows as CSV/JSONL.",
         partial(_sim_flags, faults=0, then=_timeline_flags), _timeline),
    Verb("converge", "MSER warm-up truncation + batch-means CI analysis: is "
         "each profile's configured warmup adequate?",
         partial(_profile_flags, algorithm="nhop", then=lambda parser:
                 parser.add_argument("--seed", type=int, default=2007)),
         _converge),
    Verb("profile", "Run one workload under the engine phase profiler; "
         "render per-phase wall-time shares and activity attribution.",
         partial(_workload_flags, many=False, then=partial(
             _profile_flags, algorithm="duato-nbc", then=lambda parser:
             parser.add_argument(
                 "--faults", type=int, default=0,
                 help="random block-faulty nodes for --profile mode"))),
         _profile),
    Verb("history", "Maintain and render the perf ledger: ingest "
         "BENCH_*.json files, render trajectories, diff labels, gate "
         "candidates.", _history_flags, _history),
    Verb("spans", "Merge and render cross-layer trace spans from span JSONL "
         "files, run manifests, or campaign directories.",
         _spans_flags, _spans),
    Verb("blame", "Run pinned workloads with per-message latency blame "
         "attached; render blame shares and the top-K slow messages.",
         partial(_workload_flags, many=True, then=_blame_flags), _blame),
)


def main(argv: list[str] | None = None) -> int:
    return run("repro-obs", VERBS, argv)
