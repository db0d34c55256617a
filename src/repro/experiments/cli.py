"""Command-line entry point: regenerate any figure of the paper.

Examples::

    python -m repro.experiments budgets
    python -m repro.experiments fig1 --profile quick
    python -m repro.experiments fig6 --profile paper --out results/
    python -m repro.experiments all --algorithms nhop phop duato-nbc
    python -m repro.experiments all --store            # cache in .repro-store
    python -m repro.experiments store stats            # inspect the cache
    python -m repro.experiments verify check --all     # static routing analysis
    python -m repro.experiments obs bench --label mine # perf trajectory
    python -m repro.experiments fig3 --telemetry       # engine counters
    python -m repro.experiments serve query runs/c1 \
        --algorithm nhop --rate 0.01                   # tiered answers
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext
from functools import partial
from importlib import import_module
from pathlib import Path

from repro.cli import Verb, delegate, positive_count, run, usable_cpus
from repro.experiments.profiles import PROFILES, get_profile
from repro.routing.registry import ALGORITHM_NAMES

EXPERIMENTS = ("budgets", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6")
#: One command per key of ``ablations.ABLATIONS`` (a test pins the two
#: together), spelled out so that parsing a command line imports no
#: driver: each is imported in the branch that runs it.
ABLATION_COMMANDS = (
    "ablation-bonus-cards",
    "ablation-buffer-depth",
    "ablation-mesh-size",
    "ablation-message-length",
    "ablation-misroute-limit",
    "ablation-vc-count",
)

#: The figure phases in run order: the span that times each, the
#: driver module and its runner, and the ``--out`` file stem.  A phase
#: runs when any figure in its span name is wanted and prints each
#: wanted one with the module's ``print_<figure>``.
FIGURE_PHASES = (
    ("fig1-fig2", "fig_sweep", "run_sweep", "sweep"),
    ("fig3", "fig_vc_usage", "run_vc_usage", "fig3"),
    ("fig4-fig5", "fig_faults", "run_fault_study", "faults"),
    ("fig6", "fig_fring", "run_fring_study", "fig6"),
)


def _dump(out_dir: Path | None, name: str, payload: dict) -> None:
    if out_dir is None:
        return
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2))
    print(f"[saved {path}]")


def _run_figures(wanted, profile, algorithms, out, run: dict, trace=None):
    """Run, dump and print every wanted figure phase.

    With a *trace* (the run's root position) each phase runs inside its
    own child span, the parent of the phase's ``cell.*`` spans whether
    its cells run pooled or in process.
    """
    for phase, module, runner, stem in FIGURE_PHASES:
        figures = [fig for fig in phase.split("-") if fig in wanted]
        if not figures:
            continue
        driver = import_module(f"repro.experiments.{module}")
        with (nullcontext() if trace is None else trace.span(phase)) as span:
            result = getattr(driver, runner)(
                profile, algorithms, trace=span, **run
            )
        _dump(out, f"{stem}_{profile.name}", result.to_payload())
        for fig in figures:
            print(getattr(driver, f"print_{fig}")(result))
            print()


def _flags(parser: argparse.ArgumentParser) -> None:
    """The flags every figure and ablation command shares."""
    add = parser.add_argument
    add("--profile", default="quick", choices=sorted(PROFILES),
        help="simulation scale (default: quick; 'paper' is full scale)")
    add("--algorithms", nargs="+", default=None, choices=ALGORITHM_NAMES,
        metavar="NAME", help="restrict to a subset of algorithm names")
    add("--adaptive-cycles", action="store_true",
        help="use the profile's '+auto' twin: every run may stop at the "
        "first window boundary where the batch-means latency CI "
        "converges (cycles_mode='auto'; deterministic, store keys "
        "disjoint from fixed-cycle runs).  Not recommended for the "
        "occupancy studies (fig3/fig6), whose per-cycle statistics "
        "want the full fixed window.")
    add("--seed", type=int, default=2007, help="master seed (default 2007)")
    add("--out", type=Path, default=None, metavar="DIR",
        help="also dump raw series as JSON into DIR")
    add("--quiet", action="store_true", help="suppress per-algorithm progress")
    add("--workers", type=positive_count, default=usable_cpus(),
        help="process-pool size for the figure grids (default: the "
        "%(default)s CPUs this process may use); cells the store already "
        "holds are served in process, so a warm figure starts no pool")
    add("--store", type=Path, nargs="?", const=None, default=False,
        metavar="DIR",
        help="route all simulations through the content-addressed result "
        "store; optional DIR overrides the default location "
        "($REPRO_STORE_DIR or .repro-store).  A second identical run "
        "serves every cell from the cache.")
    add("--telemetry", action="store_true",
        help="attach a telemetry registry to every executed simulation "
        "and print the aggregated engine counters at the end; with "
        "--workers N each worker fills a fresh registry and the parent "
        "merges the snapshots (cache hits are not re-simulated and "
        "therefore not counted).  --trace-out keeps runs in process.")
    add("--manifest", type=Path, nargs="?", const=None, default=False,
        metavar="FILE",
        help="append a JSONL run manifest (cell timings, cache counters, "
        "telemetry digest); FILE defaults to "
        "manifests/<experiment>_<profile>.jsonl next to the store (or "
        "./manifests without one).  Render with 'python -m repro.obs "
        "report FILE'.")
    add("--trace-out", type=Path, default=None, metavar="FILE",
        help="record message lifecycles across all executed simulations "
        "and export them (.jsonl for JSON-lines, anything else for "
        "Chrome trace format)")
    add("--trace-sample", type=int, default=1, metavar="N",
        help="with --trace-out: trace only 1-in-N messages, chosen "
        "deterministically by message id (default 1 = all)")


def _experiment(command: str, args: argparse.Namespace) -> int:
    """Run one figure, ablation or ``all``/``ablations`` command."""
    if args.store is False:  # flag absent: caching off
        store = None
    else:
        from repro.store.cli import open_store

        store = open_store(args.store)

    telemetry = tracer = instrument = None
    if args.telemetry or args.trace_out is not None:
        from repro.obs.telemetry import Instrument, TelemetryRegistry
        from repro.obs.trace_export import lifecycle_tracer

        if args.telemetry:
            telemetry = TelemetryRegistry()
        if args.trace_out is not None:
            tracer = lifecycle_tracer(sample=args.trace_sample)
        instrument = Instrument(telemetry=telemetry, tracer=tracer)

    profile_name = args.profile
    if args.adaptive_cycles and not profile_name.endswith("+auto"):
        profile_name = f"{profile_name}+auto"
    profile = get_profile(profile_name)
    algorithms = tuple(args.algorithms) if args.algorithms else None
    progress = None if args.quiet else lambda s: print(s, file=sys.stderr)
    if command == "all":
        wanted: tuple[str, ...] = EXPERIMENTS
    elif command == "ablations":
        wanted = ABLATION_COMMANDS
    else:
        wanted = (command,)
    t0 = time.time()

    for ablation in wanted:
        if not ablation.startswith("ablation-"):
            continue
        from repro.experiments.ablations import run_ablation

        name = ablation.removeprefix("ablation-")
        if progress:
            progress(f"[ablation] {name}: running")
        result = run_ablation(name, store=store)
        _dump(args.out, f"ablation_{name}", result.to_payload())
        print(result.render())
        print()

    if "budgets" in wanted:
        from repro.experiments.budgets_table import print_budgets

        print(print_budgets(profile.config.width, profile.config.vcs_per_channel))
        print()
    options = dict(
        seed=args.seed, progress=progress, workers=args.workers, store=store,
        instrument=instrument,
    )
    if args.manifest is False:
        _run_figures(wanted, profile, algorithms, args.out, options)
    else:
        from repro.obs.manifest import ManifestWriter
        from repro.obs.spans import Trace, trace_id_from

        manifest_path = args.manifest
        if manifest_path is None:
            base = (
                store.root / "manifests" if store is not None
                else Path("manifests")
            )
            manifest_path = base / f"{command}_{profile_name}.jsonl"
        trace_id = trace_id_from("figure", command, profile_name, args.seed)
        # Each span is written as it closes; leaving this block on an
        # exception (a cell that raised) closes the manifest with
        # run-finish status="error" on the way out.
        with ManifestWriter(manifest_path) as manifest:
            manifest.run_start(
                command,
                kind="figure",
                workers=args.workers,
                store=str(store.root) if store is not None else None,
                profile=profile_name,
            )
            with Trace(manifest, trace_id).span(
                command, profile=profile_name, workers=args.workers
            ) as trace:
                _run_figures(
                    wanted, profile, algorithms, args.out,
                    dict(options, manifest=manifest), trace,
                )
            manifest.run_finish(telemetry=telemetry)
        print(f"[manifest: {manifest.events_written} events "
              f"({len(manifest.spans)} spans, trace {trace_id}) -> "
              f"{manifest.path}]")
    if telemetry is not None:
        print(telemetry.render(prefix="engine."))
        print()
    if tracer is not None:
        from repro.obs.trace_export import write_trace

        snapshot = telemetry.snapshot() if telemetry is not None else None
        n = write_trace(
            args.trace_out, tracer, label=command,
            telemetry_snapshot=snapshot,
        )
        print(f"[trace: {n} events -> {args.trace_out}]")
    if progress:
        progress(f"[total {time.time() - t0:.1f}s]")
    return 0


def _report(args: argparse.Namespace) -> int:
    from repro.experiments.report import summarize_directory

    print(summarize_directory(args.out))
    return 0


def _row(name: str, help: str) -> Verb:
    return Verb(name, help, _flags, partial(_experiment, name))


VERBS: tuple[Verb, ...] = (
    _row("budgets", "Sections 3-4: the VC budget of every algorithm."),
    _row("fig1", "Figure 1: throughput vs injection rate."),
    _row("fig2", "Figure 2: latency vs injection rate."),
    _row("fig3", "Figure 3: VC usage under faults."),
    _row("fig4", "Figure 4: throughput vs fault percentage."),
    _row("fig5", "Figure 5: latency vs fault percentage."),
    _row("fig6", "Figure 6: traffic load on f-ring nodes vs the rest."),
    _row("all", "Every figure and the budgets table."),
    _row("ablations", "Every design-knob ablation study."),
    *(
        _row(command, f"Ablation study: {command.removeprefix('ablation-')}.")
        for command in ABLATION_COMMANDS
    ),
    Verb("report", "Render saved --out JSON as markdown.",
         lambda parser: parser.add_argument(
             "--out", type=Path, default=Path("results"), metavar="DIR",
             help="directory of saved JSON (default: results)"),
         _report),
    delegate("campaigns", "Campaign verbs: plan, run, status, query.",
             "repro.campaigns.cli"),
    delegate("obs", "Observability verbs (bench, profile, report, ...).",
             "repro.obs.cli"),
    delegate("serve", "Serving verbs: query, reliability, api.",
             "repro.serve.cli"),
    delegate("store", "Result-store verbs: ls, stats, gc, export.",
             "repro.store.cli"),
    delegate("verify", "Static-analysis verbs: check, lint, cdg, drift.",
             "repro.verify.cli"),
)


def main(argv: list[str] | None = None) -> int:
    return run("repro-experiments", VERBS, argv)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
