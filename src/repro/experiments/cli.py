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
from importlib import import_module
from pathlib import Path

from repro.experiments.profiles import PROFILES, get_profile

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


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "store":
        # Store management verbs have their own argument surface:
        # python -m repro.experiments store {ls,stats,gc,export} ...
        from repro.store.cli import main as store_main

        return store_main(argv[1:])
    if argv and argv[0] == "verify":
        # Static-analysis verbs (model checker + linter):
        # python -m repro.experiments verify {check,lint,cdg} ...
        from repro.verify.cli import main as verify_main

        return verify_main(argv[1:])
    if argv and argv[0] == "campaigns":
        # Campaign-management verbs:
        # python -m repro.experiments campaigns {plan,run,status,query,merge}
        from repro.campaigns.cli import main as campaigns_main

        return campaigns_main(argv[1:])
    if argv and argv[0] == "obs":
        # Observability verbs: python -m repro.experiments obs <verb>,
        # the rows of repro.obs.cli.VERBS (docs/observability.md, "The
        # verbs").
        from repro.obs.cli import main as obs_main

        return obs_main(argv[1:])
    if argv and argv[0] == "serve":
        # Serving verbs (tiered queries, reliability, HTTP API):
        # python -m repro.experiments serve {query,reliability,api}
        from repro.serve.cli import main as serve_main

        return serve_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the figures of the IPPS 2007 routing study.",
    )
    parser.add_argument(
        "experiment",
        choices=EXPERIMENTS
        + ABLATION_COMMANDS
        + ("all", "ablations", "report"),
        help="which figure or ablation study to regenerate ('report' "
        "renders saved JSON from --out as markdown)",
    )
    parser.add_argument(
        "--profile",
        default="quick",
        choices=sorted(PROFILES),
        help="simulation scale (default: quick; 'paper' is full scale)",
    )
    parser.add_argument(
        "--algorithms",
        nargs="+",
        default=None,
        metavar="NAME",
        help="restrict to a subset of algorithm names",
    )
    parser.add_argument(
        "--adaptive-cycles",
        action="store_true",
        help="use the profile's '+auto' twin: every run may stop at the "
        "first window boundary where the batch-means latency CI "
        "converges (cycles_mode='auto'; deterministic, store keys "
        "disjoint from fixed-cycle runs).  Not recommended for the "
        "occupancy studies (fig3/fig6), whose per-cycle statistics "
        "want the full fixed window.",
    )
    parser.add_argument(
        "--seed", type=int, default=2007, help="master seed (default 2007)"
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="DIR",
        help="also dump raw series as JSON into DIR",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-algorithm progress"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool size for the figure grids (default 1)",
    )
    parser.add_argument(
        "--store",
        type=Path,
        nargs="?",
        const=None,
        default=False,
        metavar="DIR",
        help="route all simulations through the content-addressed result "
        "store; optional DIR overrides the default location "
        "($REPRO_STORE_DIR or .repro-store).  A second identical run "
        "serves every cell from the cache.",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="attach a telemetry registry to every executed simulation "
        "and print the aggregated engine counters at the end; with "
        "--workers N each worker fills a fresh registry and the parent "
        "merges the snapshots (cache hits are not re-simulated and "
        "therefore not counted).  --trace-out keeps runs in process.",
    )
    parser.add_argument(
        "--manifest",
        type=Path,
        nargs="?",
        const=None,
        default=False,
        metavar="FILE",
        help="append a JSONL run manifest (cell timings, cache counters, "
        "telemetry digest); FILE defaults to "
        "manifests/<experiment>_<profile>.jsonl next to the store (or "
        "./manifests without one).  Render with 'python -m repro.obs "
        "report FILE'.",
    )
    parser.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="record message lifecycles across all executed simulations "
        "and export them (.jsonl for JSON-lines, anything else for "
        "Chrome trace format)",
    )
    parser.add_argument(
        "--trace-sample",
        type=int,
        default=1,
        metavar="N",
        help="with --trace-out: trace only 1-in-N messages, chosen "
        "deterministically by message id (default 1 = all)",
    )
    args = parser.parse_args(argv)
    if args.store is False:  # flag absent: caching off
        store = None
    else:
        from repro.store import ResultStore, default_store_dir

        store = ResultStore(
            args.store if args.store is not None else default_store_dir()
        )

    telemetry = tracer = instrument = None
    if args.telemetry or args.trace_out is not None:
        from repro.obs.telemetry import Instrument, TelemetryRegistry
        from repro.obs.trace_export import lifecycle_tracer

        if args.telemetry:
            telemetry = TelemetryRegistry()
        if args.trace_out is not None:
            tracer = lifecycle_tracer(sample=args.trace_sample)
        instrument = Instrument(telemetry=telemetry, tracer=tracer)

    if args.experiment == "report":
        from repro.experiments.report import summarize_directory

        print(summarize_directory(args.out or Path("results")))
        return 0

    profile_name = args.profile
    if args.adaptive_cycles and not profile_name.endswith("+auto"):
        profile_name = f"{profile_name}+auto"
    profile = get_profile(profile_name)
    algorithms = tuple(args.algorithms) if args.algorithms else None
    progress = None if args.quiet else lambda s: print(s, file=sys.stderr)
    if args.experiment == "all":
        wanted: tuple[str, ...] = EXPERIMENTS
    elif args.experiment == "ablations":
        wanted = ABLATION_COMMANDS
    else:
        wanted = (args.experiment,)
    t0 = time.time()

    for command in wanted:
        if not command.startswith("ablation-"):
            continue
        from repro.experiments.ablations import run_ablation

        name = command.removeprefix("ablation-")
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
    run = dict(
        seed=args.seed, progress=progress, workers=args.workers, store=store,
        instrument=instrument,
    )
    if args.manifest is False:
        _run_figures(wanted, profile, algorithms, args.out, run)
    else:
        from repro.obs.manifest import ManifestWriter
        from repro.obs.spans import Trace, trace_id_from

        manifest_path = args.manifest
        if manifest_path is None:
            base = (
                store.root / "manifests" if store is not None
                else Path("manifests")
            )
            manifest_path = base / f"{args.experiment}_{profile_name}.jsonl"
        trace_id = trace_id_from(
            "figure", args.experiment, profile_name, args.seed
        )
        # Each span is written as it closes; leaving this block on an
        # exception (a cell that raised) closes the manifest with
        # run-finish status="error" on the way out.
        with ManifestWriter(manifest_path) as manifest:
            manifest.run_start(
                args.experiment,
                kind="figure",
                workers=args.workers,
                store=str(store.root) if store is not None else None,
                profile=profile_name,
            )
            with Trace(manifest, trace_id).span(
                args.experiment, profile=profile_name, workers=args.workers
            ) as trace:
                _run_figures(
                    wanted, profile, algorithms, args.out,
                    dict(run, manifest=manifest), trace,
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
            args.trace_out, tracer, label=args.experiment,
            telemetry_snapshot=snapshot,
        )
        print(f"[trace: {n} events -> {args.trace_out}]")
    if progress:
        progress(f"[total {time.time() - t0:.1f}s]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
