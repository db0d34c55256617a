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
from collections.abc import Callable
from contextlib import nullcontext
from functools import partial
from importlib import import_module
from pathlib import Path
from typing import Any

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

#: The figure phases in run order: the span that times each (also the
#: ``experiment`` its payload names), the driver module and its runner,
#: and the ``--out`` file stem.  A phase runs when any figure in its span
#: name is wanted and prints each wanted one with the module's
#: ``print_<figure>``, which reads the phase's payload.
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


def _figures_text(driver, figures, payload: dict) -> str:
    return "\n\n".join(getattr(driver, f"print_{fig}")(payload) for fig in figures)


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
        payload = result.to_payload()
        _dump(out, f"{stem}_{profile.name}", payload)
        print(_figures_text(driver, figures, payload))
        print()


def _flags(*names: str) -> Callable[[argparse.ArgumentParser], None]:
    """Declare the flags in *names*, or every figure flag without names;
    a command is given only the flags it reads."""
    return partial(_declare, names)


def _declare(names: tuple[str, ...], parser: argparse.ArgumentParser) -> None:
    def add(flag: str, **spec: Any) -> None:
        if not names or flag in names:
            parser.add_argument(flag, **spec)

    add("--profile", default="quick", choices=sorted(PROFILES),
        help="simulation scale (default: quick; 'paper' is full scale)")
    add("--algorithms", nargs="+", default=None, choices=ALGORITHM_NAMES,
        metavar="NAME", help="restrict to a subset of algorithm names")
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
        "therefore not counted).")
    add("--manifest", type=Path, nargs="?", const=None, default=False,
        metavar="FILE",
        help="append a JSONL run manifest (cell timings, cache counters, "
        "telemetry digest); FILE defaults to "
        "manifests/<experiment>_<profile>.jsonl next to the store (or "
        "./manifests without one).  Render with 'python -m repro.obs "
        "report FILE'.")


def _open_store(args: argparse.Namespace):
    if args.store is False:  # flag absent: caching off
        return None
    from repro.store.cli import open_store

    return open_store(args.store)


def _timed(
    handler: Callable[[argparse.Namespace], int],
) -> Callable[[argparse.Namespace], int]:
    """*handler*, closed by a ``[total Ns]`` progress line."""
    def timed(args: argparse.Namespace) -> int:
        t0 = time.time()
        code = handler(args)
        if not args.quiet:
            print(f"[total {time.time() - t0:.1f}s]", file=sys.stderr)
        return code
    return timed


def _budgets(args: argparse.Namespace) -> int:
    """The VC budget table on the ``--profile`` mesh."""
    from repro.experiments.budgets_table import print_budgets

    config = get_profile(args.profile).config
    print(print_budgets(config.width, config.vcs_per_channel))
    print()
    return 0


def _ablations(command: str, args: argparse.Namespace) -> int:
    """Run, dump and print one ablation study, or all of them."""
    from repro.experiments.ablations import print_ablation, run_ablation

    store = _open_store(args)
    for study in ABLATION_COMMANDS if command == "ablations" else (command,):
        name = study.removeprefix("ablation-")
        if not args.quiet:
            print(f"[ablation] {name}: running", file=sys.stderr)
        payload = run_ablation(name, store=store).to_payload()
        _dump(args.out, f"ablation_{name}", payload)
        print(print_ablation(payload))
        print()
    return 0


def _experiment(command: str, args: argparse.Namespace) -> int:
    """Run one figure command or ``all``."""
    store = _open_store(args)
    telemetry = None
    if args.telemetry:
        from repro.obs.telemetry import TelemetryRegistry

        telemetry = TelemetryRegistry()

    profile = get_profile(args.profile)
    algorithms = tuple(args.algorithms) if args.algorithms else None
    wanted = EXPERIMENTS if command == "all" else (command,)
    if "budgets" in wanted:
        _budgets(args)
    progress = None if args.quiet else lambda s: print(s, file=sys.stderr)
    options = dict(
        seed=args.seed, progress=progress, workers=args.workers, store=store,
        telemetry=telemetry,
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
            manifest_path = base / f"{command}_{args.profile}.jsonl"
        trace_id = trace_id_from("figure", command, args.profile, args.seed)
        # Each span is written as it closes; leaving this block on an
        # exception (a cell that raised) closes the manifest with
        # run-finish status="error" on the way out.
        with ManifestWriter(manifest_path) as manifest:
            manifest.run_start(
                command,
                kind="figure",
                workers=args.workers,
                store=str(store.root) if store is not None else None,
                profile=args.profile,
            )
            with Trace(manifest, trace_id).span(
                command, profile=args.profile, workers=args.workers
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
    return 0


def _payload_text(payload: dict) -> str:
    """What the command that saved *payload* printed for it: an
    ablation's table, or every figure of a figure phase."""
    experiment = payload["experiment"]
    if experiment.startswith("ablation-"):
        from repro.experiments.ablations import print_ablation

        return print_ablation(payload)
    module = {p: m for p, m, _, _ in FIGURE_PHASES}[experiment]
    driver = import_module(f"repro.experiments.{module}")
    return _figures_text(driver, experiment.split("-"), payload)


def _report(args: argparse.Namespace) -> int:
    """Print every payload saved in ``--out`` as its command printed it."""
    parts = [f"# Experiment report — {args.out}"]
    found = False
    for path in sorted(args.out.glob("*.json")):
        try:
            block = f"```\n{_payload_text(json.loads(path.read_text()))}\n```"
            found = True
        except (OSError, ValueError, LookupError, TypeError, AttributeError):
            block = "(unrecognized payload, skipped)"
        parts.append(f"### {path.name}\n\n{block}")
    if not found:
        parts.append("(no experiment payloads found)")
    print("\n\n".join(parts))
    return 0


def _row(name: str, help: str) -> Verb:
    return Verb(name, help, _flags(), _timed(partial(_experiment, name)))


def _study(name: str, help: str) -> Verb:
    return Verb(name, help, _flags("--store", "--out", "--quiet"),
                _timed(partial(_ablations, name)))


VERBS: tuple[Verb, ...] = (
    Verb("budgets", "Sections 3-4: the VC budget of every algorithm.",
         _flags("--profile", "--quiet"), _timed(_budgets)),
    _row("fig1", "Figure 1: throughput vs injection rate."),
    _row("fig2", "Figure 2: latency vs injection rate."),
    _row("fig3", "Figure 3: VC usage under faults."),
    _row("fig4", "Figure 4: throughput vs fault percentage."),
    _row("fig5", "Figure 5: latency vs fault percentage."),
    _row("fig6", "Figure 6: traffic load on f-ring nodes vs the rest."),
    _row("all", "Every figure and the budgets table."),
    _study("ablations", "Every design-knob ablation study."),
    *(
        _study(command, f"Ablation study: {command.removeprefix('ablation-')}.")
        for command in ABLATION_COMMANDS
    ),
    Verb("report", "Print saved --out JSON as its command printed it.",
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
