"""Command-line front end for :mod:`repro.verify`.

::

    python -m repro.verify check --all              # model-check every algorithm
    python -m repro.verify check --all --workers 4  # fan cases out to a pool
    python -m repro.verify check --algorithm duato --pattern center-block
    python -m repro.verify lint                     # lint src/repro
    python -m repro.verify lint path/to/file.py --json
    python -m repro.verify cdg --algorithm ecube --pattern center-block
    python -m repro.verify drift                    # ENGINE_VERSION gate
    python -m repro.verify drift --require          # enforcing (CI) mode
    python -m repro.verify drift --pin              # re-pin the lock

Also reachable as ``python -m repro.experiments verify ...``.

Exit codes: ``check`` is 0 iff every checked algorithm meets its
declaration — a ``deadlock_free=True`` algorithm must produce no pure
cycle and no invariant violation on any corpus pattern (documented
ring-residual cycles are reported but tolerated, DESIGN.md §3.7), and a
``deadlock_free=False`` algorithm must produce at least one concrete
counterexample cycle (the negative oracle).  A case whose exploration
overflows ``max_states`` is ``unknown``: it never passes, and when no
algorithm failed ``check`` (and ``cdg``) exit 3, "no answer".  ``lint``
is 0 iff there are no findings.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.cli import Refused, Verb, positive_count, refusing, run
from repro.routing.registry import ALGORITHM_NAMES, make_algorithm
from repro.verify.cdg import CdgChecker, CdgReport
from repro.verify.corpus import CORPUS_NAMES, corpus_pattern
from repro.verify.lint import lint_paths

__all__ = ["main", "check_main", "lint_main", "cdg_main", "drift_main"]

#: Default lint targets, relative to the repo root.
_DEFAULT_LINT_PATHS = ("src/repro",)


def _fmt_cycle(cycle: list[tuple[int, int, int]]) -> str:
    return " -> ".join(f"({n},{d},{vc})" for n, d, vc in cycle)


def _algorithm_verdict(reports: list[CdgReport]) -> tuple[str, str]:
    """(``PASS`` | ``FAIL`` | ``UNKNOWN``, reason) for one algorithm's
    corpus reports; a case whose exploration overflowed passes nothing."""
    unknown = [r.pattern for r in reports if r.status == "unknown"]
    if reports[0].declared_deadlock_free:
        bad = {
            r.pattern: r.status for r in reports
            if not r.passed and r.status != "unknown"
        }
        if bad:
            return "FAIL", f"declared deadlock-free but found {bad}"
        notes = [f"{r.status} on {r.pattern}" for r in reports
                 if r.passed and r.status != "ok"]
        if not unknown:
            return "PASS", f"ok ({', '.join(notes)})" if notes else "ok"
    elif any(r.cycle is not None for r in reports):
        return "PASS", "counterexample cycle found (declared not deadlock-free)"
    elif not unknown:
        return "FAIL", "declared NOT deadlock-free but no counterexample cycle found"
    return "UNKNOWN", f"state overflow on {', '.join(unknown)}"


def _checker(name: str, pname: str, width: int, vcs: int) -> CdgChecker:
    """One case's checker; a mesh, pattern or VC count it cannot be
    built with is refused."""
    with refusing():
        return CdgChecker(
            make_algorithm(name),
            corpus_pattern(pname, width),
            total_vcs=vcs,
            pattern_name=pname,
        )


def _check_job(job: tuple[str, str, int, int]) -> tuple[str, str, CdgReport]:
    """Model-check one (algorithm, pattern) case — picklable pool worker."""
    name, pname, width, vcs = job
    return name, pname, _checker(name, pname, width, vcs).run()


def check_main(args: argparse.Namespace) -> int:
    names = list(ALGORITHM_NAMES) if args.all else args.algorithm
    if not names:
        raise Refused("give --all or --algorithm NAME")
    patterns = args.pattern or list(CORPUS_NAMES)
    # The (algorithm, pattern) cases are independent; fan them out over a
    # process pool when --workers > 1 (workers <= 1 stays in process).
    from repro.experiments.parallel import iter_parallel

    jobs = [
        (name, pname, args.width, args.vcs)
        for name in names
        for pname in patterns
    ]
    workers = getattr(args, "workers", 1)
    results: dict[str, list[CdgReport]] = {name: [] for name in names}
    for name, _pname, report in iter_parallel(_check_job, jobs, workers):
        results[name].append(report)
        if workers > 1 and not args.json:
            print(f"[check] {name}: done", file=sys.stderr)

    verdicts = {name: _algorithm_verdict(reports) for name, reports in results.items()}
    outcomes = [verdict for verdict, _ in verdicts.values()]
    code = 1 if "FAIL" in outcomes else 3 if "UNKNOWN" in outcomes else 0

    if args.json:
        payload = {
            "ok": code == 0,
            "mesh": [args.width, args.width],
            "total_vcs": args.vcs,
            "algorithms": {
                name: {
                    "passed": verdicts[name][0] == "PASS",
                    "verdict": verdicts[name][0].lower(),
                    "reason": verdicts[name][1],
                    "reports": [r.to_payload() for r in reports],
                }
                for name, reports in results.items()
            },
        }
        print(json.dumps(payload, indent=2))
        return code

    for name, reports in results.items():
        verdict, reason = verdicts[name]
        print(f"{verdict}  {name:<18} {reason}")
        for r in reports:
            line = f"      {r.pattern:<14} {r.status:<14} states={r.n_states}"
            line += f" channels={r.n_channels} edges={r.n_edges}"
            print(line)
            if r.cycle is not None and (r.status == "cycle" or args.verbose):
                print(f"        cycle: {_fmt_cycle(r.cycle)}")
            if r.ring_analysis is not None:
                a = r.ring_analysis
                if a.discharged:
                    print(
                        "        discharged: full single-class wrap of a "
                        "closed ring (unreachable, DESIGN.md §3.7)"
                    )
                else:
                    print(
                        "        waived: failed premise(s) "
                        + ", ".join(a.failed)
                    )
            for v in r.violations:
                print(f"        violation[{v.kind}] at node {v.node}: {v.detail}")
    n_pass = sum(1 for verdict, _ in verdicts.values() if verdict == "PASS")
    print(
        f"{n_pass}/{len(results)} algorithms meet their "
        f"declaration on the {args.width}x{args.width} corpus"
    )
    return code


def lint_main(args: argparse.Namespace) -> int:
    paths = [Path(p) for p in (args.path or _DEFAULT_LINT_PATHS)]
    missing = [p for p in paths if not p.exists()]
    if missing:
        raise Refused(f"no such path: {missing[0]}")
    findings = lint_paths(paths, select=set(args.select) if args.select else None)
    if args.json:
        print(json.dumps([f.to_payload() for f in findings], indent=2))
    else:
        for f in findings:
            print(f.render())
        print(f"{len(findings)} finding(s) in {', '.join(map(str, paths))}")
    return 1 if findings else 0


def cdg_main(args: argparse.Namespace) -> int:
    checker = _checker(args.algorithm, args.pattern, args.width, args.vcs)
    report = checker.run()
    if args.json:
        payload = report.to_payload()
        if args.edges:
            payload["cdg_edges"] = [
                [list(a), list(b)] for a, b in checker.concrete_edges()
            ]
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"{report.algorithm} on {report.pattern} "
            f"({report.width}x{report.height}, {report.total_vcs} VCs): "
            f"{report.status}"
        )
        print(
            f"  states={report.n_states} channels={report.n_channels} "
            f"edges={report.n_edges} escape_vcs={list(report.escape_vcs)}"
        )
        if report.cycle is not None:
            print(f"  cycle: {_fmt_cycle(report.cycle)}")
        if report.ring_analysis is not None:
            for p in report.ring_analysis.premises:
                mark = "holds" if p.holds else "FAILS"
                print(f"  premise {p.name:<16} {mark}  {p.detail}")
        for v in report.violations:
            print(f"  violation[{v.kind}] at node {v.node}: {v.detail}")
        if args.edges:
            for a, b in checker.concrete_edges():
                print(f"  {a} -> {b}")
    if report.passed:
        return 0
    return 3 if report.status == "unknown" else 1


def drift_main(args: argparse.Namespace) -> int:
    from repro.verify.drift import compute_state, run_gate

    state = compute_state()
    code, lines, report = run_gate(
        state,
        Path(args.lock) if args.lock else None,
        require=args.require,
        pin=args.pin,
    )
    if args.json:
        print(json.dumps(
            {"exit": code, "report": report.to_payload(), "lines": lines},
            indent=2,
        ))
    else:
        for line in lines:
            print(line)
    return code


def _check_flags(parser: argparse.ArgumentParser) -> None:
    add = parser.add_argument
    add("--all", action="store_true", help="every registered algorithm")
    add("--algorithm", action="append", default=[], metavar="NAME",
        choices=ALGORITHM_NAMES, help="check one algorithm (repeatable)")
    add("--pattern", action="append", default=[], choices=CORPUS_NAMES,
        help="restrict to one corpus pattern (repeatable; default: all)")
    add("--width", type=int, default=4, help="mesh side (default 4)")
    add("--vcs", type=int, default=16, help="VCs per channel (default 16)")
    add("--json", action="store_true", help="machine-readable output")
    add("--verbose", action="store_true", help="print ring-residual cycles too")
    add("--workers", type=positive_count, default=1,
        help="process-pool size over the (algorithm, pattern) cases "
        "(default 1 = in process); results are order-independent")


def _lint_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("path", nargs="*",
                        help="files or directories (default: src/repro)")
    parser.add_argument("--select", action="append", default=[],
                        metavar="REPxxx",
                        help="run only these rule ids (repeatable)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")


def _cdg_flags(parser: argparse.ArgumentParser) -> None:
    add = parser.add_argument
    add("--algorithm", required=True, choices=ALGORITHM_NAMES)
    add("--pattern", default="fault-free", choices=CORPUS_NAMES)
    add("--width", type=int, default=4)
    add("--vcs", type=int, default=16)
    add("--edges", action="store_true", help="include every CDG edge")
    add("--json", action="store_true", help="machine-readable output")


def _drift_flags(parser: argparse.ArgumentParser) -> None:
    add = parser.add_argument
    add("--require", action="store_true",
        help="enforcing (CI) mode: unpinned/stale locks fail instead of "
        "staying advisory")
    add("--pin", "--update", dest="pin", action="store_true",
        help="(re)write tools/engine_semantics.lock from the current tree")
    add("--lock", default=None, metavar="PATH",
        help="lock file override (default: tools/engine_semantics.lock)")
    add("--json", action="store_true", help="machine-readable output")


VERBS: tuple[Verb, ...] = (
    Verb("check", "Model-check algorithms against the fault corpus.",
         _check_flags, check_main),
    Verb("lint", "Run the project-rule AST linter.", _lint_flags, lint_main),
    Verb("cdg", "Dump the channel-dependency graph for one case.",
         _cdg_flags, cdg_main),
    Verb("drift", "ENGINE_VERSION drift gate over the semantic surface.",
         _drift_flags, drift_main),
)


def main(argv: list[str] | None = None) -> int:
    return run("repro-verify", VERBS, argv)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
