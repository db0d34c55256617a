#!/usr/bin/env python3
"""End-to-end benchmark: figure, campaign and served-answer workloads.

One workload, as the benchmark driver calls it (last stdout line is the
result object)::

    python3 bench/run.py --workload fig1_smoke_cold --seed 7 --seconds 24 --trace 0

All four workloads, untraced and traced, into one results file::

    python3 bench/run.py --seed 2007 --trace 1 --out DIR

Compare two results files against the bounds in ``BENCHMARK.json``::

    python3 bench/run.py --compare A/results.json B/results.json

Re-pin ``bench/reference.json`` (after a deliberate ENGINE_VERSION bump)::

    python3 bench/run.py --repin

See ``bench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter as clock

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
if not (REPO / "src" / "repro").is_dir():
    sys.exit(f"bench: {REPO / 'src' / 'repro'} not found; run from a checkout")
sys.path.insert(0, str(REPO / "src"))

import layers  # noqa: E402  (bench/ is sys.path[0] for a script)
import workloads  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

#: Every scratch file lives below this directory (git-ignored) or --out.
SCRATCH = REPO / ".bench_tmp"

#: Modules a user's interpreter loads before any workload can start.
ENTRY_POINTS = "repro.experiments.cli, repro.campaigns, repro.serve.api"


def fresh_interpreter_import() -> None:
    """Import the entry points in a fresh interpreter.

    Part of set-up: work a later change moves to import time (tables
    built at import, eager plugin loading) lands here and is paid by
    every CLI call a user makes.
    """
    subprocess.run(
        [sys.executable, "-c", f"import {ENTRY_POINTS}"],
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        check=True,
    )


#: Seconds :func:`host_probe` takes on the sizing host when it is quiet.
#: Reported times are scaled to a host of exactly this speed.
NOMINAL_PROBE_S = 0.120


class _Cell:
    __slots__ = ("value", "queue")

    def __init__(self, value: int) -> None:
        self.value = value
        self.queue: list[int] = []


_CELLS = [_Cell(i) for i in range(20_000)]


def host_probe() -> float:
    """Seconds a fixed interpreter-bound kernel takes on this host *now*.

    The sizing host's speed moves by 30-50% for minutes at a time (shared
    CPU), which no median inside a 24 s run can remove.  A probe runs
    before and after every pass; each pass timing is divided by the mean
    of its two probes over :data:`NOMINAL_PROBE_S`, so what is reported
    is the time on a host of nominal speed.  The raw medians and the
    speed factors stay in the result record.  Set-up is mostly process
    start and file-system work, which the probe does not track, and is
    reported as measured.
    """
    start = clock()
    table: dict[int, int] = {}
    total = 0
    for i in range(240_000):
        cell = _CELLS[(i * 7919) % 20_000]
        cell.queue.append(i)
        if len(cell.queue) > 3:
            cell.queue.pop(0)
        table[i & 1023] = cell.value + 1
        total += i * i
    return clock() - start


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child, in MiB."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def host_stanza() -> dict:
    from repro.simulator.engine import ENGINE_VERSION

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # the driver's checkout is not a git repository
    load1 = os.getloadavg()[0]
    nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "load1_at_start": load1,
        "busy": int(load1 > nproc),
        "engine_version": ENGINE_VERSION,
        "git_commit": commit,
    }


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool,
    out: Path | None,
) -> dict:
    """Set up, run passes for *seconds*, verify; the full result record.

    With *trace*, passes alternate untraced / traced in one run, so the
    tracing overhead compares like with like on the same host minute.
    """
    scale = workloads.SMOKE if smoke else workloads.FULL
    host = host_stanza()
    SCRATCH.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH))
    workload = workloads.WORKLOADS[name](seed, scale, work / "w")
    tracer = layers.Tracer(name)
    setup_times: list[float] = []
    passes: list[tuple[bool, workloads.PassResult, float]] = []
    try:
        for _ in range(scale.setups):
            workload.teardown()
            start = clock()
            fresh_interpreter_import()
            workload.setup()
            setup_times.append(clock() - start)
        probe = host_probe()
        start = clock()
        while True:
            traced = trace and len(passes) % 2 == 1
            if traced:
                with tracer.installed():
                    result = workload.run_pass(len(passes), tracer)
            else:
                result = workload.run_pass(len(passes), None)
            before, probe = probe, host_probe()
            passes.append(
                (traced, result, (before + probe) / 2 / NOMINAL_PROBE_S)
            )
            enough = len(passes) >= (2 if trace else 1)
            if enough and (clock() - start >= seconds or workload.exhausted()):
                break
    finally:
        workload.teardown()
        shutil.rmtree(work, ignore_errors=True)

    results = [r for _, r, _ in passes]
    untraced = [(r, speed) for traced, r, speed in passes if not traced]
    checks: dict[str, bool] = {}
    for r in results:
        for check, ok in r.checks.items():
            checks[check] = checks.get(check, True) and ok
    digests = {workloads.rows_digest(r.rows) for r in results if r.rows}
    if workload.pinned:
        checks["passes_agree"] = len(digests) == 1
    failed_checks = sorted(c for c, ok in checks.items() if not ok)
    attempted = sum(r.operations for r in results) + len(checks)
    failed = sum(r.failed_operations for r in results) + len(failed_checks)

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": int(smoke),
        "host": host,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_checks": failed_checks,
        "passes": len(passes),
        "host_speed": statistics.median(speed for _, _, speed in passes),
        "rows_sha256": sorted(digests),
        "end_to_end": end_to_end(setup_times, untraced),
        "raw_end_to_end": end_to_end(
            setup_times, [(r, 1.0) for r, _ in untraced]
        ),
        "setup_times_s": setup_times,
        "pass_wall_s": [r.wall_s for r in results],
        "pass_host_speed": [speed for _, _, speed in passes],
    }
    if trace:
        record["per_layer"] = per_layer(
            workload, tracer, passes, len(digests) <= 1
        )
        if out is not None:
            tracer.write_jsonl(out / f"trace_{name}.jsonl")
    if out is not None:
        (out / f"{name}_trace{int(trace)}.json").write_text(
            json.dumps(record, indent=2)
        )
    return record


def end_to_end(setup_times: list[float], passes: list) -> dict:
    """Medians over the set-ups and over ``(result, host speed)`` passes;
    every pass timing is divided, every rate multiplied, by its own
    host-speed factor (see :func:`host_probe`)."""
    def median(value) -> float:
        return statistics.median(value(r, speed) for r, speed in passes)

    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": median(lambda r, speed: r.wall_s / speed),
        "work_per_s": median(lambda r, speed: r.work / r.work_s * speed),
        "cached_answer_ms": median(lambda r, speed: r.cached_answer_ms / speed),
        "sim_answer_ms": median(lambda r, speed: r.sim_answer_ms / speed),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(workload, tracer, passes, passes_agree: bool) -> dict:
    """Every declared per-layer metric; a layer a workload never enters
    reads 0, which is itself the prediction for that workload."""
    results = [r for _, r, _ in passes]
    traced = [r for t, r, _ in passes if t]
    untraced = [r for t, r, _ in passes if not t]

    def mean(key: str) -> float:
        return statistics.fmean(r.facts.get(key, 0.0) for r in traced)

    def wall(group) -> float:
        return statistics.median(r.wall_s - r.pool_s for r in group)

    facts = {
        "cycles": mean("cycles"),
        "flit_hops": mean("flit_hops"),
        "traced_wall_s": statistics.fmean(r.wall_s for r in traced),
    }
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    computed = {
        **layers.layer_metrics(tracer.spans, len(traced), facts),
        **layers.routing_probe(),
        "simulator.cycles": facts["cycles"],
        "simulator.flit_hops": facts["flit_hops"],
        "simulator.delivered_msgs": mean("delivered"),
        "simulator.dropped_msgs": mean("dropped"),
        "simulator.results_identical": float(
            passes_agree
            and all(r.facts.get("results_identical", 1.0) for r in results)
        ),
        "simulator.stat_drift_pct": max(
            r.facts.get("stat_drift_pct", 0.0) for r in results
        ),
        "store.warm_figure_ms": mean("warm_figure_ms"),
        "store.bytes": mean("store_bytes"),
        "trace.overhead_pct": 100.0 * (wall(traced) / wall(untraced) - 1.0),
    }
    computed.update(workload.layer_metrics(results, untraced))
    unknown = sorted(set(computed) - set(metrics))
    if unknown:
        raise RuntimeError(f"per-layer metrics not in BENCHMARK.json: {unknown}")
    metrics.update(computed)
    return metrics


def report(record: dict) -> None:
    """Print every metric by name with its unit, then the result line."""
    section = "per_layer" if record["trace"] else "end_to_end"
    declared = PER_LAYER if record["trace"] else END_TO_END
    metrics = {
        name: {"value": record[section][name], "unit": declared[name]["unit"]}
        for name in declared
    }
    print(f"# {record['workload']} seed={record['seed']} "
          f"passes={record['passes']} trace={record['trace']}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    for check in record["failed_checks"]:
        print(f"FAILED CHECK {check}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))


# ----------------------------------------------------------------------
# All workloads, compare, repin
# ----------------------------------------------------------------------
def run_all(args: argparse.Namespace) -> int:
    """Each (workload, trace) in its own interpreter, as the driver runs
    them — so peak RSS and import state are per workload."""
    out = args.out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    results = {"seed": args.seed, "host": host_stanza(), "workloads": {}}
    ok = True
    for name in workloads.WORKLOADS:
        merged: dict = {}
        for trace in range(args.trace + 1):
            argv = [
                sys.executable, __file__, "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--out", str(out),
            ] + (["--smoke"] if args.smoke else [])
            code = subprocess.run(argv).returncode
            record = json.loads((out / f"{name}_trace{trace}.json").read_text())
            ok = ok and code == 0 and record["correct"]
            if not merged:
                merged = record
            else:  # the traced run adds the layers and its own verdict
                merged["per_layer"] = record["per_layer"]
                for key in ("attempted", "failed"):
                    merged[key] += record[key]
                merged["failed_checks"] += record["failed_checks"]
                merged["correct"] = merged["correct"] and record["correct"]
        merged["failed_share"] = merged["failed"] / merged["attempted"]
        results["workloads"][name] = merged
    (out / "results.json").write_text(json.dumps(results, indent=2))
    print(f"[results -> {out / 'results.json'}]")
    return 0 if ok else 1


def compare(path_a: Path, path_b: Path) -> int:
    """One row per (workload, end-to-end metric); 1 on any breach."""
    a, b = (json.loads(p.read_text()) for p in (path_a, path_b))
    for label, side in (("A", a), ("B", b)):
        if side["host"]["busy"]:
            print(f"warning: {label} ran on a busy host (load average "
                  f"{side['host']['load1_at_start']:.2f})")
    breaches = 0
    print(f"{'workload':24}{'metric':20}{'A':>12}{'B':>12}"
          f"{'delta':>9}{'bound':>8}  verdict")
    for name, before in a["workloads"].items():
        after = b["workloads"][name]
        for metric, spec in END_TO_END.items():
            x, y = before["end_to_end"][metric], after["end_to_end"][metric]
            worse = (y - x) / x if spec["better"] == "lower" else (x - y) / x
            breach = worse > spec["bound"]
            breaches += breach
            print(f"{name:24}{metric:20}{x:12.4f}{y:12.4f}"
                  f"{-worse if spec['better'] == 'higher' else worse:+9.1%}"
                  f"{spec['bound']:8.0%}  {'WORSE' if breach else 'ok'}")
        for side, record in (("A", before), ("B", after)):
            if record["failed"]:
                breaches += 1
                print(f"{name:24}failed_share ({side}) "
                      f"{record['failed']}/{record['attempted']}  WORSE")
    return 1 if breaches else 0


def repin(seeds: tuple[int, int, int] = (2007, 1, 2)) -> int:
    """Write ``reference.json``: the rows of one pass per simulating
    workload at the first seed, and as drift bound the largest drift of
    the other seeds from it — a legitimate RNG-stream change should look
    no worse than a change of seed."""
    from repro.simulator.engine import ENGINE_VERSION

    SCRATCH.mkdir(exist_ok=True)
    reference = {
        "seed": seeds[0], "engine_version": ENGINE_VERSION,
        "drift_seeds": list(seeds[1:]), "workloads": {},
    }
    for name, cls in workloads.WORKLOADS.items():
        if not cls.pinned:
            continue
        rows = []
        for seed in seeds:
            work = Path(tempfile.mkdtemp(prefix="repin-", dir=SCRATCH))
            workload = cls(seed, workloads.FULL, work)
            try:
                workload.setup()
                rows.append(workload.run_pass(0, None).rows)
            finally:
                workload.teardown()
        reference["workloads"][name] = {
            "sha256": workloads.rows_digest(rows[0]),
            "drift_bound_pct": max(
                workloads.stat_drift_pct(other, rows[0]) for other in rows[1:]
            ),
            "rows": rows[0],
        }
        print(f"{name}: {len(rows[0])} rows, drift bound "
              f"{reference['workloads'][name]['drift_bound_pct']:.2f}%")
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="run one workload (default: all four, needs --out)")
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]),
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: alternate traced passes, report per-layer metrics")
    parser.add_argument("--out", type=Path,
                        help="directory for result and trace files")
    parser.add_argument("--smoke", action="store_true",
                        help="small passes, one set-up (for test_bench.py)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar="RESULTS")
    parser.add_argument("--repin", action="store_true")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.repin:
        return repin()
    if args.workload is None:
        if args.out is None:
            parser.error("running all workloads needs --out DIR")
        return run_all(args)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        args.smoke, args.out,
    )
    report(record)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
