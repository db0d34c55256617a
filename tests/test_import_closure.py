"""The import closure of each entry point, pinned by module set.

A call that never simulates must not import what only a simulation
needs: numpy loads at the first ``Simulation``, ``multiprocessing``
where a pool is built, and ``repro.obs`` re-exports resolve on access.
A timer cannot hold that line on a shared host; ``sys.modules`` can.
Every case runs in a fresh interpreter and reports what it loaded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.obs

TESTS = Path(__file__).resolve().parent
SRC = Path(repro.__file__).resolve().parent.parent

#: What only simulating, pooling or an ``obs`` verb may load.
HEAVY = ("numpy", "multiprocessing") + tuple(
    f"repro.obs.{name}"
    for name in ("bench", "blame", "history", "heatmap", "timeline",
                 "trace_export")
)

#: ``bench/run.py``'s ``ENTRY_POINTS``.
ENTRY_POINTS = "import repro.experiments.cli, repro.campaigns, repro.serve.api"

REPORT = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"

SPEC = {
    "kind": "campaign-spec", "schema": 1, "name": "closure",
    "algorithms": ["nhop", "duato-nbc"],
    "config": {"kind": "sim-config", "schema": 1, "width": 6,
               "vcs_per_channel": 24, "message_length": 4,
               "cycles": 300, "warmup": 100},
    "rates": [0.01, 0.02], "seed": 2007,
}


def fresh(*argv: str) -> str:
    """stdout of a fresh interpreter on this source tree (must exit 0)."""
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": f"{SRC}{os.pathsep}{TESTS}"},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def modules_after(code: str) -> set[str]:
    """``sys.modules`` of a fresh interpreter that ran *code*."""
    return set(json.loads(fresh("-c", code + REPORT).splitlines()[-1]))


def modules_after_main(module: str, *argv: str) -> set[str]:
    """``sys.modules`` after ``python -m module argv...`` returned 0."""
    return modules_after(
        "import runpy, sys\n"
        f"sys.argv = {[module, *argv]!r}\n"
        "try:\n"
        f"    runpy.run_module({module!r}, run_name='__main__')\n"
        "except SystemExit as exit:\n"
        "    assert not exit.code, exit.code\n"
    )


def loaded(modules: set[str]) -> list[str]:
    return sorted(m for m in modules if m in HEAVY)


class TestNothingHeavyWithoutSimulating:
    def test_entry_point_imports(self):
        modules = modules_after(ENTRY_POINTS)
        assert "repro.simulator.engine" in modules  # the closure is real
        assert loaded(modules) == []

    def test_campaign_status(self, tmp_path):
        spec, root = tmp_path / "spec.json", tmp_path / "c"
        spec.write_text(json.dumps(SPEC))
        fresh("-m", "repro.campaigns", "run", str(root), "--spec", str(spec),
              "--quiet")
        modules = modules_after_main("repro.campaigns", "status", str(root))
        assert "repro.campaigns.db" in modules
        assert loaded(modules) == []

    def test_warm_figure(self, tmp_path):
        argv = ("fig1", "--profile", "smoke", "--algorithms", "nhop",
                "--store", str(tmp_path / "store"), "--quiet")
        cold = fresh("-m", "repro.experiments", *argv)
        modules = modules_after_main("repro.experiments", *argv)
        assert "repro.experiments.fig_sweep" in modules
        assert loaded(modules) == []
        # ... and it was the same figure, served from the store.
        assert fresh("-m", "repro.experiments", *argv) == cold

    def test_warm_figure_starts_no_pool(self, tmp_path):
        """Every cell the store holds runs in process: a warm call with
        ``--workers 2`` neither pools nor simulates, and adds no row."""
        store = tmp_path / "store"
        argv = ("fig4", "--profile", "smoke", "--algorithms", "pbc",
                "boura-ft", "--workers", "2", "--store", str(store),
                "--quiet")
        cold = modules_after_main("repro.experiments", *argv)
        assert "multiprocessing.pool" in cold  # the cold call pooled
        assert "numpy" not in cold  # ... and only its workers simulated
        rows = (store / "rows.jsonl").read_bytes()
        modules = modules_after_main("repro.experiments", *argv)
        assert "repro.experiments.fig_faults" in modules
        assert loaded(modules) == []
        assert (store / "rows.jsonl").read_bytes() == rows

    def test_obs_report(self):
        """A verb that reads a manifest builds no other verb's parser."""
        manifest = TESTS / "data" / "obs_cli_manifest.jsonl"
        modules = modules_after_main("repro.obs", "report", str(manifest))
        assert "repro.obs.manifest" in modules
        assert loaded(modules) == []


#: The run both first-simulation tests build, a ``GOLDEN`` row of
#: ``test_engine_golden.py``.
FIRST_CASE = ("nhop", False, 2007)


def test_first_simulation_loads_numpy():
    """Invariant: numpy is loaded by the first ``Simulation``, not
    before."""
    out = fresh("-c", f"""
import sys
import test_engine_golden as golden
assert "numpy" not in sys.modules
sim = golden.build(*{FIRST_CASE!r})
assert "numpy" in sys.modules
print(True)
""")
    assert out.strip() == "True"


def test_first_simulation_matches_the_golden_pin():
    """Pin: the first simulation of a fresh interpreter gives the
    ``GOLDEN`` row digest (see ``docs/verify.md``, the pin inventory)."""
    out = fresh("-c", f"""
import test_engine_golden as golden
sim = golden.build(*{FIRST_CASE!r})
sim.run()
print(golden.row_digest(sim) == golden.GOLDEN[{FIRST_CASE!r}])
""")
    assert out.strip() == "True"


#: ``repro.obs.__all__`` as the eager package exported it.
OBS_ALL = [
    "BlameRecorder", "COMPONENTS", "Counter", "EngineTelemetry",
    "Histogram", "LabeledCounter", "ManifestWriter",
    "PHASE_NAMES", "PhaseProfiler", "Series", "SpanRecorder",
    "TelemetryRegistry", "Trace", "WORKLOADS", "Workload", "aggregate_blame",
    "bench_key", "blame_cell", "blame_csv",
    "blame_payload", "chrome_trace", "clock", "compare_payloads",
    "gate_against_ledger", "heatmap_csv", "host_warnings", "ingest",
    "jsonl_lines", "ledger_entry", "lifecycle_tracer", "make_span",
    "make_span_id", "merge_spans", "node_surface", "parse_regress",
    "read_ledger", "read_manifest", "read_spans_jsonl", "reconcile_blame",
    "render_blame_report", "render_history", "render_node_heatmap",
    "render_profile", "render_report", "render_waterfall", "run_suite",
    "series_snapshot", "spans_chrome_trace", "spans_from_manifest",
    "spans_merge_digest", "summarize_manifest", "surface_split", "top_slow",
    "trace_id_from", "write_bench_file", "write_blame_json",
    "write_chrome_trace", "write_jsonl", "write_ledger", "write_spans_jsonl",
    "write_spans_trace", "write_trace",
]


class TestObsReExports:
    def test_all_is_unchanged_and_every_name_resolves(self):
        assert repro.obs.__all__ == OBS_ALL
        for name in OBS_ALL:
            assert getattr(repro.obs, name) is vars(repro.obs)[name]

    def test_from_import_and_star_import(self):
        from repro.obs import EngineTelemetry  # noqa: F401
        from repro.obs.telemetry import EngineTelemetry as home

        assert EngineTelemetry is home
        namespace: dict = {}
        exec("from repro.obs import *", namespace)
        assert set(OBS_ALL) <= set(namespace)

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            repro.obs.nope
        with pytest.raises(ImportError):
            exec("from repro.obs import nope")
