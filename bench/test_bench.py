"""Self-test of the benchmark.  Not part of the tier-1 suite; run it
explicitly (under a minute at ``--smoke`` scale)::

    python3 -m pytest bench/test_bench.py
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (puts src/ on sys.path)
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def smoke_results(tmp_path_factory):
    """All four workloads, untraced and traced, as ``--out`` leaves them."""
    out = tmp_path_factory.mktemp("bench-out")
    code = subprocess.run([
        sys.executable, str(BENCH / "run.py"), "--seed", "2007", "--smoke",
        "--seconds", "1", "--trace", "1", "--out", str(out),
    ]).returncode
    assert code == 0
    return json.loads((out / "results.json").read_text()), out


def test_results_match_benchmark_json(smoke_results):
    results, out = smoke_results
    assert set(results["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    assert {"nproc", "python", "platform", "load1_at_start", "busy",
            "engine_version", "git_commit"} <= set(results["host"])
    for name, record in results["workloads"].items():
        assert record["failed_share"] == 0, record["failed_checks"]
        for section in ("end_to_end", "per_layer"):
            declared = {m["name"] for m in SPEC[section]}
            assert set(record[section]) == declared, (name, section)
            assert all(NAME.match(metric) for metric in declared)
        assert all(v > 0 for v in record["end_to_end"].values()), name
        spans = [
            json.loads(line)
            for line in (out / f"trace_{name}.jsonl").read_text().splitlines()
        ]
        assert spans and all(
            set(s) == {"name", "start", "end", "parent", "workload"}
            for s in spans
        )


def test_layers_decompose_as_sized(smoke_results):
    layers = {
        name: record["per_layer"]
        for name, record in smoke_results[0]["workloads"].items()
    }
    for figure in ("fig1_smoke_cold", "fig4_smoke_faulty"):
        assert layers[figure]["simulator.share"] >= 0.9
        assert layers[figure]["serve.http_p99_ms"] == 0
    assert 0 < layers["campaign_small_cells"]["campaigns.overhead_share"] < 1
    serve = layers["serve_http_loopback"]
    assert serve["serve.http_overhead_us"] >= 10 * serve["serve.resolve_us.store"]
    assert serve["simulator.runs"] == 0


def test_wrong_expected_tier_counts_as_failure(monkeypatch):
    monkeypatch.setitem(workloads.MIX, "store", (0.50, 200, "surrogate"))
    record = run.run_workload(
        "serve_http_loopback", 2007, 0.1, False, True, None
    )
    assert not record["correct"]
    assert record["failed"] >= 1


def test_corrupted_reference_row_counts_as_failure(monkeypatch, tmp_path):
    reference = json.loads(workloads.REFERENCE_PATH.read_text())
    pinned = reference["workloads"]["campaign_small_cells"]
    pinned["rows"][0]["throughput"] *= 0.01
    pinned["sha256"] = "0" * 64
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(reference))
    monkeypatch.setattr(workloads, "REFERENCE_PATH", corrupted)
    record = run.run_workload(
        "campaign_small_cells", reference["seed"], 0.1, False, False, None
    )
    assert record["failed_checks"] == ["stat_drift_within_bound"]
    assert not record["correct"]


def test_seed_changes_inputs_but_not_the_metric_set(smoke_results):
    pinned_seed = smoke_results[0]["workloads"]["campaign_small_cells"]
    other_seed = run.run_workload(
        "campaign_small_cells", 1, 0.1, False, True, None
    )
    assert other_seed["correct"]
    assert other_seed["rows_sha256"] != pinned_seed["rows_sha256"]
    assert set(other_seed["end_to_end"]) == set(pinned_seed["end_to_end"])

    def mix(seed):
        serve = workloads.ServeHttpLoopback(seed, workloads.SMOKE, Path("unused"))
        return serve.requests_for_pass(0)

    assert mix(1) != mix(2007)
    assert mix(1) == mix(1)
