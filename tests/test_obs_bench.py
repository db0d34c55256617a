"""Tests for the repro.obs.bench harness and the compare gate."""

import json

import pytest

from repro.obs.bench import (
    WORKLOADS,
    Workload,
    bench_key,
    compare_payloads,
    parse_regress,
    run_suite,
    write_bench_file,
)
from repro.obs.cli import main as obs_main


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------
def test_bench_key_is_stable_and_param_sensitive():
    a = bench_key("w", {"x": 1, "y": 2})
    assert a == bench_key("w", {"y": 2, "x": 1})  # canonical ordering
    assert a != bench_key("w", {"x": 1, "y": 3})
    assert a != bench_key("other", {"x": 1, "y": 2})
    assert len(a) == 16


def test_pinned_workloads_have_unique_names_and_keys():
    names = [w.name for w in WORKLOADS]
    keys = [w.key for w in WORKLOADS]
    assert len(set(names)) == len(names)
    assert len(set(keys)) == len(keys)
    kinds = {w.kind for w in WORKLOADS}
    assert kinds == {"engine", "attached", "ops"}


# ----------------------------------------------------------------------
# parse_regress
# ----------------------------------------------------------------------
def test_parse_regress():
    assert parse_regress("15%") == pytest.approx(0.15)
    assert parse_regress("0.15") == pytest.approx(0.15)
    assert parse_regress(" 7% ") == pytest.approx(0.07)
    with pytest.raises(ValueError):
        parse_regress("150%")
    with pytest.raises(ValueError):
        parse_regress("-1%")


# ----------------------------------------------------------------------
# Suite execution (smallest workload only, 1 repeat: keeps the test fast)
# ----------------------------------------------------------------------
def test_run_suite_metrics_shape(tmp_path):
    tiny = (
        Workload("tiny_ops", "ops", {
            "op": "fault_patterns", "width": 6, "faults": 2, "draws": 2,
            "seed": 1,
        }),
    )
    metrics = run_suite(workloads=tiny, repeats=2)
    m = metrics["tiny_ops"]
    assert m["key"] == tiny[0].key
    assert m["seconds"] == min(m["samples"]) and len(m["samples"]) == 2
    assert m["ops"] == 2 and m["ops_per_sec"] > 0
    assert m["peak_rss_kb"] > 0

    payload = write_bench_file(
        tmp_path / "BENCH_t.json", "t", metrics, repeats=2
    )
    on_disk = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert on_disk == payload
    assert on_disk["kind"] == "bench" and on_disk["label"] == "t"
    assert on_disk["engine_version"] >= 1
    assert "tiny_ops" in on_disk["workloads"]


def test_engine_workload_reports_rates():
    w = Workload("mini_engine", "engine", {
        "algorithm": "nhop", "width": 5, "vcs": 16, "message_length": 4,
        "rate": 0.01, "warm": 50, "cycles": 100, "seed": 3, "faults": 0,
    })
    m = run_suite(workloads=(w,), repeats=1)["mini_engine"]
    assert m["cycles"] == 100
    assert m["cycles_per_sec"] > 0
    assert m["flit_hops"] > 0
    assert m["flit_hops_per_sec"] > 0
    # The untimed twin also carries the phase profiler.
    assert sum(m["phases"].values()) == pytest.approx(1.0, abs=1e-9)
    assert m["phases"]["switch_traverse"] > 0
    activity = m["activity"]
    assert activity["mesh_nodes"] == 25
    assert 0 < activity["active_routers_mean"] <= 25
    assert activity["occupied_vcs_mean"] > 0


def test_attached_cost_workload_reports_each_instrument():
    from repro.obs.history import ledger_entry

    w = Workload("mini_attached", "attached", {
        "algorithm": "nhop", "width": 5, "vcs": 16, "message_length": 4,
        "rate": 0.01, "warm": 50, "cycles": 100, "seed": 3, "faults": 0,
    })
    metrics = run_suite(workloads=(w,), repeats=2)
    m = metrics["mini_attached"]
    assert m["seconds"] == min(m["samples"]) and len(m["samples"]) == 2
    assert m["cycles_per_sec"] == 100 / m["seconds"]
    assert set(m["attached"]) == {"telemetry", "blame", "tracer"}
    for cost in m["attached"].values():
        assert cost["cycles_per_sec"] == 100 / cost["seconds"]
        assert cost["overhead_pct"] == pytest.approx(
            100 * (cost["seconds"] - m["seconds"]) / m["seconds"]
        )
    # The ledger keeps the per-instrument block.
    entry = ledger_entry({"workloads": metrics})
    assert entry["workloads"]["mini_attached"]["attached"] == m["attached"]


def test_host_warnings_on_platform_and_python_mismatch():
    from repro.obs.bench import host_warnings

    base = {"host": {"platform": "linux", "python": "3.12.1", "machine": "x"}}
    same = {"host": dict(base["host"])}
    assert host_warnings(base, same) == []
    cand = {"host": {"platform": "darwin", "python": "3.13.0", "machine": "x"}}
    messages = host_warnings(base, cand)
    assert len(messages) == 2
    assert any("host.platform differs" in m for m in messages)
    assert any("host.python differs" in m for m in messages)
    # Missing host stanzas never warn (old payloads).
    assert host_warnings({}, cand) == []


def test_engine_build_workload_counts_constructions_at_both_sizes():
    (w,) = [w for w in WORKLOADS if w.name == "engine_build"]
    metrics = run_suite(workloads=(w,), repeats=1)["engine_build"]
    # 50 builds at 6x6 + 50 at 10x10, 24 VCs each.
    assert metrics["ops"] == 100
    assert metrics["ops_per_sec"] > 0


def test_verify_check_corpus_workload_runs_the_model_checker():
    (w,) = [w for w in WORKLOADS if w.name == "verify_check_corpus"]
    metrics = run_suite(workloads=(w,), repeats=1)["verify_check_corpus"]
    # 3 algorithms x 2 patterns = 6 checked cases.
    assert metrics["ops"] == 6
    assert metrics["ops_per_sec"] > 0


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def _payload(rate, key="k1"):
    return {
        "kind": "bench",
        "engine_version": 1,
        "workloads": {
            "w": {"key": key, "cycles_per_sec": rate, "params": {}},
        },
    }


def test_compare_ok_within_tolerance():
    rows, code = compare_payloads(
        _payload(1000.0), _payload(900.0), max_regress=0.15
    )
    assert code == 0
    assert rows[0]["status"] == "ok"


def test_compare_flags_regression():
    rows, code = compare_payloads(
        _payload(1000.0), _payload(800.0), max_regress=0.15
    )
    assert code == 1
    assert rows[0]["status"] == "REGRESSED"
    assert rows[0]["delta_pct"] == pytest.approx(-20.0)


def test_compare_improvement_never_fails():
    _rows, code = compare_payloads(
        _payload(1000.0), _payload(5000.0), max_regress=0.0
    )
    assert code == 0


def test_compare_key_mismatch_is_skipped():
    rows, code = compare_payloads(
        _payload(1000.0, key="old"), _payload(10.0, key="new")
    )
    assert code == 2  # nothing comparable
    assert rows[0]["status"] == "skipped"


def test_compare_disjoint_workloads():
    old = {"workloads": {"a": {"key": "x", "cycles_per_sec": 1.0}}}
    new = {"workloads": {"b": {"key": "y", "cycles_per_sec": 1.0}}}
    rows, code = compare_payloads(old, new)
    assert code == 2 and rows == []


# ----------------------------------------------------------------------
# CLI exit codes
# ----------------------------------------------------------------------
def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _gated(tmp_path, baseline_rate=1000.0):
    """``history --gate`` argv prefix against a ledger holding one
    payload at *baseline_rate*."""
    base = _write(tmp_path / "a.json", {**_payload(baseline_rate), "label": "a"})
    ledger = str(tmp_path / "ledger.jsonl")
    assert obs_main(["history", base, "--ledger", ledger]) == 0
    return ["history", "--ledger", ledger, "--gate"]


def test_cli_history_gate_exit_codes(tmp_path, capsys):
    gate = _gated(tmp_path)
    same = _write(tmp_path / "b.json", _payload(990.0))
    slow = _write(tmp_path / "c.json", _payload(100.0))
    assert obs_main([*gate, same, "--max-regress", "15%"]) == 0
    assert obs_main([*gate, slow, "--max-regress", "15%"]) == 1
    out = capsys.readouterr().out
    assert "REGRESSED" in out
    assert obs_main([*gate, str(tmp_path / "nope.json")]) == 2
    assert obs_main([*gate, same, "--max-regress", "bogus"]) == 2


def test_cli_history_gate_names_regressed_workloads(tmp_path, capsys):
    """The failure message must say WHICH workload regressed."""
    gate = _gated(tmp_path)
    slow = _write(tmp_path / "c.json", _payload(100.0))
    assert obs_main([*gate, slow, "--max-regress", "15%"]) == 1
    err = capsys.readouterr().err
    assert "REGRESSED: workload w, metric cycles_per_sec, -90.0%" in err


def test_cli_unknown_verb():
    assert obs_main(["frobnicate"]) == 2
    assert obs_main([]) == 0  # help text


def test_cli_bench_writes_file(tmp_path, capsys):
    code = obs_main([
        "bench", "--label", "unit", "--repeats", "1",
        "--only", "fault_pattern_generation",
        "--out-dir", str(tmp_path), "--quiet",
    ])
    assert code == 0
    payload = json.loads((tmp_path / "BENCH_unit.json").read_text())
    assert list(payload["workloads"]) == ["fault_pattern_generation"]
    # A fresh file gated against itself is always clean.
    path = str(tmp_path / "BENCH_unit.json")
    ledger = str(tmp_path / "ledger.jsonl")
    assert obs_main(["history", path, "--ledger", ledger, "--gate", path]) == 0


@pytest.mark.parametrize("repeats", ["0", "-1"])
def test_cli_bench_refuses_repeats_below_one(repeats, tmp_path, capsys,
                                              monkeypatch):
    """No workload runs: the value is refused while the flags parse."""
    import repro.obs.bench

    def ran(**_):
        raise AssertionError("a workload ran")

    monkeypatch.setattr(repro.obs.bench, "run_suite", ran)
    code = obs_main([
        "bench", "--label", "x", "--repeats", repeats,
        "--out-dir", str(tmp_path),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: argument --repeats:"), err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("repeats", [0, -1])
def test_run_suite_refuses_repeats_below_one(repeats, monkeypatch):
    """Refused before any workload runs, not after the untimed ones."""
    import repro.obs.bench

    def ran(*_args):
        raise AssertionError("a workload ran")

    monkeypatch.setattr(repro.obs.bench, "instrumented_run", ran)
    with pytest.raises(ValueError, match="repeats"):
        run_suite(repeats=repeats)


def test_cli_history_ingest_render_and_gate(tmp_path, capsys):
    ledger = str(tmp_path / "ledger.jsonl")
    base = dict(_payload(1000.0), label="pr9", created_unix=100)
    cand_ok = dict(_payload(990.0), label="ci")
    cand_slow = dict(_payload(100.0), label="ci")
    base_f = _write(tmp_path / "base.json", base)
    ok_f = _write(tmp_path / "ok.json", cand_ok)
    slow_f = _write(tmp_path / "slow.json", cand_slow)

    # Empty ledger: gating has no baseline (exit 3).
    assert obs_main(["history", "--ledger", ledger, "--gate", ok_f]) == 3

    assert obs_main(["history", base_f, "--ledger", ledger]) == 0
    out = capsys.readouterr().out
    assert "ingested 1 file(s)" in out
    assert "pr9" in out and "1000" in out

    assert obs_main(["history", "--ledger", ledger, "--gate", ok_f]) == 0
    assert obs_main(["history", "--ledger", ledger, "--gate", slow_f]) == 1
    err = capsys.readouterr().err
    assert "REGRESSED: workload w, metric cycles_per_sec" in err

    # Delta between ledger labels; unknown labels are usage errors.
    assert obs_main(["history", ok_f, "--ledger", ledger]) == 0
    capsys.readouterr()
    assert obs_main(["history", "--ledger", ledger,
                     "--delta", "pr9", "ci"]) == 0
    assert "delta pr9 -> ci" in capsys.readouterr().out
    assert obs_main(["history", "--ledger", ledger,
                     "--delta", "pr9", "nope"]) == 2


def test_cli_profile_smoke_profile(tmp_path, capsys):
    out_json = tmp_path / "profile.json"
    code = obs_main([
        "profile", "--profile", "smoke", "--load", "0.02",
        "--json", str(out_json),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "phase breakdown" in out
    assert "self-check ok" in out
    payload = json.loads(out_json.read_text())
    assert payload["kind"] == "phase-profile"
    assert payload["selfcheck"] is True
    assert payload["context"]["profile"] == "smoke"
    shares = [p["share"] for p in payload["phases"].values()]
    assert sum(shares) == pytest.approx(1.0, abs=1e-9)
