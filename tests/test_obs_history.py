"""Perf ledger: ingest/dedupe, rendering, and the attributing gate."""

import json

import pytest

from repro.obs.history import (
    LEDGER_SCHEMA, gate_against_ledger, ingest, ledger_entry, read_ledger,
    render_history, write_ledger,
)


def payload(label, created, *, rate=2000.0, phases=None, host=None):
    """A minimal BENCH-shaped payload with one engine workload."""
    metrics = {
        "key": "abc123",
        "seconds": 1.0,
        "cycles_per_sec": rate,
        "flit_hops_per_sec": rate * 200,
        "peak_rss_kb": 50_000,
    }
    if phases is not None:
        metrics["phases"] = phases
    return {
        "kind": "bench",
        "label": label,
        "created_unix": created,
        "engine_version": 2,
        "host": host or {"platform": "linux", "python": "3.12.1"},
        "workloads": {"engine_saturated": metrics},
    }


PHASES_A = {"route": 0.30, "switch_traverse": 0.55, "generate": 0.15}
PHASES_B = {"route": 0.52, "switch_traverse": 0.36, "generate": 0.12}


class TestLedgerEntry:
    def test_condenses_and_keeps_compare_fields(self):
        entry = ledger_entry(payload("pr5", 100, phases=PHASES_A))
        assert entry["kind"] == "perf-ledger-entry"
        assert entry["schema"] == LEDGER_SCHEMA
        w = entry["workloads"]["engine_saturated"]
        assert w["key"] == "abc123"
        assert w["cycles_per_sec"] == 2000.0
        assert w["phases"] == PHASES_A

    def test_tolerates_missing_optional_fields(self):
        entry = ledger_entry({"workloads": {"w": {"ops_per_sec": 5.0}}})
        assert entry["label"] == "?"
        assert "phases" not in entry["workloads"]["w"]


class TestIngest:
    def test_ingest_dedupes_by_label(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        added, replaced = ingest(
            [payload("pr4", 100), payload("pr5", 200)], ledger
        )
        assert (added, replaced) == (2, 0)
        added, replaced = ingest([payload("pr5", 300, rate=2500.0)], ledger)
        assert (added, replaced) == (0, 1)
        entries = read_ledger(ledger)
        assert [e["label"] for e in entries] == ["pr4", "pr5"]
        assert (
            entries[1]["workloads"]["engine_saturated"]["cycles_per_sec"]
            == 2500.0
        )

    def test_read_missing_ledger_is_empty(self, tmp_path):
        assert read_ledger(tmp_path / "absent.jsonl") == []

    def test_torn_final_line_skipped(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        write_ledger(ledger, [ledger_entry(payload("pr4", 100))])
        ledger.write_text(ledger.read_text() + '{"label": "torn', )
        with pytest.warns(UserWarning, match="torn final line"):
            entries = read_ledger(ledger)
        assert [e["label"] for e in entries] == ["pr4"]

    def test_corrupt_interior_line_raises(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        ledger.write_text('not json\n{"label": "x"}\n')
        with pytest.raises(ValueError, match=r"ledger\.jsonl:1: bad JSONL line"):
            read_ledger(ledger)

    def test_write_sorts_by_time_then_label(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        write_ledger(ledger, [
            ledger_entry(payload("zz", 100)),
            ledger_entry(payload("aa", 100)),
            ledger_entry(payload("mid", 50)),
        ])
        labels = [e["label"] for e in read_ledger(ledger)]
        assert labels == ["mid", "aa", "zz"]


class TestRender:
    def entries(self):
        return [
            ledger_entry(payload("pr4", 100, rate=2000.0)),
            ledger_entry(payload("pr5", 200, rate=1800.0)),
        ]

    def test_render_shows_labels_values_and_trend(self):
        text = render_history(self.entries())
        assert "pr4" in text and "pr5" in text
        assert "engine_saturated" in text
        assert "2000" in text and "1800" in text
        assert "(-10.0% vs prev)" in text

    def test_empty_ledger_message(self):
        assert "empty" in render_history([])

    def test_workload_filter(self):
        text = render_history(self.entries(), workload="no_such")
        assert "no matching workload/metric" in text

    def test_missing_workload_renders_placeholder(self):
        entries = self.entries()
        extra = ledger_entry({
            "label": "pr6", "created_unix": 300,
            "workloads": {"other": {"key": "k", "ops_per_sec": 9.0}},
        })
        text = render_history(entries + [extra])
        assert "·" in text  # sparkline gap for the missing series point


class TestGate:
    def entries(self):
        return [
            ledger_entry(payload("pr4", 100, rate=2000.0, phases=PHASES_A)),
            ledger_entry(payload("pr5", 200, rate=2100.0, phases=PHASES_A)),
        ]

    def test_gate_passes_within_tolerance(self):
        rows, code, messages = gate_against_ledger(
            self.entries(), payload("ci", 300, rate=2050.0, phases=PHASES_A)
        )
        assert code == 0
        assert "pr5" in messages[0]  # newest entry is the baseline

    def test_gate_names_workload_metric_and_phase(self):
        rows, code, messages = gate_against_ledger(
            self.entries(), payload("ci", 300, rate=1000.0, phases=PHASES_B)
        )
        assert code == 1
        regressions = [m for m in messages if m.startswith("REGRESSED")]
        assert regressions
        assert any(
            "workload engine_saturated" in m
            and "cycles_per_sec" in m
            and "phase route" in m
            and "30.0% -> 52.0%" in m
            for m in regressions
        )

    def test_gate_names_the_phases_an_improvement_came_from(self):
        entries = [ledger_entry(payload("pr5", 200, rate=2000.0, phases=PHASES_B))]
        rows, code, messages = gate_against_ledger(
            entries, payload("ci", 300, rate=2600.0, phases=PHASES_A)
        )
        assert code == 0
        improved = [m for m in messages if m.startswith("IMPROVED")]
        assert any(
            "workload engine_saturated" in m
            and "+30.0%" in m
            and "phase route: share 52.0% -> 30.0%" in m
            and "switch_traverse" not in m  # its share grew: not a source
            for m in improved
        )
        assert not any(m.startswith("REGRESSED") for m in messages)

    def test_gate_without_phases_says_so(self):
        entries = [ledger_entry(payload("pr3", 50, rate=2000.0))]
        rows, code, messages = gate_against_ledger(
            entries, payload("ci", 300, rate=1000.0)
        )
        assert code == 1
        assert any("(no phase data)" in m for m in messages)

    def test_explicit_baseline_label(self):
        rows, code, messages = gate_against_ledger(
            self.entries(),
            payload("ci", 300, rate=1900.0),
            baseline="pr4",
        )
        assert code == 0
        assert "pr4" in messages[0]

    def test_missing_baseline_label_is_exit_3(self):
        rows, code, messages = gate_against_ledger(
            self.entries(), payload("ci", 300), baseline="nope"
        )
        assert (rows, code) == ([], 3)
        assert "nope" in messages[0]

    def test_empty_ledger_is_exit_3(self):
        rows, code, messages = gate_against_ledger([], payload("ci", 300))
        assert code == 3

    def test_host_mismatch_warning_included(self):
        candidate = payload(
            "ci", 300, rate=2100.0,
            host={"platform": "darwin", "python": "3.12.1"},
        )
        rows, code, messages = gate_against_ledger(self.entries(), candidate)
        assert code == 0
        assert any("host.platform differs" in m for m in messages)

    def test_key_mismatch_is_incomparable(self):
        candidate = payload("ci", 300)
        candidate["workloads"]["engine_saturated"]["key"] = "different"
        rows, code, messages = gate_against_ledger(self.entries(), candidate)
        assert code == 2

    def test_entries_are_json_lines(self, tmp_path):
        # The committed ledger file stays greppable one-line JSON.
        ledger = tmp_path / "ledger.jsonl"
        ingest([payload("pr5", 200, phases=PHASES_A)], ledger)
        lines = ledger.read_text().strip().split("\n")
        assert len(lines) == 1
        assert json.loads(lines[0])["label"] == "pr5"
