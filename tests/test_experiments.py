"""Tests for the experiment harness (drivers, CLI, plots, profiles)."""

import argparse
import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.ascii_plot import bar_chart, line_chart, table
from repro.experiments.budgets_table import budget_rows, print_budgets
from repro.experiments.cli import main
from repro.experiments.fig_faults import print_fig4, print_fig5, run_fault_study
from repro.experiments.fig_fring import print_fig6, run_fring_study
from repro.experiments.fig_sweep import print_fig1, print_fig2, run_sweep
from repro.experiments.fig_vc_usage import print_fig3, run_vc_usage
from repro.experiments.profiles import (
    PAPER_PROFILE,
    QUICK_PROFILE,
    SMOKE_PROFILE,
    get_profile,
)
from repro.metrics.saturation import find_saturation, peak_throughput

TINY_ALGS = ("nhop", "duato-nbc")


@pytest.fixture(scope="module")
def sweep_result():
    return run_sweep(SMOKE_PROFILE, TINY_ALGS)


@pytest.fixture(scope="module")
def fault_result():
    return run_fault_study(SMOKE_PROFILE, TINY_ALGS)


class TestProfiles:
    def test_get_profile(self):
        assert get_profile("paper") is PAPER_PROFILE
        assert get_profile("quick") is QUICK_PROFILE
        with pytest.raises(ValueError):
            get_profile("huge")

    def test_paper_profile_matches_paper(self):
        p = PAPER_PROFILE
        assert p.config.width == 10
        assert p.config.message_length == 100
        assert p.config.cycles == 30_000
        assert p.config.warmup == 10_000
        assert p.fault_sets == 10
        assert p.fault_counts == (0, 5, 10)
        assert p.vc_usage_faults == 5

    def test_rate_conversion(self):
        assert QUICK_PROFILE.rate(0.32) == pytest.approx(
            0.32 / QUICK_PROFILE.config.message_length
        )
        assert PAPER_PROFILE.full_load_rate == pytest.approx(0.01)

    def test_sweep_rates_align_with_loads(self):
        p = SMOKE_PROFILE
        assert len(p.sweep_rates) == len(p.sweep_loads)


class TestSweepDriver:
    def test_series_shapes(self, sweep_result):
        assert set(sweep_result.throughput) == set(TINY_ALGS)
        for alg in TINY_ALGS:
            assert len(sweep_result.throughput[alg]) == len(sweep_result.rates)
            assert len(sweep_result.latency[alg]) == len(sweep_result.rates)

    def test_saturation_and_peaks(self, sweep_result):
        rates = sweep_result.rates
        for alg in TINY_ALGS:
            assert peak_throughput(rates, sweep_result.throughput[alg])[1] > 0
            find_saturation(rates, sweep_result.latency[alg])  # must not raise

    def test_printers(self, sweep_result):
        out1 = print_fig1(sweep_result.to_payload())
        out2 = print_fig2(sweep_result.to_payload())
        assert "Figure 1" in out1 and "NHop" in out1
        assert "Figure 2" in out2 and "Duato-Nbc" in out2

    def test_payload_is_json_safe(self, sweep_result):
        payload = sweep_result.to_payload()
        assert json.loads(json.dumps(payload)) == payload


class TestFaultDriver:
    def test_points(self, fault_result):
        for alg in TINY_ALGS:
            assert len(fault_result.points[alg]) == len(SMOKE_PROFILE.fault_counts)

    def test_printers(self, fault_result):
        assert "Figure 4" in print_fig4(fault_result.to_payload())
        assert "Figure 5" in print_fig5(fault_result.to_payload())

    def test_payload(self, fault_result):
        payload = fault_result.to_payload()
        assert payload["experiment"] == "fig4-fig5"
        json.dumps(payload)


class TestVcUsageDriver:
    def test_run_and_print(self):
        result = run_vc_usage(SMOKE_PROFILE, TINY_ALGS)
        out = print_fig3(result.to_payload())
        assert "Figure 3" in out
        for alg in TINY_ALGS:
            assert len(result.usage[alg]) == SMOKE_PROFILE.config.vcs_per_channel
        json.dumps(result.to_payload())


class TestFRingDriver:
    def test_run_and_print(self):
        result = run_fring_study(SMOKE_PROFILE, ("nhop",))
        out = print_fig6(result.to_payload())
        assert "Figure 6" in out
        split = result.splits["nhop"]["faulty"]
        assert split.ring_load_pct > 0
        json.dumps(result.to_payload())


class TestBudgetsTable:
    def test_rows_and_text(self):
        rows = budget_rows(10, total_vcs=24)
        assert len(rows) == 11
        text = print_budgets(10, 24)
        assert "PHop" in text and "24" in text

    def test_paper_budgets_on_the_10x10_mesh(self):
        """Sections 3-5: PHop needs n(k-1)+1 = 19 buffer classes and NHop
        10; every algorithm runs with 24 VCs, 4 of them ring VCs; and
        Duato-Nbc keeps more adaptive (class I) VCs than Duato-Pbc."""
        by_name = {row[0]: row for row in budget_rows(10, None, 24)}
        assert by_name["PHop"][1] == 19
        assert by_name["NHop"][1] == 10
        for name, row in by_name.items():
            assert row[5] == 4, f"{name} ring VCs != 4"
            assert row[6] == 24, f"{name} total != 24"
        assert by_name["Duato-Nbc"][3] > by_name["Duato-Pbc"][3]


class TestCli:
    def test_budgets_command(self, capsys):
        assert main(["budgets", "--quiet"]) == 0
        assert "Virtual-channel budgets" in capsys.readouterr().out

    def test_fig1_smoke_with_output(self, capsys, tmp_path):
        rc = main(
            [
                "fig1",
                "--profile",
                "smoke",
                "--algorithms",
                "nhop",
                "--quiet",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        assert "Figure 1" in capsys.readouterr().out
        saved = json.loads((tmp_path / "sweep_smoke.json").read_text())
        assert saved["experiment"] == "fig1-fig2"

    def test_manifest_records_the_run_the_same_way_for_any_workers(
        self, tmp_path, capsys
    ):
        """A figure manifest writes each span as it closes (cells, then
        the phase, then the root, then run-finish) and closes with the
        partition-independent telemetry digest: pooled == in process.
        The ``engine.`` block ``--telemetry`` prints is the same too:
        every instrument is a sum.  (phop's saturated run ends with more
        flits in flight than nhop's, so a "latest value" instrument
        would print two different lines.)"""
        from repro.obs.manifest import read_manifest
        from repro.obs.spans import spans_from_manifest, spans_merge_digest

        algs = ("phop", "nhop")
        runs, printed = {}, {}
        for workers in (1, 2):
            path = tmp_path / f"w{workers}.jsonl"
            assert main([
                "fig1", "--profile", "smoke", "--algorithms", *algs,
                "--workers", str(workers), "--telemetry", "--manifest",
                str(path), "--quiet",
            ]) == 0
            runs[workers] = read_manifest(path)
            out = capsys.readouterr().out.splitlines()
            printed[workers] = [l for l in out if l.startswith("engine.")]
        assert printed[1] and printed[1] == printed[2]
        for events in runs.values():
            spans = spans_from_manifest(events)
            assert [s["name"] for s in spans] == [
                *(f"cell.{alg}" for alg in algs), "fig1-fig2", "fig1",
            ]
            ids = {s["name"]: s["span_id"] for s in spans}
            assert spans[-1]["parent_id"] is None
            assert spans[-2]["parent_id"] == ids["fig1"]
            assert {s["parent_id"] for s in spans[:-2]} == {ids["fig1-fig2"]}
            assert [e["event"] for e in events[-3:]] == [
                "span", "span", "run-finish",
            ]
        assert spans_merge_digest(spans_from_manifest(runs[1])) == (
            spans_merge_digest(spans_from_manifest(runs[2]))
        )
        assert runs[1][-1]["telemetry_digest"] == runs[2][-1]["telemetry_digest"]

    def test_workers_default_to_the_usable_cpus(self):
        from repro.cli import usable_cpus
        from repro.experiments.cli import VERBS

        parser = argparse.ArgumentParser()
        next(v for v in VERBS if v.name == "fig4").add_arguments(parser)
        assert parser.parse_args([]).workers == usable_cpus() >= 1

    @pytest.mark.parametrize("flags", [
        ["--workers", "3"], ["--telemetry"], ["--manifest", "m.jsonl"],
        ["--trace-out", "t.json"], ["--algorithms", "nhop"], ["--seed", "5"],
        ["--store"], ["--out", "o"],
    ])
    def test_budgets_refuses_the_flags_it_does_not_read(
        self, flags, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["budgets", "--quiet", *flags]) == 2
        assert capsys.readouterr().err.startswith("error: unrecognized")
        assert not list(tmp_path.iterdir())  # no manifest, no trace

    @pytest.mark.parametrize("command", ["ablations", "ablation-vc-count"])
    def test_ablations_take_only_store_out_and_quiet(self, command):
        from repro.cli import Refused, _Parser
        from repro.experiments.cli import VERBS

        parser = _Parser()
        next(v for v in VERBS if v.name == command).add_arguments(parser)
        args = parser.parse_args(["--store", "s", "--out", "o", "--quiet"])
        assert (str(args.store), str(args.out), args.quiet) == ("s", "o", True)
        for flags in (["--profile", "smoke"], ["--workers", "2"],
                      ["--seed", "5"], ["--telemetry"], ["--manifest"]):
            with pytest.raises(Refused):
                parser.parse_args(flags)

    def test_all_keeps_every_figure_flag(self):
        from repro.cli import _Parser
        from repro.experiments.cli import VERBS

        parser = _Parser()
        next(v for v in VERBS if v.name == "all").add_arguments(parser)
        args = parser.parse_args([
            "--profile", "smoke+auto", "--algorithms", "nhop",
            "--seed", "5", "--out", "o", "--quiet", "--workers", "2",
            "--store", "--telemetry", "--manifest",
        ])
        assert args.profile == "smoke+auto" and args.workers == 2

    @pytest.mark.parametrize("flags", [
        ["--adaptive-cycles"], ["--trace-out", "t"], ["--trace-sample", "3"],
    ])
    def test_figures_refuse_the_flags_they_do_not_read(
        self, flags, tmp_path, monkeypatch, capsys
    ):
        """An adaptive run is ``--profile <name>+auto``; a lifecycle
        trace is ``obs smoke --trace-out``, one run whose ids are unique."""
        monkeypatch.chdir(tmp_path)
        assert main([
            "fig1", "--profile", "smoke", "--algorithms", "nhop",
            "--workers", "1", "--quiet", *flags,
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unrecognized") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["fig9"]) == 2
        assert "unknown verb 'fig9'" in capsys.readouterr().err


def reference_digest(store_dir: Path) -> str:
    """The benchmark's digest of a store's rows (``bench/workloads.py``
    ``canonical_rows`` + ``rows_digest``): row *i* is the *i*-th run
    executed in declaration order."""
    from repro.store import ResultStore, canonical_json
    from repro.util.serialization import result_from_dict

    rows = []
    for i, row in enumerate(ResultStore(store_dir).rows()):
        result = result_from_dict(row["payload"])
        rows.append({
            "cell": i,
            "algorithm": row["algorithm"],
            "throughput": result.throughput,
            "latency": result.avg_latency,
            "delivered": result.delivered,
        })
    return hashlib.sha256(canonical_json(rows).encode("utf-8")).hexdigest()


class TestWorkerCountIsInvisible:
    """One figure with ``--workers 1``, ``--workers 2`` and the default:
    the parent is the store's only writer and appends pooled cells in
    declaration order, so ``rows.jsonl`` is byte-identical, and the
    manifests' span and telemetry digests agree (an invariant).  The
    rows also match ``bench/reference.json`` (a pin, re-recorded when
    the random stream moves).  Each figure runs once per worker
    setting for both."""

    REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference.json"
    #: The full-scale algorithms of the benchmark's figure workloads.
    FIGURES = {
        "fig1": ("fig1_smoke_cold", ("nhop", "duato-nbc", "minimal-adaptive")),
        "fig4": ("fig4_smoke_faulty", ("pbc", "boura-ft")),
    }

    @pytest.fixture(scope="class", params=sorted(FIGURES))
    def runs(self, request, tmp_path_factory):
        from repro.obs.manifest import read_manifest
        from repro.obs.spans import spans_from_manifest, spans_merge_digest

        from repro.cli import usable_cpus

        fig = request.param
        tmp_path = tmp_path_factory.mktemp(fig)
        workload, algorithms = self.FIGURES[fig]
        reference = json.loads(self.REFERENCE.read_text())
        settings = {"w1": ["--workers", "1"], "w2": ["--workers", "2"]}
        if usable_cpus() > 2:  # else the default is one of the two above
            settings["default"] = []
        runs = {}
        for name, flags in settings.items():
            root = tmp_path / name
            assert main([
                fig, "--profile", "smoke", "--algorithms", *algorithms,
                "--seed", str(reference["seed"]), "--store", str(root / "s"),
                "--telemetry", "--manifest", str(root / "m.jsonl"), "--quiet",
                *flags,
            ]) == 0
            events = read_manifest(root / "m.jsonl")
            runs[name] = (
                (root / "s" / "rows.jsonl").read_bytes(),
                spans_merge_digest(spans_from_manifest(events)),
                events[-1]["telemetry_digest"],
            )
        return reference, workload, tmp_path / "w1" / "s", runs

    def test_rows_spans_and_telemetry(self, runs):
        by_setting = runs[-1]
        assert all(run == by_setting["w1"] for run in by_setting.values())

    def test_rows_match_the_benchmark_reference(self, runs):
        from repro.simulator.engine import ENGINE_VERSION

        reference, workload, store, _ = runs
        if reference["engine_version"] != ENGINE_VERSION:
            pytest.skip("bench/reference.json pins another engine version")
        assert reference_digest(store) == (
            reference["workloads"][workload]["sha256"]
        )


class TestAsciiPlot:
    def test_line_chart_basic(self):
        out = line_chart(
            {"a": ([0, 1, 2], [0.0, 1.0, 4.0]), "b": ([0, 1, 2], [4.0, 1.0, 0.0])},
            title="T",
            width=20,
            height=8,
        )
        assert "T" in out and "o a" in out and "x b" in out

    def test_line_chart_handles_nan(self):
        out = line_chart({"a": ([0, 1], [float("nan"), 2.0])})
        assert "2" in out

    def test_line_chart_empty(self):
        assert "no finite data" in line_chart({"a": ([], [])}, title="x")

    def test_line_chart_mismatched_lengths(self):
        with pytest.raises(ValueError):
            line_chart({"a": ([0, 1], [1.0])})

    def test_bar_chart(self):
        out = bar_chart([("r", {"x": 50.0, "y": 100.0})], unit="%")
        assert "r x" in out and "100.0%" in out

    def test_table_alignment(self):
        out = table(["col", "n"], [["a", 1], ["bb", 22]], title="t")
        lines = out.splitlines()
        assert lines[0] == "t"
        assert all(len(line) >= 5 for line in lines[1:])
