"""Tests for ``experiments report``: a saved payload prints as its
command printed it, through the same printer."""

import json
from functools import partial

from repro.experiments import ablations
from repro.experiments.ablations import print_ablation
from repro.experiments.cli import main
from repro.experiments.fig_faults import print_fig4, print_fig5
from repro.experiments.fig_fring import print_fig6
from repro.experiments.fig_sweep import print_fig1, print_fig2
from repro.experiments.fig_vc_usage import print_fig3
from repro.metrics.vc_usage import usage_imbalance

SWEEP_PAYLOAD = {
    "experiment": "fig1-fig2",
    "profile": "smoke",
    "loads": [0.1, 0.5],
    "rates": [0.0125, 0.0625],
    "throughput": {"nhop": [0.05, 0.2], "phop": [0.05, 0.18]},
    "latency": {"nhop": [20.0, 300.0], "phop": [21.0, float("nan")]},
}

FAULTS_PAYLOAD = {
    "experiment": "fig4-fig5",
    "profile": "smoke",
    "fault_counts": [0, 3],
    "fault_percents": [0.0, 4.7],
    "throughput": {"nhop": [0.2, 0.15]},
    "latency": {"nhop": [300.0, 380.0]},
    "dropped": {"nhop": [0.0, 0.0]},
}

FIG3_PAYLOAD = {
    "experiment": "fig3",
    "profile": "smoke",
    "n_faults": 3,
    "usage": {"nhop": [5.0, 4.0, 3.0, 0.5, 1.0, 1.0, 0.5, 0.5]},
}

FIG6_PAYLOAD = {
    "experiment": "fig6",
    "profile": "smoke",
    "n_faults": 8,
    "splits": {
        "nhop": {
            "0%": {"ring_pct": 70.0, "other_pct": 55.0, "peak": 0.5},
            "faulty": {"ring_pct": 60.0, "other_pct": 33.0, "peak": 0.6},
        }
    },
    "corner_ratio": {"nhop": 1.25},
}


def report(directory, capsys) -> str:
    assert main(["report", "--out", str(directory)]) == 0
    return capsys.readouterr().out


def block(name: str, text: str) -> str:
    return f"### {name}\n\n```\n{text}\n```"


def printed(stdout: str) -> str:
    """A command's figure text: its stdout without the ``[saved …]``
    line and the closing blank line."""
    lines = [ln for ln in stdout.splitlines() if not ln.startswith("[saved ")]
    return "\n".join(lines).strip("\n")


class TestSummaries:
    """Each payload kind prints through its figure's printer."""

    def test_sweep(self):
        fig1, fig2 = print_fig1(SWEEP_PAYLOAD), print_fig2(SWEEP_PAYLOAD)
        assert "peak" in fig1 and "NHop" in fig1 and "0.200" in fig1
        assert "sat@" in fig2 and "Figure 2 (shape)" in fig2
        phop = next(ln for ln in fig2.splitlines() if ln.startswith("PHop"))
        assert phop.split()[:3] == ["PHop", "21", "-"]

    def test_faults(self):
        assert "4.7%" in print_fig4(FAULTS_PAYLOAD)
        assert "0.150" in print_fig4(FAULTS_PAYLOAD)
        assert "380" in print_fig5(FAULTS_PAYLOAD)

    def test_vc_usage(self):
        """Fig. 3's imbalance is taken over the non-ring VCs."""
        usage = FIG3_PAYLOAD["usage"]["nhop"]
        over_ring_too = f"{usage_imbalance(usage):.2f}"
        non_ring = f"{usage_imbalance(usage[:-4]):.2f}"
        assert non_ring != over_ring_too  # the two definitions differ here
        row = next(
            line for line in print_fig3(FIG3_PAYLOAD).splitlines()
            if line.startswith("NHop")
        )
        assert row.split()[-1] == non_ring

    def test_fring(self):
        """The hotspot ratio and the saved corner ratio; a payload saved
        without a corner ratio prints a dash."""
        rows = {}
        for key in ("with", "without"):
            payload = dict(FIG6_PAYLOAD)
            if key == "without":
                del payload["corner_ratio"]
            rows[key] = next(
                line.split() for line in print_fig6(payload).splitlines()
                if line.startswith("NHop")
            )
        assert rows["with"][-2:] == [f"{60.0 / 33.0:.2f}", "1.25"]
        assert rows["without"][-1] == "-"

    def test_ablation(self):
        payload = {
            "experiment": "ablation-bonus-cards",
            "knob": "cards on/off",
            "rows": [{"pair": "phop->pbc", "thr_gain_%": 1.7}],
        }
        out = print_ablation(payload)
        assert "phop->pbc" in out and "(knob: cards on/off)" in out

    def test_empty_ablation(self):
        assert print_ablation(
            {"experiment": "ablation-x", "knob": "k", "rows": []}
        ) == "Ablation x: no rows"

    def test_unknown_payload(self, tmp_path, capsys):
        junk = [
            json.dumps({"whatever": 1}),
            json.dumps({"experiment": "fig9"}),
            json.dumps({"experiment": "fig3", "usage": [1.0]}),
            json.dumps([1, 2]),
            "{not json",
        ]
        (tmp_path / "sweep.json").write_text(json.dumps(SWEEP_PAYLOAD))
        for i, text in enumerate(junk):
            (tmp_path / f"junk{i}.json").write_text(text)
        out = report(tmp_path, capsys)
        for i in range(len(junk)):
            assert f"### junk{i}.json\n\n(unrecognized payload, skipped)" in out
        assert "Figure 1 -" in out


class TestDirectory:
    def test_summarize_directory(self, tmp_path, capsys):
        for name, payload in (
            ("a_sweep.json", SWEEP_PAYLOAD),
            ("b_faults.json", FAULTS_PAYLOAD),
        ):
            (tmp_path / name).write_text(json.dumps(payload))
        out = report(tmp_path, capsys)
        assert out.startswith(f"# Experiment report — {tmp_path}\n")
        sweep = print_fig1(SWEEP_PAYLOAD) + "\n\n" + print_fig2(SWEEP_PAYLOAD)
        faults = print_fig4(FAULTS_PAYLOAD) + "\n\n" + print_fig5(FAULTS_PAYLOAD)
        assert block("a_sweep.json", sweep) in out
        assert block("b_faults.json", faults) in out
        assert out.index("a_sweep.json") < out.index("b_faults.json")

    def test_empty_directory(self, tmp_path, capsys):
        assert "(no experiment payloads found)" in report(tmp_path, capsys)

    def test_cli_report_command(self, tmp_path, capsys):
        """``report`` takes ``--out`` and no format switch."""
        assert main(["report", "--out", str(tmp_path), "--markdown"]) == 2
        assert "unrecognized arguments: --markdown" in capsys.readouterr().err


class TestReportEqualsTheCommand:
    """What a command printed for a payload is what the report prints."""

    def run(self, argv, capsys) -> str:
        assert main([*argv, "--quiet"]) == 0
        return printed(capsys.readouterr().out)

    def test_fig3(self, tmp_path, capsys):
        text = self.run([
            "fig3", "--profile", "smoke", "--algorithms", "nhop", "phop",
            "--workers", "1", "--out", str(tmp_path),
        ], capsys)
        assert block("fig3_smoke.json", text) in report(tmp_path, capsys)

    def test_fig6(self, tmp_path, capsys):
        text = self.run([
            "fig6", "--profile", "smoke", "--algorithms", "nhop",
            "--workers", "1", "--out", str(tmp_path),
        ], capsys)
        saved = json.loads((tmp_path / "fig6_smoke.json").read_text())
        assert set(saved["corner_ratio"]) == {"nhop"}
        assert block("fig6_smoke.json", text) in report(tmp_path, capsys)

    def test_ablation(self, tmp_path, capsys, monkeypatch):
        # The study's own scale is minutes; the printing path is the same.
        monkeypatch.setattr(ablations, "run_ablation", partial(
            ablations.run_ablation, cycles=300, warmup=100, width=4,
        ))
        text = self.run(
            ["ablation-bonus-cards", "--out", str(tmp_path)], capsys
        )
        saved = json.loads(
            (tmp_path / "ablation_bonus-cards.json").read_text()
        )
        assert saved["knob"] == "cards on/off"
        assert block("ablation_bonus-cards.json", text) in report(
            tmp_path, capsys
        )
