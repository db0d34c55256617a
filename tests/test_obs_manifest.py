"""Run manifests (`repro.obs.manifest`): writer, summarizer, report,
CLI verb, and the figure/campaign integrations."""

import json

import pytest

from repro.campaigns import CampaignDB, CampaignSpec, run_campaign
from repro.experiments.fig_sweep import run_sweep
from repro.experiments.profiles import SMOKE_PROFILE
from repro.obs.cli import main as obs_main
from repro.obs.manifest import (
    ManifestWriter,
    read_manifest,
    render_report,
    summarize_manifest,
)
from repro.obs.telemetry import TelemetryRegistry
from repro.simulator.config import SimConfig


def _write_run(path, *, cells=6, label="demo", with_cache=True):
    with ManifestWriter(path) as m:
        m.run_start(label, kind="figure", workers=2, store="/tmp/store")
        for i in range(cells):
            m.cell_finish(
                f"alg{i % 2}/cell{i}",
                seconds=0.5 + i,
                worker=i % 2,
                cycles=1000,
                cache={"hits": i % 2, "misses": 1 - i % 2,
                       "puts": 1 - i % 2}
                if with_cache else None,
            )
        m.run_finish(status="ok", telemetry=TelemetryRegistry())
    return path


class TestWriter:
    def test_events_are_jsonl_with_monotonic_t(self, tmp_path):
        path = _write_run(tmp_path / "m.jsonl", cells=2)
        events = read_manifest(path)
        assert [e["event"] for e in events] == [
            "run-start", "cell", "cell", "run-finish",
        ]
        ts = [e["t"] for e in events]
        assert ts == sorted(ts)
        assert events[0]["wall_unix"] > 0

    def test_append_only_across_writers(self, tmp_path):
        path = tmp_path / "m.jsonl"
        _write_run(path, cells=1)
        _write_run(path, cells=1)
        assert len(read_manifest(path)) == 6

    def test_cell_start_phase(self, tmp_path):
        with ManifestWriter(tmp_path / "m.jsonl") as m:
            ev = m.cell_start("nhop")
        assert ev["phase"] == "start" and ev["id"] == "nhop"

    def test_meta_kwargs_recorded(self, tmp_path):
        with ManifestWriter(tmp_path / "m.jsonl") as m:
            ev = m.run_start("x", kind="figure", profile="smoke")
        assert ev["meta"] == {"profile": "smoke"}

    def test_bad_line_raises_with_location(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"event": "run-start"}\nnot json\n')
        with pytest.raises(ValueError, match=":2:"):
            read_manifest(path)

    def test_torn_final_line_skipped_with_warning(self, tmp_path):
        """A crash mid-append leaves a final line with no newline; the
        reader keeps every complete event and warns instead of dying."""
        path = tmp_path / "m.jsonl"
        _write_run(path, cells=2)
        with path.open("a") as fh:
            fh.write('{"event": "cell", "id": "alg0/ce')  # no newline
        with pytest.warns(UserWarning, match="torn final line"):
            events = read_manifest(path)
        assert [e["event"] for e in events] == [
            "run-start", "cell", "cell", "run-finish",
        ]

    def test_torn_line_location_in_warning(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"event": "run-start"}\n{"trunc')
        with pytest.warns(UserWarning, match=r"m\.jsonl:2"):
            assert len(read_manifest(path)) == 1

    def test_newline_terminated_garbage_still_raises(self, tmp_path):
        """Only a *torn* tail is forgiven — a complete bad line is
        corruption and keeps raising, even as the final line."""
        path = tmp_path / "m.jsonl"
        path.write_text('{"event": "run-start"}\n{"trunc\n')
        with pytest.raises(ValueError, match=":2:"):
            read_manifest(path)


class TestSummarize:
    def test_groups_by_leading_component(self, tmp_path):
        summary = summarize_manifest(
            read_manifest(_write_run(tmp_path / "m.jsonl"))
        )
        assert set(summary["groups"]) == {"alg0", "alg1"}
        assert summary["groups"]["alg0"]["cells"] == 3
        assert summary["n_cells"] == 6
        assert summary["status"] == "ok"
        assert summary["telemetry_digest"] == TelemetryRegistry().merge_digest()

    def test_cache_totals_and_hit_rate(self, tmp_path):
        summary = summarize_manifest(
            read_manifest(_write_run(tmp_path / "m.jsonl"))
        )
        c = summary["cache"]
        assert c["hits"] + c["misses"] == 6
        assert summary["cache_hit_rate"] == pytest.approx(c["hits"] / 6)

    def test_no_cache_is_none(self, tmp_path):
        summary = summarize_manifest(read_manifest(
            _write_run(tmp_path / "m.jsonl", with_cache=False)
        ))
        assert summary["cache"] is None
        assert summary["cache_hit_rate"] is None

    def test_last_run_segment_wins_after_resume(self, tmp_path):
        path = tmp_path / "m.jsonl"
        _write_run(path, cells=6, label="first")
        _write_run(path, cells=2, label="second")
        summary = summarize_manifest(read_manifest(path))
        assert summary["label"] == "second"
        assert summary["n_cells"] == 2

    def test_slowest_cells_ranked(self, tmp_path):
        summary = summarize_manifest(
            read_manifest(_write_run(tmp_path / "m.jsonl"))
        )
        seconds = [row["seconds"] for row in summary["slowest"]]
        assert len(seconds) == 5
        assert seconds == sorted(seconds, reverse=True)

    def test_eta_checks_present_for_enough_cells(self, tmp_path):
        summary = summarize_manifest(
            read_manifest(_write_run(tmp_path / "m.jsonl"))
        )
        assert [row["at_pct"] for row in summary["eta_checks"]] == [25, 50, 75]

    def test_eta_uses_only_the_current_segment(self):
        """A resumed campaign appends a new manifest segment; the ETA
        validation must extrapolate from the latest segment's own
        run-start/cell timings and never mix in the stale segment's
        (pathologically slow, here) durations."""

        def segment(scale, n):
            events = [{"event": "run-start", "t": 0.0, "label": "x",
                       "kind": "campaign", "workers": 1}]
            for i in range(1, n + 1):
                events.append({"event": "cell", "phase": "finish",
                               "id": f"a/{i}", "t": scale * i,
                               "seconds": float(scale)})
            events.append({"event": "run-finish", "t": scale * (n + 1),
                           "status": "ok", "seconds": scale * (n + 1)})
            return events

        stale = segment(100.0, 8)  # 100 s/cell — must not leak into ETA
        fresh = segment(1.0, 4)
        summary = summarize_manifest(stale + fresh)
        assert summary["n_cells"] == 4  # current segment only
        assert [row["actual_s"] for row in summary["eta_checks"]] == [
            5.0, 5.0, 5.0,
        ]
        # Linear model over the fresh segment: k cells by t=k predicts
        # total = k * 4 / k = 4 s at every checkpoint.
        assert [row["predicted_s"] for row in summary["eta_checks"]] == [
            4.0, 4.0, 4.0,
        ]

    def test_incomplete_run(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with ManifestWriter(path) as m:
            m.run_start("x", kind="campaign")
            m.cell_finish("a/1", seconds=1.0)
        summary = summarize_manifest(read_manifest(path))
        assert summary["status"] == "incomplete"
        assert summary["total_seconds"] is None


class TestReport:
    def test_render_mentions_everything(self, tmp_path):
        summary = summarize_manifest(
            read_manifest(_write_run(tmp_path / "m.jsonl"))
        )
        text = render_report(summary)
        for needle in ("run 'demo'", "workers=2", "alg0", "slowest cells:",
                       "hit rate", "ETA model"):
            assert needle in text

    def test_cli_report_verb(self, tmp_path, capsys):
        path = _write_run(tmp_path / "m.jsonl")
        assert obs_main(["report", str(path)]) == 0
        assert "run 'demo'" in capsys.readouterr().out

    def test_cli_report_accepts_directory(self, tmp_path, capsys):
        _write_run(tmp_path / "events.jsonl")
        assert obs_main(["report", str(tmp_path)]) == 0
        assert "run 'demo'" in capsys.readouterr().out

    def test_cli_report_missing_file(self, tmp_path, capsys):
        assert obs_main(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err

    def test_cli_report_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert obs_main(["report", str(path)]) == 2


class TestIntegration:
    def test_fig_sweep_emits_cell_per_algorithm(self, tmp_path):
        path = tmp_path / "fig.jsonl"
        with ManifestWriter(path) as m:
            m.run_start("fig1", kind="figure", workers=1)
            run_sweep(SMOKE_PROFILE, ("nhop",), manifest=m)
            m.run_finish()
        events = read_manifest(path)
        finishes = [
            e for e in events
            if e["event"] == "cell" and e["phase"] == "finish"
        ]
        assert [e["id"] for e in finishes] == ["nhop"]
        assert finishes[0]["cycles"] > 0
        assert finishes[0]["seconds"] > 0

    def test_campaign_writes_events_jsonl(self, tmp_path):
        spec = CampaignSpec(
            name="m",
            algorithms=("nhop",),
            config=SimConfig(
                width=6, vcs_per_channel=24, message_length=4,
                cycles=400, warmup=100,
            ),
            rates=(0.01, 0.02),
        )
        db = CampaignDB(spec, tmp_path / "out")
        run_campaign(db)
        events = read_manifest(tmp_path / "out" / "events.jsonl")
        kinds = [e["event"] for e in events]
        assert kinds[0] == "run-start" and kinds[-1] == "run-finish"
        summary = summarize_manifest(events)
        assert summary["kind"] == "campaign"
        assert summary["n_cells"] == 2
        # Resume: a second run appends a fresh (empty) segment.
        run_campaign(CampaignDB.open(tmp_path / "out"))
        summary = summarize_manifest(
            read_manifest(tmp_path / "out" / "events.jsonl")
        )
        assert summary["n_cells"] == 0
        assert summary["status"] == "ok"


class TestFailedRunIsClosed:
    """A cell that raises leaves ``cell finish status=error`` and a
    ``run-finish status=error`` behind, whichever runner owned the
    manifest — it is one ``try`` in ``timed_cell`` plus the writer's
    ``with`` block."""

    SPEC = CampaignSpec(
        name="boom",
        algorithms=("nhop",),
        config=SimConfig(
            width=6, vcs_per_channel=24, message_length=4,
            cycles=400, warmup=100,
        ),
        rates=(0.01, 0.02, 0.03),
    )

    @staticmethod
    def _statuses(path):
        events = read_manifest(path)
        return (
            [e["status"] for e in events
             if e["event"] == "cell" and e["phase"] == "finish"],
            summarize_manifest(events)["status"],
        )

    @pytest.fixture
    def second_cell_raises(self, monkeypatch):
        from repro.campaigns import shard

        real, calls = shard.execute_cell, []

        def flaky(evaluator, cases, key):
            calls.append(key)
            if len(calls) == 2:
                raise RuntimeError("deadlock oracle fired")
            return real(evaluator, cases, key)

        monkeypatch.setattr(shard, "execute_cell", flaky)

    def test_campaign_runner(self, tmp_path, second_cell_raises):
        db = CampaignDB(self.SPEC, tmp_path / "out")
        with pytest.raises(RuntimeError, match="oracle"):
            run_campaign(db, workers=1)  # the counting fixture is per process
        assert self._statuses(db.events_path) == (["ok", "error"], "error")
        assert len(db.store) == 1  # the finished cell survived

    def test_shard(self, tmp_path, second_cell_raises):
        from repro.campaigns import run_shard

        with pytest.raises(RuntimeError, match="oracle"):
            run_shard(self.SPEC, self.SPEC.job_keys(), tmp_path / "shard")
        assert self._statuses(tmp_path / "shard" / "events.jsonl") == (
            ["ok", "error"], "error",
        )

    def test_experiments_cli(self, tmp_path, monkeypatch):
        """On the default ``--workers`` (a pool, where there are CPUs for
        one) the failed cell is recorded as in process."""
        self._experiments_cli(tmp_path, monkeypatch, [])

    def test_experiments_cli_in_process(self, tmp_path, monkeypatch):
        self._experiments_cli(tmp_path, monkeypatch, ["--workers", "1"])

    def _experiments_cli(self, tmp_path, monkeypatch, workers):
        from repro.experiments import fig_sweep
        from repro.experiments.cli import main as experiments_main

        monkeypatch.setattr(fig_sweep, "sweep_job", _phop_raises)
        path = tmp_path / "fig1.jsonl"
        with pytest.raises(RuntimeError, match="oracle"):
            experiments_main([
                "fig1", "--profile", "smoke", "--quiet", "--manifest",
                str(path), "--algorithms", "nhop", "phop", "duato",
                *workers,
            ])
        assert self._statuses(path) == (["ok", "error"], "error")


def _phop_raises(evaluator, profile):
    """A figure job (module level, so a pool worker can unpickle it)
    whose one point raises for ``phop``."""

    def point(algorithm, _):
        if algorithm == "phop":
            raise RuntimeError("deadlock oracle fired")
        return None, 0

    return point, [(1.0, None)]
