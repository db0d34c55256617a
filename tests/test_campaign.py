"""Tests for the campaign runner."""

import json

import pytest

from repro.campaigns import CampaignRunner, CampaignSpec, load_campaign
from repro.simulator.config import SimConfig


def tiny_spec(**overrides):
    defaults = dict(
        name="test",
        algorithms=("nhop",),
        config=SimConfig(
            width=6, vcs_per_channel=24, message_length=4,
            cycles=600, warmup=150,
        ),
        rates=(0.01,),
        fault_counts=(0,),
        fault_sets=1,
        repeats=1,
        seed=5,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestSpec:
    def test_job_grid_size(self):
        spec = tiny_spec(
            algorithms=("nhop", "phop"),
            rates=(0.01, 0.02),
            fault_counts=(0, 3),
            fault_sets=2,
            repeats=2,
        )
        # per algorithm x rate: faults 0 -> 1 set, faults 3 -> 2 sets;
        # each x 2 repeats = (1+2)*2 = 6; total 2*2*6 = 24.
        assert spec.n_jobs == 24

    def test_round_trip(self):
        spec = tiny_spec(rates=(0.01, 0.02), fault_counts=(0, 3))
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_json_safe(self):
        payload = tiny_spec().to_dict()
        assert json.loads(json.dumps(payload)) == payload

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_spec(name="")
        with pytest.raises(ValueError):
            tiny_spec(algorithms=())
        with pytest.raises(ValueError):
            tiny_spec(rates=())
        with pytest.raises(ValueError):
            tiny_spec(repeats=0)

    def test_from_dict_kind_checked(self):
        with pytest.raises(ValueError, match="not a campaign-spec"):
            CampaignSpec.from_dict({"kind": "other"})


class TestRunner:
    def test_runs_all_jobs(self, tmp_path):
        spec = tiny_spec(algorithms=("nhop", "phop"), rates=(0.005, 0.02))
        runner = CampaignRunner(spec, tmp_path)
        executed = runner.run()
        assert executed == 4
        rows = runner.load_results()
        assert len(rows) == 4
        assert {r["algorithm"] for r in rows} == {"nhop", "phop"}
        assert all(r["delivered"] > 0 for r in rows)

    def test_manifest_written(self, tmp_path):
        spec = tiny_spec(fault_counts=(0, 3), fault_sets=2)
        runner = CampaignRunner(spec, tmp_path)
        runner.run()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["spec"]["name"] == "test"
        assert len(manifest["fault_patterns"]["3"]) == 2
        assert manifest["fault_patterns"]["0"][0]["faulty"] == []

    def test_resume_skips_completed(self, tmp_path):
        spec = tiny_spec(rates=(0.005, 0.02))
        runner = CampaignRunner(spec, tmp_path)
        assert runner.run() == 2
        # Second run: nothing left.
        assert runner.run() == 0
        # Remove one line -> exactly one job re-runs.
        lines = (tmp_path / "results.jsonl").read_text().splitlines()
        (tmp_path / "results.jsonl").write_text(lines[0] + "\n")
        assert runner.run() == 1

    def test_resume_false_restarts(self, tmp_path):
        spec = tiny_spec()
        runner = CampaignRunner(spec, tmp_path)
        runner.run()
        assert runner.run(resume=False) == 1
        assert len(runner.load_results()) == 1

    def test_torn_line_tolerated(self, tmp_path):
        spec = tiny_spec(rates=(0.005, 0.02))
        runner = CampaignRunner(spec, tmp_path)
        runner.run()
        with (tmp_path / "results.jsonl").open("a") as f:
            f.write('{"id": "broken')  # simulated crash mid-write
        assert runner.run() == 0  # both real jobs still recognized
        assert len(runner.load_results()) == 2

    def test_torn_line_warns_with_location(self, tmp_path):
        """The reader names the file:line it skipped, so a real crash
        leaves a visible trace instead of silently shrinking results."""
        from repro.campaigns.runner import read_results_jsonl

        path = tmp_path / "results.jsonl"
        path.write_text('{"id": "a/1"}\n{"id": "b/2"}\n{"id": "tor')
        with pytest.warns(UserWarning, match=r"results\.jsonl:3"):
            rows = read_results_jsonl(path)
        assert [row["id"] for row in rows] == ["a/1", "b/2"]

    def test_missing_results_file_is_empty(self, tmp_path):
        from repro.campaigns.runner import read_results_jsonl

        assert read_results_jsonl(tmp_path / "absent.jsonl") == []

    def test_reproducible_across_runners(self, tmp_path):
        spec = tiny_spec(fault_counts=(3,), fault_sets=1)
        r1 = CampaignRunner(spec, tmp_path / "a")
        r2 = CampaignRunner(spec, tmp_path / "b")
        r1.run()
        r2.run()
        rows1 = [
            {k: v for k, v in row.items()} for row in r1.load_results()
        ]
        rows2 = [
            {k: v for k, v in row.items()} for row in r2.load_results()
        ]
        assert rows1 == rows2

    def test_progress_callback(self, tmp_path):
        seen = []
        CampaignRunner(tiny_spec(), tmp_path).run(progress=seen.append)
        assert len(seen) == 1 and seen[0].startswith("[test]")


class TestRunnerWorkers:
    def test_workers_match_sequential(self, tmp_path):
        spec = tiny_spec(
            algorithms=("nhop", "phop"), rates=(0.005, 0.02),
            fault_counts=(0, 3), fault_sets=2,
        )
        seq = CampaignRunner(spec, tmp_path / "seq")
        par = CampaignRunner(spec, tmp_path / "par")
        assert seq.run() == par.run(workers=2) == 12
        assert seq.load_results() == par.load_results()

    def test_workers_resume(self, tmp_path):
        spec = tiny_spec(algorithms=("nhop", "phop"), rates=(0.005, 0.02))
        runner = CampaignRunner(spec, tmp_path)
        assert runner.run(workers=2) == 4
        assert runner.run(workers=2) == 0
        lines = (tmp_path / "results.jsonl").read_text().splitlines()
        (tmp_path / "results.jsonl").write_text("\n".join(lines[:2]) + "\n")
        assert runner.run(workers=2) == 2
        assert len(runner.load_results()) == 4


class TestRunnerStore:
    def test_campaign_reuses_cells_across_runs(self, tmp_path):
        from repro.store import ResultStore

        spec = tiny_spec(algorithms=("nhop",), rates=(0.005, 0.02))
        store = tmp_path / "store"
        a = CampaignRunner(spec, tmp_path / "a", store=store)
        a.run()
        assert a._evaluator.stats.misses == 2
        b = CampaignRunner(spec, tmp_path / "b", store=store)
        b.run()
        assert b._evaluator.stats.hits == 2 and b._evaluator.stats.misses == 0
        assert a.load_results() == b.load_results()
        assert len(ResultStore(store)) == 2

    def test_workers_share_store(self, tmp_path):
        from repro.store import ResultStore

        spec = tiny_spec(algorithms=("nhop", "phop"), rates=(0.005, 0.02))
        store = tmp_path / "store"
        warm = CampaignRunner(spec, tmp_path / "warm", store=store)
        warm.run()  # sequential fill
        par = CampaignRunner(spec, tmp_path / "par", store=store)
        par.run(workers=2)  # workers reopen the same store: all hits
        assert warm.load_results() == par.load_results()
        assert len(ResultStore(store)) == 4  # nothing duplicated

    def test_store_matches_uncached(self, tmp_path):
        spec = tiny_spec(rates=(0.005,), fault_counts=(0, 3))
        plain = CampaignRunner(spec, tmp_path / "plain")
        cached = CampaignRunner(spec, tmp_path / "cached", store=tmp_path / "s")
        plain.run()
        cached.run()
        assert plain.load_results() == cached.load_results()


class TestLoadCampaign:
    def test_load(self, tmp_path):
        spec = tiny_spec()
        CampaignRunner(spec, tmp_path).run()
        loaded_spec, rows = load_campaign(tmp_path)
        assert loaded_spec == spec
        assert len(rows) == 1
