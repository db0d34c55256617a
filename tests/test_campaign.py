"""Tests for campaign specs and their execution through the one
campaign path: ``CampaignDB`` + ``run_campaign``."""

import json

import pytest

from repro.campaigns import CampaignDB, CampaignSpec, query, run_campaign
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
        db = CampaignDB(spec, tmp_path)
        assert run_campaign(db)["executed"] == 4
        array = query(db, metrics=("delivered",))
        assert array.shape == (2, 2, 1, 1)
        assert array.coords["algorithm"] == ("nhop", "phop")
        for alg in spec.algorithms:
            for rate in spec.rates:
                assert array.sel(
                    "delivered", algorithm=alg, rate=rate,
                    fault_case="f0/s0", repeat=0,
                ) > 0

    def test_manifest_written(self, tmp_path):
        """``campaign.json`` is the directory's record of its inputs."""
        spec = tiny_spec(fault_counts=(0, 3), fault_sets=2)
        run_campaign(CampaignDB(spec, tmp_path))
        payload = json.loads((tmp_path / "campaign.json").read_text())
        assert payload["spec"]["name"] == "test"
        assert [c["fault_case"] for c in payload["cells"]] == [
            "f0/s0", "f3/s0", "f3/s1",
        ]

    def test_resume_skips_completed(self, tmp_path):
        spec = tiny_spec(rates=(0.005, 0.02))
        db = CampaignDB(spec, tmp_path / "c")
        # One of the two cells is already in the store.
        half = CampaignDB(
            tiny_spec(rates=(0.005,)), tmp_path / "h", store=db.store
        )
        assert run_campaign(half)["executed"] == 1
        assert run_campaign(db)["executed"] == 1
        # Second run: nothing left.
        assert run_campaign(db)["executed"] == 0

    def test_torn_line_tolerated(self, tmp_path):
        spec = tiny_spec(rates=(0.005, 0.02))
        db = CampaignDB(spec, tmp_path)
        run_campaign(db)
        with db.store.rows_path.open("a") as f:
            f.write('{"kind":"store-row","key":"broken')  # crash mid-write
        reopened = CampaignDB.open(tmp_path)
        assert run_campaign(reopened)["executed"] == 0  # both still stored
        assert query(reopened).shape == (1, 2, 1, 1)

    def test_reproducible_across_runners(self, tmp_path):
        spec = tiny_spec(fault_counts=(3,), fault_sets=1)
        a = run_campaign(CampaignDB(spec, tmp_path / "a"))
        b = run_campaign(CampaignDB(spec, tmp_path / "b"))
        assert a["executed"] == b["executed"] == 1
        assert a["store_digest"] == b["store_digest"]

    def test_progress_callback(self, tmp_path):
        seen = []
        run_campaign(CampaignDB(tiny_spec(), tmp_path), progress=seen.append)
        assert len(seen) == 1 and seen[0].startswith("[test]")


class TestRunnerWorkers:
    def test_workers_match_sequential(self, tmp_path):
        spec = tiny_spec(
            algorithms=("nhop", "phop"), rates=(0.005, 0.02),
            fault_counts=(0, 3), fault_sets=2,
        )
        seq = CampaignDB(spec, tmp_path / "seq")
        par = CampaignDB(spec, tmp_path / "par")
        s, p = run_campaign(seq), run_campaign(par, shards=2)
        assert s["executed"] == p["executed"] == 12
        assert s["store_digest"] == p["store_digest"]
        assert query(seq).values == query(par).values

    def test_workers_resume(self, tmp_path):
        spec = tiny_spec(algorithms=("nhop", "phop"), rates=(0.005, 0.02))
        db = CampaignDB(spec, tmp_path / "c")
        half = CampaignDB(
            tiny_spec(algorithms=("nhop",), rates=(0.005, 0.02)),
            tmp_path / "h", store=db.store,
        )
        assert run_campaign(half, shards=2)["executed"] == 2
        assert run_campaign(db, shards=2)["executed"] == 2
        assert run_campaign(db, shards=2)["executed"] == 0
        assert len(db.store) == 4


class TestRunnerStore:
    def test_campaign_reuses_cells_across_runs(self, tmp_path):
        from repro.store import ResultStore

        spec = tiny_spec(algorithms=("nhop",), rates=(0.005, 0.02))
        store = tmp_path / "store"
        a = CampaignDB(spec, tmp_path / "a", store=store)
        assert run_campaign(a)["executed"] == 2
        b = CampaignDB(spec, tmp_path / "b", store=store)
        summary = run_campaign(b)
        assert summary["executed"] == 0 and summary["already_done"] == 2
        assert query(a).values == query(b).values
        assert len(ResultStore(store)) == 2

    def test_workers_share_store(self, tmp_path):
        from repro.store import ResultStore

        spec = tiny_spec(algorithms=("nhop", "phop"), rates=(0.005, 0.02))
        store = tmp_path / "store"
        warm = CampaignDB(spec, tmp_path / "warm", store=store)
        run_campaign(warm)  # sequential fill
        par = CampaignDB(spec, tmp_path / "par", store=store)
        assert run_campaign(par, shards=2)["executed"] == 0  # all stored
        assert query(warm).values == query(par).values
        assert len(ResultStore(store)) == 4  # nothing duplicated

    def test_store_matches_uncached(self, tmp_path):
        from repro.campaigns.spec import (
            draw_cases,
            execute_cell,
            fault_case_label,
        )
        from repro.core.evaluator import Evaluator

        spec = tiny_spec(rates=(0.005,), fault_counts=(0, 3))
        db = CampaignDB(spec, tmp_path)
        run_campaign(db)
        array = query(db, metrics=("latency", "throughput"))
        plain = Evaluator(spec.config, seed=spec.seed)
        cases = draw_cases(plain, spec)
        for key in spec.job_keys():
            result = execute_cell(plain, cases, key)
            at = dict(
                algorithm=key["algorithm"], rate=key["rate"],
                fault_case=fault_case_label(key["n_faults"], key["fault_set"]),
                repeat=key["repeat"],
            )
            assert array.sel("latency", **at) == result.avg_latency
            assert array.sel("throughput", **at) == result.throughput


class TestLoadCampaign:
    def test_load(self, tmp_path):
        spec = tiny_spec()
        run_campaign(CampaignDB(spec, tmp_path))
        reopened = CampaignDB.open(tmp_path)
        assert reopened.spec == spec
        assert not reopened.plan().missing
        assert query(reopened).shape == (1, 1, 1, 1)
