"""CampaignDB (`repro.campaigns.db`): key table, exact resume planning,
persistence, and status/ETA."""

import json

import pytest

from repro.campaigns.db import CampaignDB, store_digest
from repro.campaigns.spec import CampaignSpec, cell_id, fault_case_label
from repro.core.evaluator import Evaluator
from repro.simulator.config import SimConfig
from repro.store.backend import ResultStore
from repro.store.cache import CachedEvaluator
from repro.store.keys import algorithm_token, run_key


def small_spec(**overrides) -> CampaignSpec:
    fields = dict(
        name="db-test",
        algorithms=("nhop", "duato-nbc"),
        config=SimConfig(
            width=6, vcs_per_channel=24, message_length=4,
            cycles=300, warmup=100,
        ),
        rates=(0.01, 0.02),
        fault_counts=(0, 3),
        fault_sets=2,
        repeats=2,
    )
    fields.update(overrides)
    return CampaignSpec(**fields)


class TestKeyTable:
    def test_cells_cover_declared_space(self, tmp_path):
        spec = small_spec()
        db = CampaignDB(spec, tmp_path / "c")
        cells = db.cells()
        assert len(cells) == spec.n_jobs == 24
        assert len({c["key"] for c in cells}) == 24  # all keys distinct
        assert [c["id"] for c in cells] == [
            cell_id(k) for k in spec.job_keys()
        ]
        for c in cells:
            assert c["fault_case"] == fault_case_label(
                c["n_faults"], c["fault_set"]
            )

    def test_keys_match_cached_evaluator_exactly(self, tmp_path):
        """The planning keys ARE the execution keys (the core contract)."""
        spec = small_spec()
        db = CampaignDB(spec, tmp_path / "c")
        cell = db.cells()[7]
        evaluator = Evaluator(spec.config, seed=spec.seed)
        case = evaluator.fault_case(
            cell["n_faults"], spec.fault_sets if cell["n_faults"] else 1
        )
        faults = case.patterns[cell["fault_set"]]
        _, cfg = evaluator.prepare_run(
            cell["algorithm"], faults,
            injection_rate=cell["rate"],
            set_index=cell["fault_set"] * 1000 + cell["repeat"],
        )
        assert cell["key"] == run_key(
            cfg, algorithm_token(cell["algorithm"]), faults
        )

    def test_prepare_run_is_public_and_side_effect_free(self):
        spec = small_spec()
        evaluator = Evaluator(spec.config, seed=spec.seed)
        faults = evaluator.fault_case(0, 1).patterns[0]
        alg, cfg = evaluator.prepare_run("nhop", faults, injection_rate=0.01)
        alg2, cfg2 = evaluator.prepare_run("nhop", faults, injection_rate=0.01)
        assert cfg == cfg2  # deterministic, no hidden state


class TestPlan:
    def test_fresh_campaign_all_missing(self, tmp_path):
        db = CampaignDB(small_spec(), tmp_path / "c")
        plan = db.plan()
        assert plan.total == 24 and plan.done == 0
        assert len(plan.missing) == 24

    def test_partial_campaign_lists_exactly_the_missing_keys(self, tmp_path):
        """Acceptance case: the plan is the exact store-index complement."""
        spec = small_spec()
        db = CampaignDB(spec, tmp_path / "c")
        cells = db.cells()
        # "Complete" an arbitrary subset by storing under its exact keys.
        done = [cells[i] for i in (0, 3, 4, 11, 17, 23)]
        for cell in done:
            db.store.put(cell["key"], {"stub": cell["id"]})
        plan = db.plan()
        assert plan.done == len(done)
        done_keys = {c["key"] for c in done}
        assert {c["key"] for c in plan.missing} == (
            {c["key"] for c in cells} - done_keys
        )
        # Order preserved: missing cells keep spec order.
        ids = [c["id"] for c in cells if c["key"] not in done_keys]
        assert [c["id"] for c in plan.missing] == ids

    def test_plan_ignores_unrelated_store_rows(self, tmp_path):
        db = CampaignDB(small_spec(), tmp_path / "c")
        db.store.put("0" * 64, {"alien": True})
        assert len(db.plan().missing) == 24

    def test_plan_to_dict_is_json_safe(self, tmp_path):
        db = CampaignDB(small_spec(), tmp_path / "c")
        payload = json.loads(json.dumps(db.plan().to_dict()))
        assert payload["total"] == 24
        assert payload["done"] == 0
        assert len(payload["missing"]) == 24


class TestPersistence:
    def test_save_open_roundtrip(self, tmp_path):
        spec = small_spec()
        db = CampaignDB(spec, tmp_path / "c")
        db.save()
        reopened = CampaignDB.open(tmp_path / "c")
        assert reopened.spec == spec
        assert reopened.cells() == db.cells()
        assert reopened.store.root == db.store.root

    def test_open_rejects_non_campaign_dirs(self, tmp_path):
        (tmp_path / "campaign.json").write_text('{"kind": "other"}')
        with pytest.raises(ValueError, match="not a campaign-db"):
            CampaignDB.open(tmp_path)

    def test_stale_engine_version_recomputes_cells(self, tmp_path):
        spec = small_spec()
        db = CampaignDB(spec, tmp_path / "c")
        db.save()
        payload = json.loads(db.path.read_text())
        payload["engine_version"] = -1
        payload["cells"] = [{"bogus": True}]
        db.path.write_text(json.dumps(payload))
        reopened = CampaignDB.open(tmp_path / "c")
        assert reopened.cells() == db.cells()  # recomputed, not trusted

    def test_store_override(self, tmp_path):
        shared = ResultStore(tmp_path / "shared")
        db = CampaignDB(small_spec(), tmp_path / "c", store=shared)
        assert db.store is shared

    @pytest.mark.parametrize("store, location", [
        pytest.param("shared", "shared", id="relative-store"),
        pytest.param(None, "runs/c/store", id="default-under-relative-root"),
    ])
    def test_relative_store_reopens_from_another_cwd(
        self, tmp_path, monkeypatch, store, location
    ):
        """A store recorded relative to the creating cwd is found again
        from any cwd (it used to reopen as a new, empty store there and
        plan every cell as missing)."""
        here, elsewhere = tmp_path / "here", tmp_path / "elsewhere"
        here.mkdir()
        elsewhere.mkdir()
        monkeypatch.chdir(here)
        db = CampaignDB(small_spec(), "runs/c", store=store)
        for cell in db.cells():
            db.store.put(cell["key"], {"stub": cell["id"]})
        db.save()
        assert json.loads(db.path.read_text())["store"] == location  # as given
        assert CampaignDB.open("runs/c").store.root == db.store.root

        monkeypatch.chdir(elsewhere)
        reopened = CampaignDB.open(here / "runs" / "c")
        assert reopened.store.root == here / location
        assert reopened.plan().missing == ()
        assert list(elsewhere.iterdir()) == []  # no stray store

    def test_absolute_store_is_recorded_verbatim(self, tmp_path):
        db = CampaignDB(small_spec(), tmp_path / "c")
        db.save()
        payload = json.loads(db.path.read_text())
        assert payload["store"] == str(tmp_path / "c" / "store")
        assert "store_from_root" not in payload

    def test_missing_recorded_store_is_refused(self, tmp_path, monkeypatch):
        """Reopening never conjures an empty store where the recorded
        one should be — neither a moved one, nor (a `campaign.json`
        from before `store_from_root`) one relative to another cwd."""
        root = tmp_path / "c"
        db = CampaignDB(small_spec(), root)
        db.save()
        db.store.root.rename(tmp_path / "moved")
        with pytest.raises(FileNotFoundError, match="recorded store not found"):
            CampaignDB.open(root)
        assert not db.store.root.exists()
        assert CampaignDB.open(root, store=tmp_path / "moved").store.root == (
            tmp_path / "moved"
        )

        payload = json.loads(db.path.read_text())
        payload["store"] = "moved"
        db.path.write_text(json.dumps(payload))
        monkeypatch.chdir(tmp_path)
        assert CampaignDB.open(root).store.root.samefile(tmp_path / "moved")
        monkeypatch.chdir(root)
        with pytest.raises(FileNotFoundError, match="moved: recorded store"):
            CampaignDB.open(root)
        assert not (root / "moved").exists()


class TestStatus:
    def test_groups_cover_algorithms_and_fault_cases(self, tmp_path):
        spec = small_spec()
        db = CampaignDB(spec, tmp_path / "c")
        cells = db.cells()
        for cell in cells[:6]:
            db.store.put(cell["key"], {"stub": 1})
        status = db.status()
        assert status["total"] == 24 and status["done"] == 6
        assert set(status["groups"]) == {
            "nhop", "duato-nbc", "f0/s0", "f3/s0", "f3/s1",
        }
        assert sum(
            g["done"] for name, g in status["groups"].items()
            if name in ("nhop", "duato-nbc")
        ) == 6

    def test_eta_uses_latest_manifest_segment_only(self, tmp_path):
        from repro.obs.manifest import ManifestWriter

        db = CampaignDB(small_spec(), tmp_path / "c")
        with ManifestWriter(db.events_path) as m:
            m.run_start("stale", kind="campaign")
            for i in range(4):
                m.cell_finish(f"x/{i}", seconds=100.0)
            m.run_finish(status="ok")
        with ManifestWriter(db.events_path) as m:
            m.run_start("fresh", kind="campaign")
            m.cell_finish("y/0", seconds=2.0)
            m.cell_finish("y/1", seconds=4.0)
            m.run_finish(status="ok")
        status = db.status()
        assert status["recent_cell_seconds"] == pytest.approx(3.0)
        assert status["eta_seconds"] == pytest.approx(3.0 * 24)

    def test_eta_spreads_over_the_segment_workers(self, tmp_path):
        from repro.obs.manifest import ManifestWriter

        db = CampaignDB(small_spec(), tmp_path / "c")
        with ManifestWriter(db.events_path) as m:
            m.run_start("pooled", kind="campaign", workers=2)
            m.cell_finish("y/0", seconds=2.0, worker=101)
            m.cell_finish("y/1", seconds=4.0, worker=102)
            m.run_finish(status="ok")
        status = db.status()
        assert status["recent_cell_seconds"] == pytest.approx(3.0)
        assert status["eta_seconds"] == pytest.approx(3.0 * 24 / 2)
        # No more workers than missing cells: the last one runs alone.
        cells = db.cells()
        for cell in cells[:-1]:
            db.store.put(cell["key"], {"stub": 1})
        assert db.status()["eta_seconds"] == pytest.approx(3.0)

    def test_no_manifest_no_eta(self, tmp_path):
        status = CampaignDB(small_spec(), tmp_path / "c").status()
        assert status["eta_seconds"] is None


class TestStoreDigest:
    def test_digest_independent_of_insertion_order(self, tmp_path):
        a = ResultStore(tmp_path / "a")
        b = ResultStore(tmp_path / "b")
        rows = [(f"{i:064x}", {"v": i}) for i in range(5)]
        for key, payload in rows:
            a.put(key, payload)
        for key, payload in reversed(rows):
            b.put(key, payload)
        assert store_digest(a) == store_digest(b)

    def test_digest_sees_content(self, tmp_path):
        a = ResultStore(tmp_path / "a")
        b = ResultStore(tmp_path / "b")
        a.put("0" * 64, {"v": 1})
        b.put("0" * 64, {"v": 2})
        assert store_digest(a) != store_digest(b)


class TestExecutionMatchesPlan:
    def test_cached_evaluator_fills_planned_keys(self, tmp_path):
        """Running cells through CachedEvaluator completes the plan."""
        spec = small_spec(rates=(0.01,), fault_counts=(0,), repeats=1)
        db = CampaignDB(spec, tmp_path / "c")
        evaluator = CachedEvaluator(
            spec.config, seed=spec.seed, store=db.store
        )
        faults = evaluator.fault_case(0, 1).patterns[0]
        for alg in spec.algorithms:
            evaluator.run_single(alg, faults, injection_rate=0.01)
        plan = db.plan()
        assert plan.done == plan.total == 2
        assert plan.missing == ()
