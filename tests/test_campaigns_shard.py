"""Campaign executor (`repro.campaigns.shard`): the in-process run
(``workers=1``) is the reference; a pooled run must reproduce it
exactly — byte-identical ``store/rows.jsonl``, equal query arrays,
equal merged telemetry and span digests.  The benchmark's own shard
directories (``run_shard`` / ``merge_shards``) are checked here too."""

import multiprocessing
import os
import subprocess

import pytest

from repro.campaigns import shard as shard_module
from repro.campaigns.db import CampaignDB, store_digest
from repro.campaigns.query import query
from repro.campaigns.shard import (
    merge_shards,
    partition_cells,
    run_campaign,
    run_shard,
)
from repro.campaigns.spec import CampaignSpec, cell_id
from repro.cli import usable_cpus
from repro.experiments import parallel
from repro.experiments.parallel import WorkerTraceback
from repro.obs.cli import main as obs_main
from repro.obs.manifest import read_manifest, summarize_manifest
from repro.obs.spans import merge_spans, spans_from_manifest, spans_merge_digest
from repro.obs.telemetry import TelemetryRegistry
from repro.simulator.config import SimConfig
from repro.store import ResultStore


def faulty_spec(**overrides) -> CampaignSpec:
    """A faulty 8x8 campaign, small enough to simulate in-test."""
    fields = dict(
        name="shard-eq",
        algorithms=("nhop", "duato-nbc"),
        config=SimConfig(
            width=8, vcs_per_channel=24, message_length=4,
            cycles=300, warmup=100,
        ),
        rates=(0.01, 0.02),
        fault_counts=(0, 3),
        fault_sets=2,
        repeats=1,
    )
    fields.update(overrides)
    return CampaignSpec(**fields)


class TestPartition:
    def test_round_robin_deterministic(self):
        cells = [{"i": i} for i in range(7)]
        parts = partition_cells(cells, 3)
        assert parts == [
            [{"i": 0}, {"i": 3}, {"i": 6}],
            [{"i": 1}, {"i": 4}],
            [{"i": 2}, {"i": 5}],
        ]

    def test_keeps_empty_shards(self):
        parts = partition_cells([{"i": 0}], 3)
        assert parts == [[{"i": 0}], [], []]

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError, match="at least one shard"):
            partition_cells([], 0)


class TestShardEquality:
    """The acceptance case: one campaign in process (``workers=1``) and
    pooled over 2 and over every usable CPU (each worker a shard of
    the cells)."""

    POOLED = sorted({2, usable_cpus()} - {1})

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("shard-eq")
        spec = faulty_spec()
        runs = {}
        for workers in [1, *self.POOLED]:
            db = CampaignDB(spec, tmp / f"w{workers}")
            runs[workers] = db, run_campaign(
                db, workers=workers, telemetry=True
            )
        return runs

    def test_all_cells_executed(self, runs):
        for db, summary in runs.values():
            assert summary["executed"] == db.spec.n_jobs == 12
            assert not db.plan().missing
        assert [runs[w][1]["workers"] for w in self.POOLED] == [
            min(w, 12) for w in self.POOLED
        ]

    def test_store_contents_bit_identical(self, runs):
        seq_db, seq = runs[1]
        rows = (seq_db.store.root / "rows.jsonl").read_bytes()
        for workers in self.POOLED:
            db, summary = runs[workers]
            assert summary["store_digest"] == seq["store_digest"]
            assert (db.store.root / "rows.jsonl").read_bytes() == rows
            assert not any((db.store.root / "held").iterdir())

    def test_query_arrays_identical(self, runs):
        a = query(runs[1][0])
        for workers in self.POOLED:
            b = query(runs[workers][0])
            assert a.coords == b.coords
            assert a.values == b.values

    def test_merged_telemetry_digest_matches_sequential(self, runs):
        digests = {summary["telemetry_digest"] for _, summary in runs.values()}
        assert len(digests) == 1 and None not in digests

    def test_merged_span_digest_matches_sequential(self, runs):
        """Pooled cells' spans come home into the campaign manifest and
        digest identically to an in-process run (span ids are
        position-derived, so the pool cannot move them)."""
        seq = runs[1][1]
        assert seq["span_digest"] is not None
        for db, summary in runs.values():
            assert summary["span_digest"] == seq["span_digest"]
            spans = spans_from_manifest(list(read_manifest(db.events_path)))
            assert spans_merge_digest(merge_spans(spans)) == seq["span_digest"]
            names = {s["name"] for s in spans}
            assert names == {"campaign", "cell"}
            assert sum(1 for s in spans if s["name"] == "cell") == 12


class TestRunShard:
    def test_shard_is_self_contained(self, tmp_path):
        spec = faulty_spec(
            rates=(0.01,), fault_counts=(0,), fault_sets=1
        )
        db = CampaignDB(spec, tmp_path / "c")
        coords = db.missing_coords()[:1]
        summary = run_shard(
            spec, coords, tmp_path / "s0", with_telemetry=True
        )
        assert summary["executed"] == summary["store_rows"] == 1
        assert summary["cells"][0]["cycles"] > 0
        # Nothing leaked into the campaign store.
        assert len(db.store) == 0

    def test_merge_is_idempotent(self, tmp_path):
        spec = faulty_spec(rates=(0.01,), fault_counts=(0,), fault_sets=1)
        db = CampaignDB(spec, tmp_path / "c")
        run_shard(spec, db.missing_coords(), tmp_path / "s0")
        first = merge_shards(db, [tmp_path / "s0"])
        again = merge_shards(db, [tmp_path / "s0"])
        assert first["merged_rows"] == 2
        assert again["merged_rows"] == 0  # dedup by key
        assert first["store_digest"] == again["store_digest"]

    def test_merge_refuses_a_root_without_a_store(self, tmp_path):
        spec = faulty_spec(rates=(0.01,), fault_counts=(0,), fault_sets=1)
        db = CampaignDB(spec, tmp_path / "c")
        run_shard(spec, db.missing_coords(), tmp_path / "s0")
        typo = tmp_path / "s-typo"
        with pytest.raises(ValueError, match="s-typo: not a shard directory"):
            merge_shards(db, [tmp_path / "s0", typo])
        # Fails closed: nothing created, merged or logged — not even
        # from the valid shard listed first.
        assert not typo.exists()
        assert len(db.store) == 0
        assert not db.events_path.exists()

    def test_merge_without_registry_skips_telemetry(self, tmp_path):
        spec = faulty_spec(rates=(0.01,), fault_counts=(0,), fault_sets=1)
        db = CampaignDB(spec, tmp_path / "c")
        run_shard(spec, db.missing_coords(), tmp_path / "s0",
                  with_telemetry=True)
        merge = merge_shards(db, [tmp_path / "s0"], registry=None)
        assert merge["telemetry_digest"] is None

    def test_merge_registry_sees_shard_snapshots(self, tmp_path):
        spec = faulty_spec(rates=(0.01,), fault_counts=(0,), fault_sets=1)
        db = CampaignDB(spec, tmp_path / "c")
        run_shard(spec, db.missing_coords(), tmp_path / "s0",
                  with_telemetry=True)
        registry = TelemetryRegistry()
        merge = merge_shards(db, [tmp_path / "s0"], registry=registry)
        assert merge["telemetry_digest"] == registry.merge_digest()
        assert registry.merge_view()  # non-empty: engine counters merged


def test_merged_cells_keep_their_shard_worker(tmp_path, capsys):
    """Each pooled cell's ``finish`` names the worker that ran it: two
    workers, two distinct pids, neither ``0`` (this process) — and
    ``obs report`` shows both."""
    spec = faulty_spec(fault_counts=(0,), fault_sets=1)
    db = CampaignDB(spec, tmp_path / "c")
    run_campaign(db, workers=2)
    events = read_manifest(db.events_path)
    assert events[0]["kind"] == "campaign" and events[0]["workers"] == 2
    workers = {e["worker"] for e in events if e["event"] == "cell"}
    assert len(workers) == 2 and not workers & {0, os.getpid()}
    assert not db.shards_root.exists()  # no shard directories
    assert obs_main(["report", str(tmp_path / "c")]) == 0
    report = capsys.readouterr().out
    assert all(f"  w{worker}  " in report for worker in workers)


_cell_run = shard_module._cell_run


def _phop_raises(evaluator, cases, key):
    if key["algorithm"] == "phop":
        raise RuntimeError("deadlock oracle fired")
    return _cell_run(evaluator, cases, key)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the failing cell body reaches the workers by fork",
)
class TestFailedPoolKeepsItsWork:
    """A pooled campaign cell that raises is recorded like an in-process
    one, and every row the pool simulated reaches the store."""

    def _fail(self, tmp_path, monkeypatch, workers):
        monkeypatch.setattr(shard_module, "_cell_run", _phop_raises)
        spec = faulty_spec(
            algorithms=("nhop", "phop", "duato-nbc"), rates=(0.01,),
            fault_counts=(0,), fault_sets=1,
        )
        db = CampaignDB(spec, tmp_path / f"w{workers}")
        with pytest.raises(RuntimeError, match="oracle") as raised:
            run_campaign(db, workers=workers)
        events = read_manifest(db.events_path)
        finishes = [
            e for e in events if e["event"] == "cell" and e["phase"] == "finish"
        ]
        return raised.value, finishes, events, db

    def test_rows_and_error_event_survive(self, tmp_path, monkeypatch):
        _, seq_finish, _, seq_db = self._fail(tmp_path, monkeypatch, 1)
        error, par_finish, events, db = self._fail(tmp_path, monkeypatch, 2)

        # The worker's traceback rides along as the cause.
        assert isinstance(error.__cause__, WorkerTraceback)
        assert "deadlock oracle fired" in str(error.__cause__)
        assert [(e["id"], e["status"]) for e in par_finish] == [
            (e["id"], e["status"]) for e in seq_finish
        ]
        assert [(e["id"].split("/")[0], e["status"]) for e in par_finish] == [
            ("nhop", "ok"), ("phop", "error")
        ]
        assert all(e["worker"] not in (0, os.getpid()) for e in par_finish)
        # nhop's row, as in process; then any duato-nbc row its
        # terminated worker had simulated.
        seq_rows = (seq_db.store.root / "rows.jsonl").read_bytes()
        par_rows = (db.store.root / "rows.jsonl").read_bytes()
        assert par_rows.startswith(seq_rows) and seq_rows.count(b"\n") == 1
        assert not any((db.store.root / "held").iterdir())
        assert summarize_manifest(events)["status"] == "error"


class TestPlanOrder:
    def test_pooled_cells_dispatch_in_plan_order(self, tmp_path, monkeypatch):
        """Campaign cells carry no weights: the pool takes them in plan
        order, as the store then receives them."""
        dispatched = []
        iter_parallel = parallel.iter_parallel

        def spy(worker, jobs, workers):
            dispatched.extend(job[0].id for job in jobs)
            return iter_parallel(worker, jobs, workers)

        monkeypatch.setattr(parallel, "iter_parallel", spy)
        db = CampaignDB(faulty_spec(fault_counts=(0,), fault_sets=1),
                        tmp_path / "c")
        planned = [cell_id(coord) for coord in db.missing_coords()]
        run_campaign(db, workers=2)
        assert dispatched == planned and len(planned) == 4


class TestResume:
    def test_second_run_executes_nothing(self, tmp_path):
        spec = faulty_spec(rates=(0.01,), fault_counts=(0,), fault_sets=1)
        db = CampaignDB(spec, tmp_path / "c")
        first = run_campaign(db)
        second = run_campaign(db)
        assert first["executed"] == 2
        assert second["executed"] == 0
        assert second["already_done"] == 2
        assert first["store_digest"] == second["store_digest"]

    def test_sharded_resume_after_partial_sequential(self, tmp_path):
        """Finish a half-done campaign in a pool; result still exact."""
        spec = faulty_spec(rates=(0.01, 0.02), fault_counts=(0,),
                           fault_sets=1)
        db = CampaignDB(spec, tmp_path / "c")
        # Complete half the cells sequentially via a throwaway campaign
        # sharing the store.
        half = faulty_spec(rates=(0.01,), fault_counts=(0,), fault_sets=1)
        run_campaign(
            CampaignDB(half, tmp_path / "h", store=db.store), workers=1
        )
        plan = db.plan()
        assert plan.done == 2 and len(plan.missing) == 2
        summary = run_campaign(db, workers=2)
        assert summary["executed"] == 2
        assert not db.plan().missing

    def test_resume_after_a_kill_folds_held_rows(self, tmp_path):
        """A pooled run SIGKILLed mid-way leaves its finished cells' rows
        held under the pid of a process that is gone; the next run folds
        them in before it plans, and does not simulate them again."""
        spec = faulty_spec(rates=(0.01, 0.02), fault_counts=(0,),
                           fault_sets=1)
        done = CampaignDB(spec, tmp_path / "done")
        run_campaign(done, workers=1)
        db = CampaignDB(spec, tmp_path / "c")
        dead = subprocess.Popen(["true"])
        dead.wait()
        held = ResultStore(
            db.store.root / "held" / f"{dead.pid}.0.killed", fsync=False
        )
        row = next(done.store.rows())
        held.put(row["key"], row["payload"], algorithm=row.get("algorithm", ""))
        summary = run_campaign(db, workers=1)
        assert summary["executed"] == spec.n_jobs - 1
        assert summary["store_digest"] == store_digest(done.store)
        assert not any((db.store.root / "held").iterdir())


class TestOneLoop:
    def test_in_process_campaign_draws_its_cases_once(self, tmp_path,
                                                       monkeypatch):
        """In process, a campaign's setup runs once for all its cells."""
        real, calls = shard_module.draw_cases, []

        def counting(evaluator, spec):
            calls.append(spec.name)
            return real(evaluator, spec)

        monkeypatch.setattr(shard_module, "draw_cases", counting)
        db = CampaignDB(faulty_spec(fault_counts=(0,), fault_sets=1),
                        tmp_path / "c")
        summary = run_campaign(db, workers=1)
        assert summary["executed"] == 4
        assert calls == ["shard-eq"]

    @pytest.mark.parametrize("workers", [0, -3])
    def test_fewer_than_one_worker_is_refused(self, tmp_path, workers):
        db = CampaignDB(faulty_spec(), tmp_path / "c")
        with pytest.raises(ValueError, match=f"need at least 1, not {workers}"):
            run_campaign(db, workers=workers)
        assert len(db.store) == 0
        with pytest.raises(ValueError, match="need at least 1, not 0"):
            run_campaign(db, shards=0)
