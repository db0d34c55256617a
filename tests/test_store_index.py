"""The store's read and write halves at scale: ``index.json`` is a
checkpoint, not rewritten per put, and a batched read decodes each
wanted row once (``ResultStore.get_rows``, ``stored_result``)."""

import json
import multiprocessing
import os
import signal
import time
from dataclasses import fields

import pytest

from repro.campaigns.db import CampaignDB, store_digest
from repro.campaigns.query import extract_metric, metric_names, query
from repro.campaigns.shard import run_campaign
from repro.campaigns.spec import CampaignSpec
from repro.core.evaluator import Evaluator
from repro.faults.pattern import FaultPattern
from repro.simulator.config import SimConfig
from repro.simulator.engine import SimulationResult
from repro.store import ENGINE_VERSION, ResultStore, canonical_json
from repro.topology.mesh import Mesh2D
from repro.util.serialization import (
    config_from_dict, result_from_dict, result_to_dict, stored_result,
)


def seeded_store(root, rows: int) -> ResultStore:
    """A store of *rows* small rows, its index current."""
    root.mkdir()
    with open(root / "rows.jsonl", "w") as sink:
        for i in range(rows):
            sink.write(canonical_json({
                "kind": "store-row", "schema": 1, "key": f"seed-{i}",
                "engine_version": ENGINE_VERSION, "algorithm": "",
                "payload": {"i": i},
            }) + "\n")
    store = ResultStore(root, fsync=False)
    store._write_index_file()
    return store


def index_mark(store: ResultStore) -> int:
    return json.loads(store.index_path.read_text())["scanned"]


class TestCheckpointedIndex:
    def test_put_leaves_the_index_until_the_tail_reaches_an_eighth(
        self, tmp_path
    ):
        store = seeded_store(tmp_path / "s", 100)
        mark = index_mark(store)
        for i in range(5):
            store.put(f"k{i}", {"x": i})
        assert index_mark(store) == mark  # 5 of 105 rows: not yet
        i = 5
        while index_mark(store) == mark:
            store.put(f"k{i}", {"x": i})
            i += 1
        size = store.rows_path.stat().st_size
        assert index_mark(store) == size
        assert (size - mark) * 8 >= size

    def test_a_reopen_after_a_run_rescans_at_most_an_eighth(self, tmp_path):
        db = CampaignDB(small_spec(), tmp_path / "c")
        run_campaign(db, workers=1)
        size = db.store.rows_path.stat().st_size
        assert (size - index_mark(db.store)) * 8 < size

    def test_put_cost_is_flat_in_store_size(self, tmp_path):
        """3 000 puts into a 100-row and into a 20 000-row store write
        the same index bytes a put to within 2x: the big store's index is
        rewritten once (when the new rows reach an eighth of the file),
        not per put.  Their wall time is a looser sanity bound."""
        puts = 3000

        def put_costs(rows, round_):
            store = seeded_store(tmp_path / f"s{rows}-{round_}", rows)
            written = []
            real = store._write_index_file

            def counted():
                real()
                written.append(store.index_path.stat().st_size)

            store._write_index_file = counted
            start = time.perf_counter()
            for i in range(puts):
                store.put(f"new-{i}", {"i": i})
            seconds = (time.perf_counter() - start) / puts
            return seconds, written, store.index_path.stat().st_size

        small = [put_costs(100, round_) for round_ in range(3)]
        large = [put_costs(20_000, round_) for round_ in range(3)]
        _, small_writes, _ = small[0]
        _, large_writes, large_index = large[0]
        assert len(large_writes) == 1
        small_bytes = sum(small_writes) / puts
        large_bytes = sum(large_writes) / puts
        assert max(small_bytes, large_bytes) < 2 * min(small_bytes, large_bytes)
        assert large_bytes * 100 < large_index  # a per-put rewrite: 1x
        small_s = min(seconds for seconds, _, _ in small)
        large_s = min(seconds for seconds, _, _ in large)
        assert max(small_s, large_s) < 5 * min(small_s, large_s), (
            small_s, large_s
        )


def small_spec() -> CampaignSpec:
    """24 cells: the last in-put checkpoint falls at about 22 rows, so
    the last rows of a run are past it."""
    return CampaignSpec(
        name="index-kill",
        algorithms=("nhop", "duato-nbc"),
        config=SimConfig(
            width=4, vcs_per_channel=24, message_length=4,
            cycles=200, warmup=50,
        ),
        rates=(0.01, 0.02, 0.03, 0.04),
        repeats=3,
    )


def _run_and_die_before_the_index(root) -> None:
    """Run the campaign and SIGKILL this process as it returns: its
    rows are appended, its last ones past the index's mark."""
    run_campaign(CampaignDB(small_spec(), root), workers=1)
    os.kill(os.getpid(), signal.SIGKILL)


def test_killed_before_the_index_reopens_to_the_same_answer(tmp_path):
    twin = CampaignDB(small_spec(), tmp_path / "twin")
    run_campaign(twin, workers=1)
    child = multiprocessing.get_context("spawn").Process(
        target=_run_and_die_before_the_index, args=(tmp_path / "killed",)
    )
    child.start()
    child.join(timeout=120)
    assert child.exitcode == -signal.SIGKILL
    killed = CampaignDB.open(tmp_path / "killed")
    rows = killed.store.rows_path.read_bytes()
    assert index_mark(killed.store) < len(rows)  # the index is stale
    assert rows == twin.store.rows_path.read_bytes()
    assert not killed.plan().missing
    assert store_digest(killed.store) == store_digest(twin.store)
    metrics = metric_names()
    mine = query(killed, metrics=metrics)
    theirs = query(twin, metrics=metrics)
    assert mine.to_csv() == theirs.to_csv()
    assert mine.to_json() == theirs.to_json()


class TestBatchedRead:
    def test_get_rows_is_get_row_for_each_stored_key(self, tmp_path):
        store = ResultStore(tmp_path / "s", fsync=False)
        for key in ("c", "a", "b"):
            store.put(key, {"key": key})
        rows = store.get_rows(["b", "missing", "c", "a"])
        assert set(rows) == {"a", "b", "c"}
        assert all(rows[key] == store.get_row(key) for key in rows)

    def test_get_rows_sees_rows_another_handle_appended(self, tmp_path):
        reader = ResultStore(tmp_path / "s", fsync=False)
        ResultStore(tmp_path / "s", fsync=False).put("k", {"x": 1})
        assert reader.get_rows(["k"])["k"]["payload"] == {"x": 1}

    def test_stale_offsets_are_rebuilt(self, tmp_path):
        """Another handle's gc rewrites rows.jsonl under the reader: every
        offset the reader holds now points at the wrong row."""
        reader = ResultStore(tmp_path / "s", fsync=False)
        reader.put("old", {"x": 0}, engine_version=ENGINE_VERSION - 1)
        for key in ("a", "b"):
            reader.put(key, {"key": key})
        assert ResultStore(tmp_path / "s", fsync=False).gc() == 1
        rows = reader.get_rows(["a", "b", "old"])
        assert {key: row["payload"] for key, row in rows.items()} == {
            "a": {"key": "a"}, "b": {"key": "b"},
        }


class TestStoredResult:
    @pytest.fixture(scope="class")
    def result(self) -> SimulationResult:
        cfg = SimConfig(
            width=6, vcs_per_channel=24, message_length=4, cycles=600,
            warmup=150, injection_rate=0.01, collect_vc_stats=True,
        )
        return Evaluator(cfg, seed=5).run_single(
            "nhop", FaultPattern.fault_free(Mesh2D(6))
        )

    def test_every_field_property_and_metric_equals_a_rebuild(self, result):
        payload = json.loads(json.dumps(result_to_dict(result)))
        stored, rebuilt = stored_result(payload), result_from_dict(payload)
        for f in fields(SimulationResult):
            if f.name != "config":
                assert getattr(stored, f.name) == getattr(rebuilt, f.name)
        assert config_from_dict(vars(stored.config)) == rebuilt.config
        properties = [
            name for name, member in vars(SimulationResult).items()
            if isinstance(member, property)
        ]
        assert "throughput" in properties
        for name in properties:
            assert repr(getattr(stored, name)) == repr(getattr(rebuilt, name))
        for metric in metric_names():
            assert extract_metric(stored, metric) == extract_metric(
                rebuilt, metric
            )

    @pytest.mark.parametrize("part, field, value, match", [
        ("result", "kind", "nope", "not a sim-result"),
        ("result", "schema", 99, "unsupported sim-result schema 99"),
        ("config", "kind", "nope", "not a sim-config"),
        ("config", "schema", 99, "unsupported sim-config schema 99"),
    ])
    def test_kind_and_schema_are_checked(self, result, part, field, value,
                                         match):
        payload = result_to_dict(result)
        (payload if part == "result" else payload["config"])[field] = value
        with pytest.raises(ValueError, match=match):
            stored_result(payload)
