"""Tests for the content-addressed result store (:mod:`repro.store`)."""

import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from repro.core.evaluator import Evaluator
from repro.experiments.fig_sweep import run_sweep
from repro.experiments.profiles import SMOKE_PROFILE
from repro.faults.pattern import FaultPattern
from repro.routing.freeform import FullyAdaptive
from repro.simulator.config import SimConfig
from repro.store import (
    CachedEvaluator,
    ENGINE_VERSION,
    ResultStore,
    algorithm_token,
    canonical_json,
    make_evaluator,
    run_key,
    run_key_payload,
)
from repro.store.cache import HeldRows, fold_held, fold_orphans, holding
from repro.store.cli import main as store_cli
from repro.topology.mesh import Mesh2D
from repro.util.serialization import result_from_dict, result_to_dict


def tiny_config(**overrides) -> SimConfig:
    defaults = dict(
        width=6, vcs_per_channel=24, message_length=4,
        cycles=600, warmup=150, injection_rate=0.01,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


@pytest.fixture
def mesh6() -> Mesh2D:
    return Mesh2D(6)


@pytest.fixture
def fault_free(mesh6) -> FaultPattern:
    return FaultPattern.fault_free(mesh6)


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------
class TestRunKeys:
    def test_canonical_json_ignores_dict_order(self):
        assert canonical_json({"b": 1, "a": {"d": 2, "c": 3}}) == canonical_json(
            {"a": {"c": 3, "d": 2}, "b": 1}
        )

    def test_key_stable_across_equal_configs(self, fault_free):
        # Two configs built through different code paths but equal field
        # for field must digest identically.
        cfg_a = tiny_config()
        cfg_b = SimConfig(width=6, height=6).with_(
            message_length=4, cycles=600, warmup=150, injection_rate=0.01
        )
        assert cfg_a == cfg_b
        assert run_key(cfg_a, "nhop", fault_free) == run_key(
            cfg_b, "nhop", fault_free
        )

    def test_key_varies_with_each_input(self, mesh6, fault_free):
        cfg = tiny_config()
        base = run_key(cfg, "nhop", fault_free)
        assert run_key(cfg, "phop", fault_free) != base
        assert run_key(cfg.with_(seed=2), "nhop", fault_free) != base
        assert run_key(cfg.with_(injection_rate=0.02), "nhop", fault_free) != base
        faulty = FaultPattern(mesh6, frozenset({7}))
        assert run_key(cfg, "nhop", faulty) != base
        assert run_key(cfg, "nhop", fault_free, traffic="transpose") != base

    def test_engine_version_changes_key(self, fault_free):
        cfg = tiny_config()
        current = run_key(cfg, "nhop", fault_free)
        future = run_key(
            cfg, "nhop", fault_free, engine_version=ENGINE_VERSION + 1
        )
        assert current != future

    def test_payload_lifts_rate_and_seed(self, fault_free):
        payload = run_key_payload(tiny_config(seed=9), "nhop", fault_free)
        assert payload["rate"] == 0.01 and payload["seed"] == 9
        assert "injection_rate" not in payload["config"]
        assert "seed" not in payload["config"]

    def test_algorithm_token_distinguishes_instances(self):
        default = FullyAdaptive()
        capped = FullyAdaptive()
        capped.max_misroutes = 3
        assert algorithm_token("nhop") == "nhop"
        assert algorithm_token(capped) != algorithm_token(default)
        assert "max_misroutes=3" in algorithm_token(capped)


# ----------------------------------------------------------------------
# Backend
# ----------------------------------------------------------------------
class TestResultStoreBackend:
    def test_put_get_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "s", fsync=False)
        assert store.get("k1") is None
        assert store.put("k1", {"x": 1}, algorithm="nhop")
        assert not store.put("k1", {"x": 999})  # dedup
        assert store.get("k1") == {"x": 1}
        assert "k1" in store and len(store) == 1

    def test_second_handle_sees_existing_rows(self, tmp_path):
        a = ResultStore(tmp_path / "s", fsync=False)
        a.put("k1", {"x": 1})
        b = ResultStore(tmp_path / "s", fsync=False)
        assert b.get("k1") == {"x": 1}

    def test_live_handles_see_each_others_appends(self, tmp_path):
        a = ResultStore(tmp_path / "s", fsync=False)
        b = ResultStore(tmp_path / "s", fsync=False)
        a.put("k1", {"x": 1})
        assert b.get("k1") == {"x": 1}  # tail re-scan on miss
        b.put("k2", {"x": 2})
        assert a.get("k2") == {"x": 2}

    def test_survives_missing_index(self, tmp_path):
        store = ResultStore(tmp_path / "s", fsync=False)
        store.put("k1", {"x": 1})
        (tmp_path / "s" / "index.json").unlink()
        rebuilt = ResultStore(tmp_path / "s", fsync=False)
        assert rebuilt.get("k1") == {"x": 1}

    def test_survives_torn_tail_row(self, tmp_path):
        store = ResultStore(tmp_path / "s", fsync=False)
        store.put("k1", {"x": 1})
        with open(store.rows_path, "a") as f:
            f.write('{"kind":"store-row","key":"torn"')  # no newline
        rebuilt = ResultStore(tmp_path / "s", fsync=False)
        assert rebuilt.get("k1") == {"x": 1}
        assert rebuilt.get("torn") is None

    def test_gc_evicts_other_engine_versions(self, tmp_path):
        store = ResultStore(tmp_path / "s", fsync=False)
        store.put("old", {"x": 0}, engine_version=ENGINE_VERSION - 1)
        store.put("new", {"x": 1})
        assert store.gc() == 1
        assert store.get("old") is None
        assert store.get("new") == {"x": 1}
        assert len(store) == 1

    def test_stats(self, tmp_path):
        store = ResultStore(tmp_path / "s", fsync=False)
        store.put("a", {}, algorithm="nhop")
        store.put("b", {}, algorithm="nhop")
        store.put("c", {}, algorithm="phop", engine_version=ENGINE_VERSION - 1)
        stats = store.stats()
        assert stats["rows"] == 3
        assert stats["by_algorithm"] == {"nhop": 2, "phop": 1}
        assert stats["by_engine_version"] == {
            str(ENGINE_VERSION - 1): 1, str(ENGINE_VERSION): 2
        }

    def test_export_is_sorted_and_deduped(self, tmp_path):
        store = ResultStore(tmp_path / "s", fsync=False)
        store.put("b", {"x": 2})
        store.put("a", {"x": 1})
        dest = tmp_path / "export.jsonl"
        assert store.export(dest) == 2
        keys = [json.loads(line)["key"] for line in dest.read_text().splitlines()]
        assert keys == ["a", "b"]


def _concurrent_writer(args):
    root, worker_id, n_rows = args
    store = ResultStore(root, fsync=False)
    written = 0
    for i in range(n_rows):
        # Even-numbered keys are shared between the workers on purpose:
        # exactly one append must win per shared key.
        key = f"shared-{i}" if i % 2 == 0 else f"w{worker_id}-{i}"
        if store.put(key, {"worker": worker_id, "i": i}):
            written += 1
    return written


class TestConcurrentAppends:
    def test_two_processes_no_torn_index(self, tmp_path):
        root = str(tmp_path / "s")
        n_rows = 40
        ctx = multiprocessing.get_context()
        with ctx.Pool(2) as pool:
            writes = pool.map(
                _concurrent_writer, [(root, 1, n_rows), (root, 2, n_rows)]
            )
        store = ResultStore(root, fsync=False)
        shared = {f"shared-{i}" for i in range(0, n_rows, 2)}
        private = {
            f"w{w}-{i}" for w in (1, 2) for i in range(1, n_rows, 2)
        }
        # Every key present exactly once, nothing torn or lost.
        assert set(store.keys()) == shared | private
        assert sum(writes) == len(shared | private)
        for line in store.rows_path.read_text().splitlines():
            json.loads(line)  # every physical line parses
        for i in range(0, n_rows, 2):
            assert store.get(f"shared-{i}")["i"] == i


# ----------------------------------------------------------------------
# CachedEvaluator
# ----------------------------------------------------------------------
class TestCachedEvaluator:
    def test_hit_miss_counters_and_identical_results(self, tmp_path, fault_free):
        cfg = tiny_config()
        ev = CachedEvaluator(cfg, seed=5, store=tmp_path / "s")
        first = ev.run_single("nhop", fault_free)
        assert ev.stats.misses == 1 and ev.stats.hits == 0 and ev.stats.puts == 1
        second = ev.run_single("nhop", fault_free)
        assert ev.stats.misses == 1 and ev.stats.hits == 1
        assert first == second  # field-for-field identical dataclasses

    def test_cache_shared_across_evaluators(self, tmp_path, fault_free):
        cfg = tiny_config()
        CachedEvaluator(cfg, seed=5, store=tmp_path / "s").run_single(
            "nhop", fault_free
        )
        ev = CachedEvaluator(cfg, seed=5, store=tmp_path / "s")
        ev.run_single("nhop", fault_free)
        assert ev.stats.hits == 1 and ev.stats.misses == 0

    def test_byte_identical_cached_rows(self, tmp_path, fault_free):
        cfg = tiny_config()
        ev = CachedEvaluator(cfg, seed=5, store=tmp_path / "s")
        direct = ev.run_single("nhop", fault_free)
        cached = ev.run_single("nhop", fault_free)
        assert canonical_json(result_to_dict(cached)) == canonical_json(
            result_to_dict(direct)
        )

    def test_matches_uncached_evaluator(self, tmp_path, fault_free):
        cfg = tiny_config()
        plain = Evaluator(cfg, seed=5).run_single("nhop", fault_free)
        cached = CachedEvaluator(cfg, seed=5, store=tmp_path / "s").run_single(
            "nhop", fault_free
        )
        assert plain == cached

    def test_unlabeled_custom_traffic_bypasses(self, tmp_path, fault_free):
        from repro.traffic.patterns import UniformTraffic

        cfg = tiny_config()
        ev = CachedEvaluator(
            cfg, seed=5, store=tmp_path / "s", pattern_factory=UniformTraffic
        )
        ev.run_single("nhop", fault_free)
        assert ev.stats.bypassed == 1 and len(ev.store) == 0

    def test_engine_version_bump_invalidates(
        self, tmp_path, fault_free, monkeypatch
    ):
        cfg = tiny_config()
        ev = CachedEvaluator(cfg, seed=5, store=tmp_path / "s")
        ev.run_single("nhop", fault_free)
        monkeypatch.setattr("repro.store.keys.ENGINE_VERSION", ENGINE_VERSION + 1)
        ev2 = CachedEvaluator(cfg, seed=5, store=tmp_path / "s")
        ev2.run_single("nhop", fault_free)
        assert ev2.stats.misses == 1 and ev2.stats.hits == 0

    def test_make_evaluator_switch(self, tmp_path):
        cfg = tiny_config()
        assert type(make_evaluator(cfg)) is Evaluator
        assert isinstance(
            make_evaluator(cfg, store=tmp_path / "s"), CachedEvaluator
        )


# ----------------------------------------------------------------------
# Result serialization
# ----------------------------------------------------------------------
class TestResultSerialization:
    def test_roundtrip_with_stat_lists(self, fault_free):
        cfg = tiny_config(
            collect_vc_stats=True,
            collect_node_stats=True,
            collect_latency_samples=True,
        )
        result = Evaluator(cfg, seed=5).run_single("nhop", fault_free)
        clone = result_from_dict(result_to_dict(result))
        assert clone == result
        assert clone.vc_busy == result.vc_busy
        assert clone.node_load == result.node_load
        assert clone.latency_samples == result.latency_samples
        assert clone.throughput == result.throughput

    def test_json_roundtrip_is_exact(self, fault_free):
        result = Evaluator(tiny_config(), seed=5).run_single("nhop", fault_free)
        payload = json.loads(json.dumps(result_to_dict(result)))
        assert result_from_dict(payload) == result

    def test_rejects_wrong_kind(self):
        with pytest.raises(ValueError, match="not a sim-result"):
            result_from_dict({"kind": "nope"})


# ----------------------------------------------------------------------
# Acceptance: a second figure run performs zero simulations
# ----------------------------------------------------------------------
class TestSecondRunIsAllHits:
    def test_sweep_second_run_zero_simulations(self, tmp_path, monkeypatch):
        algs = ("nhop", "phop")
        store = tmp_path / "s"
        cold = run_sweep(SMOKE_PROFILE, algs, store=store)

        executions = []
        original = Evaluator._execute

        def counting_execute(self, alg, cfg, faults):
            executions.append(cfg)
            return original(self, alg, cfg, faults)

        monkeypatch.setattr(Evaluator, "_execute", counting_execute)
        warm = run_sweep(SMOKE_PROFILE, algs, store=store)
        assert executions == []  # zero simulations on the second run
        assert warm.throughput == cold.throughput
        assert warm.latency == cold.latency

    def test_uncached_run_still_simulates(self, monkeypatch):
        executions = []
        original = Evaluator._execute

        def counting_execute(self, alg, cfg, faults):
            executions.append(cfg)
            return original(self, alg, cfg, faults)

        monkeypatch.setattr(Evaluator, "_execute", counting_execute)
        run_sweep(SMOKE_PROFILE, ("nhop",))
        assert len(executions) == len(SMOKE_PROFILE.sweep_loads)


class TestHeldRows:
    """A pool worker's view of a store: it reads the store, puts into a
    private one, and the parent folds that in."""

    def test_puts_are_held_and_folded_in_put_order(self, tmp_path):
        store = ResultStore(tmp_path / "s", fsync=False)
        store.put("k0", {"x": 0})
        with holding(store) as run:
            held = run / "0"
            view = HeldRows(tmp_path / "s", held)
            assert not view.put("k0", {"x": 9})  # the store has it
            assert view.put("k2", {"x": 2}, algorithm="nhop")
            assert view.put("k1", {"x": 1}, algorithm="nhop")
            assert view.get("k0") == {"x": 0} and view.get("k1") == {"x": 1}
            assert "k1" not in store  # nothing written until the fold
            assert fold_held(store, held) == 2
            assert [r["key"] for r in store.rows()] == ["k0", "k2", "k1"]
            assert store.get_row("k2")["algorithm"] == "nhop"
            assert not held.exists()
        assert not any((store.root / "held").iterdir())

    def test_orphans_of_dead_processes_only_are_folded(self, tmp_path):
        store = ResultStore(tmp_path / "s", fsync=False)
        # Beyond any pid_max: a process that no longer exists, from
        # before run directories (its rows held directly).
        orphan = store.root / "held" / "999999999.phop.x"
        ResultStore(orphan, fsync=False).put("dead", {"x": 1})
        with holding(store) as mine:  # this (live) run's
            ResultStore(mine / "0", fsync=False).put("live", {"x": 1})
            assert fold_orphans(store) == 1
            assert store.keys() == ["dead"]
            assert (mine / "0").exists() and not orphan.exists()

    def test_unlocked_run_of_a_live_pid_is_folded(self, tmp_path):
        """A run directory named for a live pid, say a recycled one, whose
        lock nobody holds is an orphan: its cells fold in index order."""
        store = ResultStore(tmp_path / "s", fsync=False)
        run = store.root / "held" / f"{os.getpid()}.killed"
        for cell, key in ((10, "b"), (2, "a")):
            ResultStore(run / str(cell), fsync=False).put(key, {"x": cell})
        assert fold_orphans(store) == 2
        assert store.keys() == ["a", "b"]
        assert not any((store.root / "held").iterdir())

    def test_locked_run_is_left_alone(self, tmp_path):
        """A run whose lock is held — by another process here — stays
        untouched however its name reads, and is folded once it dies."""
        store = ResultStore(tmp_path / "s", fsync=False)
        run = store.root / "held" / "999999999.live"
        ResultStore(run / "0", fsync=False).put("held", {"x": 1})
        owner = subprocess.Popen(
            [sys.executable, "-c",
             "import fcntl, os, sys; fd = os.open(sys.argv[1], os.O_RDONLY);"
             " fcntl.flock(fd, fcntl.LOCK_EX); print(flush=True);"
             " sys.stdin.read()", str(run)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            owner.stdout.readline()  # the lock is taken
            assert fold_orphans(store) == 0
            assert (run / "0" / "rows.jsonl").exists() and not len(store)
        finally:
            owner.communicate("", timeout=60)
        assert fold_orphans(store) == 1
        assert store.keys() == ["held"]


# ----------------------------------------------------------------------
# CLI verbs
# ----------------------------------------------------------------------
class TestStoreCli:
    def _seed_store(self, root, fault_free):
        ev = CachedEvaluator(tiny_config(), seed=5, store=root)
        ev.run_single("nhop", fault_free)
        ev.run_single("phop", fault_free)

    def test_ls_and_stats(self, tmp_path, fault_free, capsys):
        root = tmp_path / "s"
        self._seed_store(root, fault_free)
        assert store_cli(["ls", "--store", str(root)]) == 0
        out = capsys.readouterr().out
        assert "nhop" in out and "2 rows" in out
        assert store_cli(["stats", "--store", str(root)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["rows"] == 2

    def test_gc_and_export(self, tmp_path, fault_free, capsys):
        root = tmp_path / "s"
        self._seed_store(root, fault_free)
        ResultStore(root).put("stale", {}, engine_version=ENGINE_VERSION - 1)
        assert store_cli(["gc", "--store", str(root)]) == 0
        assert "evicted 1" in capsys.readouterr().out
        dest = tmp_path / "out.jsonl"
        assert store_cli(["export", str(dest), "--store", str(root)]) == 0
        assert len(dest.read_text().splitlines()) == 2

    def test_experiments_cli_delegates_store(self, tmp_path, fault_free, capsys):
        from repro.experiments.cli import main as experiments_cli

        root = tmp_path / "s"
        self._seed_store(root, fault_free)
        assert experiments_cli(["store", "stats", "--store", str(root)]) == 0
        assert json.loads(capsys.readouterr().out)["rows"] == 2
