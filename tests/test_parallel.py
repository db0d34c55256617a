"""Tests for the multiprocessing experiment runner."""

import json
import os
from dataclasses import replace

import pytest

import repro.experiments.parallel as parallel
from repro.cli import usable_cpus
from repro.experiments.fig_faults import run_fault_study
from repro.experiments.fig_fring import run_fring_study
from repro.experiments.fig_sweep import run_sweep, sweep_job
from repro.experiments.fig_vc_usage import run_vc_usage
from repro.experiments.parallel import (
    WorkerTraceback,
    iter_parallel,
    run_per_algorithm,
)
from repro.experiments.profiles import SMOKE_PROFILE
from repro.obs.cli import main as obs_main
from repro.obs.manifest import ManifestWriter, read_manifest, summarize_manifest
from repro.obs.spans import (
    SpanRecorder,
    Trace,
    make_span_id,
    spans_merge_digest,
    trace_id_from,
)
from repro.obs.telemetry import TelemetryRegistry


def double(job):
    return (job, job * 2)


class TestParallelMap:
    def test_sequential_path(self):
        out = list(iter_parallel(double, [1, 2, 3], workers=1))
        assert out == [(1, 2), (2, 4), (3, 6)]

    def test_single_job_stays_in_process(self):
        out = list(iter_parallel(double, [7], workers=8))
        assert out == [(7, 14)]

    def test_pool_path_ordered(self):
        out = list(iter_parallel(double, [1, 2, 3, 4], workers=2))
        assert out == [(1, 2), (2, 4), (3, 6), (4, 8)]


class TestParallelSweep:
    def test_matches_sequential(self):
        algs = ("nhop", "phop")
        seq = run_sweep(SMOKE_PROFILE, algs, workers=1)
        par = run_sweep(SMOKE_PROFILE, algs, workers=2)
        assert seq.throughput == par.throughput
        assert seq.latency == par.latency

    def test_custom_profile_pooled_matches_sequential(self):
        # The Profile object itself ships to the workers: nothing has
        # to be registered, and the custom grid is the one that runs.
        custom = replace(SMOKE_PROFILE, sweep_loads=(0.02, 0.05))
        seq = run_sweep(custom, ("nhop", "phop"), workers=1)
        par = run_sweep(custom, ("nhop", "phop"), workers=2)
        assert par.to_payload() == seq.to_payload()
        assert len(par.throughput["phop"]) == 2

    def test_custom_profile_fine_sequentially(self):
        custom = replace(SMOKE_PROFILE, sweep_loads=(0.02,))
        res = run_sweep(custom, ("nhop",), workers=1)
        assert len(res.throughput["nhop"]) == 1


class TestParallelFaultStudy:
    def test_matches_sequential(self):
        algs = ("nhop", "duato")
        seq = run_fault_study(SMOKE_PROFILE, algs, workers=1)
        par = run_fault_study(SMOKE_PROFILE, algs, workers=2)
        for alg in algs:
            assert [p.throughput for p in seq.points[alg]] == [
                p.throughput for p in par.points[alg]
            ]

    def test_custom_profile_pooled_matches_sequential(self):
        custom = replace(SMOKE_PROFILE, fault_counts=(0, 3), fault_sets=1)
        seq = run_fault_study(custom, ("nhop", "phop"), workers=1)
        par = run_fault_study(custom, ("nhop", "phop"), workers=2)
        assert par.fault_counts == (0, 3)
        assert json.dumps(par.to_payload()) == json.dumps(seq.to_payload())


def pool_spy(monkeypatch) -> list[list]:
    """Record the jobs of every pool :func:`pool_cells` starts; the pool
    itself is unchanged."""
    pools = []
    iter_parallel = parallel.iter_parallel

    def spy(worker, jobs, workers):
        pools.append(list(jobs))
        return iter_parallel(worker, jobs, workers)

    monkeypatch.setattr(parallel, "iter_parallel", spy)
    return pools


class TestOneCellPath:
    """Every driver, in process and pooled, with store + telemetry +
    manifest + spans attached: the two dispatches of the one cell path
    must agree on everything but who ran the cell.  Pooled, the unit of
    work is one point (a rate, a fault count, a run, a layout); the
    records stay one cell per algorithm."""

    ALGS = ("nhop", "duato-nbc")
    POINTS = {"run_sweep": 3, "run_fault_study": 2, "run_vc_usage": 1,
              "run_fring_study": 2}

    def _observed(self, driver, workers, root):
        registry, spans = TelemetryRegistry(), SpanRecorder()
        trace_id = trace_id_from("test", driver.__name__)
        trace = Trace(spans, trace_id, make_span_id(trace_id, None, "root"))
        path = root / f"w{workers}.jsonl"
        with ManifestWriter(path) as manifest:
            manifest.run_start(driver.__name__, kind="figure", workers=workers)
            result = driver(
                SMOKE_PROFILE, self.ALGS, workers=workers,
                store=root / f"store-w{workers}",  # fresh: both simulate
                telemetry=registry,
                manifest=manifest, trace=trace,
            )
            manifest.run_finish(telemetry=registry)
        events = read_manifest(path)
        cells = [e for e in events if e["event"] == "cell"]
        assert events[-1]["telemetry_digest"] == registry.merge_digest()
        return result, registry, spans.spans, cells

    @pytest.mark.parametrize(
        "driver",
        [run_sweep, run_fault_study, run_vc_usage, run_fring_study],
        ids=lambda driver: driver.__name__,
    )
    def test_pooled_equals_in_process(self, driver, tmp_path, monkeypatch):
        seq, seq_reg, seq_spans, seq_cells = self._observed(driver, 1, tmp_path)
        pools = pool_spy(monkeypatch)
        par, par_reg, par_spans, par_cells = self._observed(driver, 2, tmp_path)
        assert json.dumps(par.to_payload()) == json.dumps(seq.to_payload())
        assert par_reg.merge_digest() == seq_reg.merge_digest()
        assert seq_reg.value("engine.node_flit_hops") > 0
        assert {s["name"] for s in seq_spans} == {
            f"cell.{a}" for a in self.ALGS
        }
        assert spans_merge_digest(par_spans) == spans_merge_digest(seq_spans)
        rows = (tmp_path / "store-w1" / "rows.jsonl").read_bytes()
        assert (tmp_path / "store-w2" / "rows.jsonl").read_bytes() == rows
        # One pool job per (algorithm, point), one record per algorithm.
        assert [len(jobs) for jobs in pools] == [
            len(self.ALGS) * self.POINTS[driver.__name__]
        ]

        def finishes(cells):
            return [c for c in cells if c["phase"] == "finish"]

        assert [(c["id"], c["cycles"]) for c in finishes(par_cells)] == [
            (c["id"], c["cycles"]) for c in finishes(seq_cells)
        ]
        assert [c["id"] for c in finishes(seq_cells)] == list(self.ALGS)
        assert all(c["cycles"] > 0 for c in finishes(seq_cells))
        # In process: start + finish per cell, this process (worker 0),
        # with the cell's own cache delta (fresh store: all misses).
        assert [c["phase"] for c in seq_cells] == ["start", "finish"] * 2
        for cell in finishes(seq_cells):
            assert cell["worker"] == 0
            assert cell["cache"]["misses"] > 0 and cell["cache"]["hits"] == 0
        assert [c["cache"] for c in finishes(par_cells)] == [
            c["cache"] for c in finishes(seq_cells)
        ]
        # Pooled: the parent only hears of finished cells, from a worker
        # (one int pid per algorithm, whichever ran its last point).
        assert [c["phase"] for c in par_cells] == ["finish"] * 2
        assert all(
            isinstance(c["worker"], int) and c["worker"] not in (0, os.getpid())
            for c in finishes(par_cells)
        )
        if usable_cpus() > 2:  # and every core gives the same bytes
            many, *_ = self._observed(driver, usable_cpus(), tmp_path)
            assert json.dumps(many.to_payload()) == json.dumps(seq.to_payload())
            assert (
                tmp_path / f"store-w{usable_cpus()}" / "rows.jsonl"
            ).read_bytes() == rows


def _second_cell_raises(evaluator, profile):
    def point(algorithm, _):
        if algorithm == "phop":
            raise RuntimeError("deadlock oracle fired")
        return 1.0, 7

    return point, [(1.0, None)]


class TestFailedCellIsRecorded:
    def test_error_status_reaches_manifest_and_report(self, tmp_path, capsys):
        path = tmp_path / "failed.jsonl"
        with pytest.raises(RuntimeError, match="oracle"):
            with ManifestWriter(path) as manifest:
                manifest.run_start("fig1", kind="figure")
                run_per_algorithm(
                    SMOKE_PROFILE, ("nhop", "phop", "duato"),
                    _second_cell_raises, label="t", manifest=manifest,
                )
        events = read_manifest(path)
        finishes = [
            e for e in events
            if e["event"] == "cell" and e["phase"] == "finish"
        ]
        assert [(e["id"], e["status"]) for e in finishes] == [
            ("nhop", "ok"), ("phop", "error"),
        ]
        assert events[-1]["event"] == "run-finish"
        summary = summarize_manifest(events)
        assert summary["status"] == "error"
        assert summary["groups"]["phop"]["errors"] == 1
        assert summary["groups"]["nhop"]["errors"] == 0
        assert obs_main(["report", str(path)]) == 0
        assert "status=error" in capsys.readouterr().out


class TestOnlyMissingCellsArePooled:
    """With a store, a cell the store holds whole finishes in process;
    the rest go to the pool, whose rows only the parent appends, in
    declaration order — so the store, the results and every cell's cache
    counters are those of the sequential run."""

    ALGS = ("nhop", "duato-nbc", "phop")

    def _run(self, store, workers, path):
        with ManifestWriter(path) as manifest:
            manifest.run_start("fig1", kind="figure", workers=workers)
            result = run_sweep(
                SMOKE_PROFILE, self.ALGS, workers=workers, store=store,
                manifest=manifest,
            )
            manifest.run_finish()
        cells = [e for e in read_manifest(path) if e["event"] == "cell"]
        return result, cells

    def test_mixed_store(self, tmp_path, monkeypatch):
        n = len(SMOKE_PROFILE.sweep_loads)
        full = tmp_path / "full"
        run_sweep(SMOKE_PROFILE, self.ALGS, store=full)
        rows = (full / "rows.jsonl").read_bytes().splitlines(keepends=True)
        assert len(rows) == 3 * n
        # Both stores hold nhop's runs and the first of duato-nbc's.
        for name in ("seq", "par"):
            (tmp_path / name).mkdir()
            (tmp_path / name / "rows.jsonl").write_bytes(b"".join(rows[:n + 1]))
        seq, seq_cells = self._run(tmp_path / "seq", 1, tmp_path / "seq.jsonl")
        pools = pool_spy(monkeypatch)
        par, par_cells = self._run(tmp_path / "par", 2, tmp_path / "par.jsonl")

        # The pool gets every point of the two algorithms the store cannot
        # serve whole (duato-nbc's first point too: a hit in its worker).
        assert [
            [(job[0].id, job[0].args[-1]) for job in jobs] for jobs in pools
        ] == [sorted(
            ((alg, rate) for alg in ("duato-nbc", "phop")
             for rate in SMOKE_PROFILE.sweep_rates),
            key=lambda job: -job[1],
        )]
        assert json.dumps(par.to_payload()) == json.dumps(seq.to_payload())
        for name in ("seq", "par"):
            assert (tmp_path / name / "rows.jsonl").read_bytes() == b"".join(rows)
        # A probe that stopped at a miss left no record: one finish per
        # cell, none an error, and no start for a cell that was pooled.
        assert all(c.get("status") != "error" for c in par_cells)
        assert [(c["id"], c["phase"]) for c in par_cells] == [
            ("nhop", "start"), ("nhop", "finish"),
            ("duato-nbc", "finish"), ("phop", "finish"),
        ]
        par_finish = {c["id"]: c for c in par_cells if c["phase"] == "finish"}
        assert par_finish["nhop"]["worker"] == 0
        assert all(
            par_finish[alg]["worker"] not in (0, os.getpid())
            for alg in ("duato-nbc", "phop")
        )
        seq_finish = {c["id"]: c for c in seq_cells if c["phase"] == "finish"}
        assert {alg: c["cache"] for alg, c in par_finish.items()} == {
            alg: c["cache"] for alg, c in seq_finish.items()
        }
        assert par_finish["duato-nbc"]["cache"] == {
            "hits": 1, "misses": n - 1, "puts": n - 1,
        }

    def test_warm_store_never_pools(self, tmp_path, monkeypatch):
        import repro.experiments.parallel as parallel

        def shape(cells):
            return [(c["id"], c["phase"], c.get("worker"), c.get("cache"))
                    for c in cells]

        store = tmp_path / "store"
        cold, _ = self._run(store, 2, tmp_path / "cold.jsonl")
        before = (store / "rows.jsonl").read_bytes()
        _, in_process = self._run(store, 1, tmp_path / "warm-w1.jsonl")

        def no_pool(worker, jobs, *args, **kwargs):
            assert not jobs, "a warm cell was sent to the pool"
            yield from ()

        monkeypatch.setattr(parallel, "iter_parallel", no_pool)
        warm, cells = self._run(store, 2, tmp_path / "warm.jsonl")
        assert json.dumps(warm.to_payload()) == json.dumps(cold.to_payload())
        assert (store / "rows.jsonl").read_bytes() == before
        # The events of today's in-process path: start + finish, worker
        # 0, all hits.
        assert shape(cells) == shape(in_process)
        assert all(
            c["cache"]["misses"] == 0 for c in cells if c["phase"] == "finish"
        )
        # Written with its finish, a start still reads when the cell began.
        for start, finish in zip(cells[::2], cells[1::2]):
            assert start["t"] <= finish["t"] - finish["seconds"] + 1e-5


def _phop_middle_point_raises(evaluator, profile):
    run, points = sweep_job(evaluator, profile)

    def point(algorithm, rate):
        done = run(algorithm, rate)  # simulated and stored, then:
        if algorithm == "phop" and rate == points[1][1]:
            raise RuntimeError("deadlock oracle fired")
        return done

    return point, points


class TestFailedPoolKeepsItsWork:
    """A pooled point that raises is recorded like an in-process cell —
    its algorithm's one ``finish``, ``status="error"`` — and every row
    the pool simulated reaches the store: the finished points', the
    failed point's own, and whatever the unfinished ones had done."""

    ALGS = ("nhop", "phop", "duato-nbc")

    def _fail(self, tmp_path, name, workers):
        path, store = tmp_path / f"{name}.jsonl", tmp_path / name
        with pytest.raises(RuntimeError, match="oracle") as raised:
            with ManifestWriter(path) as manifest:
                manifest.run_start("fig1", kind="figure", workers=workers)
                run_per_algorithm(
                    SMOKE_PROFILE, self.ALGS, _phop_middle_point_raises,
                    label="t", workers=workers, store=store,
                    manifest=manifest,
                )
        finishes = [
            e for e in read_manifest(path)
            if e["event"] == "cell" and e["phase"] == "finish"
        ]
        return raised.value, finishes, store

    def test_rows_and_error_event_survive(self, tmp_path):
        _, seq_finish, seq_store = self._fail(tmp_path, "seq", 1)
        error, par_finish, par_store = self._fail(tmp_path, "par", 2)

        # The worker's traceback rides along as the cause.
        assert isinstance(error.__cause__, WorkerTraceback)
        assert "deadlock oracle fired" in str(error.__cause__)
        assert [(e["id"], e["status"]) for e in par_finish] == [
            (e["id"], e["status"]) for e in seq_finish
        ] == [("nhop", "ok"), ("phop", "error")]
        assert all(e["worker"] not in (0, os.getpid()) for e in par_finish)
        # phop's record sums its two points: the finished one and the
        # one that raised after storing its run.
        assert [e["cache"] for e in par_finish] == [
            e["cache"] for e in seq_finish
        ]
        assert par_finish[1]["cache"]["puts"] == 2
        # nhop's and phop's rows up to the failure, in declaration order,
        # as in process; then the rows of every point that came home
        # (dispatched heaviest first, all but the last, duato-nbc's
        # lightest, had) and whatever that one had done.
        seq_rows = (seq_store / "rows.jsonl").read_bytes()
        par_rows = (par_store / "rows.jsonl").read_bytes()
        assert par_rows.startswith(seq_rows)
        assert len(seq_rows.splitlines()) == len(SMOKE_PROFILE.sweep_loads) + 2
        n_points = len(self.ALGS) * len(SMOKE_PROFILE.sweep_loads)
        assert len(par_rows.splitlines()) in (n_points - 1, n_points)
        assert len(set(par_rows.splitlines())) == len(par_rows.splitlines())
        assert not any((par_store / "held").iterdir())
        assert summarize_manifest(
            read_manifest(tmp_path / "par.jsonl")
        )["status"] == "error"


class TestHeaviestFirst:
    """The pool takes points heaviest first (runs × injection rate); the
    parent still takes them home — rows, records, progress — in
    declaration order."""

    ALGS = ("nhop", "phop")

    def test_dispatch_by_weight_fold_by_declaration(self, tmp_path,
                                                    monkeypatch):
        dispatched = []

        def in_process(worker, jobs, workers):
            dispatched.extend((job[0].id, job[0].weight) for job in jobs)
            yield from map(worker, jobs)  # here, in dispatch order

        monkeypatch.setattr(parallel, "iter_parallel", in_process)
        progress = []
        custom = replace(SMOKE_PROFILE, fault_counts=(0, 3, 5), fault_sets=2)
        par = run_fault_study(
            custom, self.ALGS, workers=2, store=tmp_path / "par",
            progress=progress.append,
        )
        seq = run_fault_study(custom, self.ALGS, store=tmp_path / "seq")
        rate = custom.full_load_rate
        # Both faulty counts weigh 2 runs × rate, the fault-free one 1 run.
        assert dispatched == [
            ("nhop", 2 * rate), ("nhop", 2 * rate),
            ("phop", 2 * rate), ("phop", 2 * rate),
            ("nhop", rate), ("phop", rate),
        ]
        assert progress == ["[fig4/5] nhop: done", "[fig4/5] phop: done"]
        assert json.dumps(par.to_payload()) == json.dumps(seq.to_payload())
        # Run heaviest first, folded in declaration order: the same rows.
        assert (tmp_path / "par" / "rows.jsonl").read_bytes() == (
            tmp_path / "seq" / "rows.jsonl"
        ).read_bytes()


class TestWorkerCount:
    @pytest.mark.parametrize("workers", [0, -3])
    def test_fewer_than_one_worker_is_refused(self, workers):
        with pytest.raises(ValueError, match=f"need at least 1, not {workers}"):
            run_sweep(SMOKE_PROFILE, ("nhop",), workers=workers)

    def test_none_is_the_usable_cpus(self):
        assert parallel.worker_count(None) == usable_cpus()
        assert parallel.worker_count(3) == 3


class TestWarmProbe:
    def test_warm_fig4_draws_each_fault_count_once(self, tmp_path,
                                                   monkeypatch):
        """A warm pooled figure prepares its job once per evaluator, not
        once per point: each fault case is drawn once."""
        from repro.core.evaluator import Evaluator
        from repro.experiments.cli import main as experiments_main

        argv = ["fig4", "--profile", "smoke", "--algorithms", "nhop", "phop",
                "--workers", "2", "--store", str(tmp_path / "s"), "--quiet"]
        assert experiments_main(argv) == 0
        real, drawn = Evaluator.fault_case, []

        def counting(self, n_faults, n_sets, label=None):
            drawn.append(n_faults)
            return real(self, n_faults, n_sets, label)

        monkeypatch.setattr(Evaluator, "fault_case", counting)
        monkeypatch.setattr(parallel, "iter_parallel", None)  # no pool
        assert experiments_main(argv) == 0
        assert sorted(drawn) == sorted(SMOKE_PROFILE.fault_counts)
