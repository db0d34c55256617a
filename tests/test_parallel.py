"""Tests for the multiprocessing experiment runner."""

import json
import os
from dataclasses import replace

import pytest

from repro.experiments.fig_faults import run_fault_study
from repro.experiments.fig_fring import run_fring_study
from repro.experiments.fig_sweep import run_sweep, sweep_job
from repro.experiments.fig_vc_usage import run_vc_usage
from repro.experiments.parallel import parallel_map, run_per_algorithm
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
from repro.obs.telemetry import Instrument, TelemetryRegistry
from repro.simulator.trace import Tracer


def double(job):
    return (job, job * 2)


class TestParallelMap:
    def test_sequential_path(self):
        out = parallel_map(double, [1, 2, 3], workers=1)
        assert out == [(1, 2), (2, 4), (3, 6)]

    def test_single_job_stays_in_process(self):
        out = parallel_map(double, [7], workers=8)
        assert out == [(7, 14)]

    def test_pool_path_ordered(self):
        out = parallel_map(double, [1, 2, 3, 4], workers=2)
        assert out == [(1, 2), (2, 4), (3, 6), (4, 8)]

    def test_progress_callback(self):
        seen = []
        parallel_map(double, [1, 2], workers=1, progress=seen.append, label="x")
        assert len(seen) == 2 and seen[0].startswith("[x]")

    def test_progress_with_named_tuple_results(self):
        seen = []
        parallel_map(
            lambda job: (f"alg-{job}", job),
            [1, 2],
            workers=1,
            progress=seen.append,
            label="x",
        )
        assert seen == ["[x] alg-1: done", "[x] alg-2: done"]

    @pytest.mark.parametrize("worker", [lambda j: j * 2, lambda j: {"v": j}])
    def test_progress_falls_back_to_job_index(self, worker):
        # Workers returning scalars or dicts must not break the progress
        # callback (it used to assume result[0] was a printable label).
        seen = []
        out = parallel_map(worker, [5, 6], workers=1, progress=seen.append,
                           label="x")
        assert len(out) == 2
        assert seen == ["[x] job 1: done", "[x] job 2: done"]


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


class TestSampledTracerParallel:
    """``Tracer(sample=N)`` determinism under ``--workers N``: a tracer
    instrument is not pool-safe, so the drivers route traced sweeps
    through the in-process path and the merged sampled lifecycle traces
    must equal the sequential run's, event for event."""

    def _traced_sweep(self, workers, sample):
        tracer = Tracer(capacity=500_000, kinds={"inject", "deliver"},
                        sample=sample)
        run_sweep(SMOKE_PROFILE, ("nhop", "phop"), workers=workers,
                  instrument=Instrument(tracer=tracer))
        return tracer

    def test_sampled_trace_is_worker_independent(self):
        seq = self._traced_sweep(workers=1, sample=3)
        par = self._traced_sweep(workers=2, sample=3)
        assert seq.events, "sampled tracer captured nothing"
        assert list(seq.events) == list(par.events)
        assert seq.counts == par.counts
        assert all(event[2] % 3 == 0 for event in seq.events)

    def test_sampled_ids_are_the_divisible_slice_of_full(self):
        full = self._traced_sweep(workers=1, sample=1)
        sampled = self._traced_sweep(workers=1, sample=3)
        delivered_full = {e[2] for e in full.events if e[1] == "deliver"}
        delivered_sampled = {e[2] for e in sampled.events if e[1] == "deliver"}
        assert delivered_sampled == {
            mid for mid in delivered_full if mid % 3 == 0
        }


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


class TestOneCellPath:
    """Every driver, in process and pooled, with store + telemetry +
    manifest + spans attached: the two dispatches of the one cell path
    must agree on everything but who ran the cell."""

    ALGS = ("nhop", "duato-nbc")

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
                instrument=Instrument(telemetry=registry),
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
    def test_pooled_equals_in_process(self, driver, tmp_path):
        seq, seq_reg, seq_spans, seq_cells = self._observed(driver, 1, tmp_path)
        par, par_reg, par_spans, par_cells = self._observed(driver, 2, tmp_path)
        assert json.dumps(par.to_payload()) == json.dumps(seq.to_payload())
        assert par_reg.merge_digest() == seq_reg.merge_digest()
        assert seq_reg.value("engine.node_flit_hops") > 0
        assert {s["name"] for s in seq_spans} == {
            f"cell.{a}" for a in self.ALGS
        }
        assert spans_merge_digest(par_spans) == spans_merge_digest(seq_spans)

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
        assert sum(c["cache"]["misses"] for c in finishes(seq_cells)) == sum(
            c["cache"]["misses"] for c in finishes(par_cells)
        )
        # Pooled: the parent only hears of finished cells, from a worker.
        assert [c["phase"] for c in par_cells] == ["finish"] * 2
        assert all(
            c["worker"] not in (0, os.getpid()) for c in finishes(par_cells)
        )


def _second_cell_raises(evaluator, profile):
    def cell(algorithm):
        if algorithm == "phop":
            raise RuntimeError("deadlock oracle fired")
        return [1.0], 7

    return cell


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

    def test_mixed_store(self, tmp_path):
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
        par, par_cells = self._run(tmp_path / "par", 2, tmp_path / "par.jsonl")

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
            "hits": 1, "misses": n - 1, "puts": n - 1, "bypassed": 0,
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


def _sweep_then_phop_raises(evaluator, profile):
    run = sweep_job(evaluator, profile)

    def cell(algorithm):
        series, cycles = run(algorithm)
        if algorithm == "phop":
            raise RuntimeError("deadlock oracle fired")
        return series, cycles

    return cell


class TestFailedPoolKeepsItsWork:
    """A pooled cell that raises is recorded like an in-process one, and
    every row the pool simulated reaches the store: the finished cells',
    the failed cell's own, and whatever the unfinished ones had done."""

    ALGS = ("nhop", "phop", "duato-nbc")

    def _fail(self, tmp_path, name, workers):
        path, store = tmp_path / f"{name}.jsonl", tmp_path / name
        with pytest.raises(RuntimeError, match="oracle") as raised:
            with ManifestWriter(path) as manifest:
                manifest.run_start("fig1", kind="figure", workers=workers)
                run_per_algorithm(
                    SMOKE_PROFILE, self.ALGS, _sweep_then_phop_raises,
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
        assert "deadlock oracle fired" in str(error.__cause__)
        assert [(e["id"], e["status"]) for e in par_finish] == [
            (e["id"], e["status"]) for e in seq_finish
        ] == [("nhop", "ok"), ("phop", "error")]
        assert all(e["worker"] not in (0, os.getpid()) for e in par_finish)
        assert [e["cache"] for e in par_finish] == [
            e["cache"] for e in seq_finish
        ]
        # nhop's and phop's rows, in declaration order, as in process;
        # then any duato-nbc row its terminated worker had simulated.
        seq_rows = (seq_store / "rows.jsonl").read_bytes()
        par_rows = (par_store / "rows.jsonl").read_bytes()
        assert par_rows.startswith(seq_rows)
        assert len(seq_rows.splitlines()) == 2 * len(SMOKE_PROFILE.sweep_loads)
        assert not any((par_store / "held").iterdir())
        assert summarize_manifest(
            read_manifest(tmp_path / "par.jsonl")
        )["status"] == "error"
