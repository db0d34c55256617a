"""The four benchmark workloads, driven through the repo's public surface.

Each workload is built from ``--seed``, set up (possibly several times,
so set-up time has a median), and then run as a sequence of **passes**.
A pass does a fixed amount of work on fresh directories, verifies its
own outputs, and returns a :class:`PassResult`; the runner reports the
median over passes.  A pass is small (1–5 s) on purpose: this host's
speed drifts by tens of percent over a minute, and a median over many
short identical passes resists that where one long pass cannot.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import shutil
import socket
import statistics
import subprocess
import sys
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter as clock, sleep

from layers import serve_metrics
from repro.campaigns import (
    CampaignDB,
    CampaignSpec,
    merge_shards,
    partition_cells,
    query,
    run_campaign,
    run_shard,
)
from repro.experiments import cli
from repro.experiments.profiles import SMOKE_PROFILE
from repro.obs.manifest import read_manifest
from repro.serve import Query, Resolver, UnresolvedQueryError
from repro.simulator.config import SimConfig
from repro.store import ResultStore
from repro.store.keys import canonical_json
from repro.util.serialization import result_from_dict

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
REFERENCE_PATH = BENCH_DIR / "reference.json"

#: The server answers ``Connection: close``, so every request leaves a
#: TIME_WAIT socket for a minute.  Each run binds fresh ports and stops
#: short of the ~28k ephemeral range on any one of them.
MAX_CONNECTIONS_PER_PORT = 16_300

#: Traffic mix of the HTTP batches: share, expected status, expected tier.
MIX = {
    "store": (0.50, 200, "store"),
    "surrogate": (0.25, 200, "surrogate"),
    "model": (0.15, 200, "model"),
    "refused": (0.10, 422, None),
}


@dataclass(frozen=True)
class Scale:
    """How much work a pass does; ``SMOKE`` is for ``test_bench.py``."""

    fig1_algorithms: tuple[str, ...]
    fig4_algorithms: tuple[str, ...]
    campaign_repeats: int
    http_batch: int
    sim_queries: int
    setups: int


FULL = Scale(
    fig1_algorithms=("nhop", "duato-nbc", "minimal-adaptive"),
    fig4_algorithms=("pbc", "boura-ft"),
    campaign_repeats=2,
    http_batch=1000,
    sim_queries=6,
    setups=3,
)
SMOKE = Scale(
    fig1_algorithms=("nhop",),
    fig4_algorithms=("pbc",),
    campaign_repeats=1,
    http_batch=200,
    sim_queries=2,
    setups=1,
)


@dataclass
class PassResult:
    """What one pass measured and verified."""

    wall_s: float
    work: float  #: units behind ``work_per_s`` (cycles, cells, requests)
    work_s: float  #: host seconds those units took
    cached_answer_ms: float
    sim_answer_ms: float
    operations: int  #: program operations attempted
    failed_operations: int = 0
    #: Seconds spent in a worker pool that a traced pass runs in this
    #: process instead; left out of the tracing-overhead comparison.
    pool_s: float = 0.0
    checks: dict[str, bool] = field(default_factory=dict)
    rows: list[dict] = field(default_factory=list)
    facts: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Result rows and the pinned reference
# ----------------------------------------------------------------------
def canonical_rows(store: ResultStore) -> list[dict]:
    """Per-cell ``(throughput, latency, delivered)`` in execution order.

    The position in the store file identifies the cell: runs execute in
    declaration order, so row *i* is the same (algorithm, rate, fault
    case) under any seed or engine version.
    """
    rows = []
    for i, row in enumerate(store.rows()):
        result = result_from_dict(row["payload"])
        rows.append({
            "cell": i,
            "algorithm": row["algorithm"],
            "throughput": result.throughput,
            "latency": result.avg_latency,
            "delivered": result.delivered,
        })
    return rows


def engine_facts(store: ResultStore) -> dict:
    """Exact engine work counts behind a store's rows."""
    facts = {"cycles": 0, "flit_hops": 0, "delivered": 0, "dropped": 0}
    for row in store.rows():
        payload = row["payload"]
        config = payload["config"]
        facts["cycles"] += payload["measured_cycles"] + config["warmup"]
        facts["flit_hops"] += payload["hops_sum"] * config["message_length"]
        facts["delivered"] += payload["delivered"]
        facts["dropped"] += (
            payload["dropped_deadlock"] + payload["dropped_livelock"]
        )
    facts["store_bytes"] = sum(
        p.stat().st_size for p in (store.rows_path, store.index_path)
    )
    return facts


def rows_digest(rows: list[dict]) -> str:
    return hashlib.sha256(canonical_json(rows).encode("utf-8")).hexdigest()


def stat_drift_pct(rows: list[dict], reference: list[dict]) -> float:
    """Mean absolute relative deviation of throughput and latency, in %."""
    if len(rows) != len(reference):
        return math.inf
    deviations = [
        abs(row[metric] - ref[metric]) / abs(ref[metric])
        for row, ref in zip(rows, reference)
        for metric in ("throughput", "latency")
    ]
    return 100.0 * statistics.fmean(deviations)


def reference_checks(workload: "Workload", rows: list[dict]) -> tuple[dict, dict]:
    """Compare *rows* with the pinned ones; ``(checks, facts)``.

    Only full-scale passes at the pinned seed have a reference.  A
    digest mismatch alone is not a failure (an ``ENGINE_VERSION`` bump
    legitimately changes the RNG stream); drifting further than two
    other seeds do is.
    """
    reference = json.loads(REFERENCE_PATH.read_text())
    pinned = reference["workloads"].get(workload.name)
    if (
        pinned is None
        or workload.scale is not FULL
        or workload.seed != reference["seed"]
    ):
        return {}, {"results_identical": 1.0, "stat_drift_pct": 0.0}
    identical = rows_digest(rows) == pinned["sha256"]
    drift = 0.0 if identical else stat_drift_pct(rows, pinned["rows"])
    return (
        {"stat_drift_within_bound": drift <= pinned["drift_bound_pct"]},
        {"results_identical": float(identical), "stat_drift_pct": drift},
    )


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


class Workload:
    """Set-up / pass / tear-down protocol shared by the four workloads."""

    name = ""
    #: Simulating workloads have reference rows; the served one does not.
    pinned = True

    def __init__(self, seed: int, scale: Scale, work: Path) -> None:
        self.seed = seed
        self.scale = scale
        self.work = work

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)

    def teardown(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def exhausted(self) -> bool:
        """True when another pass must not start (see the serve workload)."""
        return False

    def run_pass(self, index: int, tracer) -> PassResult:
        raise NotImplementedError

    def layer_metrics(self, results: list[PassResult],
                      untraced: list[PassResult]) -> dict:
        """Per-layer metrics only this workload can compute from what its
        passes counted (the span-derived ones are in ``layers.py``)."""
        return {}


# ----------------------------------------------------------------------
# fig1_smoke_cold / fig4_smoke_faulty
# ----------------------------------------------------------------------
class FigureWorkload(Workload):
    """One figure through ``repro.experiments`` ``main(argv)``: cold on an
    empty store, then the identical call again, served from the store."""

    fig = ""
    payload = ""

    def algorithms(self) -> tuple[str, ...]:
        raise NotImplementedError

    def expected_runs(self) -> int:
        raise NotImplementedError

    def _call(self, argv: list[str], tracer) -> tuple[int, float]:
        start = clock()
        with _span(tracer, "experiments.cli"):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        return code, clock() - start

    def run_pass(self, index: int, tracer) -> PassResult:
        root = self.work / f"pass{index}"
        store_dir, payload = root / "store", root / "out" / self.payload
        argv = [
            self.fig, "--profile", "smoke",
            "--algorithms", *self.algorithms(),
            "--store", str(store_dir), "--out", str(root / "out"),
            "--quiet", "--seed", str(self.seed),
        ]
        start = clock()
        cold_code, cold_s = self._call(argv, tracer)
        cold_bytes = payload.read_bytes()
        cold_rows = len(ResultStore(store_dir))
        mark = len(tracer.spans) if tracer is not None else 0
        warm_code, warm_s = self._call(argv, tracer)
        store = ResultStore(store_dir)
        rows = canonical_rows(store)
        series = json.loads(cold_bytes)
        values = [
            v for metric in ("throughput", "latency")
            for points in series[metric].values() for v in points
        ]
        checks = {
            "cli_exit_zero": cold_code == 0 and warm_code == 0,
            "series_finite": all(math.isfinite(v) and v > 0 for v in values),
            "throughput_in_range": all(
                t <= 1.0 for pts in series["throughput"].values() for t in pts
            ),
            "run_count": cold_rows == self.expected_runs(),
            "warm_adds_no_rows": len(rows) == cold_rows,
            "warm_output_identical": payload.read_bytes() == cold_bytes,
        }
        if tracer is not None:
            hits = sum(
                s[4] for s in tracer.spans[mark:] if s[0] == "store.get"
            )
            checks["warm_all_hits"] = hits == self.expected_runs()
        ref_checks, ref_facts = reference_checks(self, rows)
        checks.update(ref_checks)
        facts = {**engine_facts(store), **ref_facts, "warm_figure_ms": warm_s * 1e3}
        wall_s = clock() - start
        shutil.rmtree(root)
        return PassResult(
            wall_s=wall_s,
            work=facts["cycles"],
            work_s=cold_s,
            cached_answer_ms=warm_s * 1e3,
            sim_answer_ms=cold_s * 1e3 / max(cold_rows, 1),
            operations=2,
            failed_operations=(cold_code != 0) + (warm_code != 0),
            checks=checks,
            rows=rows,
            facts=facts,
        )


class Fig1Cold(FigureWorkload):
    name = "fig1_smoke_cold"
    fig = "fig1"
    payload = "sweep_smoke.json"

    def algorithms(self):
        return self.scale.fig1_algorithms

    def expected_runs(self):
        return len(self.algorithms()) * len(SMOKE_PROFILE.sweep_loads)


class Fig4Faulty(FigureWorkload):
    name = "fig4_smoke_faulty"
    fig = "fig4"
    payload = "faults_smoke.json"

    def algorithms(self):
        return self.scale.fig4_algorithms

    def expected_runs(self):
        profile = SMOKE_PROFILE
        return len(self.algorithms()) * sum(
            profile.fault_sets if n else 1 for n in profile.fault_counts
        )


# ----------------------------------------------------------------------
# campaign_small_cells
# ----------------------------------------------------------------------
def small_cell_config() -> SimConfig:
    return SimConfig(
        width=6, vcs_per_channel=24, message_length=4, cycles=300, warmup=100
    )


class CampaignSmallCells(Workload):
    """Many tiny cells: plan, sequential run, sharded run into a fresh
    directory, reopen + replan, query + reduce + CSV."""

    name = "campaign_small_cells"

    def spec(self) -> CampaignSpec:
        return CampaignSpec(
            name="bench-campaign",
            algorithms=("nhop", "duato-nbc", "pbc", "boura-ft"),
            config=small_cell_config(),
            rates=(0.01, 0.03),
            fault_counts=(0, 2),
            fault_sets=2,
            repeats=self.scale.campaign_repeats,
            seed=self.seed,
        )

    def _sharded(self, db: CampaignDB, tracer) -> dict:
        """The sharded pass.  Pool workers cannot be traced from here, so
        a traced pass runs the two shards and the merge in this process."""
        if tracer is None:
            return run_campaign(db, shards=2, workers=2)
        coords = db.missing_coords()
        db.save()
        roots = [db.shards_root / f"shard-{i:02d}" for i in range(2)]
        for part, root in zip(partition_cells(coords, 2), roots):
            with tracer.span("campaigns.shard"):
                run_shard(db.spec, part, root)
        with tracer.span("campaigns.merge"):
            merged = merge_shards(db, roots)
        return {**merged, "executed": merged["merged_cells"]}

    def run_pass(self, index: int, tracer) -> PassResult:
        root = self.work / f"pass{index}"
        spec = self.spec()
        start = clock()
        db_a = CampaignDB(spec, root / "A")
        plan = db_a.plan()
        t_run = clock()
        with _span(tracer, "campaigns.run"):
            sequential = run_campaign(db_a, shards=1)
        seq_s = clock() - t_run
        t_shard = clock()
        sharded = self._sharded(CampaignDB(spec, root / "B"), tracer)
        shard_s = clock() - t_shard
        t_read = clock()
        with _span(tracer, "campaigns.replan"):
            reopened = CampaignDB.open(root / "A")
            replan = reopened.plan()
        with _span(tracer, "campaigns.query"):
            array = query(reopened)
            array.reduce("latency")
            array.reduce("throughput")
            csv_text = array.to_csv()
        read_s = clock() - t_read
        cell_seconds = [
            ev["seconds"] for ev in read_manifest(db_a.events_path)
            if ev.get("event") == "cell" and ev.get("phase") == "finish"
        ]
        rows = canonical_rows(db_a.store)
        checks = {
            "all_cells_planned": len(plan.missing) == plan.total == spec.n_jobs,
            "sequential_executed_all": sequential["executed"] == spec.n_jobs,
            "sharded_executed_all": sharded["executed"] == spec.n_jobs,
            "sharded_store_identical":
                sharded["store_digest"] == sequential["store_digest"],
            "replan_finds_nothing": len(replan.missing) == 0,
            "query_has_no_nan": not any(
                math.isnan(v) for metric in array.values.values()
                for a in metric for r in a for c in r for v in c
            ),
            "csv_has_all_cells": csv_text.count("\n") == spec.n_jobs + 1,
        }
        if tracer is None:
            checks["sharded_spans_identical"] = (
                sharded["span_digest"] == sequential["span_digest"]
            )
        ref_checks, ref_facts = reference_checks(self, rows)
        checks.update(ref_checks)
        facts = {**engine_facts(db_a.store), **ref_facts, "seq_s": seq_s}
        wall_s = clock() - start
        shutil.rmtree(root)
        return PassResult(
            wall_s=wall_s,
            work=spec.n_jobs,
            work_s=seq_s,
            cached_answer_ms=read_s * 1e3,
            sim_answer_ms=statistics.median(cell_seconds) * 1e3,
            operations=2 * spec.n_jobs,
            pool_s=shard_s,
            checks=checks,
            rows=rows,
            facts=facts,
        )

    def layer_metrics(self, results, untraced) -> dict:
        return {
            "campaigns.shard_speedup":
                statistics.median(r.facts["seq_s"] for r in untraced)
                / statistics.median(r.pool_s for r in untraced),
        }


# ----------------------------------------------------------------------
# serve_http_loopback
# ----------------------------------------------------------------------
def http_get(port: int, path: str) -> tuple[int, dict, float, float]:
    """One ``GET`` on a fresh connection (the server closes after each
    answer): ``(status, JSON body, total seconds, connect seconds)``."""
    start = clock()
    with socket.create_connection(("127.0.0.1", port), timeout=60) as conn:
        connected = clock()
        conn.sendall(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode())
        chunks = []
        while chunk := conn.recv(65536):
            chunks.append(chunk)
    end = clock()
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split(None, 2)[1]), json.loads(body), end - start, connected - start


def _query_path(q: Query) -> str:
    return f"/query?algorithm={q.algorithm}&rate={q.rate!r}&metric={q.metric}"


def time_wait_sockets() -> int:
    """TCP sockets in TIME_WAIT (state ``06`` in ``/proc/net/tcp``)."""
    lines = Path("/proc/net/tcp").read_text().splitlines()[1:]
    return sum(1 for line in lines if line.split()[3] == "06")


def _cpu_seconds(pid: int) -> float:
    """User + system CPU seconds a live child has used so far."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class ServeHttpLoopback(Workload):
    """Answers over a real socket from ``python -m repro.serve api``.

    Two servers on the same 16-cell campaign, each its own child process
    on its own ``--port 0``: one without ``--simulate`` takes the mixed
    closed-loop batches (a server that may simulate never refuses, and
    the mix needs refusals), one with ``--simulate`` takes the queries
    that must reach the engine.
    """

    name = "serve_http_loopback"
    pinned = False
    algorithms = ("nhop", "duato-nbc")
    rates = (0.005, 0.01, 0.02, 0.03)
    repeats = 2
    clients = 2

    def __init__(self, seed: int, scale: Scale, work: Path) -> None:
        super().__init__(seed, scale, work)
        self.children: list[subprocess.Popen] = []
        self.sim_index = 0

    def spec(self) -> CampaignSpec:
        return CampaignSpec(
            name="bench-serve",
            algorithms=self.algorithms,
            config=small_cell_config(),
            rates=self.rates,
            repeats=self.repeats,
            seed=self.seed,
        )

    # -- set-up ---------------------------------------------------------
    def _start_server(self, label: str, simulate: bool) -> int:
        log = self.work / f"server-{label}.log"
        argv = [sys.executable, "-m", "repro.serve", "api",
                str(self.campaign), "--port", "0"]
        with open(log, "w") as sink:
            child = subprocess.Popen(
                argv + (["--simulate"] if simulate else []),
                env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
                stdout=sink, stderr=sink, stdin=subprocess.DEVNULL,
            )
        self.children.append(child)
        deadline = clock() + 60
        while clock() < deadline and child.poll() is None:
            match = re.search(r"on http://[^:]+:(\d+)", log.read_text())
            if match:
                return int(match.group(1))
            sleep(0.01)
        raise RuntimeError(f"server {label} did not start: {log.read_text()}")

    def setup(self) -> None:
        super().setup()
        self.time_wait_at_start = time_wait_sockets()
        self.campaign = self.work / "campaign"
        db = CampaignDB(self.spec(), self.campaign)
        db.save()
        run_campaign(db)
        self.mix_port = self._start_server("mix", simulate=False)
        self.sim_port = self._start_server("sim", simulate=True)
        self.mix_connections = 0
        # First answers fit the surrogate and the model calibration
        # lazily; that is set-up, not steady-state serving.
        rng = random.Random(f"{self.seed}/warm")
        for tier in MIX:
            self._expect(self.mix_port, *self._request(tier, rng))
        self._expect(self.sim_port, self._sim_path(), 200, "simulation")

    def teardown(self) -> None:
        for child in self.children:
            child.terminate()
        for child in self.children:
            try:
                child.wait(timeout=20)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        self.children.clear()
        super().teardown()

    def exhausted(self) -> bool:
        # Only the mix server's port is at risk: the simulating one sees
        # a dozen requests per pass.
        return (
            self.mix_connections + self.scale.http_batch
            > MAX_CONNECTIONS_PER_PORT
        )

    # -- requests -------------------------------------------------------
    def _draw(self, tier: str, rng: random.Random) -> Query:
        """A query the *tier* of the mix must answer (or refuse)."""
        low, high = self.rates[0], self.rates[-1]
        algorithm = rng.choice(self.algorithms)
        if tier == "store":
            return Query(algorithm, rng.choice(self.rates))
        if tier == "surrogate":
            return Query(algorithm, rng.uniform(low, high))
        if tier == "model":
            return Query(algorithm, low * rng.uniform(0.2, 0.9))
        return Query(algorithm, high * rng.uniform(1.5, 3.0), "throughput")

    def _request(self, tier: str, rng: random.Random) -> tuple[str, int, str | None]:
        """``(path, expected status, expected tier)`` for one mix request."""
        _share, status, expected = MIX[tier]
        return _query_path(self._draw(tier, rng)), status, expected

    def _sim_path(self) -> str:
        """The next off-hull throughput query no store row answers yet."""
        self.sim_index += 1
        rate = self.rates[-1] * 1.3 + self.sim_index * 1e-6
        return _query_path(Query("nhop", rate, "throughput"))

    def _expect(self, port: int, path: str, status: int, tier: str | None):
        """One request; ``(ok, payload, seconds, connect seconds)``."""
        try:
            got, payload, seconds, connect_s = http_get(port, path)
        except (OSError, ValueError):
            return False, {}, 0.0, 0.0
        ok = got == status and (
            tier is None or payload.get("answer", {}).get("tier") == tier
        )
        return ok, payload, seconds, connect_s

    def _batch(self, requests: list) -> tuple[float, list, list, int]:
        """Closed loop: each client thread keeps one request in flight."""
        samples: list[list] = [[] for _ in range(self.clients)]

        def client(i: int) -> None:
            for request in requests[i::self.clients]:
                samples[i].append(self._expect(self.mix_port, *request))

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(self.clients)
        ]
        start = clock()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        seconds = clock() - start
        self.mix_connections += len(requests)
        done = [s for per_client in samples for s in per_client]
        return (
            seconds,
            [s[2] for s in done],
            [s[3] for s in done],
            len(requests) - sum(1 for s in done if s[0]),
        )

    def _resolve_in_process(self, rng: random.Random) -> dict:
        """Median in-process ``Resolver.resolve`` microseconds per tier —
        what an answer costs with no socket in front of it."""
        resolver = Resolver(CampaignDB.open(self.campaign))
        medians = {}
        for tier in MIX:
            times = []
            for _ in range(100):
                q = self._draw(tier, rng)
                start = clock()
                try:
                    resolver.resolve(q)
                except UnresolvedQueryError:
                    pass
                times.append(clock() - start)
            # The first call of a tier may fit the surrogate or the model.
            medians[tier] = statistics.median(times[1:]) * 1e6
        return medians

    def requests_for_pass(self, index: int) -> list[tuple[str, int, str | None]]:
        """The batch of pass *index*: a pure function of seed and index."""
        rng = random.Random(f"{self.seed}/mix/{index}")
        tiers = rng.choices(
            list(MIX), weights=[share for share, _, _ in MIX.values()],
            k=self.scale.http_batch,
        )
        return [self._request(tier, rng) for tier in tiers]

    def run_pass(self, index: int, tracer) -> PassResult:
        requests = self.requests_for_pass(index)
        child = self.children[0]
        start = clock()
        cpu_before = _cpu_seconds(child.pid)
        batch_s, latencies, connects, failed = self._batch(requests)
        cpu_s = _cpu_seconds(child.pid) - cpu_before

        def misses(payload: dict) -> int:
            return payload.get("answer", {}).get("detail", {}).get(
                "cache", {}).get("misses", -1)

        paths = [self._sim_path() for _ in range(self.scale.sim_queries)]
        fresh = [self._expect(self.sim_port, p, 200, "simulation") for p in paths]
        again = [self._expect(self.sim_port, p, 200, "simulation") for p in paths]
        failed += sum(1 for ok, *_ in fresh + again if not ok)
        sim_runs = misses(again[-1][1]) - misses(fresh[0][1]) + self.repeats
        checks = {
            "fresh_answers_simulated": sim_runs == self.repeats * len(paths),
            "repeats_run_no_simulation":
                misses(again[-1][1]) == misses(fresh[-1][1]),
            "children_alive": all(c.poll() is None for c in self.children),
        }
        facts = {
            "latencies": latencies,
            "connects": connects,
            "cpu_s": cpu_s,
            "requests": len(requests),
            "refused": sum(1 for _, status, _ in requests if status == 422),
            "sim_runs": sim_runs,
            "sim_rehit_ms": statistics.median(s[2] for s in again) * 1e3,
            "time_wait_at_start": self.time_wait_at_start,
        }
        wall_s = clock() - start
        if tracer is not None:
            facts["resolve_us"] = self._resolve_in_process(
                random.Random(f"{self.seed}/resolve/{index}")
            )
        return PassResult(
            wall_s=wall_s,
            work=len(requests),
            work_s=batch_s,
            cached_answer_ms=statistics.median(latencies) * 1e3,
            sim_answer_ms=statistics.median(s[2] for s in fresh) * 1e3,
            operations=len(requests) + 2 * len(paths),
            failed_operations=failed,
            checks=checks,
            facts=facts,
        )

    def layer_metrics(self, results, untraced) -> dict:
        shares = {tier: share for tier, (share, _, _) in MIX.items()}
        return serve_metrics([r.facts for r in results], shares)


WORKLOADS = {
    w.name: w
    for w in (Fig1Cold, Fig4Faulty, CampaignSmallCells, ServeHttpLoopback)
}
