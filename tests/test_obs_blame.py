"""Per-message latency blame (`repro.obs.blame`): components partition
each message's latency, aggregates reconcile with telemetry, and the
attached engine is bit-identical to a detached twin (PR 10 acceptance:
fault-free and 5%-fault 10x10 runs)."""

from dataclasses import replace

import pytest

from repro.obs.bench import engine_state, instrumented_run, workload_plan
from repro.obs.blame import (
    COMPONENTS,
    BlameRecorder,
    aggregate_blame,
    blame_cell,
    blame_csv,
    blame_payload,
    reconcile_blame,
    render_blame_report,
    top_slow,
)
from repro.obs.telemetry import EngineTelemetry, TelemetryRegistry
from repro.simulator.engine import EVENTS


def _params(**overrides) -> dict:
    params = {
        "algorithm": "duato-nbc", "width": 10, "vcs": 24,
        "message_length": 16, "rate": 0.02, "warm": 200, "cycles": 400,
        "seed": 7, "faults": 0,
    }
    params.update(overrides)
    return params


def _plan(params):
    """As ``obs blame`` runs a workload: attached from cycle 0."""
    return replace(workload_plan(params), warm=0)


def _run_with_blame(params):
    registry = TelemetryRegistry()
    recorder = BlameRecorder()
    sim = instrumented_run(
        _plan(params), EngineTelemetry(registry), recorder
    ).sim
    return sim, recorder, registry


class TestReconciliation:
    """The acceptance invariant, fault-free and at 5% faults (10x10)."""

    @pytest.fixture(scope="class", params=[0, 5], ids=["fault-free", "5pct"])
    def run(self, request):
        params = _params(faults=request.param)
        return params, *_run_with_blame(params)

    def test_messages_recorded(self, run):
        _, _, recorder, _ = run
        assert len(recorder) > 50

    def test_components_partition_latency(self, run):
        _, _, recorder, _ = run
        for rec in recorder.records:
            assert sum(rec[c] for c in COMPONENTS) == rec["latency"]
            for component in COMPONENTS:
                assert rec[component] >= 0, (rec["id"], component)

    def test_reconciles_with_telemetry(self, run):
        _, _, recorder, registry = run
        assert reconcile_blame(recorder, registry) == []

    def test_blocked_events_match_counter_exactly(self, run):
        _, _, recorder, registry = run
        assert recorder.blocked_events == registry.value(
            "engine.headers.blocked_cycles"
        )

    def test_latency_mass_matches_histogram(self, run):
        _, _, recorder, registry = run
        hist = registry.get("engine.latency")
        assert len(recorder.records) == hist.total
        assert sum(r["latency"] for r in recorder.records) == hist.sum

    def test_hops_never_below_minimal(self, run):
        _, _, recorder, _ = run
        for rec in recorder.records:
            assert rec["min_hops"] is not None
            assert rec["hops"] >= rec["min_hops"]

    def test_faulty_run_sees_ring_detours(self):
        params = _params(faults=5, rate=0.03, warm=300, cycles=600)
        _, recorder, _ = _run_with_blame(params)
        agg = aggregate_blame(recorder.records)
        # Some message met a fault ring: detour cycles or excess hops.
        assert (
            agg["components"]["f_ring_detour"] > 0
            or agg["hops_sum"] > agg["min_hops_sum"]
        )


class TestWormholeModel:
    def test_contention_free_recovers_d_plus_l_minus_1(self):
        """The classic wormhole model ``d + (L-1)`` is the floor for
        unblocked messages, and at light load some messages achieve it
        exactly: route_compute == d (hops taken), data_pipeline ==
        L - 1 (pure serialization, no switch-allocation waits)."""
        length = 16
        params = _params(
            algorithm="nhop", rate=0.002, faults=0, warm=100, cycles=300,
            seed=3,
        )
        _, recorder, _ = _run_with_blame(params)
        clean = [
            r for r in recorder.records
            if r["source_queue"] == 0 and r["header_blocked"] == 0
            and r["f_ring_detour"] == 0
        ]
        assert clean, "expected uncontended messages at 0.002 load"
        for rec in clean:
            assert rec["route_compute"] == rec["hops"]
            # Body contention can stretch the pipeline, never shrink it.
            assert rec["data_pipeline"] >= length - 1
        exact = [r for r in clean if r["data_pipeline"] == length - 1]
        assert exact, "some message should see zero body contention"
        for rec in exact:
            assert rec["latency"] == rec["hops"] + length - 1


class TestDetachedTwin:
    def test_blame_hook_is_bit_identical_when_detached(self):
        """Attached vs detached: same results, same RNG streams."""
        params = _params(faults=5)
        attached, _, _ = _run_with_blame(params)
        twin = instrumented_run(_plan(params)).sim
        assert not any(getattr(twin, "_on_" + event) for event in EVENTS)
        assert twin.cycle == attached.cycle == 600
        assert engine_state(attached) == engine_state(twin)


class TestRecorder:
    def test_dropped_messages_leave_no_record(self):
        recorder = BlameRecorder()

        class Msg:
            id = 9
            src, dst, created, injected, hops, ring = 0, 5, 0, 1, 0, None

        recorder.blocked(3, Msg, 0)
        recorder.dropped(4, Msg, False)
        assert recorder.records == []
        assert recorder.blocked_events == 1  # unconditional, like telemetry
        assert recorder._blocked == {}

    def test_bind_mesh_first_binding_wins(self):
        recorder = BlameRecorder(mesh="first")

        class Sim:
            mesh = "second"

        recorder.bind(Sim)
        assert recorder.mesh == "first"


class TestReports:
    @pytest.fixture(scope="class")
    def cell(self):
        params = _params()
        _, recorder, _ = _run_with_blame(params)
        return blame_cell("engine_test", params["algorithm"],
                          params["faults"], recorder)

    def test_top_slow_orders_by_latency_then_id(self, cell):
        slow = top_slow(cell["records"], 5)
        assert len(slow) == 5
        latencies = [r["latency"] for r in slow]
        assert latencies == sorted(latencies, reverse=True)

    def test_shares_sum_to_one(self, cell):
        shares = cell["aggregate"]["shares"]
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_render_names_every_component(self, cell):
        text = render_blame_report([cell])
        for component in COMPONENTS:
            assert component in text
        assert "top" in text and "engine_test" in text

    def test_csv_one_row_per_component(self, cell):
        lines = blame_csv([cell]).strip().splitlines()
        assert len(lines) == 1 + len(COMPONENTS)
        assert lines[0].startswith("label,algorithm,n_faults")

    def test_payload_shape(self, cell):
        payload = blame_payload([cell], top=3)
        assert payload["kind"] == "blame-report"
        assert payload["components"] == list(COMPONENTS)
        assert len(payload["cells"][0]["top_slow"]) == 3
