"""Tests for repro.obs.trace_export and deterministic trace sampling."""

import json

import pytest

from repro.obs.telemetry import TelemetryRegistry
from repro.obs.trace_export import (
    chrome_trace,
    jsonl_lines,
    lifecycle_tracer,
    write_chrome_trace,
    write_jsonl,
    write_trace,
)
from repro.routing.registry import make_algorithm
from repro.simulator.config import SimConfig
from repro.simulator.engine import Simulation
from repro.simulator.trace import Tracer


def _traced_run(sample=1, **overrides):
    base = dict(
        width=5,
        vcs_per_channel=16,
        message_length=6,
        injection_rate=0.02,
        cycles=500,
        warmup=0,
        seed=21,
        on_deadlock="drain",
    )
    base.update(overrides)
    sim = Simulation(SimConfig(**base), make_algorithm("nhop"))
    tracer = lifecycle_tracer(sample=sample)
    sim.attach(tracer)
    result = sim.run()
    return tracer, result


# ----------------------------------------------------------------------
# Chrome trace schema
# ----------------------------------------------------------------------
def test_chrome_trace_schema():
    tracer, result = _traced_run()
    trace = chrome_trace(tracer, label="unit")
    assert set(trace) == {"traceEvents", "displayTimeUnit", "otherData"}
    events = trace["traceEvents"]
    assert events, "a delivering run must produce events"
    for ev in events:
        assert {"name", "ph", "pid", "tid"} <= set(ev)
        assert ev["ph"] in {"X", "i", "M", "C"}
        if ev["ph"] != "M":
            assert isinstance(ev["ts"], int) and ev["ts"] >= 0
        if ev["ph"] == "X":
            assert ev["dur"] >= 0
            assert ev["args"]["outcome"] in {"deliver", "deadlock", "livelock"}
    # One complete slice per delivered message (sample=1, nothing in flight
    # is sliced).
    slices = [e for e in events if e["ph"] == "X"]
    delivered_ids = {e["tid"] for e in slices
                     if e["args"]["outcome"] == "deliver"}
    assert len(delivered_ids) == result.delivered
    # The whole trace must be JSON-serializable.
    json.dumps(trace)


def test_chrome_trace_counter_samples():
    tracer, _ = _traced_run()
    reg = TelemetryRegistry()
    reg.counter("engine.flits.hops").inc(7)
    trace = chrome_trace(tracer, telemetry_snapshot=reg.snapshot())
    counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
    last_cycle = tracer.events[-1][0]  # the counters' values as it ends
    assert counters == [{
        "name": "engine.flits.hops", "ph": "C", "ts": last_cycle, "pid": 0,
        "tid": 0, "args": {"value": 7},
    }]


def test_chrome_trace_accepts_raw_events():
    events = [
        (0, "inject", 1, 0, None),
        (3, "alloc", 1, 0, (1, 2)),
        (9, "deliver", 1, 4, None),
    ]
    trace = chrome_trace(events)
    slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert len(slices) == 1
    assert slices[0]["ts"] == 0 and slices[0]["dur"] == 9
    alloc = next(e for e in trace["traceEvents"] if e["name"] == "alloc@0")
    assert alloc["args"] == {"node": 0, "port": 1, "vc": 2}


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def test_jsonl_round_trip():
    tracer, _ = _traced_run()
    lines = list(jsonl_lines(tracer))
    assert len(lines) == len(tracer)
    for line in lines:
        obj = json.loads(line)
        assert {"cycle", "kind", "msg", "node"} <= set(obj)


def test_writers_and_dispatch(tmp_path):
    tracer, _ = _traced_run()
    chrome = tmp_path / "t.json"
    jsonl = tmp_path / "t.jsonl"
    n_chrome = write_trace(chrome, tracer, label="x")
    n_jsonl = write_trace(jsonl, tracer)
    assert n_jsonl == len(tracer)
    assert n_chrome > 0
    assert json.loads(chrome.read_text())["otherData"]["label"] == "x"
    assert len(jsonl.read_text().splitlines()) == n_jsonl
    assert write_chrome_trace(tmp_path / "c.json", tracer) == n_chrome
    assert write_jsonl(tmp_path / "e.jsonl", tracer) == n_jsonl


# ----------------------------------------------------------------------
# Sampling
# ----------------------------------------------------------------------
def test_tracer_rejects_bad_sample():
    with pytest.raises(ValueError):
        Tracer(sample=0)


def test_sampling_is_deterministic_and_a_subset():
    full, _ = _traced_run(sample=1)
    sampled_a, _ = _traced_run(sample=4)
    sampled_b, _ = _traced_run(sample=4)
    # Same seed, same sample -> identical event streams.
    assert list(sampled_a.events) == list(sampled_b.events)
    # Sampled events are exactly the full run's events of msg_id % 4 == 0.
    expected = [e for e in full.events if e[2] % 4 == 0]
    assert list(sampled_a.events) == expected
    assert 0 < len(sampled_a) < len(full)


def test_sampled_chrome_trace_only_has_sampled_tids():
    sampled, _ = _traced_run(sample=3)
    trace = chrome_trace(sampled)
    tids = {e["tid"] for e in trace["traceEvents"] if e["ph"] in ("X", "i")}
    assert tids and all(tid % 3 == 0 for tid in tids)


def test_obs_smoke_traces_one_run_so_each_id_is_injected_once(
    tmp_path, capsys
):
    """The one lifecycle export on a command line traces one run: its
    message ids are unique, so no id is injected twice."""
    from collections import Counter

    from repro.obs.cli import main as obs_main

    path = tmp_path / "x.jsonl"
    assert obs_main(["smoke", "--cycles", "800", "--trace-out", str(path)]) == 0
    events = [json.loads(line) for line in path.read_text().splitlines()]
    injects = Counter(e["msg"] for e in events if e["kind"] == "inject")
    assert injects and max(injects.values()) == 1
