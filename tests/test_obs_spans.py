"""Cross-layer trace spans (`repro.obs.spans`): deterministic ids,
partition-independent merge + digest, explicit context propagation
through pool workers, IO round-trips, and rendering."""

import json

import pytest

from repro.experiments.fig_sweep import run_sweep
from repro.experiments.profiles import SMOKE_PROFILE
from repro.obs.manifest import ManifestWriter, read_jsonl
from repro.obs.spans import (
    SpanRecorder,
    Trace,
    make_span,
    make_span_id,
    merge_spans,
    read_spans_jsonl,
    render_waterfall,
    span_merge_view,
    spans_from_manifest,
    spans_merge_digest,
    trace_id_from,
    write_spans_jsonl,
)
from repro.obs.trace_export import spans_chrome_trace, write_spans_trace


class TestIds:
    def test_trace_id_is_deterministic(self):
        assert trace_id_from("serve", "req-1") == trace_id_from("serve", "req-1")
        assert trace_id_from("serve", "req-1") != trace_id_from("serve", "req-2")
        assert len(trace_id_from("x")) == 16

    def test_span_id_depends_on_position_not_time(self):
        a = make_span_id("t1", None, "cell", key="c1")
        assert a == make_span_id("t1", None, "cell", key="c1")
        assert a != make_span_id("t1", None, "cell", key="c2")
        assert a != make_span_id("t1", "parent", "cell", key="c1")
        assert a != make_span_id("t2", None, "cell", key="c1")

    def test_make_span_rejects_bad_kind_and_negative_duration(self):
        # Every span is clock-stamped: there is no kind to choose.
        with pytest.raises(TypeError, match="kind"):
            make_span("x", trace_id="t", kind="cycle", start=0, end=1)
        assert make_span("x", trace_id="t", start=0, end=1)["kind"] == "clock"
        with pytest.raises(ValueError, match="ends"):
            make_span("x", trace_id="t", start=5, end=4)


class TestTraceAndRecorder:
    def test_span_records_at_exit_with_attrs(self):
        rec = SpanRecorder()
        trace = Trace(rec, trace_id_from("t"))
        with trace.span("tier.store", outcome="pending") as child:
            child.attrs["outcome"] = "answered"
        assert len(rec) == 1
        span = rec.spans[0]
        assert span["name"] == "tier.store"
        assert span["attrs"]["outcome"] == "answered"
        assert span["parent_id"] is None
        assert span["end"] >= span["start"]

    def test_span_records_even_on_exception(self):
        rec = SpanRecorder()
        trace = Trace(rec, "t")
        with pytest.raises(RuntimeError):
            with trace.span("tier.model"):
                raise RuntimeError("refused")
        assert [s["name"] for s in rec.spans] == ["tier.model"]

    def test_nested_spans_build_the_parent_chain(self):
        rec = SpanRecorder()
        trace = Trace(rec, "t")
        with trace.span("http.request") as req:
            with req.span("tier.simulation") as tier:
                with tier.span("engine.run"):
                    pass
        by_name = {s["name"]: s for s in rec.spans}
        assert by_name["engine.run"]["parent_id"] == (
            by_name["tier.simulation"]["span_id"]
        )
        assert by_name["tier.simulation"]["parent_id"] == (
            by_name["http.request"]["span_id"]
        )

    def test_recorder_limit_drops_oldest(self):
        rec = SpanRecorder(limit=2)
        for i in range(4):
            rec.add(make_span(f"s{i}", trace_id="t", start=i, end=i))
        assert [s["name"] for s in rec.spans] == ["s2", "s3"]

    def test_of_trace_filters(self):
        rec = SpanRecorder()
        rec.add(make_span("a", trace_id="t1", start=0, end=1))
        rec.add(make_span("b", trace_id="t2", start=0, end=1))
        assert [s["name"] for s in rec.of_trace("t2")] == ["b"]


class TestIdsDerivedOnRead:
    """Spans record positions; the ids a recorder hands out are the ones
    the eager constructors build from the same positions."""

    def test_recorded_spans_equal_eagerly_built_ones(self):
        rec = SpanRecorder()
        root = Trace.root(rec, "serve", "req-7")
        with root.span("http.request", method="GET") as req:
            with req.span("tier.store") as store:
                with store.span("store.get", key="row-1"):
                    pass
                with store.span("store.get", key="row-2") as sibling:
                    sibling.attrs["hit"] = True
            with pytest.raises(RuntimeError):
                with req.span("tier.model"):
                    raise RuntimeError("refused")
            req.child("tier.simulation").record(
                "engine.run", start=1.0, end=2.0, n_runs=3
            )
            req.record("tier.simulation", start=0.5, end=2.5,
                       outcome="answered")
        resumed = Trace(rec, "t-explicit", "s-explicit")
        with resumed.span("cell", key="c1"):
            pass
        got = rec.spans

        tid = trace_id_from("serve", "req-7")
        http = make_span_id(tid, None, "http.request")
        store_id = make_span_id(tid, http, "tier.store")
        sim = make_span_id(tid, http, "tier.simulation")
        stamps = iter((s["start"], s["end"]) for s in got)

        def eager(name, trace_id, parent_id, *, key=None, attrs=None):
            start, end = next(stamps)
            return make_span(name, trace_id=trace_id, parent_id=parent_id,
                             start=start, end=end, key=key, attrs=attrs)

        assert got == [
            eager("store.get", tid, store_id, key="row-1"),
            eager("store.get", tid, store_id, key="row-2",
                  attrs={"hit": True}),
            eager("tier.store", tid, http),
            eager("tier.model", tid, http),
            eager("engine.run", tid, sim, attrs={"n_runs": 3}),
            eager("tier.simulation", tid, http,
                  attrs={"outcome": "answered"}),
            eager("http.request", tid, None, attrs={"method": "GET"}),
            eager("cell", "t-explicit", "s-explicit", key="c1"),
        ]
        assert (got[5]["start"], got[5]["end"]) == (0.5, 2.5)
        assert [s["trace_id"] for s in rec.of_trace(tid)] == [tid] * 7
        assert (root.trace_id, root.span_id) == (tid, None)
        assert (req.trace_id, req.span_id) == (tid, http)

    def test_record_refuses_bad_stamps_when_recorded(self):
        trace = Trace.root(SpanRecorder(), "t")
        with pytest.raises(ValueError, match="ends"):
            trace.record("x", start=5, end=4)
        assert len(trace.recorder) == 0

    def test_a_recorder_given_more_than_its_limit_keeps_the_newest(self):
        spans = [make_span(f"s{i}", trace_id="t", start=i, end=i)
                 for i in range(5)]
        rec = SpanRecorder(spans, limit=3)
        assert len(rec) == 3
        assert [s["name"] for s in rec.spans] == ["s2", "s3", "s4"]

    def test_a_manifest_holds_each_span_once_its_block_exits(self, tmp_path):
        path = tmp_path / "run.jsonl"
        tid = trace_id_from("figure", "fig1")
        with ManifestWriter(path) as manifest:
            trace = Trace(manifest, tid)
            with trace.span("fig1") as fig:
                with fig.span("cell.nhop", key="nhop"):
                    pass
                written = spans_from_manifest(read_jsonl(path))
                assert [s["name"] for s in written] == ["cell.nhop"]
                assert written[0]["span_id"] == make_span_id(
                    tid, make_span_id(tid, None, "fig1"), "cell.nhop",
                    "nhop",
                )
            assert [s["name"] for s in
                    spans_from_manifest(read_jsonl(path))] == [
                "cell.nhop", "fig1",
            ]
            assert manifest.spans == spans_from_manifest(read_jsonl(path))


class TestMergeAndDigest:
    def _cells(self, ids):
        trace = trace_id_from("campaign", "eq")
        root = make_span_id(trace, None, "campaign")
        return [
            make_span("cell", trace_id=trace, parent_id=root,
                      start=float(i), end=float(i + 1), key=cid,
                      attrs={"pid": i})
            for i, cid in enumerate(ids)
        ]

    def test_merge_is_partition_independent(self):
        cells = self._cells(["a", "b", "c", "d"])
        sequential = merge_spans(cells)
        sharded = merge_spans(cells[0::2], cells[1::2])
        assert [s["span_id"] for s in sequential] == [
            s["span_id"] for s in sharded
        ]
        assert spans_merge_digest(sequential) == spans_merge_digest(sharded)

    def test_merge_dedups_last_wins(self):
        first = make_span("cell", trace_id="t", start=0, end=1, key="c")
        rerun = make_span("cell", trace_id="t", start=5, end=9, key="c")
        merged = merge_spans([first], [rerun])
        assert len(merged) == 1
        assert merged[0]["start"] == 5

    def test_view_is_structure_without_stamps_or_attrs(self):
        span = make_span("a", trace_id="t", start=1.5, end=2.5,
                         attrs={"pid": 7})
        assert span_merge_view(span) == {
            "kind": "clock", "name": "a", "parent_id": None,
            "span_id": span["span_id"], "trace_id": "t",
        }

    def test_digest_ignores_timings_and_attrs(self):
        one = self._cells(["a", "b"])
        two = [
            dict(s, start=s["start"] + 7.0, end=s["end"] + 7.5,
                 attrs={"pid": 99})
            for s in one
        ]
        assert spans_merge_digest(one) == spans_merge_digest(two)


class TestDriverPartitionIndependence:
    """run_sweep under a parent Trace: workers must not change the
    digest, and the cells hang off the parent the caller passed."""

    def test_sequential_equals_pooled(self):
        algs = ("nhop", "duato-nbc")
        trace_id = trace_id_from("test", "sweep")
        root = make_span_id(trace_id, None, "root")
        digests = []
        for workers in (1, 2):
            spans = SpanRecorder()
            run_sweep(SMOKE_PROFILE, algs, workers=workers,
                      trace=Trace(spans, trace_id, root))
            assert {s["name"] for s in spans.spans} == {
                f"cell.{a}" for a in algs
            }
            assert {s["parent_id"] for s in spans.spans} == {root}
            digests.append(spans_merge_digest(spans.spans))
        assert digests[0] == digests[1]


class TestIO:
    def test_jsonl_round_trip(self, tmp_path):
        spans = [make_span("a", trace_id="t", start=0, end=1)]
        path = tmp_path / "spans.jsonl"
        assert write_spans_jsonl(path, spans) == 1
        assert read_spans_jsonl(path) == spans

    def test_torn_final_line_skipped_with_warning(self, tmp_path):
        spans = [make_span("a", trace_id="t", start=0, end=1)]
        path = tmp_path / "spans.jsonl"
        write_spans_jsonl(path, spans)
        with path.open("a") as fh:
            fh.write('{"trace_id": "t", "torn')
        with pytest.warns(UserWarning, match="torn final line"):
            assert read_spans_jsonl(path) == spans

    def test_corrupt_interior_line_raises(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        path.write_text('not json\n{"trace_id": "t"}\n')
        with pytest.raises(ValueError, match=r"spans\.jsonl:1: bad JSONL line"):
            read_spans_jsonl(path)

    def test_spans_from_manifest_strips_envelope(self):
        span = make_span("a", trace_id="t", start=0, end=1)
        events = [
            {"event": "run", "phase": "start", "t": 0.0},
            {"event": "span", "t": 1.0, **span},
            {"event": "cell", "phase": "finish", "t": 2.0, "id": "x"},
        ]
        assert spans_from_manifest(events) == [span]


class TestExportAndRender:
    def _trace(self):
        rec = SpanRecorder()
        trace = Trace(rec, trace_id_from("demo"))
        with trace.span("http.request") as req:
            with req.span("tier.simulation"):
                pass
        return rec.spans

    def test_chrome_trace_is_one_clock_row_from_zero(self):
        payload = spans_chrome_trace(self._trace())
        events = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert len(events) == 2
        assert {(e["pid"], e["tid"], e["cat"]) for e in events} == {
            (1, 0, "clock")
        }
        ts = {e["name"]: e["ts"] for e in events}
        assert ts["http.request"] == 0 <= ts["tier.simulation"]

    def test_write_spans_trace_dispatches_on_suffix(self, tmp_path):
        spans = self._trace()
        n = write_spans_trace(tmp_path / "t.jsonl", spans)
        assert n == len(read_spans_jsonl(tmp_path / "t.jsonl"))
        write_spans_trace(tmp_path / "t.json", spans)
        chrome = json.loads((tmp_path / "t.json").read_text())
        assert "traceEvents" in chrome

    def test_waterfall_indents_children_and_shows_durations(self):
        text = render_waterfall(self._trace())
        lines = text.splitlines()
        assert lines[0].startswith("trace ")
        root_line = next(li for li in lines if "http.request" in li)
        child_line = next(li for li in lines if "tier.simulation" in li)
        assert child_line.index("tier") > root_line.index("http")
        assert root_line.endswith("us") or root_line.endswith("ms")

    def test_waterfall_empty(self):
        assert render_waterfall([]) == "(no spans)"
