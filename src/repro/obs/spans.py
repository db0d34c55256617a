"""Cross-layer trace spans: one causal timeline from HTTP to the engine.

A **span** is a named interval with a parent, collected into a **trace**
(one request, one figure run, one campaign).  Spans come in two kinds,
mirroring the project's two time bases:

* ``kind="clock"`` — wall-time spans stamped with the sanctioned
  monotonic timer (:data:`repro.obs.profile.clock`, lint rule REP016).
  Everything *outside* the simulator uses these: HTTP requests, resolver
  tiers, campaign cells, figure-driver phases, pool-worker jobs.
* ``kind="cycle"`` — simulated-time spans stamped with engine cycles.
  Anything derived from *inside* the simulator uses these (message
  lifecycles reconstructed from :class:`~repro.simulator.trace.Tracer`
  events, warmup/measure segments); the simulator itself never reads a
  wall clock (REP006), and lint rule REP017 keeps it that way by
  restricting simulator-scope imports of this module to the cycle-safe
  names in :data:`CYCLE_SAFE_NAMES`.

Determinism contract (REP008/REP011): ids carry **no wall-clock or
random material**.  A trace id is a short hash of caller-chosen
material (:func:`trace_id_from`); a span id is a hash of
``(trace_id, parent_id, name, key)`` (:func:`make_span_id`).  Two runs
of the same logical operation therefore produce the same id tree, and a
sharded run produces the same ids as a sequential one — which is what
makes :func:`merge_spans` partition-independent and
:func:`spans_merge_digest` a proof-of-equality value, exactly like
telemetry's ``merge_digest``.  Wall-clock *timings* are of course not
reproducible, so the digest covers the structural view only
(:func:`span_merge_view`): ids, names, parentage, and — for cycle
spans — the cycle stamps, which *are* deterministic.

Context crosses process boundaries one way: as the picklable
``(trace_id, span_id)`` pair, rebuilt on the other side as
``Trace(recorder, trace_id, span_id)``.  (Pool workers need none: the
parent records their cells' spans.)  A recorder is anything with
:meth:`SpanRecorder.add` — a :class:`SpanRecorder`, or a run's
:class:`~repro.obs.manifest.ManifestWriter`, which writes each span the
moment it closes.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

from repro.obs.manifest import ManifestWriter, read_jsonl
from repro.obs.profile import clock
from repro.store.keys import content_digest

__all__ = [
    "CYCLE_SAFE_NAMES",
    "SpanRecorder",
    "Trace",
    "make_span",
    "make_span_id",
    "merge_spans",
    "read_spans_jsonl",
    "render_waterfall",
    "span_merge_view",
    "spans_from_manifest",
    "spans_merge_digest",
    "trace_id_from",
    "write_spans_jsonl",
]

#: Names simulator-scope modules may import from this module (lint rule
#: REP017): pure id/construction helpers that never read a wall clock.
#: ``Trace``/``SpanRecorder`` stay out — their ``span()`` path calls
#: ``clock`` — as does anything file- or rendering-shaped, which has no
#: business on the hot path.
CYCLE_SAFE_NAMES = ("make_span", "make_span_id", "trace_id_from")


def trace_id_from(*material) -> str:
    """A deterministic trace id from caller-chosen JSON-safe material.

    Same material, same id — a serve request id always maps to the same
    trace, and re-running a campaign yields the same trace id (runs are
    distinguished by their recorded spans, not by id nonces; REP011
    forbids wall-clock/random id material).
    """
    return content_digest(["trace", *material], 16)


def make_span_id(
    trace_id: str, parent_id: str | None, name: str, key=None
) -> str:
    """A deterministic span id: position in the tree, not time of birth.

    *key* disambiguates siblings that share a name (e.g. repeated cells
    keyed by cell id); siblings with distinct names need none.  Ids are
    therefore identical between a sequential run and any sharding of it.
    """
    return content_digest(["span", trace_id, parent_id, name, key], 16)


def make_span(
    name: str,
    *,
    trace_id: str,
    parent_id: str | None = None,
    span_id: str | None = None,
    kind: str = "clock",
    start,
    end,
    key=None,
    attrs: dict | None = None,
) -> dict:
    """Build one finished span as a JSON-safe dict.

    ``kind="clock"`` stamps are :data:`~repro.obs.profile.clock` seconds;
    ``kind="cycle"`` stamps are simulation cycles.  This constructor does
    not read any clock itself, so it is safe anywhere (REP017).
    """
    if kind not in ("clock", "cycle"):
        raise ValueError(f"span kind must be 'clock' or 'cycle', not {kind!r}")
    if end < start:
        raise ValueError(f"span {name!r} ends ({end}) before it starts ({start})")
    return {
        "trace_id": trace_id,
        "span_id": (
            span_id
            if span_id is not None
            else make_span_id(trace_id, parent_id, name, key)
        ),
        "parent_id": parent_id,
        "name": name,
        "kind": kind,
        "start": start,
        "end": end,
        "attrs": dict(attrs) if attrs else {},
    }


class SpanRecorder:
    """An append-only collection of finished spans.

    Plain list semantics plus an optional *limit* (oldest spans drop
    first) for long-lived holders like the serve process, where only
    the event-loop thread touches it (no locking here).
    """

    __slots__ = ("spans", "limit")

    def __init__(self, spans=None, *, limit: int | None = None) -> None:
        self.spans: list[dict] = list(spans) if spans else []
        self.limit = limit

    def add(self, span: dict) -> dict:
        self.spans.append(span)
        if self.limit is not None and len(self.spans) > self.limit:
            del self.spans[: len(self.spans) - self.limit]
        return span

    def of_trace(self, trace_id: str) -> list[dict]:
        return [s for s in self.spans if s["trace_id"] == trace_id]

    def __len__(self) -> int:
        return len(self.spans)


class Trace:
    """A position in one trace: recorder + current parent span.

    ``Trace(recorder, trace_id)`` is the root position (children get
    ``parent_id=None``); :meth:`span` yields a child ``Trace`` whose
    ``attrs`` dict may be filled until the block exits.  The recorder
    receives each span as it closes: a :class:`SpanRecorder`, or a
    run's :class:`~repro.obs.manifest.ManifestWriter`.  The handle is
    cheap and immutable apart from ``attrs``; across a process boundary,
    ship ``(trace_id, span_id)`` and rebuild with
    ``Trace(recorder, trace_id, span_id)``.
    """

    __slots__ = ("recorder", "trace_id", "span_id", "attrs")

    def __init__(
        self,
        recorder: SpanRecorder | ManifestWriter,
        trace_id: str,
        span_id: str | None = None,
    ) -> None:
        self.recorder = recorder
        self.trace_id = trace_id
        self.span_id = span_id
        self.attrs: dict = {}

    @contextmanager
    def span(self, name: str, /, *, key=None, **attrs):
        """A clock-stamped child span around the ``with`` block.

        Yields the child :class:`Trace`; mutate its ``attrs`` inside the
        block to annotate the outcome (recorded at exit, even on an
        exception — a refused tier still leaves its span behind).
        """
        sid = make_span_id(self.trace_id, self.span_id, name, key)
        child = Trace(self.recorder, self.trace_id, sid)
        child.attrs.update(attrs)
        start = clock()
        try:
            yield child
        finally:
            self.recorder.add(
                make_span(
                    name,
                    trace_id=self.trace_id,
                    parent_id=self.span_id,
                    span_id=sid,
                    kind="clock",
                    start=start,
                    end=clock(),
                    attrs=child.attrs,
                )
            )

    def record(
        self, name: str, /, *, start, end, kind: str = "clock", key=None,
        **attrs,
    ) -> dict:
        """Record a finished child span post-hoc (explicit stamps)."""
        return self.recorder.add(
            make_span(
                name,
                trace_id=self.trace_id,
                parent_id=self.span_id,
                kind=kind,
                start=start,
                end=end,
                key=key,
                attrs=attrs,
            )
        )

    def cycle_span(
        self, name: str, *, start: int, end: int, key=None, **attrs
    ) -> dict:
        """Record a cycle-stamped child span (simulated time)."""
        return self.record(
            name, start=start, end=end, kind="cycle", key=key, **attrs
        )


# ----------------------------------------------------------------------
# Merge + digest (partition-independent, like telemetry)
# ----------------------------------------------------------------------
def merge_spans(*span_lists) -> list[dict]:
    """Union span lists into one, deduplicated by id and sorted.

    Deterministic span ids make this partition-independent: merging N
    shard span files yields the same list (same order, same ids) as the
    sequential run that recorded them in one process, wall timings
    aside.  Duplicate ids keep the last occurrence (a re-run of the same
    logical span supersedes the earlier record).
    """
    by_id: dict[tuple[str, str], dict] = {}
    for spans in span_lists:
        for span in spans:
            by_id[(span["trace_id"], span["span_id"])] = span
    return [by_id[key] for key in sorted(by_id)]


def span_merge_view(span: dict) -> dict:
    """The partition-independent slice of one span.

    Structure (ids, name, parentage, kind) always; stamps only for
    cycle spans, whose start/end are simulated time and therefore
    reproducible.  Clock stamps and attrs (worker pids, cache counters)
    vary run-to-run and are excluded — the gauge exclusion of
    telemetry's ``merge_view``, transplanted.
    """
    view = {
        key: span[key]
        for key in sorted(span)
        if key in ("trace_id", "span_id", "parent_id", "name", "kind")
    }
    if span["kind"] == "cycle":
        view["start"] = span["start"]
        view["end"] = span["end"]
    return view


def spans_merge_digest(spans) -> str:
    """Digest of the structural view — equal across any sharding."""
    views = sorted(
        (span_merge_view(s) for s in spans),
        key=lambda v: (v["trace_id"], v["span_id"]),
    )
    return content_digest(views, 16)


# ----------------------------------------------------------------------
# IO: JSONL files and manifest events
# ----------------------------------------------------------------------
def write_spans_jsonl(path, spans) -> int:
    """Write spans as JSON lines; returns the number written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
            count += 1
    return count


#: A span file is a JSONL file of span records.
read_spans_jsonl = read_jsonl


def spans_from_manifest(events) -> list[dict]:
    """Extract span records from manifest events (``event == "span"``)."""
    spans = []
    for event in events:
        if event.get("event") != "span":
            continue
        spans.append({k: v for k, v in event.items() if k not in ("event", "t")})
    return spans


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _format_duration(span: dict) -> str:
    if span["kind"] == "cycle":
        return f"{span['end'] - span['start']} cyc"
    seconds = span["end"] - span["start"]
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds:.2f}s"


def render_waterfall(spans, *, width: int = 40) -> str:
    """An ASCII waterfall of every trace in *spans*.

    Bars are positioned within per-trace, per-kind bounds (wall seconds
    and simulated cycles cannot share a scale); hierarchy shows as
    indentation in pre-order, siblings ordered by start then id.
    """
    spans = merge_spans(spans)
    if not spans:
        return "(no spans)"
    lines: list[str] = []
    trace_ids = sorted({s["trace_id"] for s in spans})
    for trace_id in trace_ids:
        trace_spans = [s for s in spans if s["trace_id"] == trace_id]
        ids = {s["span_id"] for s in trace_spans}
        children: dict[str | None, list[dict]] = {}
        for span in trace_spans:
            parent = span["parent_id"] if span["parent_id"] in ids else None
            children.setdefault(parent, []).append(span)
        for sibs in children.values():
            sibs.sort(key=lambda s: (s["start"], s["span_id"]))
        bounds: dict[str, tuple[float, float]] = {}
        for span in trace_spans:
            lo, hi = bounds.get(span["kind"], (span["start"], span["end"]))
            bounds[span["kind"]] = (min(lo, span["start"]), max(hi, span["end"]))
        lines.append(f"trace {trace_id} ({len(trace_spans)} spans)")
        name_width = min(
            36, max(len(s["name"]) + 2 * _depth(s, trace_spans) for s in trace_spans)
        )

        def walk(parent: str | None, depth: int) -> None:
            for span in children.get(parent, ()):
                lo, hi = bounds[span["kind"]]
                span_width = max(hi - lo, 1e-12)
                a = int((span["start"] - lo) / span_width * width)
                b = max(int((span["end"] - lo) / span_width * width), a + 1)
                bar = " " * a + "#" * (b - a) + " " * (width - b)
                label = ("  " * depth + span["name"])[:name_width]
                extras = ""
                if span["attrs"]:
                    extras = " " + " ".join(
                        f"{k}={span['attrs'][k]}" for k in sorted(span["attrs"])
                    )
                lines.append(
                    f"  {label:<{name_width}} |{bar}| "
                    f"{_format_duration(span)}{extras}"
                )
                walk(span["span_id"], depth + 1)

        walk(None, 0)
        lines.append("")
    return "\n".join(lines).rstrip("\n")


def _depth(span: dict, trace_spans: list[dict]) -> int:
    by_id = {s["span_id"]: s for s in trace_spans}
    depth = 0
    parent = span["parent_id"]
    while parent in by_id and depth < 32:
        depth += 1
        parent = by_id[parent]["parent_id"]
    return depth
