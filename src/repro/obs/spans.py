"""Cross-layer trace spans: one causal timeline from HTTP to the engine.

A **span** is a named interval with a parent, collected into a **trace**
(one request, one figure run, one campaign).  Every span is wall time,
stamped with the sanctioned monotonic timer
(:data:`repro.obs.profile.clock`, lint rule REP016), and records its
``"kind"`` as ``"clock"``: HTTP requests, resolver tiers, campaign
cells, figure-driver phases, pool-worker jobs.  Simulated time stays
inside the engine, which never reads a wall clock (REP006) and may not
import this module at all (REP003, REP017); what happens inside a run
is observed through its telemetry and lifecycle tracer instead.

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
(:func:`span_merge_view`): ids, names and parentage.

Ids are derived when a span is **read**, not when it closes: a
:class:`Trace` position holds its parent, name and key (a root its id
material, or explicit ids), and derives ``trace_id``/``span_id`` through
the two functions above on first access, caching them.  Recording a
span therefore costs two clock readings and no hashing; the values are
the ones an eager hash would give.

Context crosses process boundaries one way: as the picklable
``(trace_id, span_id)`` pair, rebuilt on the other side as
``Trace(recorder, trace_id, span_id)``.  (Pool workers need none: the
parent records their cells' spans.)  A recorder is anything with
:meth:`SpanRecorder.add` — a :class:`SpanRecorder`, which keeps the
closed spans and builds their dicts only when read (the serve process's
``/trace`` store), or a run's :class:`~repro.obs.manifest.
ManifestWriter`, which builds and writes each span the moment it closes.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path

from repro.obs.manifest import ManifestWriter, read_jsonl
from repro.obs.profile import clock
from repro.store.keys import content_digest

__all__ = [
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
    start,
    end,
    key=None,
    attrs: dict | None = None,
) -> dict:
    """Build one finished span as a JSON-safe dict; its stamps are
    :data:`~repro.obs.profile.clock` seconds."""
    _check_stamps(name, start, end)
    return {
        "trace_id": trace_id,
        "span_id": (
            span_id
            if span_id is not None
            else make_span_id(trace_id, parent_id, name, key)
        ),
        "parent_id": parent_id,
        "name": name,
        "kind": "clock",
        "start": start,
        "end": end,
        "attrs": dict(attrs) if attrs else {},
    }


def _check_stamps(name: str, start, end) -> None:
    if end < start:
        raise ValueError(f"span {name!r} ends ({end}) before it starts ({start})")


class SpanRecorder:
    """An append-only collection of finished spans, read as span dicts.

    :meth:`add` takes a finished span dict or a closed :class:`Trace`
    span, which holds its position and stamps only: its ids are derived
    (and its dict built through :func:`make_span`) when :attr:`spans` or
    :meth:`of_trace` reads it.  With a *limit* only the newest *limit*
    spans are kept (oldest drop first), for long-lived holders like the
    serve process, where only the event-loop thread touches it (no
    locking here).
    """

    __slots__ = ("_spans",)

    def __init__(self, spans=None, *, limit: int | None = None) -> None:
        self._spans: deque = deque(spans or (), maxlen=limit)

    def add(self, span):
        self._spans.append(span)
        return span

    @property
    def spans(self) -> list[dict]:
        """Every kept span as a dict, oldest first."""
        return [_as_dict(span) for span in self._spans]

    def of_trace(self, trace_id: str) -> list[dict]:
        """The kept spans of one trace, oldest first.

        A closed span's trace id is its root's, derived once per root,
        so only the matching spans have their span ids derived.
        """
        return [
            _as_dict(span) for span in self._spans
            if (span["trace_id"] if type(span) is dict
                else span.node.trace_id) == trace_id
        ]

    def __len__(self) -> int:
        return len(self._spans)


def _as_dict(span) -> dict:
    return span if type(span) is dict else span.as_dict()


#: ``Trace._span_id`` of a child position whose id is not derived yet
#: (a root's span id may be ``None``).
_UNDERIVED = object()


class Trace:
    """A position in one trace: recorder + current parent span.

    ``Trace(recorder, trace_id)`` is the root position (children get
    ``parent_id=None``), and :meth:`root` builds the same position from
    the material of :func:`trace_id_from`; :meth:`span` opens a child
    whose ``attrs`` dict may be filled until the block exits.  A child
    holds its parent, name and key, not its ids: ``trace_id`` and
    ``span_id`` are derived on first read (the values
    :func:`trace_id_from`/:func:`make_span_id` give, then cached), so
    recording a span costs no hashing until someone reads it.

    The recorder receives each span as it closes: a
    :class:`SpanRecorder`, which keeps it as is, or a run's
    :class:`~repro.obs.manifest.ManifestWriter`, which builds and writes
    its dict at once.  The handle is cheap and immutable apart from
    ``attrs``; across a process boundary, ship ``(trace_id, span_id)``
    and rebuild with ``Trace(recorder, trace_id, span_id)``.
    """

    __slots__ = (
        "recorder", "attrs", "_parent", "_name", "_key", "_material",
        "_trace_id", "_span_id",
    )

    def __init__(
        self,
        recorder: SpanRecorder | ManifestWriter,
        trace_id: str,
        span_id: str | None = None,
    ) -> None:
        self.recorder = recorder
        self.attrs: dict = {}
        self._parent = None
        self._trace_id = trace_id
        self._span_id = span_id

    @classmethod
    def root(cls, recorder: SpanRecorder | ManifestWriter, *material) -> Trace:
        """The root position of ``trace_id_from(*material)``, derived
        when first read."""
        root = cls(recorder, None)
        root._material = material
        return root

    def child(self, name: str, /, *, key=None, **attrs) -> Trace:
        """The child position *name* (keyed by *key*), no span opened."""
        child = Trace.__new__(Trace)
        child.recorder = self.recorder
        child.attrs = attrs
        child._parent = self
        child._name = name
        child._key = key
        child._trace_id = None
        child._span_id = _UNDERIVED
        return child

    @property
    def trace_id(self) -> str:
        trace_id = self._trace_id
        if trace_id is None:
            parent = self._parent
            trace_id = self._trace_id = (
                trace_id_from(*self._material) if parent is None
                else parent.trace_id
            )
        return trace_id

    @property
    def span_id(self) -> str | None:
        span_id = self._span_id
        if span_id is _UNDERIVED:
            parent = self._parent
            span_id = self._span_id = make_span_id(
                parent.trace_id, parent.span_id, self._name, self._key
            )
        return span_id

    def span(self, name: str, /, *, key=None, **attrs) -> _Span:
        """A clock-stamped child span around the ``with`` block.

        Yields the child :class:`Trace`; mutate its ``attrs`` inside the
        block to annotate the outcome (recorded at exit, even on an
        exception — a refused tier still leaves its span behind).
        """
        return _Span(self.child(name, key=key, **attrs))

    def record(self, name: str, /, *, start, end, key=None, **attrs):
        """Record a finished child span post-hoc (explicit stamps);
        returns what the recorder returns for it."""
        _check_stamps(name, start, end)
        return self.recorder.add(
            _Span(self.child(name, key=key, **attrs), start, end)
        )


class _Span:
    """One child span: its :class:`Trace` position and its stamps.

    As returned by :meth:`Trace.span` it is the ``with`` block that
    stamps and records it; once closed it is what a recorder receives,
    read field by field (``span["name"]``) or whole (:meth:`as_dict`).
    """

    __slots__ = ("node", "start", "end")

    def __init__(self, node: Trace, start=None, end=None) -> None:
        self.node = node
        self.start = start
        self.end = end

    def __enter__(self) -> Trace:
        self.start = clock()
        return self.node

    def __exit__(self, *exc) -> None:
        self.end = clock()
        self.node.recorder.add(self)

    def as_dict(self) -> dict:
        """The finished span, ids derived (see :func:`make_span`)."""
        node = self.node
        parent = node._parent
        return make_span(
            node._name,
            trace_id=parent.trace_id,
            parent_id=parent.span_id,
            span_id=node.span_id,
            start=self.start,
            end=self.end,
            attrs=node.attrs,
        )

    def __getitem__(self, field: str):
        return self.as_dict()[field]


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

    Structure (ids, name, parentage, kind) only: stamps and attrs
    (worker pids, cache counters) vary run-to-run and are excluded.
    """
    return {
        key: span[key]
        for key in sorted(span)
        if key in ("trace_id", "span_id", "parent_id", "name", "kind")
    }


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
    seconds = span["end"] - span["start"]
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds:.2f}s"


def render_waterfall(spans, *, width: int = 40) -> str:
    """An ASCII waterfall of every trace in *spans*.

    Bars are positioned within per-trace bounds; hierarchy shows as
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
        lo = min(s["start"] for s in trace_spans)
        span_width = max(max(s["end"] for s in trace_spans) - lo, 1e-12)
        lines.append(f"trace {trace_id} ({len(trace_spans)} spans)")
        name_width = min(
            36, max(len(s["name"]) + 2 * _depth(s, trace_spans) for s in trace_spans)
        )

        def walk(parent: str | None, depth: int) -> None:
            for span in children.get(parent, ()):
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
