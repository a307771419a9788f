"""Spans around each layer's public entry point, and the arithmetic on them.

The traced run wraps the functions each layer's caller looks up (see
:data:`LAYERS`) from outside the program: ``repro`` itself is not
edited.  Every call becomes a :class:`Span` with its name, start, end,
parent span and request id.  Spans are appended to an in-memory list
and written out once, when the run ends.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (children may run on another thread, so
the covered part is the union of their intervals, clipped to the
parent).
"""

from __future__ import annotations

import gc
import importlib
import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter

#: Root span of one client request; its children are the top-level layers.
OP = "op"
#: Pause of a generation-2 garbage collection (no parent, no request id).
GC_GEN2 = "gc.gen2"
#: Submit-to-start wait of a job handed to ``TaskPool.submit``.
QUEUE_WAIT = "service.queue_wait"
#: The job itself, on whichever thread the pool ran it.
SERVICE_RUN = "service.run"


@dataclass(frozen=True, slots=True)
class Span:
    """One timed call: ``outcome`` is ``hit``/``miss`` or an exception name."""

    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    rid: int | None
    outcome: str = ""
    nbytes: int = 0


class Tracer:
    """Collects spans from every thread; the parent link is per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._gc_start = 0.0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def context(self) -> tuple[int | None, int | None]:
        """``(request id, innermost open span)`` of the calling thread."""
        stack = self._stack()
        return getattr(self._local, "rid", None), (stack[-1] if stack else None)

    @contextmanager
    def adopt(self, rid: int | None, parent: int | None):
        """Run a block as if it were nested under ``parent`` of request ``rid``.

        Used on pool threads, so a job's spans join the request that
        submitted it; the thread's own state is restored afterwards
        (an inline pool runs the job on the submitting thread).
        """
        saved = (getattr(self._local, "rid", None), self._stack())
        self._local.rid = rid
        self._local.stack = [] if parent is None else [parent]
        try:
            yield
        finally:
            self._local.rid, self._local.stack = saved

    def record(self, name, start, end, parent, rid) -> None:
        """Add a span whose interval was timed by the caller."""
        self.spans.append(Span(next(self._ids), name, start, end, parent, rid))

    def call(self, name: str, fn, *args, note=None, **kwargs):
        """Call ``fn`` inside a span; ``note(result)`` gives ``(outcome, nbytes)``.

        ``note`` runs after the span's end time is taken, so whatever it
        costs is not charged to the layer.
        """
        rid, parent = self.context()
        sid = next(self._ids)
        stack = self._stack()
        stack.append(sid)
        outcome, nbytes = "", 0
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as e:
            end = perf_counter()
            outcome = type(e).__name__
            raise
        else:
            end = perf_counter()
            if note is not None:
                outcome, nbytes = note(result)
            return result
        finally:
            stack.pop()
            self.spans.append(
                Span(sid, name, start, end, parent, rid, outcome, nbytes)
            )

    @contextmanager
    def op(self, rid: int):
        """The root span of one request, opened on the client thread."""
        with self.adopt(rid, None):
            start = perf_counter()
            sid = next(self._ids)
            self._stack().append(sid)
            try:
                yield
            finally:
                self._stack().pop()
                self.spans.append(Span(sid, OP, start, perf_counter(), None, rid))

    def on_gc(self, phase: str, info: dict) -> None:
        """``gc.callbacks`` hook: one span per generation-2 collection."""
        if info["generation"] != 2:
            return
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.record(GC_GEN2, self._gc_start, perf_counter(), None, None)

    def write(self, path) -> None:
        """Dump the spans as JSON lines (one object per span)."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.sid: (s.end - s.start) - covered(s.start, s.end, children[s.sid])
        for s in spans
    }


def coverage(spans) -> float:
    """Share of summed op latency that named layer spans account for.

    Per op: the union of its direct children (the top-level layers, on
    any thread) and of the garbage-collection pauses that overlap it —
    a pause stops every thread, so it is part of that op's time.
    """
    ops = [s for s in spans if s.name == OP]
    pauses = [(s.start, s.end) for s in spans if s.name == GC_GEN2]
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    total = sum(s.end - s.start for s in ops)
    if total <= 0:
        return 0.0
    hit = sum(
        covered(s.start, s.end, children[s.sid] + pauses) for s in ops
    )
    return hit / total


# -- wrapping the layers ------------------------------------------------

#: ``(module[:class], attribute, span name)`` of every plainly wrapped
#: layer.  ``ArtifactStore.get``/``put`` and ``TaskPool.submit`` get
#: their own wrappers below (hit/miss and bytes; queue wait).
LAYERS = (
    ("repro.pnr.flow", "map_netlist", "techmap"),
    ("repro.pnr.flow", "initial_placement", "place.seed"),
    ("repro.pnr.flow", "anneal_placement", "place.anneal"),
    ("repro.pnr.flow", "analyze_timing", "timing.sta"),
    ("repro.pnr.flow", "emit_design", "emit"),
    ("repro.pnr.route:Router", "route_design", "route"),
    ("repro.service.service", "canonical_hash", "canonical.hash"),
    ("repro.service.service", "compile_to_fabric", "flow"),
    ("repro.service.service", "compile_incremental", "incremental"),
    ("repro.service.service", "repair_for_die", "repair"),
)

def _store_note(store, key):
    def note(value):
        if value is None:
            return "miss", 0
        return "hit", store.path_of(key).stat().st_size
    return note


def instrument(tracer: Tracer):
    """Wrap every layer entry point; returns a function that undoes it.

    The names are the ones the callers look up at call time: the flow
    module's stage functions, the service module's imports, and the
    methods of ``Router``, ``ArtifactStore`` and ``TaskPool``.
    """
    from repro.pnr.parallel import TaskPool
    from repro.service.store import ArtifactStore

    patches = []

    def patch(owner, attr, replacement):
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(owner, attr, name):
        original = owner.__dict__[attr]

        def traced(*args, **kwargs):
            return tracer.call(name, original, *args, **kwargs)

        traced.__wrapped__ = original
        patch(owner, attr, traced)

    for path, attr, name in LAYERS:
        module, _, cls = path.partition(":")
        owner = importlib.import_module(module)
        wrap(getattr(owner, cls) if cls else owner, attr, name)

    get, put, submit = ArtifactStore.get, ArtifactStore.put, TaskPool.submit

    def store_get(self, key, default=None):
        return tracer.call(
            "store.get", get, self, key, default, note=_store_note(self, key)
        )

    def store_put(self, key, value):
        def note(_evicted):
            return "", self.path_of(key).stat().st_size

        return tracer.call("store.put", put, self, key, value, note=note)

    def pool_submit(self, fn, *args, **kwargs):
        submitted = perf_counter()
        rid, parent = tracer.context()

        def job(*a, **kw):
            tracer.record(QUEUE_WAIT, submitted, perf_counter(), parent, rid)
            with tracer.adopt(rid, parent):
                return tracer.call(SERVICE_RUN, fn, *a, **kw)

        return submit(self, job, *args, **kwargs)

    patch(ArtifactStore, "get", store_get)
    patch(ArtifactStore, "put", store_put)
    patch(TaskPool, "submit", pool_submit)
    gc.callbacks.append(tracer.on_gc)

    def undo() -> None:
        gc.callbacks.remove(tracer.on_gc)
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return undo



# -- per-layer metrics -----------------------------------------------------

#: Span name -> metric prefix of the layers reported as mean self time.
SELF_MS = {
    "canonical.hash": "canonical.hash_ms",
    QUEUE_WAIT: "service.queue_wait_ms",
    "store.get": "store.get_ms",
    "store.put": "store.put_ms",
    "techmap": "techmap.ms",
    "place.seed": "place.seed_ms",
    "place.anneal": "place.anneal_ms",
    "route": "route.ms",
    "timing.sta": "timing.sta_ms",
    "emit": "emit.ms",
    "flow": "flow.self_ms",
    "incremental": "incremental.ms",
    "repair": "repair.ms",
    GC_GEN2: "gc.gen2_ms",
}


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Per-layer ``name -> (value, unit)`` from one traced phase.

    ``*_ms`` / ``*.ms`` values are mean self time per call in ms
    (``service.self_ms``: per op); counts are per op, so they compare
    across commits whatever the throughput; rates are outcomes per call.
    """
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def count(name, outcome=None):
        return sum(1 for s in by_name[name] if outcome in (None, s.outcome))

    def rate(name, outcome):
        return count(name, outcome) / count(name) if by_name[name] else 0.0

    out = {
        metric: (
            1000 * sum(selfs[s.sid] for s in by_name[name]) / len(by_name[name])
            if by_name[name] else 0.0,
            "ms",
        )
        for name, metric in SELF_MS.items()
    }
    flows = {s.sid for s in by_name["flow"]}
    attempts = sum(1 for s in by_name["place.seed"] if s.parent in flows)
    n_ops = count(OP)

    def per_op(value):
        return value / n_ops if n_ops else 0.0

    out.update({
        "canonical.hash_calls": (per_op(count("canonical.hash")), "1/op"),
        "store.hits": (per_op(count("store.get", "hit")), "1/op"),
        "store.read_mb": (
            per_op(sum(s.nbytes for s in by_name["store.get"]) / 1e6), "MB/op"),
        "store.puts": (per_op(count("store.put")), "1/op"),
        "store.write_mb": (
            per_op(sum(s.nbytes for s in by_name["store.put"]) / 1e6), "MB/op"),
        "place.anneal_calls": (per_op(count("place.anneal")), "1/op"),
        "route.calls": (per_op(count("route")), "1/op"),
        "route.failures": (per_op(count("route", "RoutingError")), "1/op"),
        "flow.compiles": (per_op(len(flows)), "1/op"),
        "flow.attempts_per_compile": (
            attempts / len(flows) if flows else 0.0, "ratio"),
        "incremental.fallback_rate": (
            rate("incremental", "IncrementalFallback"), "ratio"),
        "repair.fallback_rate": (rate("repair", "RepairFallback"), "ratio"),
        "gc.gen2_collections": (per_op(count(GC_GEN2)), "1/op"),
        # Service-core time: what an op spends outside every named layer,
        # on the client thread (op root) and on the pool (job body).
        "service.self_ms": (
            per_op(1000 * sum(selfs[s.sid] for name in (OP, SERVICE_RUN)
                              for s in by_name[name])),
            "ms",
        ),
        "trace.ops": (n_ops, "count"),
        "trace.coverage": (coverage(spans), "ratio"),
    })
    return out
