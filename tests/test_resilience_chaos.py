"""Chaos closure: service invariants under *any* random fault plan.

The targeted tests in ``tests/test_resilience.py`` pin each hardening
mechanism against a hand-picked fault.  This suite closes the loop the
way ISSUE 10 demands: hypothesis draws arbitrary :class:`FaultPlan`\\ s
— any registered point, any kind, several densities and rates — and a
fresh service (two workers, bounded queue, on-disk store) runs a small
mixed workload under each: plain compiles, a die repair, a one-gate
``recompile`` and an ``EditSession.apply`` step.  Whatever the plan,
four invariants hold:

1. **Every future settles exactly once** — result or a known-taxonomy
   exception, never a hang (the ``settled`` book would double-count a
   twice-settled future and break the identity below).
2. **The books balance**: ``submissions == settled + shed + pending``
   with ``pending == 0`` after the drain, and the cache and store obey
   ``lookups == hits + misses``.
3. **No wrong bytes, ever**: every successful result, cached entry and
   persisted blob is byte-identical to its fault-free reference
   (golden, repaired or cold-defect-aware as appropriate; an edit's
   delta bytes, or its cold bytes when the delta fell back); a corrupted
   blob may only become a quarantined miss, never a served artifact.
4. **Degradation is explicit**: a golden stand-in is always marked
   ``degraded=True``, matches the golden bytes, and is never found in
   the cache or the store.
"""

import shutil
import tempfile
from concurrent.futures import ThreadPoolExecutor

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datapath.adder import ripple_carry_netlist
from repro.netlist import Netlist
from repro.pnr import (
    IncrementalFallback,
    compile_incremental,
    compile_to_fabric,
    sample_defect_map,
)
from repro.pnr.parallel import (
    FAULT_POINTS,
    CompileTimeout,
    WorkerLost,
)
from repro.service import CompileOptions, CompileService, EditSession
from repro.service.resilience import (
    FAULT_EXCEPTIONS,
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    ServiceOverloaded,
)

# -- fault-free references, computed once ----------------------------------
_KW = CompileOptions().compile_kwargs()
RCA2 = ripple_carry_netlist(2)
RCA3 = ripple_carry_netlist(3)
DIE = sample_defect_map(13, 13, cell_fail=0.01, wire_fail=0.004, seed=9)


def flip_gate(nl, index):
    """One-gate edit: the ``index``-th and-gate becomes an or-gate."""
    name = [c.name for c in nl.cells if c.kind == "and"][index]
    out = Netlist(nl.name)
    for p in nl.inputs:
        out.add_input(p)
    for p in nl.outputs:
        out.add_output(p)
    for c in nl.cells:
        out.add("or" if c.name == name else c.kind, c.name, list(c.inputs),
                c.output, delay=c.delay, **dict(c.params))
    return out


def bits(result):
    return [result.to_bitstream().tobytes()]


BASE2 = compile_to_fabric(RCA2, **_KW)
GOLDEN2 = bits(BASE2)
GOLDEN3 = bits(compile_to_fabric(RCA3, **_KW))
#: One-gate rca2 edits: one via ``recompile``, one via a session step.
EDIT_A = flip_gate(RCA2, 0)
EDIT_B = flip_gate(RCA2, 1)


def edit_references(edited):
    """``{"delta": bytes or None, "cold": bytes}`` for one edit of BASE2."""
    try:
        delta = bits(compile_incremental(edited, BASE2, seed=0))
    except IncrementalFallback:
        delta = None
    return {"delta": delta, "cold": bits(compile_to_fabric(edited, **_KW))}


#: The die compiled cold with the defect map (the repair-declined path).
COLD_DIE = [
    compile_to_fabric(RCA2, defect_map=DIE, **_KW).to_bitstream().tobytes()
]

with CompileService(workers=0) as _ref_svc:
    _ref_svc.compile(RCA2)
    _ref = _ref_svc.compile_for_die(RCA2, DIE)
    assert _ref.repaired, "seed-9 die must be repairable fault-free"
    #: The die served through the warm repair path.
    REPAIRED_DIE = _ref.bitstreams()
    #: The fault-free base the session job starts from.
    SESSION_BASE = _ref_svc.compile(RCA2)
    _H2 = _ref_svc.job_key(RCA2, CompileOptions())[0]
    _H3 = _ref_svc.job_key(RCA3, CompileOptions())[0]
    _HA = _ref_svc.job_key(EDIT_A, CompileOptions())[0]
    _HB = _ref_svc.job_key(EDIT_B, CompileOptions())[0]

GOLDEN_BY_HASH = {_H2: GOLDEN2, _H3: GOLDEN3}
EDITS_BY_HASH = {_HA: edit_references(EDIT_A), _HB: edit_references(EDIT_B)}

KNOWN_EXCEPTIONS = tuple(
    {CompileTimeout, WorkerLost, ServiceOverloaded}
    | set(FAULT_EXCEPTIONS.values())
)


def entry_bytes(entry):
    result = entry.result
    if hasattr(result, "to_bitstreams"):
        streams = result.to_bitstreams()
    else:
        streams = [result.to_bitstream()]
    return [s.tobytes() for s in streams]


def expected_bytes(key, entry):
    """The unique fault-free reference for one cache/store entry."""
    if len(key) == 3 and key[2][0] == "die":
        return REPAIRED_DIE if entry.repaired else COLD_DIE
    if key[0] in EDITS_BY_HASH:
        refs = EDITS_BY_HASH[key[0]]
        return refs["delta"] if entry.incremental else refs["cold"]
    return GOLDEN_BY_HASH[key[0]]


# -- the plan strategy ------------------------------------------------------
spec_strategy = st.builds(
    FaultSpec,
    point=st.sampled_from(sorted(FAULT_POINTS)),
    kind=st.sampled_from(FAULT_KINDS),
    rate=st.sampled_from([0.25, 0.5, 1.0]),
    exc=st.sampled_from(sorted(FAULT_EXCEPTIONS)),
    delay=st.sampled_from([0.005, 0.02, 0.05]),
)
plan_strategy = st.builds(
    FaultPlan,
    specs=st.lists(spec_strategy, max_size=4).map(tuple),
    seed=st.integers(min_value=0, max_value=2**16),
)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(plan=plan_strategy)
def test_any_fault_plan_preserves_the_service_invariants(plan):
    root = tempfile.mkdtemp(prefix="chaos-store-")
    svc = CompileService(workers=2, max_pending=4, store=root)
    # The blocking calls (recompile, a session step) run on client
    # threads, so their outcomes are futures the audit can time out on.
    clients = ThreadPoolExecutor(max_workers=2)
    session = EditSession(svc, SESSION_BASE, CompileOptions())
    futures = []
    submit_site_errors = 0
    try:
        with plan.activate():
            for label, job in (
                ("plain2", lambda: svc.submit(RCA2)),
                ("plain3", lambda: svc.submit(RCA3)),
                ("die", lambda: svc.submit_for_die(RCA2, DIE)),
                ("plain2", lambda: svc.submit(RCA2)),  # coalesce pressure
                ("edit", lambda: clients.submit(svc.recompile, EDIT_A, BASE2)),
                ("edit", lambda: clients.submit(session.apply, EDIT_B)),
            ):
                try:
                    futures.append((label, job()))
                except KNOWN_EXCEPTIONS:
                    submit_site_errors += 1
            outcomes = []
            for _, f in futures:
                try:
                    outcomes.append(f.result(timeout=60))
                except KNOWN_EXCEPTIONS as e:
                    outcomes.append(e)
        svc.close()

        # 1. Every future settled (result() returned above — a hang
        #    would have tripped the 60s timeout), and only known
        #    taxonomy exceptions came out.
        assert all(f.done() for _, f in futures)

        # 2. The books balance at rest.
        stats = svc.stats()
        assert stats["pending"] == 0
        assert (
            stats["submissions"] == stats["settled"] + stats["shed"]
        ), stats
        cache = stats["cache"]
        assert cache["lookups"] == cache["hits"] + cache["misses"]
        store = stats["store"]
        assert store["lookups"] == store["hits"] + store["misses"]

        # 3 + 4. Byte-audit every successful result against its unique
        # fault-free reference; degraded results are marked, golden and
        # quarantined from the caches.
        for (label, _), out in zip(futures, outcomes):
            if isinstance(out, BaseException):
                continue
            if label == "plain2":
                assert not out.degraded
                assert out.bitstreams() == GOLDEN2
            elif label == "plain3":
                assert not out.degraded
                assert out.bitstreams() == GOLDEN3
            elif label == "edit":
                assert not out.degraded and not out.repaired
                assert out.bitstreams() == expected_bytes(out.key, out)
            elif out.degraded:
                assert not out.repaired
                assert out.bitstreams() == GOLDEN2, "stand-in is the golden"
            elif out.repaired:
                assert out.bitstreams() == REPAIRED_DIE
            else:
                # A die job that fell back to the cold defect-aware
                # compile (injected RepairFallback, no pressure).
                assert out.bitstreams() == COLD_DIE

        for key, entry in svc.cache.items():
            assert not entry.degraded, "degraded artifacts must not cache"
            assert entry_bytes(entry) == expected_bytes(key, entry)

        fresh = type(svc.store)(root)
        for key in fresh.keys():
            entry = fresh.peek(key)
            if entry is None:
                continue  # corrupted on publish, quarantined on read
            assert not entry.degraded, "degraded artifacts must not persist"
            assert entry_bytes(entry) == expected_bytes(key, entry)
    finally:
        clients.shutdown(wait=True)
        svc.close()
        shutil.rmtree(root, ignore_errors=True)
