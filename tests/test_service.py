"""Concurrency, caching and accounting proofs for the compile service.

The ISSUE 7 contract, stated as tests:

* every service-produced bitstream — cold, cached, coalesced, or
  concurrent — is **byte-identical** to the corresponding cold serial
  ``compile_to_fabric`` of the entry's netlist;
* duplicate submissions coalesce onto **one** compile (exact counter
  accounting, not "at most a few");
* results are invariant under the worker count;
* the LRU cache evicts in recency order under capacity pressure, its
  counters are exact, and evicted entries recompile correctly;
* isomorphic-but-renamed submissions hit the cache and get pin maps
  translated to their own port names.
"""

import gc
import threading
import time
import weakref

import pytest

from repro.datapath.adder import ripple_carry_netlist
from repro.datapath.multiplier import array_multiplier_netlist
from repro.netlist import Netlist
from repro.netlist.canonical import canonical_hash
from repro.pnr import compile_to_fabric, sample_defect_map
from repro.pnr.parallel import TaskPool
from repro.service import CompileOptions, CompileService, ResultCache


def cold_bytes(netlist, options=None):
    """The reference artifact: one cold serial compile."""
    kwargs = (options or CompileOptions()).compile_kwargs()
    result = compile_to_fabric(netlist, **kwargs)
    if hasattr(result, "to_bitstreams"):
        return [s.tobytes() for s in result.to_bitstreams()]
    return [result.to_bitstream().tobytes()]


def renamed_rca(n, prefix):
    """rca-n with every port, net and cell bijectively renamed."""
    base = ripple_carry_netlist(n)
    mapping = {}
    for i, p in enumerate(list(base.inputs) + list(base.outputs)):
        mapping[p] = f"{prefix}{i}"

    def m(net):
        return mapping.get(net, f"{prefix}_{net}")

    out = Netlist("renamed")
    for p in base.inputs:
        out.add_input(m(p))
    for p in base.outputs:
        out.add_output(m(p))
    for c in base.cells:
        out.add(c.kind, f"{prefix}.{c.name}", [m(i) for i in c.inputs],
                m(c.output), delay=c.delay, **dict(c.params))
    return out


# ---------------------------------------------------------------------------
# ResultCache: eviction order and exact accounting
# ---------------------------------------------------------------------------


def test_cache_lru_order_under_capacity_pressure():
    cache = ResultCache(capacity=3)
    for k in "abc":
        cache.put(k, k.upper())
    assert cache.keys() == ["a", "b", "c"]
    cache.get("a")  # bump
    assert cache.keys() == ["b", "c", "a"]
    evicted = cache.put("d", "D")
    assert evicted == ["b"]
    assert cache.keys() == ["c", "a", "d"]
    assert cache.get("b") is None
    # refreshing an existing key evicts nothing and re-ranks it
    assert cache.put("c", "C2") == []
    assert cache.keys() == ["a", "d", "c"]


def test_cache_counters_are_exact():
    cache = ResultCache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.get("a")
    cache.get("missing")
    cache.put("c", 3)  # evicts b
    cache.get("b")
    s = cache.stats()
    assert s == {
        "capacity": 2,
        "size": 2,
        "hits": 1,
        "misses": 2,
        "lookups": 3,
        "evictions": 1,
        "insertions": 3,
    }
    assert s["lookups"] == s["hits"] + s["misses"]


def test_cache_peek_and_contains_do_not_disturb():
    cache = ResultCache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.peek("a") == 1
    assert "a" in cache
    # neither call bumped recency or counters
    assert cache.keys() == ["a", "b"]
    assert cache.stats()["lookups"] == 0


def test_cache_capacity_zero_disables():
    cache = ResultCache(capacity=0)
    cache.put("a", 1)
    assert len(cache) == 0
    assert cache.get("a") is None
    assert cache.stats()["misses"] == 1


def test_cache_rejects_negative_capacity():
    with pytest.raises(ValueError):
        ResultCache(capacity=-1)


def test_cache_is_thread_safe_under_hammering():
    cache = ResultCache(capacity=8)
    errors = []

    def worker(base):
        try:
            for i in range(300):
                k = (base + i) % 16
                cache.put(k, k)
                cache.get((base + i * 7) % 16)
        except Exception as e:  # pragma: no cover - only on failure
            errors.append(e)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    s = cache.stats()
    assert s["size"] <= 8
    assert s["lookups"] == s["hits"] + s["misses"] == 1800
    assert s["insertions"] == 1800


# ---------------------------------------------------------------------------
# TaskPool
# ---------------------------------------------------------------------------


def test_taskpool_serial_runs_inline():
    with TaskPool(workers=0) as pool:
        assert pool.serial
        thread_ids = []
        fut = pool.submit(lambda: thread_ids.append(threading.get_ident()))
        assert fut.done()
        assert thread_ids == [threading.get_ident()]


def test_taskpool_propagates_errors_in_both_modes():
    def boom():
        raise RuntimeError("kaput")

    for workers in (0, 2):
        with TaskPool(workers=workers) as pool:
            with pytest.raises(RuntimeError, match="kaput"):
                pool.submit(boom).result()


def test_taskpool_parallel_runs_off_thread():
    with TaskPool(workers=2) as pool:
        assert not pool.serial
        ident = pool.submit(threading.get_ident).result()
        assert isinstance(ident, int)


# ---------------------------------------------------------------------------
# CompileService: byte-identity, coalescing, determinism
# ---------------------------------------------------------------------------


def test_cold_compile_matches_direct_flow():
    nl = ripple_carry_netlist(4)
    with CompileService(workers=0, cache_capacity=4) as svc:
        got = svc.compile(ripple_carry_netlist(4))
    assert not got.cached and not got.incremental
    assert got.bitstreams() == cold_bytes(nl)


def test_cache_hit_returns_identical_bytes_and_counts():
    with CompileService(workers=0, cache_capacity=4) as svc:
        first = svc.compile(ripple_carry_netlist(4))
        second = svc.compile(ripple_carry_netlist(4))
        assert not first.cached and second.cached
        assert first.bitstreams() == second.bitstreams()
        s = svc.stats()
        assert s["compiles"] == 1
        assert s["submissions"] == 2
        assert s["cache"]["hits"] == 1


def test_concurrency_stress_duplicates_coalesce_to_one_compile():
    """N clients, duplicate + distinct jobs, full byte-identity audit."""
    designs = {
        "rca2": ripple_carry_netlist(2),
        "rca4": ripple_carry_netlist(4),
        "mul2": array_multiplier_netlist(2),
    }
    reference = {name: cold_bytes(nl) for name, nl in designs.items()}
    # 18 submissions over 3 distinct circuits, from 6 client threads.
    plan = (["rca2", "rca4", "mul2"] * 6)[:18]

    with CompileService(workers=4, cache_capacity=8) as svc:
        futures = [None] * len(plan)
        barrier = threading.Barrier(6)

        def client(idx_range):
            barrier.wait()  # maximise overlap: all clients burst at once
            for i in idx_range:
                futures[i] = svc.submit(designs[plan[i]])

        threads = [
            threading.Thread(target=client, args=(range(t, 18, 6),))
            for t in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        results = [f.result() for f in futures]
        stats = svc.stats()

    for name, result in zip(plan, results):
        assert result.bitstreams() == reference[name], f"{name} diverged"
    # exactly one compile per distinct circuit; every duplicate was
    # either coalesced onto an in-flight job or served from cache
    assert stats["compiles"] == 3
    assert stats["submissions"] == 18
    assert stats["coalesced"] + stats["cache"]["hits"] == 15


def test_results_are_invariant_under_worker_count():
    plan = [2, 4, 2, 4, 2]
    outcomes = []
    for workers in (0, 2, 4):
        with CompileService(workers=workers, cache_capacity=8) as svc:
            futs = [svc.submit(ripple_carry_netlist(n)) for n in plan]
            outcomes.append([f.result().bitstreams() for f in futs])
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_renamed_isomorphic_submission_hits_with_remapped_ports():
    original = ripple_carry_netlist(4)
    renamed = renamed_rca(4, "p")
    with CompileService(workers=0, cache_capacity=4) as svc:
        first = svc.compile(ripple_carry_netlist(4))
        second = svc.compile(renamed_rca(4, "p"))
        assert second.cached
        assert svc.stats()["compiles"] == 1
    # same artifact bytes...
    assert first.bitstreams() == second.bitstreams()
    # ...with each client's own port spelling mapped positionally
    for a, b in zip(original.inputs, renamed.inputs):
        assert first.input_wires.get(a) == second.input_wires.get(b)
    for a, b in zip(original.outputs, renamed.outputs):
        assert first.output_wires.get(a) == second.output_wires.get(b)


def test_distinct_options_do_not_share_entries():
    with CompileService(workers=0, cache_capacity=4) as svc:
        a = svc.compile(ripple_carry_netlist(2), CompileOptions(seed=0))
        b = svc.compile(ripple_carry_netlist(2), CompileOptions(seed=3))
        assert svc.stats()["compiles"] == 2
        assert a.key != b.key
    assert a.bitstreams() == cold_bytes(ripple_carry_netlist(2))
    assert b.bitstreams() == cold_bytes(
        ripple_carry_netlist(2), CompileOptions(seed=3)
    )


def test_evicted_entries_recompile_correctly():
    with CompileService(workers=0, cache_capacity=1) as svc:
        first = svc.compile(ripple_carry_netlist(2))
        svc.compile(ripple_carry_netlist(4))  # evicts rca2
        assert svc.stats()["cache"]["evictions"] == 1
        again = svc.compile(ripple_carry_netlist(2))  # miss, recompiles
        stats = svc.stats()
    assert not again.cached
    assert stats["compiles"] == 3
    assert again.bitstreams() == first.bitstreams() == cold_bytes(
        ripple_carry_netlist(2)
    )


def test_compile_errors_propagate_and_are_not_cached():
    nl = Netlist("broken")
    nl.add("celement", "c1", ["x", "fb"], "m")
    nl.add("not", "g", ["m"], "fb")  # cell-level feedback: uncompilable
    nl.add_input("x")
    nl.add_output("m")
    with CompileService(workers=0, cache_capacity=4) as svc:
        with pytest.raises(Exception):
            svc.compile(nl)
        with pytest.raises(Exception):
            svc.compile(nl)  # still raises: failures were not cached
        s = svc.stats()
        assert s["compiles"] == 2
        assert s["cache"]["size"] == 0


def test_sharded_options_serve_sharded_artifacts():
    nl = ripple_carry_netlist(8)
    opts = CompileOptions(shards=2)
    with CompileService(workers=0, cache_capacity=4) as svc:
        got = svc.compile(ripple_carry_netlist(8), opts)
        hit = svc.compile(ripple_carry_netlist(8), opts)
    assert len(got.bitstreams()) == 2
    assert got.bitstreams() == cold_bytes(nl, opts)
    assert hit.cached and hit.bitstreams() == got.bitstreams()


def test_service_recompile_delta_and_fallback_accounting():
    nl = ripple_carry_netlist(8)
    with CompileService(workers=0, cache_capacity=8) as svc:
        base = svc.compile(ripple_carry_netlist(8))

        edited = Netlist(nl.name)
        for p in nl.inputs:
            edited.add_input(p)
        for p in nl.outputs:
            edited.add_output(p)
        flip = next(c for c in nl.cells if c.kind == "and").name
        for c in nl.cells:
            kind = "or" if c.name == flip else c.kind
            edited.add(kind, c.name, list(c.inputs), c.output,
                       delay=c.delay, **dict(c.params))
        inc = svc.recompile(edited, base)
        assert inc.incremental and not inc.cached

        # resubmitting the same edit is a plain content hit
        again = svc.submit(edited).result()
        assert again.cached
        assert again.bitstreams() == inc.bitstreams()

        # a totally different netlist through recompile() falls back
        other = svc.recompile(array_multiplier_netlist(2), base)
        stats = svc.stats()
    assert not other.incremental
    assert other.bitstreams() == cold_bytes(array_multiplier_netlist(2))
    assert stats["incremental_compiles"] == 1
    assert stats["incremental_fallbacks"] == 1


# ---------------------------------------------------------------------------
# One job core: recompile and die repair share submit's guarantees
# ---------------------------------------------------------------------------
def _flip_first_and(nl):
    flip = next(c for c in nl.cells if c.kind == "and").name
    out = Netlist(nl.name)
    for p in nl.inputs:
        out.add_input(p)
    for p in nl.outputs:
        out.add_output(p)
    for c in nl.cells:
        kind = "or" if c.name == flip else c.kind
        out.add(kind, c.name, list(c.inputs), c.output,
                delay=c.delay, **dict(c.params))
    return out


def _rca2_die():
    """A defective die of rca2's 13x13 golden array, warm-repairable."""
    return sample_defect_map(13, 13, cell_fail=0.01, wire_fail=0.004, seed=9)


def test_concurrent_identical_recompiles_coalesce_onto_one_delta(monkeypatch):
    from repro.service import service as service_mod

    n = 4
    base_nl = ripple_carry_netlist(4)
    edited = _flip_first_and(base_nl)
    release = threading.Event()
    real = service_mod.compile_incremental

    def gated(*args, **kwargs):
        release.wait(timeout=30)
        return real(*args, **kwargs)

    monkeypatch.setattr(service_mod, "compile_incremental", gated)
    with CompileService(workers=2) as svc:
        base = svc.compile(base_nl)
        results = [None] * n

        def client(i):
            results[i] = svc.recompile(edited, base)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        # Hold the one delta until every duplicate has attached to it.
        waited = time.monotonic() + 10
        while svc.stats()["coalesced"] < n - 1 and time.monotonic() < waited:
            time.sleep(0.01)
        release.set()
        for t in threads:
            t.join(timeout=60)
        stats = svc.stats()
    assert stats["incremental_compiles"] == 1
    assert stats["coalesced"] == n - 1
    assert sum(r.coalesced for r in results) == n - 1
    assert all(r.incremental for r in results)
    assert len({tuple(r.bitstreams()) for r in results}) == 1
    assert stats["submissions"] == stats["settled"] == n + 1


def test_compile_plus_one_fallback_recompile_books_two_submissions():
    with CompileService(workers=0) as svc:
        base = svc.compile(ripple_carry_netlist(2))
        other = svc.recompile(array_multiplier_netlist(2), base)
        stats = svc.stats()
    assert not other.incremental and not other.cached
    assert other.bitstreams() == cold_bytes(array_multiplier_netlist(2))
    assert stats["incremental_fallbacks"] == 1
    assert stats["compiles"] == 2
    assert stats["submissions"] == stats["settled"] == 2


def test_books_balance_on_all_three_paths():
    rca2 = ripple_carry_netlist(2)
    with CompileService(workers=2) as svc:
        base = svc.compile(rca2)
        svc.compile(rca2)  # memory hit
        svc.compile_for_die(rca2, _rca2_die())
        svc.compile_for_die(rca2, _rca2_die())  # hit
        svc.recompile(_flip_first_and(rca2), base)  # delta
        svc.recompile(array_multiplier_netlist(2), base)  # fallback
        stats = svc.stats()
    # 2 compiles, 1 die plus its golden lookup, 1 die hit, 2 recompiles.
    assert stats["submissions"] == 7
    assert stats["submissions"] == stats["settled"] + stats["shed"]
    assert stats["pending"] == 0
    assert stats["compiles"] == 2  # the golden and the fallback


def test_memory_hits_resolve_on_the_caller_thread_without_admission(
    monkeypatch,
):
    from repro.service.resilience import FaultPlan

    rca2 = ripple_carry_netlist(2)
    die = _rca2_die()
    edited = _flip_first_and(rca2)
    hops = []
    real_submit = TaskPool.submit

    def counting_submit(self, fn, *args, **kwargs):
        hops.append(fn)
        return real_submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(TaskPool, "submit", counting_submit)
    busy_token = canonical_hash(ripple_carry_netlist(3))[:12]
    plan = FaultPlan.from_specs(
        [("service.run", "stall", {"delay": 0.5, "token": busy_token})]
    )
    with CompileService(workers=2, max_pending=1) as svc:
        base = svc.compile(rca2)
        svc.compile_for_die(rca2, die)
        svc.recompile(edited, base)
        with plan.activate():
            busy = svc.submit(ripple_carry_netlist(3))  # the queue is full
            assert svc.stats()["pending"] == 1
            before = len(hops)
            hit = svc.submit(rca2)
            die_hit = svc.submit_for_die(rca2, die)
            # Resolved before the call returned: no pool hop.
            assert hit.done() and die_hit.done()
            delta_hit = svc.recompile(edited, base)
            assert len(hops) == before
            busy.result(timeout=30)
        stats = svc.stats()
    assert hit.result().cached and die_hit.result().cached
    assert delta_hit.cached and delta_hit.incremental
    assert stats["shed"] == 0
    assert stats["submissions"] == stats["settled"]


def test_a_settled_job_is_freed_by_reference_counting():
    """A finished job's futures die with the caller's last reference.

    A closure that refers to itself would keep each finished job — and
    the artifact its future holds — alive until the cyclic collector
    runs.  With the collector off, the futures and results handed out
    on every path must still be freed once the caller drops them.
    """
    rca2 = ripple_carry_netlist(2)
    gc.disable()
    try:
        with CompileService(workers=2, cache_capacity=1) as svc:
            base = svc.compile(rca2)
            svc.compile(ripple_carry_netlist(3))
            # The golden was evicted, so this die job waits on it.
            die = svc.submit_for_die(rca2, _rca2_die())
            die.result(timeout=60)
            cold = svc.submit(ripple_carry_netlist(4))
            cold.result(timeout=60)
            fallback = svc.recompile(array_multiplier_netlist(2), base)
            refs = [weakref.ref(x) for x in (die, cold, fallback)]
            del die, cold, fallback
            # A worker may still be unwinding the job it just settled.
            waited = time.monotonic() + 10
            while any(r() is not None for r in refs):
                assert time.monotonic() < waited, "a settled job leaked"
                time.sleep(0.01)
    finally:
        gc.enable()
