"""The persisted artifact store: the ISSUE 9 acceptance contract.

Three layers of proof:

* **store unit** — `ArtifactStore` alone: content addressing, LRU /
  size-budget eviction with exact books (``lookups == hits + misses``,
  mirroring :class:`repro.service.ResultCache`), atomic re-publication,
  and the corruption contract (a truncated or bit-flipped blob is
  quarantined and served as a plain miss, never an exception);
* **blob serialisation** — ``PnrResult.to_blob`` /
  ``ShardedPnrResult.to_blob`` round-trip byte-identically and reject
  foreign, truncated and cross-typed blobs;
* **cross-process round-trip** — a second :class:`CompileService` on
  the same store directory (same process, and one *real* subprocess)
  serves a previously compiled rca8 and a repaired die byte-identical
  with ``compiles == 0``, single-flight coalescing preserved across
  tiers, and corruption degrading to a clean recompile.
"""

import os
import subprocess
import sys
import textwrap
import time

import pytest

from repro.datapath.adder import ripple_carry_netlist
from repro.netlist import Netlist
from repro.pnr import (
    PnrResult,
    ShardedPnrResult,
    compile_sharded,
    compile_to_fabric,
    sample_defect_map,
)
from repro.service import CompileOptions, CompileService
from repro.service.store import (
    ArtifactStore,
    CacheEntry,
    StoreKeyError,
    decode_key,
    encode_key,
    key_digest,
)


# ---------------------------------------------------------------------------
# store unit
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def rca2_result():
    return compile_to_fabric(ripple_carry_netlist(2), seed=0, workers=0)


def _entry(result, tag=0):
    """A real cache entry; ``tag`` picks distinct provenance flags."""
    nl = result.source
    return CacheEntry(
        result, tuple(nl.inputs), tuple(nl.outputs),
        incremental=bool(tag & 1), repaired=bool(tag & 2),
    )


def _same(a, b) -> bool:
    """Entries agree on ports, flags, stats and bitstream bytes."""
    def view(e):
        return (
            e.input_ports, e.output_ports, e.incremental, e.repaired,
            e.degraded, e.result.stats, e.result.to_bitstream().tobytes(),
        )
    return view(a) == view(b)


def test_key_codec_round_trips_nested_tuples():
    key = ("h", ("opts", 1, 0, None, True, 2.5), ("die", "abc"))
    assert decode_key(encode_key(key)) == key
    # The digest is a pure function of the key, not of the instance.
    assert key_digest(key) == key_digest(decode_key(encode_key(key)))


def test_unencodable_key_raises_store_key_error(tmp_path, rca2_result):
    store = ArtifactStore(tmp_path)
    with pytest.raises(StoreKeyError):
        store.put(("bad", object()), _entry(rca2_result))
    with pytest.raises(StoreKeyError):
        store.put(("bad", [1, 2]), _entry(rca2_result))  # lists are reserved for tuples


def test_non_entry_values_are_refused(tmp_path):
    store = ArtifactStore(tmp_path)
    with pytest.raises(TypeError, match="CacheEntry"):
        store.put(("k",), {"cycle": 141})
    assert len(store) == 0


def test_put_get_and_fresh_instance_round_trip(tmp_path, rca2_result):
    store = ArtifactStore(tmp_path)
    key = ("hash", ("opts", 3, 0, None))
    entry = _entry(rca2_result, tag=3)
    assert store.put(key, entry) == []
    assert _same(store.get(key), entry)
    # A different instance on the same root — "another process".
    again = ArtifactStore(tmp_path)
    assert _same(again.get(key), entry)
    assert key in again
    assert ("other",) not in again


def test_lru_eviction_by_entries_with_recency_bump(tmp_path, rca2_result):
    store = ArtifactStore(tmp_path, max_entries=2)
    store.put(("a",), _entry(rca2_result, 1))
    store.put(("b",), _entry(rca2_result, 2))
    store.get(("a",))  # bump: a is now most-recent, b is the LRU
    assert store.put(("c",), _entry(rca2_result, 3)) == [("b",)]
    assert store.get(("b",)) is None
    assert _same(store.get(("a",)), _entry(rca2_result, 1))
    assert store.keys()[-1] == ("a",)  # keys() is LRU -> MRU


def test_byte_budget_eviction_and_oversize_refusal(tmp_path, rca2_result):
    def blob_size(key, entry):
        probe = ArtifactStore(tmp_path / f"probe-{key[0]}")
        probe.put(key, entry)
        return probe.size_bytes()

    small = _entry(rca2_result)
    size = blob_size(("small1",), small)
    store = ArtifactStore(tmp_path / "store", max_bytes=size * 5 // 2)
    store.put(("small1",), small)
    store.put(("small2",), small)
    # A blob alone exceeding the budget is refused, not stored, and
    # must not evict what's there.
    huge = _entry(compile_to_fabric(ripple_carry_netlist(6), seed=0, workers=0))
    assert blob_size(("huge",), huge) > store.max_bytes
    assert store.put(("huge",), huge) == []
    assert store.stats()["oversize"] == 1
    assert len(store) == 2
    # Filling past the budget evicts oldest-first until it holds.
    evicted = store.put(("small3",), small)
    assert evicted == [("small1",)]
    assert store.size_bytes() <= store.max_bytes


def test_zero_capacity_store_drops_every_put(tmp_path, rca2_result):
    store = ArtifactStore(tmp_path, max_entries=0)
    assert store.put(("k",), _entry(rca2_result)) == []
    assert len(store) == 0
    assert store.get(("k",)) is None
    s = store.stats()
    assert (s["oversize"], s["insertions"]) == (1, 0)


def test_unbounded_put_never_lists_the_store(tmp_path, rca2_result, monkeypatch):
    store = ArtifactStore(tmp_path)
    store.put(("warm",), _entry(rca2_result))
    listed = []
    real_iterdir = type(tmp_path).iterdir

    def iterdir(path):
        listed.append(path)
        return real_iterdir(path)

    monkeypatch.setattr(type(tmp_path), "iterdir", iterdir)
    for i in range(3):
        assert store.put((f"k{i}",), _entry(rca2_result)) == []
    assert not listed, f"an unbounded put listed {listed}"
    assert store.stats()["insertions"] == 4


def test_republish_refreshes_bytes_and_recency(tmp_path, rca2_result):
    store = ArtifactStore(tmp_path, max_entries=2)
    store.put(("a",), _entry(rca2_result, 0))
    store.put(("b",), _entry(rca2_result, 0))
    store.put(("a",), _entry(rca2_result, 1))  # refresh: a becomes MRU, no eviction
    assert store.stats()["evictions"] == 0
    assert store.put(("c",), _entry(rca2_result, 0)) == [("b",)]
    assert _same(store.get(("a",)), _entry(rca2_result, 1))


def test_accounting_identity_and_stats_shape(tmp_path, rca2_result):
    store = ArtifactStore(tmp_path, max_entries=8)
    store.put(("a",), _entry(rca2_result))
    store.get(("a",))
    store.get(("missing",))
    store.peek(("a",))  # peek never counts
    s = store.stats()
    assert s["lookups"] == s["hits"] + s["misses"] == 2
    assert (s["hits"], s["misses"], s["insertions"]) == (1, 1, 1)
    assert s["entries"] == 1 and s["bytes"] > 0


@pytest.mark.parametrize("spoil", ["truncate", "bitflip", "garbage"])
def test_corrupt_blob_is_quarantined_as_a_miss(tmp_path, spoil, rca2_result):
    store = ArtifactStore(tmp_path)
    key = ("hash", ("opts", 0))
    store.put(key, _entry(rca2_result, 0))
    path = store.path_of(key)
    blob = path.read_bytes()
    if spoil == "truncate":
        path.write_bytes(blob[: len(blob) // 2])
    elif spoil == "bitflip":
        flipped = bytearray(blob)
        flipped[-1] ^= 0x40  # flip a payload bit under the digest
        path.write_bytes(bytes(flipped))
    else:
        path.write_bytes(b"not a blob at all")
    assert store.get(key) is None  # a miss, never an exception
    s = store.stats()
    assert s["quarantined"] == 1 and s["misses"] == 1
    assert not path.exists()  # moved aside: the next get is a clean miss
    assert len(list((tmp_path / "quarantine").iterdir())) == 1
    # The slot is reusable: a fresh publication round-trips again.
    store.put(key, _entry(rca2_result, 1))
    assert _same(store.get(key), _entry(rca2_result, 1))


def test_publication_is_byte_deterministic(tmp_path, rca2_result):
    a = ArtifactStore(tmp_path / "a")
    b = ArtifactStore(tmp_path / "b")
    key = ("h", ("opts", 1))
    a.put(key, _entry(rca2_result))
    b.put(key, _entry(rca2_result))
    assert a.path_of(key).read_bytes() == b.path_of(key).read_bytes()


# ---------------------------------------------------------------------------
# result blob serialisation
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def rca4_result():
    return compile_to_fabric(ripple_carry_netlist(4), seed=0, workers=0)


def test_pnr_result_blob_round_trip_is_byte_identical(rca4_result):
    blob = rca4_result.to_blob()
    back = PnrResult.from_blob(blob)
    assert back.to_bitstream().tobytes() == rca4_result.to_bitstream().tobytes()
    assert back.input_wires == rca4_result.input_wires
    assert back.stats == rca4_result.stats
    # Determinism through the round trip: re-serialising reproduces
    # the identical blob, so store re-publication is byte-stable.
    assert back.to_blob() == blob


def test_sharded_result_blob_round_trip():
    sharded = compile_sharded(ripple_carry_netlist(8), 2, seed=0, workers=0)
    back = ShardedPnrResult.from_blob(sharded.to_blob())
    assert [s.tobytes() for s in back.to_bitstreams()] == [
        s.tobytes() for s in sharded.to_bitstreams()
    ]


def test_blob_decode_rejects_defects(rca4_result):
    blob = rca4_result.to_blob()
    with pytest.raises(ValueError):
        PnrResult.from_blob(blob[: len(blob) // 2])  # truncated
    with pytest.raises(ValueError):
        PnrResult.from_blob(b"junk")  # not a pickle
    with pytest.raises(ValueError):
        ShardedPnrResult.from_blob(blob)  # cross-typed
    import pickle

    with pytest.raises(ValueError):
        PnrResult.from_blob(pickle.dumps({"no": "envelope"}))


# ---------------------------------------------------------------------------
# the service's persisted tier
# ---------------------------------------------------------------------------

def _rca8():
    return ripple_carry_netlist(8)


def _stress_die(seed=0):
    # rca8's golden array is 31x31; the rates match the ISSUE 8 stress
    # fixtures — a handful of defects, warm-repairable.
    return sample_defect_map(
        31, 31, cell_fail=0.0015, wire_fail=0.0006, stuck_fail=0.0006,
        seed=seed,
    )


def test_cross_process_round_trip_rca8_and_repaired_die(tmp_path):
    """The headline acceptance pin: restart-and-serve with zero compiles."""
    die = _stress_die(7)
    with CompileService(workers=0, store=tmp_path) as first:
        golden = first.compile(_rca8())
        repaired = first.compile_for_die(_rca8(), die)
        bits = golden.bitstreams()
        die_bits = repaired.bitstreams()
        assert first.stats()["compiles"] >= 1
    # first is closed: only the directory survives.
    with CompileService(workers=0, store=tmp_path) as second:
        served = second.compile(_rca8())
        served_die = second.compile_for_die(_rca8(), die)
        stats = second.stats()
    assert served.bitstreams() == bits
    assert served_die.bitstreams() == die_bits
    assert served.from_store and served_die.from_store
    assert served_die.repaired  # provenance survives the round trip
    # Zero recompiles, and the books balance exactly: two store lookups,
    # two hits, no misses; the golden for the die came from memory
    # (promoted by the rca8 hit), not from another compile.
    assert stats["compiles"] == 0
    assert stats["store_hits"] == 2
    store_stats = stats["store"]
    assert store_stats["hits"] == 2 and store_stats["misses"] == 0
    assert store_stats["lookups"] == store_stats["hits"] + store_stats["misses"]


def test_store_hit_skips_goldens_for_foreign_dies(tmp_path):
    """A die repaired elsewhere serves from disk without its golden."""
    die = _stress_die(7)
    with CompileService(workers=0, store=tmp_path) as first:
        first.compile_for_die(_rca8(), die)
    with CompileService(workers=0, store=tmp_path) as second:
        served = second.compile_for_die(_rca8(), die)
        stats = second.stats()
    assert served.from_store
    assert stats["compiles"] == 0
    assert stats["store_hits"] == 1  # the die key alone; no golden load
    assert stats["cache"]["misses"] == 1


def test_memory_tier_shields_the_store(tmp_path):
    """Second lookup of a promoted key never goes back to disk."""
    with CompileService(workers=0, store=tmp_path) as svc:
        svc.compile(_rca8())
    with CompileService(workers=0, store=tmp_path) as svc:
        a = svc.compile(_rca8())  # store hit, promoted to memory
        b = svc.compile(_rca8())  # memory hit
        stats = svc.stats()
    assert a.from_store and not b.from_store
    assert b.cached
    assert stats["store"]["lookups"] == 1


def test_each_tier_is_faster_than_the_one_behind_it(tmp_path):
    """A disk hit beats a cold compile; a memory hit is no slower than
    a disk hit (the hits are the best of 3 fresh services)."""
    nl = _rca8()
    with CompileService(workers=0, store=tmp_path) as svc:
        t0 = time.perf_counter()
        svc.compile(nl)
        cold_s = time.perf_counter() - t0
    disk_s, memory_s = [], []
    for _ in range(3):
        with CompileService(workers=0, store=tmp_path) as svc:
            t0 = time.perf_counter()
            disk = svc.compile(nl)
            disk_s.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            memory = svc.compile(nl)
            memory_s.append(time.perf_counter() - t0)
        assert disk.from_store
        assert memory.cached and not memory.from_store
    assert min(disk_s) < cold_s
    assert min(memory_s) <= min(disk_s)


def test_single_flight_preserved_across_tiers(tmp_path):
    """Concurrent duplicates coalesce onto one store load, not N."""
    with CompileService(workers=0, store=tmp_path) as svc:
        bits = svc.compile(_rca8()).bitstreams()
    with CompileService(workers=4, store=tmp_path) as svc:
        futures = [svc.submit(_rca8()) for _ in range(6)]
        results = [f.result() for f in futures]
        stats = svc.stats()
    assert all(r.bitstreams() == bits for r in results)
    assert stats["compiles"] == 0
    # One submission ran the job (one store lookup); some of the other
    # five coalesced onto it, the rest hit the promoted memory entry.
    assert stats["store"]["lookups"] == 1
    assert stats["coalesced"] + stats["cache"]["hits"] == 5


def test_corrupted_store_blob_degrades_to_recompile(tmp_path):
    """The service never crashes on a bad blob: quarantine, recompile."""
    nl = ripple_carry_netlist(4)
    with CompileService(workers=0, store=tmp_path) as svc:
        bits = svc.compile(nl).bitstreams()
        key = svc.job_key(nl, CompileOptions())
    store = ArtifactStore(tmp_path)
    path = store.path_of(key)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 40])  # truncate the payload
    with CompileService(workers=0, store=tmp_path) as svc:
        served = svc.compile(nl)
        stats = svc.stats()
    assert served.bitstreams() == bits  # determinism: recompiled bytes match
    assert not served.from_store and not served.cached
    assert stats["compiles"] == 1
    assert stats["store"]["quarantined"] == 1
    assert stats["store"]["misses"] == 1
    # The recompile re-published a good blob: a third service hits.
    with CompileService(workers=0, store=tmp_path) as svc:
        assert svc.compile(nl).from_store


def test_recompile_serves_edits_from_the_store(tmp_path):
    """An edit some sibling already compiled never pays the delta path."""
    base_nl = ripple_carry_netlist(4)
    edited = _flip_first_and(base_nl)
    with CompileService(workers=0, store=tmp_path) as first:
        base = first.compile(base_nl)
        step = first.recompile(edited, base)
        assert step.incremental and not step.cached
        bits = step.bitstreams()
    with CompileService(workers=0, store=tmp_path) as second:
        base2 = second.compile(base_nl)
        step2 = second.recompile(edited, base2)
        stats = second.stats()
    assert step2.bitstreams() == bits
    assert step2.cached and step2.from_store
    assert step2.incremental  # provenance survives persistence
    assert stats["compiles"] == 0
    assert stats["incremental_compiles"] == 0


def test_store_as_explicit_instance_and_shared_budget(tmp_path):
    """A caller-owned ArtifactStore can back several services."""
    store = ArtifactStore(tmp_path, max_entries=8)
    with CompileService(workers=0, store=store) as a:
        a.compile(ripple_carry_netlist(2))
    with CompileService(workers=0, store=store) as b:
        served = b.compile(ripple_carry_netlist(2))
    assert served.from_store
    assert store.stats()["insertions"] == 1


def _flip_first_and(nl: Netlist) -> Netlist:
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


_CHILD = textwrap.dedent("""
    import sys
    from repro.datapath.adder import ripple_carry_netlist
    from repro.service import CompileService
    with CompileService(workers=0, store=sys.argv[1]) as svc:
        result = svc.compile(ripple_carry_netlist(8))
        assert not result.cached and not result.from_store
        sys.stdout.buffer.write(b"".join(result.bitstreams()))
""")


def test_real_subprocess_round_trip(tmp_path):
    """An actual second OS process: compile there, serve here from disk."""
    import repro

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(tmp_path)],
        capture_output=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    child_bytes = proc.stdout
    with CompileService(workers=0, store=tmp_path) as svc:
        served = svc.compile(ripple_carry_netlist(8))
        stats = svc.stats()
    assert b"".join(served.bitstreams()) == child_bytes
    assert served.from_store
    assert stats["compiles"] == 0


def test_a_die_store_hit_never_resolves_the_golden(tmp_path):
    die = sample_defect_map(13, 13, cell_fail=0.01, wire_fail=0.004, seed=9)
    with CompileService(workers=0, store=tmp_path) as first:
        first.compile_for_die(ripple_carry_netlist(2), die)
    with CompileService(workers=2, store=tmp_path) as second:
        served = second.compile_for_die(ripple_carry_netlist(2), die)
        stats = second.stats()
    assert served.from_store and served.repaired
    # One submission: the die's own.  No golden lookup was submitted.
    assert stats["submissions"] == stats["settled"] == 1
    assert stats["store"]["lookups"] == 1
    assert stats["compiles"] == 0
