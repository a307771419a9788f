"""Tests for the incremental-cost PnR engine (`repro.pnr` hot paths).

Covers the correctness contracts the perf rework leans on:

* the cached delta-HPWL structure (:class:`repro.pnr.place.IncrementalHpwl`)
  stays *exactly* equal to a from-scratch ``hpwl()``
  recompute after any random move sequence (hypothesis property);
* the annealing temperature ladder starts at ``t_start`` (step 0 used to
  run one cooling step below it);
* greedy seeding is bit-reproducible for a seed, and whole compiles are
  deterministic;
* warm journal replay reproduces routes exactly when nothing moved;
* parallel shard compilation produces byte-identical bitstreams to a
  serial compile.
"""

import gc
import random
from array import array as array_i
import shutil
import subprocess
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datapath.adder import ripple_carry_netlist
from repro.fabric.floorplan import Region
from repro.netlist import Netlist
from repro.pnr import compile_sharded, compile_to_fabric, map_netlist
from repro.pnr import kernel
from repro.pnr.flow import suggest_array
from repro.pnr.parallel import parallel_map, resolve_workers
from repro.pnr.place import (
    BatchMoveEvaluator,
    IncrementalHpwl,
    Placement,
    anneal_placement,
    anneal_temperatures,
    hpwl,
    initial_placement,
    net_spans,
)
from repro.pnr.route import NetRoute, Router
from test_anneal_pins import multi_pin_design


def small_design():
    """A mapped rca4: ~50 gates, enough net shapes to stress the cache."""
    return map_netlist(ripple_carry_netlist(4))


def seeded_placement(design):
    array = suggest_array(design)
    region = Region("t", 0, 0, array.n_rows, array.n_cols)
    return array, region, initial_placement(design, region, random.Random(0))


# ----------------------------------------------------------------------
# Incremental cost correctness
# ----------------------------------------------------------------------

class TestIncrementalHpwl:
    def test_initial_total_matches_scratch(self):
        design = small_design()
        _, _, placement = seeded_placement(design)
        inc = IncrementalHpwl(design, placement)
        assert inc.total == pytest.approx(hpwl(design, placement))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 30),
                              st.integers(0, 30)), min_size=1, max_size=60))
    def test_delta_equals_scratch_after_any_move_sequence(self, moves):
        """Property: cached total == hpwl() recomputed, move by move.

        Cost math does not care about legality, so moves land anywhere
        in the region — including on top of other gates — and the cache
        must stay exact regardless.
        """
        design = small_design()
        _, region, placement = seeded_placement(design)
        inc = IncrementalHpwl(design, placement)
        names = list(design.gates)
        positions = dict(placement.positions)
        for pick, r, c in moves:
            name = names[pick % len(names)]
            target = (region.row + r % region.n_rows,
                      region.col + c % region.n_cols)
            inc.move(name, target)
            positions[name] = target
            scratch = hpwl(
                design, Placement(region=region, positions=positions)
            )
            assert inc.total == pytest.approx(scratch), (name, target)


# ----------------------------------------------------------------------
# Batched move evaluation
# ----------------------------------------------------------------------

class TestBatchedEvaluator:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 2**31),
        st.sampled_from([7, 64, 256, 768]),
    )
    def test_batched_deltas_match_sequential_replay(self, seed, k):
        """Property: every delta the batched annealer committed is exactly
        the delta a fresh ``IncrementalHpwl`` computes replaying the same
        move sequence one move at a time — for any seed and batch size."""
        design = small_design()
        _, _, placement = seeded_placement(design)
        log: list = []
        refined = anneal_placement(
            design, placement, random.Random(seed), batch_moves=k,
            move_log=log,
        )
        replay = IncrementalHpwl(design, placement)
        for name, target, delta in log:
            assert replay.move(name, target) == delta, (name, target)
        assert replay.total == pytest.approx(hpwl(design, refined))

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(0, 2**31), st.integers(1, 200),
        st.sampled_from(["rca4", "multi-pin"]),
    )
    def test_propose_batch_matches_scalar_propose(self, seed, k, which):
        """propose_batch prices exactly like k scalar propose() calls,
        also for gates that read one net through several pins."""
        design = small_design() if which == "rca4" else multi_pin_design()
        _, region, placement = seeded_placement(design)
        cost = IncrementalHpwl(design, placement)
        evaluator = BatchMoveEvaluator(cost)
        gen = np.random.Generator(np.random.PCG64(seed))
        gis = gen.integers(0, len(cost.names), k)
        trs = gen.integers(region.row, region.row + region.n_rows, k)
        tcs = gen.integers(region.col, region.col + region.n_cols, k)
        deltas = evaluator.propose_batch(gis, trs, tcs)
        for j in range(k):
            want, _ = cost.propose(int(gis[j]), int(trs[j]), int(tcs[j]))
            assert deltas[j] == want, (j, int(gis[j]))

    def test_batched_cache_equals_scratch_after_anneal(self):
        design = small_design()
        _, _, placement = seeded_placement(design)
        refined = anneal_placement(
            design, placement, random.Random(3), batch_moves=128
        )
        assert hpwl(design, refined) <= hpwl(design, placement)
        from repro.pnr.place import dominance_violations

        assert dominance_violations(design, refined) == 0

    def test_batch_moves_must_be_positive(self):
        """A batch must hold at least one candidate move, on any design.

        The one-gate design has nothing to anneal, so it returns early;
        the argument is still checked first.
        """
        nl = Netlist("one")
        nl.add("not", "g", [nl.add_input("a")], nl.add_output("y"))
        for design in (small_design(), map_netlist(nl)):
            _, _, placement = seeded_placement(design)
            with pytest.raises(ValueError, match="batch_moves"):
                anneal_placement(design, placement, random.Random(0),
                                 batch_moves=0)


    def test_zero_steps_anneal_nothing(self):
        """An explicit budget is honoured: ``steps=0`` evaluates no move
        and returns the placement as given."""
        design = small_design()
        _, _, placement = seeded_placement(design)
        stats: dict = {}
        out = anneal_placement(design, placement, random.Random(0),
                               steps=0, stats=stats)
        assert out is placement
        assert stats == {"evaluated": 0, "accepted": 0, "batches": 0}

    def test_negative_steps_raise(self):
        design = small_design()
        _, _, placement = seeded_placement(design)
        with pytest.raises(ValueError, match="steps"):
            anneal_placement(design, placement, random.Random(0), steps=-3)


# ----------------------------------------------------------------------
# The C kernel: build cache, no shared state, missing compiler
# ----------------------------------------------------------------------

class TestKernel:
    def test_cache_key_follows_the_source(self, tmp_path):
        """Editing the C source builds (and loads) a different library."""
        source = tmp_path / "_anneal.c"
        text = kernel.SOURCE.read_bytes()
        source.write_bytes(text)
        first = kernel.build(source)
        source.write_bytes(text + b"/* edited */\n")
        second = kernel.build(source)
        assert first != second
        assert first.exists() and second.exists()
        assert kernel.build(source) == second  # cached, not rebuilt
        assert kernel.cache_key(text) != kernel.cache_key(text + b" ")
        assert kernel.cache_key(text) != kernel.cache_key(
            text, kernel.FLAGS + ("-g",)
        )

    def test_unwritable_package_dir_builds_privately(self, tmp_path,
                                                     monkeypatch):
        """No writable ``__pycache__``: the build goes to a private
        (mode 0700) temporary directory instead."""
        source = tmp_path / "_anneal.c"
        source.write_bytes(kernel.SOURCE.read_bytes() + b"/* private */\n")
        mkdir = Path.mkdir

        def deny(path, *args, **kwargs):
            if path.name == "__pycache__":
                raise PermissionError(13, "read-only", str(path))
            return mkdir(path, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", deny)
        built = kernel.build(source)
        try:
            assert built.exists() and tmp_path not in built.parents
            assert built.parent.stat().st_mode & 0o777 == 0o700
        finally:
            shutil.rmtree(built.parent)

    def test_concurrent_compiles_match_serial(self):
        """Three threads compiling at once (more threads than this
        container's cores, with a short switch interval) produce the
        serial bitstreams: the kernel keeps no state between calls."""
        jobs = [(ripple_carry_netlist(5), s) for s in range(6)]
        serial = [
            compile_to_fabric(nl, seed=s, workers=0).to_bitstream()
            for nl, s in jobs
        ]
        results: dict[int, np.ndarray] = {}

        def work(lane: int) -> None:
            for i in range(lane, len(jobs), 3):
                nl, s = jobs[i]
                results[i] = compile_to_fabric(
                    nl, seed=s, workers=0
                ).to_bitstream()

        threads = [threading.Thread(target=work, args=(t,)) for t in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i, want in enumerate(serial):
            assert np.array_equal(results[i], want), i

    def test_missing_compiler_is_a_clear_error(self, tmp_path):
        """With no ``cc`` on PATH and no cached build, the first anneal
        raises KernelBuildError naming the missing compiler."""
        source = tmp_path / "_anneal.c"
        source.write_bytes(kernel.SOURCE.read_bytes() + b"/* uncached */\n")
        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "from repro.pnr import kernel, compile_to_fabric\n"
            "from repro.datapath.adder import ripple_carry_netlist\n"
            f"kernel.SOURCE = Path({str(source)!r})\n"
            "try:\n"
            "    compile_to_fabric(ripple_carry_netlist(2), workers=0)\n"
            "except kernel.KernelBuildError as e:\n"
            "    print(e)\n"
            "    sys.exit(3)\n"
        )
        src_dir = Path(kernel.__file__).resolve().parents[2]
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={"PATH": "", "PYTHONPATH": str(src_dir)}, timeout=120,
        )
        assert proc.returncode == 3, proc.stderr
        assert "needs a C compiler" in proc.stdout
        assert "no `cc` on PATH" in proc.stdout


# ----------------------------------------------------------------------
# Parallel helpers
# ----------------------------------------------------------------------

class TestParallelHelpers:
    def test_resolve_workers_contract(self):
        assert resolve_workers(1, None) == 1
        assert resolve_workers(5, None) >= 1
        assert resolve_workers(5, 0) == 1
        assert resolve_workers(5, 1) == 1
        assert resolve_workers(5, 3) == 3
        assert resolve_workers(5, 99) == 5

    def test_parallel_map_matches_serial(self):
        items = list(range(17))
        want = [x * x for x in items]
        assert parallel_map(lambda x: x * x, items, 0) == want
        assert parallel_map(lambda x: x * x, items, 4) == want

    def test_parallel_map_propagates_errors(self):
        def boom(x):
            raise ValueError(f"x={x}")

        with pytest.raises(ValueError):
            parallel_map(boom, [1, 2], 2)


# ----------------------------------------------------------------------
# Annealing schedule + determinism
# ----------------------------------------------------------------------

class TestSchedule:
    def test_first_temperature_is_t_start(self):
        temps = anneal_temperatures(100, t_start=8.0, t_end=0.05)
        assert temps[0] == 8.0
        assert temps[-1] == pytest.approx(0.05)
        assert all(a > b for a, b in zip(temps, temps[1:]))

    def test_single_step_runs_at_t_start(self):
        assert anneal_temperatures(1, 8.0, 0.05) == [8.0]

    def test_anneal_never_worse_and_legal(self):
        design = small_design()
        _, _, placement = seeded_placement(design)
        refined = anneal_placement(design, placement, random.Random(1))
        from repro.pnr.place import dominance_violations

        assert dominance_violations(design, refined) == 0
        assert hpwl(design, refined) <= hpwl(design, placement)


class TestDeterminism:
    def test_seed_is_bit_reproducible(self):
        """Same rng seed -> identical greedy placement, every time."""
        design = small_design()
        array = suggest_array(design)
        region = Region("t", 0, 0, array.n_rows, array.n_cols)
        a = initial_placement(design, region, random.Random(42))
        b = initial_placement(design, region, random.Random(42))
        assert a.positions == b.positions

    def test_distinct_salts_explore_distinct_seeds(self):
        """Different rng seeds may differ — that is the retry ladder's
        diversity — but each must be individually reproducible."""
        design = small_design()
        array = suggest_array(design)
        region = Region("t", 0, 0, array.n_rows, array.n_cols)
        for s in (0, 1, 7):
            a = initial_placement(design, region, random.Random(s))
            b = initial_placement(design, region, random.Random(s))
            assert a.positions == b.positions

    def test_full_compile_deterministic(self):
        r1 = compile_to_fabric(ripple_carry_netlist(4), seed=3)
        r2 = compile_to_fabric(ripple_carry_netlist(4), seed=3)
        assert r1.placement.positions == r2.placement.positions
        assert np.array_equal(r1.to_bitstream(), r2.to_bitstream())


# ----------------------------------------------------------------------
# Warm journal replay
# ----------------------------------------------------------------------

class TestWarmReplay:
    def test_unmoved_design_replays_routes_exactly(self):
        design = small_design()
        array, region, placement = seeded_placement(design)
        rng = random.Random(0)
        placement = anneal_placement(design, placement, rng)
        shape = (array.n_rows, array.n_cols)
        first = Router(design, placement, shape, region)
        routes = first.route_design(strict=True)
        second = Router(design, placement, shape, region,
                        warm_routes=routes, warm_moved=set())
        replayed = second.route_design(strict=True)
        assert set(replayed) == set(routes)
        for net, route in routes.items():
            assert replayed[net].wires == route.wires, net
            assert replayed[net].sink_cols == route.sink_cols, net
            assert replayed[net].entry_wire == route.entry_wire, net

    def test_a_malformed_journal_fails_its_replay_and_is_searched(self):
        """Journals may come from a decoded blob: the kernel's replay
        checks every op's code, length and bounds before it claims
        anything, and a net whose journal it refuses searches afresh."""
        design = small_design()
        array, region, placement = seeded_placement(design)
        placement = anneal_placement(design, placement, random.Random(0))
        shape = (array.n_rows, array.n_cols)
        routes = Router(design, placement, shape, region).route_design()
        spoiled = dict(routes)
        bad = sorted(n for n, r in routes.items() if len(r.ops) > 4)[:3]
        for net, ops in zip(bad, (
            [9, 0, 0, 0],                        # unknown op code
            [0, shape[0] + 5, 0, 0],             # wire outside the array
            list(routes[bad[2]].ops)[:-1],       # a truncated last op
        )):
            spoiled[net] = NetRoute(net=net, ops=array_i("i", ops))
        router = Router(design, placement, shape, region,
                        warm_routes=spoiled, warm_moved=set())
        again = router.route_design(strict=True)
        assert router.n_searched == len(bad)
        assert router.n_replayed == len(routes) - len(bad)
        assert set(again) == set(routes)


class TestNetSpans:
    @pytest.mark.parametrize("seed", range(3))
    def test_spans_match_the_per_net_bounding_boxes(self, seed):
        design = map_netlist(ripple_carry_netlist(6))
        _, _, placement = seeded_placement(design)
        placement = anneal_placement(design, placement, random.Random(seed))
        spans = net_spans(design, placement)
        for net, sinks in design.sinks_of.items():
            pts = [placement.positions[g] for g, _ in sinks]
            src = design.source_of.get(net)
            if src is not None:
                r, c = placement.positions[src]
                pts.append((r, c + design.gates[src].width - 1))
            rows, cols = [p[0] for p in pts], [p[1] for p in pts]
            want = (max(rows) - min(rows)) + (max(cols) - min(cols)) if pts else 0
            assert spans.get(net, 0) == want, net
        assert hpwl(design, placement) == sum(spans.values())


# ----------------------------------------------------------------------
# Parallel shard compilation
# ----------------------------------------------------------------------

class TestParallelShards:
    def _chain(self, n=20):
        nl = Netlist("chain")
        prev = nl.add_input("a")
        for k in range(n):
            prev = nl.add("not", f"g{k}", [prev], f"n{k}")
        nl.add("buf", "out", [prev], nl.add_output("y"))
        return nl

    def test_parallel_bitstreams_byte_identical_to_serial(self):
        nl = self._chain()
        serial = compile_sharded(nl, n_shards=3, seed=0, workers=1)
        parallel = compile_sharded(nl, n_shards=3, seed=0, workers=3)
        s_bits = [bytes(b) for b in serial.to_bitstreams()]
        p_bits = [bytes(b) for b in parallel.to_bitstreams()]
        assert s_bits == p_bits
        assert serial.stats == parallel.stats

    def test_auto_workers_byte_identical_to_serial(self):
        """The workers=None default (auto pool) changes nothing but
        wall-clock: same bitstreams as the workers=0 debug path."""
        nl = self._chain()
        auto = compile_sharded(nl, n_shards=3, seed=0)
        serial = compile_sharded(nl, n_shards=3, seed=0, workers=0)
        a_bits = [bytes(b) for b in auto.to_bitstreams()]
        s_bits = [bytes(b) for b in serial.to_bitstreams()]
        assert a_bits == s_bits
        assert auto.stats == serial.stats

    def test_parallel_result_verifies(self):
        nl = self._chain()
        res = compile_sharded(nl, n_shards=3, seed=0, workers=3)
        assert res.verify(n_vectors=64, event_vectors=2)["ok"]


# ----------------------------------------------------------------------
# Memory held by a result
# ----------------------------------------------------------------------

def _gc_tracked(root) -> int:
    """GC-tracked objects reachable from ``root`` (code and types excluded)."""
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
            types.MethodType, types.CodeType)
    seen, stack, n = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip) or not gc.is_tracked(obj):
            continue
        seen.add(id(obj))
        n += 1
        stack.extend(gc.get_referents(obj))
    return n


def test_an_rca8_result_holds_few_gc_tracked_objects():
    # Every tracked object a cached result holds is walked by each gen-2
    # pause; the array adds none beyond its one digit buffer.
    res = compile_to_fabric(ripple_carry_netlist(8), seed=0, workers=0)
    gc.collect()  # untracks atomic tuples, as the first pause would
    assert _gc_tracked(res) <= 3000
