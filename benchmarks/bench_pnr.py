"""Bench: place-and-route quality, timing, and throughput (`repro.pnr`).

Records what the compile flow pays for position independence on the
polymorphic fabric — wirelength, cells burned on routing versus logic,
utilisation, routed-net fraction, and (since the STA stage landed) the
achieved cycle time against the ideal-wire logic depth — across a suite
of designs from the paper (the Fig. 10 adder slice, a micropipeline
stage), scaling ripple-carry adders, and the datapath generators (array
multiplier, accumulator step), so ``BENCH_results.json`` tracks compile
time, wirelength and cycle time against array side.  A second table
compiles the deep designs (mul4, rca16) across multiple chiplet arrays
with the sharded flow, recording shard count, channel cut size and the
composed system cycle time.  The tests record both tables under
``microbench.pnr.quality`` and ``microbench.pnr.sharded`` (see
``conftest.py``), and ``check_regressions.py`` gates the quality rows.
"""

from __future__ import annotations

import gc
import time

from repro.datapath.accumulator import accumulator_step_netlist
from repro.datapath.adder import ripple_carry_netlist
from repro.datapath.multiplier import array_multiplier_netlist
from repro.netlist import Netlist
from repro.pnr import compile_sharded, compile_to_fabric, verify_equivalence

#: Random vectors each compiled design is checked against its source on.
VERIFY_VECTORS = 256


def _suite() -> dict[str, Netlist]:
    from repro.asynclogic.micropipeline import micropipeline_netlist
    from repro.synth.macros import full_adder_testbench

    fig10, _, _ = full_adder_testbench()
    stage, _ = micropipeline_netlist(1, data_width=4, auto_sink=False)
    return {
        "fig10_adder_slice": fig10,
        "micropipeline_stage": stage,
        "rca4": ripple_carry_netlist(4),
        "rca8": ripple_carry_netlist(8),
        "mul2_array": array_multiplier_netlist(2),
        "mul3_array": array_multiplier_netlist(3),
        "acc8_step": accumulator_step_netlist(8),
    }


def run_pnr_quality() -> dict[str, dict]:
    """Compile the suite; return per-design quality + timing metrics."""
    results: dict[str, dict] = {}
    for name, netlist in _suite().items():
        gc.collect()  # keep predecessor garbage out of the timed window
        t0 = time.perf_counter()
        res = compile_to_fabric(netlist, seed=0)
        compile_s = time.perf_counter() - t0
        s = res.stats
        entry = {
            "source_cells": s.n_source_cells,
            "mapped_gates": s.n_gates,
            "cells_logic": s.cells_logic,
            "cells_route": s.cells_route,
            "routing_overhead": round(s.routing_overhead, 3),
            "wirelength": s.wirelength,
            "hpwl": s.hpwl,
            "routed_net_fraction": s.routed_fraction,
            "utilisation": round(s.utilisation, 4),
            "array_side": res.array.n_rows,
            "interconnect_area_l2": s.area.interconnect_l2,
            "cycle_time": s.cycle_time,
            "logic_delay": s.logic_delay,
            "worst_slack": s.worst_slack,
            "compile_s": round(compile_s, 4),
        }
        if not res.design.has_stateful_gates():
            t0 = time.perf_counter()
            verify_equivalence(res, n_vectors=VERIFY_VECTORS, event_vectors=4)
            entry["verify_s"] = round(time.perf_counter() - t0, 4)
            entry["verified_vectors"] = VERIFY_VECTORS
        results[name] = entry
    return results


def run_pnr_sharded() -> dict[str, dict]:
    """Deep designs compiled across chiplet arrays (`repro.pnr.partition`).

    rca16 (depth 51) outright exceeds a side-24 array's monotone depth
    bound (``rows + cols - 1 = 47``); mul4 (168 mapped gates, depth 32)
    fits the bound but not the placement/routing capacity of one capped
    array (the sizer wants side 36); rca32 (depth ~99) needs many
    chiplets — a row the pre-incremental engine couldn't afford.  mul5
    (290 gates) and rca64 (960 gates, 17 chiplets) joined once the
    vectorized batch annealer made them interactive compiles.  The
    sharded flow partitions all five; the rows record the shard count
    the auto-sizer settled on, the channel cut, and the composed system
    cycle time, with equivalence verified against the source netlist on
    both backends, plus ``compile_parallel_s`` — the same compile
    through the ``concurrent.futures`` shard pool (byte-identical
    result; the wall-clock delta records what the GIL currently costs).
    """
    designs = {
        "mul4_array": (array_multiplier_netlist(4), 24),
        "rca16": (ripple_carry_netlist(16), 24),
        "rca32": (ripple_carry_netlist(32), 24),
        "mul5_array": (array_multiplier_netlist(5), 24),
        "rca64": (ripple_carry_netlist(64), 24),
    }
    results: dict[str, dict] = {}
    for name, (netlist, max_side) in designs.items():
        gc.collect()
        t0 = time.perf_counter()
        res = compile_sharded(netlist, max_side=max_side, seed=0)
        compile_s = time.perf_counter() - t0
        gc.collect()
        t0 = time.perf_counter()
        compile_sharded(netlist, max_side=max_side, seed=0, workers=None)
        compile_parallel_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        res.verify(n_vectors=VERIFY_VECTORS, event_vectors=2)
        verify_s = time.perf_counter() - t0
        s = res.stats
        results[name] = {
            "max_side": max_side,
            "shards": s.n_shards,
            "mapped_gates": s.n_gates,
            "cut_nets": s.cut_nets,
            "cut_size": s.cut_size,
            "wirelength": s.wirelength,
            "cells_logic": s.cells_logic,
            "cells_route": s.cells_route,
            "cycle_time": s.cycle_time,
            "logic_delay": s.logic_delay,
            "worst_slack": s.worst_slack,
            "compile_s": round(compile_s, 4),
            "compile_parallel_s": round(compile_parallel_s, 4),
            "verify_s": round(verify_s, 4),
            "verified_vectors": VERIFY_VECTORS,
        }
    return results


# ----------------------------------------------------------------------
# pytest entry points (run_all.py executes this file under pytest)
# ----------------------------------------------------------------------

def test_pnr_quality_suite(record_row):
    """Every suite design compiles fully routed; overheads stay sane."""
    results = record_row("pnr.quality", run_pnr_quality())
    assert set(results) == set(_suite())
    for name, entry in results.items():
        assert entry["routed_net_fraction"] == 1.0, name
        # Paper Section 4: interconnect is cells; it should cost the
        # same order as the logic, not dominate it wholesale.
        assert entry["cells_route"] <= 3 * entry["cells_logic"], name
        # Routed wires only add delay on top of the logic depth.
        assert entry["cycle_time"] >= entry["logic_delay"] > 0, name


def test_pnr_scales_with_adder_width(capsys):
    rows = []
    for n_bits in (2, 4, 8):
        res = compile_to_fabric(ripple_carry_netlist(n_bits), seed=0)
        s = res.stats
        rows.append((n_bits, s.n_gates, s.cells_route, s.wirelength, s.cycle_time))
    # Wirelength and routing burn grow with the design, not explode.
    assert rows[-1][3] < 40 * rows[0][3]
    with capsys.disabled():
        print("\n  bits gates route wirelength cycle")
        for r in rows:
            print(f"  {r[0]:4d} {r[1]:5d} {r[2]:5d} {r[3]:10d} {r[4]:5d}")


def test_sharded_designs_split_and_verify(record_row):
    """Acceptance: deep designs land on >= 2 chiplets and stay equivalent."""
    results = record_row("pnr.sharded", run_pnr_sharded())
    for name, entry in results.items():
        assert entry["shards"] >= 2, name
        assert entry["cut_nets"] > 0, name
        assert entry["cycle_time"] >= entry["logic_delay"] > 0, name
