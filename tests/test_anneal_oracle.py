"""The compiled rung against the numpy rung it replaced.

Each anneal rung is one kernel call (``step`` in ``_anneal.c``) that
draws the rung's gates, targets and uniforms from numpy's PCG64 stream
itself and runs the Metropolis test against a numpy-built ``exp`` table.
The oracle below is the numpy rung that did those draws and that test
in Python, calling the kernel only for windows, screen, price and
commit.  Both run inside the real :func:`anneal_placement` (same budget,
ladder and seed), and must agree on the move log, the counters, the
returned placement and where the random stream ends.
"""

from __future__ import annotations

import ctypes
import random

import numpy as np
import pytest

from repro.datapath.adder import ripple_carry_netlist
from repro.datapath.multiplier import array_multiplier_netlist
from repro.fabric.floorplan import Region
from repro.pnr import map_netlist, place
from repro.pnr.defects import sample_defect_map
from repro.pnr.flow import suggest_array
from repro.pnr.place import (
    _AnnealContext,
    anneal_placement,
    initial_placement,
)


def numpy_run_batches(self, temps, pcg, batch_moves, move_log=None):
    """The numpy rung: ``gen`` draws, numpy's Metropolis test, and the
    kernel's windows / screen / price / commit passes.  Reads the
    generator from ``pcg`` and writes its final state back."""
    gen = np.random.Generator(np.random.PCG64())
    gen.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {
            "state": int(pcg[0]) << 64 | int(pcg[1]),
            "inc": int(pcg[2]) << 64 | int(pcg[3]),
        },
        "has_uint32": int(pcg[4]),
        "uinteger": int(pcg[5]),
    }
    k = batch_moves
    accepted = 0
    if not len(self.movable):
        return {"evaluated": 0, "accepted": 0, "batches": 0}
    lib = self.lib
    w = self.rung(k)
    a = w.arrays
    pick, trs, tcs, idx = a["pick"], a["trs"], a["tcs"], a["idx"]
    lo_r, hi_r1, lo_c, hi_c1 = a["lo_r"], a["hi_r1"], a["lo_c"], a["hi_c1"]
    deltas, accept = a["deltas"], a["accept"].view(bool)
    h, wp = self.h, ctypes.addressof(w)
    movable, n_mov = self.movable, len(self.movable)
    for rung, temp in enumerate(temps, 1):
        np.take(movable, gen.integers(0, n_mov, k), out=pick)
        lib.windows(h, wp, k)
        np.copyto(trs, gen.integers(lo_r, hi_r1))
        np.copyto(tcs, gen.integers(lo_c, hi_c1))
        u = gen.random(k)
        n = lib.screen(h, wp, k)
        if not n:
            continue
        lib.price(h, wp, n)
        d = deltas[:n]
        bar = np.exp(-np.maximum(d, 0.0) / max(temp, 1e-9))
        np.logical_or(d <= 0.0, u[idx[:n]] < bar, out=accept[:n])
        done = lib.commit(h, wp, n, rung)
        accepted += done
        if move_log is not None and done:
            for j in a["committed"][:done].tolist():
                c = int(idx[j])
                move_log.append((
                    self.names[pick[c]], (int(trs[c]), int(tcs[c])),
                    float(d[j]),
                ))
    st = gen.bit_generator.state
    s, inc, m = st["state"]["state"], st["state"]["inc"], (1 << 64) - 1
    pcg[:] = [s >> 64, s & m, inc >> 64, inc & m, st["has_uint32"],
              st["uinteger"]]
    return {
        "evaluated": k * len(temps),
        "accepted": accepted,
        "batches": len(temps),
    }


def anneal_run(design, region, seed, monkeypatch, engine=None, **kwargs):
    """One anneal: its move log, counters, placement and final rng words."""
    ends = []
    run = engine or _AnnealContext.run_batches

    def recording(self, temps, pcg, batch_moves, move_log=None):
        out = run(self, temps, pcg, batch_moves, move_log)
        ends.append(pcg.tolist())
        return out

    monkeypatch.setattr(_AnnealContext, "run_batches", recording)
    placement = initial_placement(
        design, region, random.Random(seed), blocked=kwargs.get("blocked")
    )
    log: list = []
    stats: dict = {}
    out = anneal_placement(
        design, placement, random.Random(seed), stats=stats, move_log=log,
        **kwargs,
    )
    monkeypatch.undo()
    return log, stats, out.positions, ends


def suggested_region(design) -> Region:
    array = suggest_array(design)
    return Region("t", 0, 0, array.n_rows, array.n_cols)


def blocked_cells(n: int) -> frozenset[tuple[int, int]]:
    return frozenset(
        (r, c) for r in range(n) for c in range(n) if (r + 2 * c) % 11 == 0
    )


MUL3_DIE = sample_defect_map(24, 24, cell_fail=0.02, seed=5).dead_cells


def rca(n):
    return lambda: ripple_carry_netlist(n)


def mul3():
    return array_multiplier_netlist(3)


CASES = [
    # Default budgets, rca4..rca8 and mul3.
    *[pytest.param(rca(n), s, None, {}, id=f"rca{n}-s{s}")
      for n in (4, 5, 6, 7, 8) for s in range(4)],
    *[pytest.param(mul3, s, None, {}, id=f"mul3-s{s}") for s in (0, 2, 3, 4)],
    # Blocked cells.
    *[pytest.param(rca(4), s, (20, 20), {"blocked": blocked_cells(20)},
                   id=f"rca4-blocked-s{s}") for s in range(3)],
    *[pytest.param(mul3, s, (24, 24), {"blocked": MUL3_DIE},
                   id=f"mul3-die-s{s}") for s in (6, 7)],
    # Explicit budgets: one move per rung, an odd batch, a batch larger
    # than the movable gate count.
    *[pytest.param(rca(5), s, None, {"steps": 300, "batch_moves": 1},
                   id=f"rca5-k1-s{s}") for s in (0, 1)],
    pytest.param(mul3, 2, None, {"steps": 120, "batch_moves": 1},
                 id="mul3-k1-s2"),
    *[pytest.param(rca(6), s, None, {"steps": 401, "batch_moves": 37},
                   id=f"rca6-k37-s{s}") for s in (0, 1)],
    *[pytest.param(rca(5), s, None, {"steps": 3000, "batch_moves": 1000},
                   id=f"rca5-k1000-s{s}") for s in (3, 4)],
]


@pytest.mark.parametrize("make, seed, region, kwargs", CASES)
def test_kernel_rung_matches_the_numpy_rung(
    make, seed, region, kwargs, monkeypatch
):
    design = map_netlist(make())
    region = (
        suggested_region(design) if region is None
        else Region("t", 0, 0, *region)
    )
    if kwargs.get("batch_moves", 0) > 100:
        movable = sum(g.width == 1 for g in design.gates.values())
        assert kwargs["batch_moves"] > movable
    got = anneal_run(design, region, seed, monkeypatch, **kwargs)
    want = anneal_run(
        design, region, seed, monkeypatch, engine=numpy_run_batches,
        **kwargs,
    )
    assert got[0] and got[1]["accepted"] == len(got[0])
    assert got == want


def test_a_delta_outside_the_accept_table_raises(monkeypatch):
    """The table covers every delta a rung can price; a narrower one
    must fail loudly, never fall back to another exp."""
    design = map_netlist(ripple_carry_netlist(5))
    region = suggested_region(design)
    table = place._accept_table
    monkeypatch.setattr(place, "_accept_table", lambda t, span: table(t, 0))
    placement = initial_placement(design, region, random.Random(0))
    with pytest.raises(RuntimeError, match="outside its 1-entry accept table"):
        anneal_placement(design, placement, random.Random(0))


def test_the_anneal_checks_for_cancellation_once_per_rung(monkeypatch):
    design = map_netlist(ripple_carry_netlist(5))
    region = suggested_region(design)
    calls = []
    monkeypatch.setattr(place, "checkpoint", lambda: calls.append(1))
    stats: dict = {}
    anneal_placement(
        design, initial_placement(design, region, random.Random(0)),
        random.Random(0), stats=stats,
    )
    assert stats["batches"] > 1
    assert len(calls) == stats["batches"]


def test_a_cancelled_checkpoint_stops_the_anneal(monkeypatch):
    design = map_netlist(ripple_carry_netlist(5))
    region = suggested_region(design)
    calls = []

    def checkpoint():
        calls.append(1)
        if len(calls) == 3:
            raise TimeoutError("deadline")

    monkeypatch.setattr(place, "checkpoint", checkpoint)
    with pytest.raises(TimeoutError, match="deadline"):
        anneal_placement(
            design, initial_placement(design, region, random.Random(0)),
            random.Random(0),
        )
    assert len(calls) == 3
