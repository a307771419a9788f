"""Bench: defect-adaptive compilation (`repro.pnr.defects`).

Records the economics of defect tolerance: how die yield falls as the per-resource
defect density rises (warm repair, cold-compile escalation, or die
scrapped).  The test records the curve under
``microbench.defects.yield_curve`` (see ``conftest.py``);
``check_regressions.py`` prints it (recorded, not gated — repair rates
depend on the sampled lot).  Repair latency is perfbench ``warm``'s
number, and ``tests/test_service_defects.py`` pins its 5x floor.
"""

from __future__ import annotations

import statistics
import time

from repro.datapath.adder import ripple_carry_netlist
from repro.pnr import (
    PnrError,
    RepairFallback,
    compile_to_fabric,
    repair_for_die,
    sample_defect_map,
)

#: Cell-failure densities swept by the yield curve; wire and stuck-row
#: rates ride along at 40% of the cell rate (wires and configuration
#: rows are a fraction of a cell's device count).
DENSITIES: tuple[float, ...] = (0.0015, 0.003, 0.006, 0.012)
DIES_PER_DENSITY = 10


def _golden():
    nl = ripple_carry_netlist(8)
    t0 = time.perf_counter()
    golden = compile_to_fabric(nl, seed=0, workers=0)
    return golden, time.perf_counter() - t0


def _die(shape, cell_fail, seed):
    return sample_defect_map(
        *shape,
        cell_fail=cell_fail,
        wire_fail=0.4 * cell_fail,
        stuck_fail=0.4 * cell_fail,
        seed=seed,
    )


def run_defect_yield_curve(dies_per_density: int = DIES_PER_DENSITY) -> dict:
    """Die yield vs defect density: repaired, escalated, or scrapped.

    For each density, ``dies_per_density`` seeded dies are adapted from
    one golden rca8 compile.  A die counts toward yield when warm
    repair succeeds *or* the cold defect-aware escalation compiles it;
    only a die neither path can use is scrapped — the paper's
    defect-tolerance argument, measured.
    """
    golden, golden_s = _golden()
    shape = (golden.array.n_rows, golden.array.n_cols)
    curve = {}
    for cell_fail in DENSITIES:
        repaired = cold_ok = scrapped = 0
        repair_ms = []
        defects = []
        for seed in range(dies_per_density):
            dm = _die(shape, cell_fail, seed)
            defects.append(dm.n_defects)
            t0 = time.perf_counter()
            try:
                repair_for_die(golden, dm, seed=0)
                repair_ms.append((time.perf_counter() - t0) * 1e3)
                repaired += 1
            except RepairFallback:
                try:
                    compile_to_fabric(
                        ripple_carry_netlist(8), defect_map=dm,
                        seed=0, workers=0, max_attempts=3,
                    )
                    cold_ok += 1
                except PnrError:
                    scrapped += 1
        curve[f"cell_fail_{cell_fail}"] = {
            "dies": dies_per_density,
            "mean_defects_per_die": round(statistics.mean(defects), 1),
            "repaired": repaired,
            "cold_ok": cold_ok,
            "scrapped": scrapped,
            "die_yield": round((repaired + cold_ok) / dies_per_density, 2),
            "median_repair_ms": (
                round(statistics.median(repair_ms), 1) if repair_ms else None
            ),
        }
    return {"design": "rca8", "golden_compile_s": round(golden_s, 3), **curve}


def test_yield_curve_accounts_for_every_die(record_row):
    """Every sampled die is repaired, escalated, or scrapped — no gaps."""
    r = record_row("defects.yield_curve", run_defect_yield_curve())
    rows = {k: v for k, v in r.items() if k.startswith("cell_fail_")}
    assert len(rows) == len(DENSITIES)
    for row in rows.values():
        assert row["repaired"] + row["cold_ok"] + row["scrapped"] == row["dies"]
    # At the lightest density almost every die is warm-repairable.
    first = rows[f"cell_fail_{DENSITIES[0]}"]
    assert first["die_yield"] >= 0.9
