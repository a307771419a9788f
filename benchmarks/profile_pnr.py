#!/usr/bin/env python
"""Per-stage PnR profiling harness (the ``microbench.pnr_speed`` table).

Times every stage of the compile flow in isolation — tech-map, greedy
seed, annealing, routing, STA, emit — on a few representative designs,
and derives the two engine throughput numbers the perf work is tracked
by:

* ``anneal_moves_per_s``  — proposed moves per second through the
  annealer (numpy draws, the C kernel's exact delta-HPWL pricing and
  commits: :mod:`repro.pnr.kernel`);
* ``routed_nets_per_s``   — nets per second through the reusable-state
  A* router (:class:`repro.pnr.route.Router`).

``run_all.py`` imports :func:`run_pnr_speed` and folds the table into
``BENCH_results.json`` under ``microbench.pnr_speed``, and
``check_regressions.py`` prints its drift in every CI log.  Run directly
for a live profile, printed as drift against the committed table::

    python benchmarks/profile_pnr.py

See ``docs/performance.md`` for what each stage does and why the hot
paths are shaped the way they are.
"""

from __future__ import annotations

import gc
import json
import random
import sys
import time
from pathlib import Path


def profile_design(netlist, seed: int = 0) -> dict:
    """Compile ``netlist`` stage by stage; return per-stage seconds.

    Mirrors one attempt of :func:`repro.pnr.flow._compile_mapped`
    (tech-map -> seed -> anneal -> route -> STA -> emit) with a timer
    around each stage, plus the derived throughput numbers.
    """
    from repro.fabric.array import CellArray
    from repro.fabric.floorplan import Region
    from repro.pnr.emit import emit_design
    from repro.pnr.place import (
        anneal_placement,
        default_anneal_steps,
        initial_placement,
    )
    from repro.pnr.route import Router
    from repro.pnr.flow import suggest_array
    from repro.pnr.techmap import map_netlist
    from repro.pnr.timing import analyze_timing

    gc.collect()  # keep predecessor garbage out of the timed stages
    t0 = time.perf_counter()
    design = map_netlist(netlist)
    t_map = time.perf_counter() - t0

    array = suggest_array(design)
    region = Region("bench", 0, 0, array.n_rows, array.n_cols)
    rng = random.Random(seed)

    t0 = time.perf_counter()
    seed_placement = initial_placement(design, region, rng)
    t_seed = time.perf_counter() - t0

    steps = default_anneal_steps(design.n_gates)
    anneal_stats: dict = {}
    t0 = time.perf_counter()
    placement = anneal_placement(
        design, seed_placement, rng, stats=anneal_stats
    )
    t_anneal = time.perf_counter() - t0
    evaluated = anneal_stats.get("evaluated", steps)

    router = Router(
        design, placement, (array.n_rows, array.n_cols), region, array=array,
    )
    t0 = time.perf_counter()
    routes = router.route_design(strict=True)
    t_route = time.perf_counter() - t0

    t0 = time.perf_counter()
    analyze_timing(design, placement, state=router.state, routes=routes)
    t_sta = time.perf_counter() - t0

    target = CellArray(array.n_rows, array.n_cols)
    t0 = time.perf_counter()
    emit_design(target, router.state)
    t_emit = time.perf_counter() - t0

    return {
        "gates": design.n_gates,
        "nets": len(routes),
        "array_side": array.n_rows,
        "techmap_s": round(t_map, 4),
        "seed_s": round(t_seed, 4),
        "anneal_s": round(t_anneal, 4),
        "route_s": round(t_route, 4),
        "sta_s": round(t_sta, 4),
        "emit_s": round(t_emit, 4),
        "anneal_steps": steps,
        "anneal_evaluated": evaluated,
        "anneal_accepted": anneal_stats.get("accepted", 0),
        "anneal_moves_per_s": (
            round(evaluated / t_anneal) if t_anneal > 0 else None
        ),
        "routed_nets_per_s": round(len(routes) / t_route) if t_route > 0 else None,
    }


def run_pnr_speed() -> dict[str, dict]:
    """The ``microbench.pnr_speed`` table: per-stage seconds + throughput."""
    from repro.datapath.adder import ripple_carry_netlist
    from repro.datapath.multiplier import array_multiplier_netlist
    from repro.pnr import kernel
    from repro.synth.macros import full_adder_testbench

    kernel.load()  # a first-use kernel build must not land in a timed stage
    fig10, _, _ = full_adder_testbench()
    designs = {
        "fig10_adder_slice": fig10,
        "rca8": ripple_carry_netlist(8),
        "mul3_array": array_multiplier_netlist(3),
    }
    return {name: profile_design(nl) for name, nl in designs.items()}


def main() -> int:
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    from check_regressions import drift_table

    committed = json.loads((here / "BENCH_results.json").read_text())
    baseline = {"microbench": {"pnr_speed": committed["microbench"]["pnr_speed"]}}
    print("\n".join(drift_table(baseline, {"microbench": {"pnr_speed": run_pnr_speed()}})))
    return 0


if __name__ == "__main__":
    sys.exit(main())
