#!/usr/bin/env python
"""Run every bench, time it, and record the perf trajectory.

Usage::

    python benchmarks/run_all.py [--quick]

Each ``bench_*.py`` in this directory is executed as its own pytest run
(they are not collected by the default test sweep) and timed.  On top of
the per-bench wall times, three simulator-throughput microbenches are
measured directly:

* ``event_events_per_s``   — raw event-scheduler throughput (a saturated
  gate-level micropipeline);
* ``batch_vectors_per_s``  — bit-parallel vectors/second through the
  8-bit fabric ripple-carry adder on the batch backend;
* ``mc_configs_per_s``     — Monte-Carlo functional-yield configurations
  per second on both backends, plus their ratio (the build-once /
  evaluate-many speedup this architecture exists for).

Results go to ``BENCH_results.json`` next to this script, keyed by bench
name, so successive PRs can diff the trajectory.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"


def run_benches(quick: bool) -> dict[str, dict]:
    """Execute each bench file under pytest; record wall time and status."""
    results: dict[str, dict] = {}
    benches = sorted(HERE.glob("bench_*.py"))
    if quick:
        benches = benches[:3]
    for bench in benches:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", str(bench)],
            cwd=REPO,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin:/usr/local/bin"},
            capture_output=True,
            text=True,
        )
        wall = time.perf_counter() - t0
        tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        results[bench.name] = {
            "wall_s": round(wall, 3),
            "passed": proc.returncode == 0,
            "summary": tail,
        }
        status = "ok" if proc.returncode == 0 else "FAIL"
        print(f"  {bench.name:<36} {wall:7.2f}s  {status}")
    return results


def microbench_event_throughput() -> dict:
    """Events/second of the inertial-delay scheduler at saturation."""
    from repro.asynclogic.micropipeline import MicropipelineSim

    pipe = MicropipelineSim(8, data_width=8)
    # Warm the pipeline, then measure a steady-state token stream.
    for v in range(4):
        pipe.push(v)
    t0 = time.perf_counter()
    events = 0
    for v in range(200):
        pipe.push(v & 0xFF)
        events += pipe.sim.run(until=pipe.sim.now + 5)
    pipe.drain()
    elapsed = time.perf_counter() - t0
    # Count every applied event in the measured window via the trace-free
    # counter: re-measure with an explicit run tally.
    return {
        "tokens": 200,
        "events_applied": events,
        "wall_s": round(elapsed, 4),
        "events_per_s": round(events / elapsed) if elapsed > 0 else None,
        "tokens_per_s": round(200 / elapsed) if elapsed > 0 else None,
    }


def microbench_batch_throughput() -> dict:
    """Vectors/second through the 8-bit fabric adder, batch backend."""
    import numpy as np

    from repro.datapath.adder import RippleCarryAdder

    adder = RippleCarryAdder(8)
    rng = np.random.default_rng(0)
    n = 16384
    a = rng.integers(0, 256, n)
    b = rng.integers(0, 256, n)
    adder.add_batch(a[:64], b[:64])  # warm-up: compile + elaborate once
    t0 = time.perf_counter()
    got = adder.add_batch(a, b)
    elapsed = time.perf_counter() - t0
    assert (got == a + b).all()
    return {
        "vectors": n,
        "wall_s": round(elapsed, 4),
        "vectors_per_s": round(n / elapsed) if elapsed > 0 else None,
    }


def microbench_mc_yield() -> dict:
    """Monte-Carlo functional-yield throughput, event vs batch."""
    sys.path.insert(0, str(HERE))
    from bench_ablation_variation import run_functional_yield_comparison

    event, batch = run_functional_yield_comparison()
    ratio = batch.configs_per_second / event.configs_per_second
    return {
        "event_configs_per_s": round(event.configs_per_second),
        "batch_configs_per_s": round(batch.configs_per_second),
        "speedup": round(ratio, 1),
        "event_yield": event.functional_yield,
        "batch_yield": batch.functional_yield,
    }


def microbench_pnr() -> dict:
    """PnR quality and timing: wirelength, routing burn, cycle time.

    ``quality`` is per-design (includes the scale designs: multiplier,
    accumulator step); ``sharded`` compiles mul4, rca16 and rca32 across multiple chiplet
    arrays (shard count, channel cut, composed system cycle time).
    """
    sys.path.insert(0, str(HERE))
    from bench_pnr import run_pnr_quality, run_pnr_sharded

    return {
        "quality": run_pnr_quality(),
        "sharded": run_pnr_sharded(),
    }


def microbench_pnr_speed() -> dict:
    """Engine throughput: anneal moves/s, routed nets/s, stage seconds."""
    sys.path.insert(0, str(HERE))
    from profile_pnr import run_pnr_speed

    return run_pnr_speed()


def microbench_service() -> dict:
    """Service throughput, incremental latency, store tiers, sessions."""
    sys.path.insert(0, str(HERE))
    from bench_service import (
        run_service_incremental,
        run_service_session,
        run_service_store,
        run_service_throughput,
    )

    return {
        "throughput": run_service_throughput(),
        "incremental": run_service_incremental(),
        "store": run_service_store(),
        "session": run_service_session(),
    }


def microbench_defects() -> dict:
    """Die yield vs defect density, and warm-repair vs cold latency."""
    sys.path.insert(0, str(HERE))
    from bench_defects import run_defect_yield_curve, run_repair_speed

    return {
        "yield_curve": run_defect_yield_curve(),
        "repair": run_repair_speed(),
    }


def microbench_resilience() -> dict:
    """Crash recovery, degraded serving and retry/fault-point cost."""
    sys.path.insert(0, str(HERE))
    from bench_resilience import (
        run_crash_recovery,
        run_degraded_serve,
        run_retry_overhead,
    )

    return {
        "crash": run_crash_recovery(),
        "degraded": run_degraded_serve(),
        "retry": run_retry_overhead(),
    }


def main() -> int:
    quick = "--quick" in sys.argv[1:]
    sys.path.insert(0, str(SRC))
    print("running benches:")
    results: dict[str, object] = {"benches": run_benches(quick)}
    print("microbenches:")
    micro = {
        "event_sim": microbench_event_throughput(),
        "batch_sim": microbench_batch_throughput(),
        "mc_yield": microbench_mc_yield(),
        "pnr": microbench_pnr(),
        "pnr_speed": microbench_pnr_speed(),
        "service": microbench_service(),
        "defects": microbench_defects(),
        "resilience": microbench_resilience(),
    }
    results["microbench"] = micro
    print(f"  event scheduler : {micro['event_sim']['events_per_s']:>12,} events/s")
    print(f"  batch adder     : {micro['batch_sim']['vectors_per_s']:>12,} vectors/s")
    print(
        f"  MC yield        : {micro['mc_yield']['batch_configs_per_s']:>12,} configs/s "
        f"({micro['mc_yield']['speedup']}x over event)"
    )
    fig10 = micro["pnr"]["quality"]["fig10_adder_slice"]
    print(
        f"  PnR Fig.10      : {fig10['cells_logic']} logic + "
        f"{fig10['cells_route']} route cells, wirelength "
        f"{fig10['wirelength']}, cycle {fig10['cycle_time']}, "
        f"compiled in {fig10['compile_s']}s"
    )
    mul4 = micro["pnr"]["sharded"]["mul4_array"]
    print(
        f"  PnR mul4 sharded: {mul4['shards']} chiplets (side <= "
        f"{mul4['max_side']}), {mul4['cut_nets']} cut nets, cycle "
        f"{mul4['cycle_time']}, compiled in {mul4['compile_s']}s"
    )
    speed8 = micro["pnr_speed"]["rca8"]
    print(
        f"  PnR engine      : {speed8['anneal_moves_per_s']:>12,} anneal moves/s, "
        f"{speed8['routed_nets_per_s']:,} routed nets/s (rca8)"
    )
    svc = micro["service"]
    print(
        f"  compile service : {svc['throughput']['jobs']} jobs -> "
        f"{svc['throughput']['distinct']} compiles "
        f"({svc['throughput']['speedup']}x over serial cold), incremental "
        f"rca8 edit {svc['incremental']['incremental_speedup']}x faster"
    )
    print(
        f"  artifact store  : disk hit {svc['store']['disk_hit_ms']} ms "
        f"({svc['store']['disk_hit_speedup']}x over cold), memory hit "
        f"{svc['store']['memory_hit_ms']} ms; 5-edit session chain "
        f"{svc['session']['chain_speedup']}x over cold"
    )
    from bench_defects import DENSITIES

    rep = micro["defects"]["repair"]
    lightest = micro["defects"]["yield_curve"][f"cell_fail_{DENSITIES[0]}"]
    print(
        f"  die repair      : {rep['dies']} dies from one golden rca8 "
        f"compile, {rep['median_repair_ms']} ms median repair "
        f"({rep['repair_speedup']}x over cold), die yield "
        f"{lightest['die_yield']} at the lightest density"
    )
    res = micro["resilience"]
    print(
        f"  resilience      : worker-crash recovery "
        f"{res['crash']['recovery_overhead']}x of clean, degraded serve "
        f"{res['degraded']['degraded_ms']} ms vs repair "
        f"{res['degraded']['repair_ms']} ms, fault point (no plan) "
        f"{res['retry']['fault_point_no_plan_ns']} ns"
    )
    out = HERE / "BENCH_results.json"
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out}")
    failed = [
        name
        for name, r in results["benches"].items()  # type: ignore[union-attr]
        if not r["passed"]
    ]
    if failed:
        print(f"FAILED benches: {failed}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
