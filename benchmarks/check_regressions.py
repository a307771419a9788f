#!/usr/bin/env python
"""CI benchmark-regression gate over ``BENCH_results.json``.

Compares a freshly generated trajectory against the committed baseline
and fails (exit code 1) when any *pinned* design regresses beyond the
tolerance on a gated metric.  Pinned designs are the stable PnR quality
rows whose numbers are deterministic for a seed — compile wall times
are machine-dependent and deliberately not gated:

* ``fig10_adder_slice`` (the paper's fa1 slice), ``rca8``,
  ``mul2_array``, ``mul3_array``;
* metrics: ``cycle_time`` and ``wirelength`` (higher = worse), each
  allowed to drift up by at most ``TOLERANCE`` (10%).

``compile_s`` is *recorded* for every pinned design (printed in the
drift table so the perf trajectory is visible in the CI artifact and
log) but never gated — wall time is machine-dependent.

A design or metric missing from the fresh results is itself a failure
(the bench silently dropping a row must not pass the gate); a design
missing from the *baseline* is skipped, so adding new rows never blocks.

Usage (what the CI example-smoke job runs)::

    cp benchmarks/BENCH_results.json /tmp/bench-baseline.json
    python benchmarks/run_all.py
    python benchmarks/check_regressions.py \
        --baseline /tmp/bench-baseline.json \
        --fresh benchmarks/BENCH_results.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Designs whose quality rows are gated, and the gated metrics.
PINNED_DESIGNS: tuple[str, ...] = (
    "fig10_adder_slice",
    "rca8",
    "mul2_array",
    "mul3_array",
)
METRICS: tuple[str, ...] = ("cycle_time", "wirelength")

#: Metrics shown in the drift table but never gated (machine-dependent).
REPORT_ONLY_METRICS: tuple[str, ...] = ("compile_s",)

#: Throughput rows from ``microbench.pnr_speed`` shown (never gated) so
#: the annealer perf trajectory is visible next to the quality gate:
#: evaluated moves/s per design.  Machine-dependent.
SPEED_REPORT_METRICS: tuple[str, ...] = ("anneal_moves_per_s",)


def speed_table(results: dict) -> dict:
    """The ``microbench.pnr_speed`` rows of one trajectory (may be {})."""
    return results.get("microbench", {}).get("pnr_speed", {}) or {}


#: Compile-service rows from ``microbench.service`` shown (never gated):
#: throughput and latency are machine-dependent, and the hit rate is a
#: property of the bench's job mix, not of the code under test.
SERVICE_REPORT_METRICS: dict[str, tuple[str, ...]] = {
    "throughput": ("speedup", "jobs_per_s", "cache_hit_rate"),
    "incremental": ("incremental_speedup", "cold_s", "incremental_s"),
    "store": ("disk_hit_speedup", "cold_ms", "disk_hit_ms", "memory_hit_ms"),
    "session": ("chain_speedup", "cold_chain_s", "session_chain_s"),
}


def service_table(results: dict) -> dict:
    """The ``microbench.service`` rows of one trajectory (may be {})."""
    return results.get("microbench", {}).get("service", {}) or {}


#: Defect-adaptive rows from ``microbench.defects`` shown (never
#: gated): repair latency and speedup are machine-dependent, and the
#: die yield is a property of the sampled lot, not of the code under
#: test — ``tests/test_service_defects.py`` pins the 5x floor.
DEFECTS_REPORT_METRICS: dict[str, tuple[str, ...]] = {
    "repair": ("repair_speedup", "median_repair_ms", "median_cold_ms"),
}


def defects_table(results: dict) -> dict:
    """The ``microbench.defects`` rows of one trajectory (may be {})."""
    return results.get("microbench", {}).get("defects", {}) or {}


#: Resilience rows from ``microbench.resilience`` shown (never gated):
#: recovery overhead and serve latencies are machine-dependent, and the
#: degraded rate is a property of the bench's pressure mix —
#: ``tests/test_resilience.py`` pins the functional contract.
RESILIENCE_REPORT_METRICS: dict[str, tuple[str, ...]] = {
    "crash": ("recovery_overhead", "clean_s", "crashed_s"),
    "degraded": ("degraded_rate", "degraded_ms", "repair_ms"),
    "retry": ("retried_call_ms", "fault_point_no_plan_ns"),
}


def resilience_table(results: dict) -> dict:
    """The ``microbench.resilience`` rows of one trajectory (may be {})."""
    return results.get("microbench", {}).get("resilience", {}) or {}


def defect_yield_rows(results: dict) -> dict:
    """The yield-vs-density rows, keyed by ``cell_fail_*`` (may be {})."""
    curve = defects_table(results).get("yield_curve", {}) or {}
    return {k: v for k, v in curve.items() if k.startswith("cell_fail_")}

#: Allowed relative drift upward (worse) before the gate fails.
TOLERANCE: float = 0.10


def quality_table(results: dict) -> dict:
    """The per-design PnR quality rows of one trajectory (may be {})."""
    return (
        results.get("microbench", {}).get("pnr", {}).get("quality", {}) or {}
    )


def check(
    baseline: dict,
    fresh: dict,
    designs: tuple[str, ...] = PINNED_DESIGNS,
    metrics: tuple[str, ...] = METRICS,
    tolerance: float = TOLERANCE,
) -> list[str]:
    """Violation messages for ``fresh`` against ``baseline`` (empty = pass)."""
    base_q = quality_table(baseline)
    fresh_q = quality_table(fresh)
    violations: list[str] = []
    if not fresh_q:
        return ["fresh results carry no microbench.pnr.quality table"]
    for design in designs:
        base_row = base_q.get(design)
        if base_row is None:
            continue  # new design: nothing to gate against yet
        fresh_row = fresh_q.get(design)
        if fresh_row is None:
            violations.append(f"{design}: missing from fresh results")
            continue
        for metric in metrics:
            base_val = base_row.get(metric)
            if base_val is None:
                continue
            fresh_val = fresh_row.get(metric)
            if fresh_val is None:
                violations.append(f"{design}.{metric}: missing from fresh results")
                continue
            limit = base_val * (1.0 + tolerance)
            if fresh_val > limit:
                violations.append(
                    f"{design}.{metric}: {fresh_val} exceeds baseline "
                    f"{base_val} by more than {tolerance:.0%} "
                    f"(limit {limit:.1f})"
                )
    return violations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", type=Path, required=True,
        help="committed trajectory to gate against (save it before run_all)",
    )
    parser.add_argument(
        "--fresh", type=Path, required=True,
        help="freshly generated trajectory to check",
    )
    parser.add_argument(
        "--tolerance", type=float, default=TOLERANCE,
        help="allowed relative drift (default %(default)s)",
    )
    args = parser.parse_args(argv)
    if args.baseline.resolve() == args.fresh.resolve():
        # Comparing a file against itself always passes — refuse the
        # silent no-op (run_all overwrites in place; copy the baseline
        # aside first, as the CI job does).
        print(
            f"benchmark gate: baseline and fresh are the same file "
            f"({args.fresh}); save the baseline aside before run_all"
        )
        return 2
    baseline = json.loads(args.baseline.read_text())
    fresh = json.loads(args.fresh.read_text())
    violations = check(baseline, fresh, tolerance=args.tolerance)
    base_q, fresh_q = quality_table(baseline), quality_table(fresh)
    print(f"benchmark gate: {len(PINNED_DESIGNS)} pinned designs, "
          f"tolerance {args.tolerance:.0%}")
    for design in PINNED_DESIGNS:
        for metric in METRICS + REPORT_ONLY_METRICS:
            b = base_q.get(design, {}).get(metric)
            f = fresh_q.get(design, {}).get(metric)
            drift = (
                f"{(f - b) / b:+.1%}" if b not in (None, 0) and f is not None
                else "n/a"
            )
            gated = "" if metric in METRICS else "  (recorded, not gated)"
            print(
                f"  {design:<20} {metric:<12} {b!s:>8} -> {f!s:>8}  "
                f"{drift}{gated}"
            )
    base_s, fresh_s = speed_table(baseline), speed_table(fresh)
    for row in sorted(set(base_s) | set(fresh_s)):
        for metric in SPEED_REPORT_METRICS:
            b = base_s.get(row, {}).get(metric)
            f = fresh_s.get(row, {}).get(metric)
            if b is None and f is None:
                continue
            drift = (
                f"{(f - b) / b:+.1%}" if b not in (None, 0) and f is not None
                else "n/a"
            )
            print(
                f"  {row:<20} {metric:<20} {b!s:>9} -> {f!s:>9}  "
                f"{drift}  (recorded, not gated)"
            )
    base_svc, fresh_svc = service_table(baseline), service_table(fresh)
    for row, svc_metrics in SERVICE_REPORT_METRICS.items():
        for metric in svc_metrics:
            b = base_svc.get(row, {}).get(metric)
            f = fresh_svc.get(row, {}).get(metric)
            if b is None and f is None:
                continue
            drift = (
                f"{(f - b) / b:+.1%}" if b not in (None, 0) and f is not None
                else "n/a"
            )
            print(
                f"  service.{row:<12} {metric:<20} {b!s:>9} -> {f!s:>9}  "
                f"{drift}  (recorded, not gated)"
            )
    base_r, fresh_r = resilience_table(baseline), resilience_table(fresh)
    for row, r_metrics in RESILIENCE_REPORT_METRICS.items():
        for metric in r_metrics:
            b = base_r.get(row, {}).get(metric)
            f = fresh_r.get(row, {}).get(metric)
            if b is None and f is None:
                continue
            drift = (
                f"{(f - b) / b:+.1%}" if b not in (None, 0) and f is not None
                else "n/a"
            )
            print(
                f"  resilience.{row:<9} {metric:<20} {b!s:>9} -> {f!s:>9}  "
                f"{drift}  (recorded, not gated)"
            )
    base_d, fresh_d = defects_table(baseline), defects_table(fresh)
    for row, d_metrics in DEFECTS_REPORT_METRICS.items():
        for metric in d_metrics:
            b = base_d.get(row, {}).get(metric)
            f = fresh_d.get(row, {}).get(metric)
            if b is None and f is None:
                continue
            drift = (
                f"{(f - b) / b:+.1%}" if b not in (None, 0) and f is not None
                else "n/a"
            )
            print(
                f"  defects.{row:<12} {metric:<20} {b!s:>9} -> {f!s:>9}  "
                f"{drift}  (recorded, not gated)"
            )
    base_y, fresh_y = defect_yield_rows(baseline), defect_yield_rows(fresh)
    for row in sorted(set(base_y) | set(fresh_y)):
        b = base_y.get(row, {}).get("die_yield")
        f = fresh_y.get(row, {}).get("die_yield")
        if b is None and f is None:
            continue
        drift = (
            f"{(f - b) / b:+.1%}" if b not in (None, 0) and f is not None
            else "n/a"
        )
        print(
            f"  defects.{row:<12} {'die_yield':<20} {b!s:>9} -> {f!s:>9}  "
            f"{drift}  (recorded, not gated)"
        )
    if violations:
        print("REGRESSIONS:")
        for v in violations:
            print(f"  {v}")
        return 1
    print("ok: no pinned metric regressed beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
