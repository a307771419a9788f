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

One drift table prints every kept row of the trajectory (``REPORT``):
the gated metrics of the pinned designs, and next to them numbers that
are *recorded* but never gated, such as ``compile_s`` and the engine
throughputs — wall time is machine-dependent.

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

#: Allowed relative drift upward (worse) before the gate fails.
TOLERANCE: float = 0.10

#: The drift table: every kept ``microbench`` path of a trajectory,
#: mapped to (gated metrics, recorded metrics).  :func:`check` gates the
#: first group on the ``PINNED_DESIGNS`` rows only; every other number
#: is printed so the trajectory shows in the CI log, and never gated —
#: wall times and throughputs depend on the machine, yield rows on the
#: sampled lot.  ``run_all.py`` writes exactly these paths.
REPORT: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "event_sim": ((), ("events_per_s",)),
    "batch_sim": ((), ("vectors_per_s",)),
    "mc_yield": ((), ("batch_configs_per_s", "speedup")),
    "pnr.quality": (METRICS, REPORT_ONLY_METRICS),
    "pnr.sharded": ((), ("cycle_time", "wirelength", "compile_s")),
    "pnr_speed": ((), (
        "seed_s", "anneal_s", "route_s", "sta_s", "emit_s",
        "anneal_moves_per_s", "routed_nets_per_s",
    )),
    "defects.yield_curve": ((), ("die_yield", "median_repair_ms")),
}


def rows(results: dict, path: str) -> dict[str, dict]:
    """The rows at ``microbench.<path>`` of one trajectory (may be {}).

    A table maps each row name to its row; a single row (``event_sim``)
    comes back under the name ``""``.
    """
    node = results.get("microbench", {})
    for part in path.split("."):
        node = node.get(part) or {}
    table = {k: v for k, v in node.items() if isinstance(v, dict)}
    return table or ({"": node} if node else {})


def drift_table(baseline: dict, fresh: dict) -> list[str]:
    """One line per :data:`REPORT` metric that either trajectory holds."""
    lines = []
    for path, (gated, recorded) in REPORT.items():
        base_rows, fresh_rows = rows(baseline, path), rows(fresh, path)
        for name in dict.fromkeys([*base_rows, *fresh_rows]):
            label = f"{path}.{name}" if name else path
            for metric in gated + recorded:
                b = base_rows.get(name, {}).get(metric)
                f = fresh_rows.get(name, {}).get(metric)
                if b is None and f is None:
                    continue
                drift = (
                    f"{(f - b) / b:+.1%}" if b not in (None, 0) and f is not None
                    else "n/a"
                )
                note = (
                    "" if metric in gated and name in PINNED_DESIGNS
                    else "  (recorded, not gated)"
                )
                lines.append(
                    f"  {label:<36} {metric:<18} {b!s:>9} -> {f!s:>9}  "
                    f"{drift}{note}"
                )
    return lines


def check(
    baseline: dict,
    fresh: dict,
    designs: tuple[str, ...] = PINNED_DESIGNS,
    metrics: tuple[str, ...] = METRICS,
    tolerance: float = TOLERANCE,
) -> list[str]:
    """Violation messages for ``fresh`` against ``baseline`` (empty = pass)."""
    base_q = rows(baseline, "pnr.quality")
    fresh_q = rows(fresh, "pnr.quality")
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
    print(f"benchmark gate: {len(PINNED_DESIGNS)} pinned designs, "
          f"tolerance {args.tolerance:.0%}")
    print("\n".join(drift_table(baseline, fresh)))
    if violations:
        print("REGRESSIONS:")
        for v in violations:
            print(f"  {v}")
        return 1
    print("ok: no pinned metric regressed beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
