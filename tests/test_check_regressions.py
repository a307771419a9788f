"""Tests for the CI benchmark-regression gate (`benchmarks/check_regressions.py`).

The gate must demonstrably fail on a synthetic regression and pass on
the committed trajectory — the acceptance bar for wiring it into the
example-smoke CI job after ``run_all.py``.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

from check_regressions import (  # noqa: E402 (path bootstrap above)
    METRICS,
    PINNED_DESIGNS,
    REPORT,
    check,
    main,
    rows,
)


@pytest.fixture()
def committed() -> dict:
    return json.loads((BENCHMARKS / "BENCH_results.json").read_text())


def test_committed_trajectory_passes(committed):
    assert check(committed, committed) == []


def test_pinned_designs_present_in_committed_trajectory(committed):
    quality = committed["microbench"]["pnr"]["quality"]
    for design in PINNED_DESIGNS:
        assert design in quality, design
        for metric in METRICS:
            assert metric in quality[design], (design, metric)


def test_synthetic_regression_fails(committed):
    fresh = copy.deepcopy(committed)
    row = fresh["microbench"]["pnr"]["quality"]["rca8"]
    row["cycle_time"] = int(row["cycle_time"] * 1.2)  # 20% > 10% tolerance
    violations = check(committed, fresh)
    assert len(violations) == 1
    assert "rca8.cycle_time" in violations[0]


def test_drift_within_tolerance_passes(committed):
    fresh = copy.deepcopy(committed)
    for design in PINNED_DESIGNS:
        row = fresh["microbench"]["pnr"]["quality"][design]
        for metric in METRICS:
            row[metric] = int(row[metric] * 1.05)  # 5% < 10% tolerance
    assert check(committed, fresh) == []


def test_improvement_passes(committed):
    fresh = copy.deepcopy(committed)
    row = fresh["microbench"]["pnr"]["quality"]["mul3_array"]
    row["wirelength"] = int(row["wirelength"] * 0.5)
    assert check(committed, fresh) == []


def test_missing_design_fails(committed):
    fresh = copy.deepcopy(committed)
    del fresh["microbench"]["pnr"]["quality"]["mul2_array"]
    violations = check(committed, fresh)
    assert any("mul2_array" in v and "missing" in v for v in violations)


def test_missing_metric_fails(committed):
    fresh = copy.deepcopy(committed)
    del fresh["microbench"]["pnr"]["quality"]["rca8"]["wirelength"]
    violations = check(committed, fresh)
    assert any("rca8.wirelength" in v for v in violations)


def test_new_design_in_fresh_is_not_gated(committed):
    fresh = copy.deepcopy(committed)
    fresh["microbench"]["pnr"]["quality"]["brand_new"] = {"cycle_time": 10**9}
    assert check(committed, fresh) == []


def test_empty_fresh_results_fail(committed):
    assert check(committed, {}) != []


def test_cli_round_trip(tmp_path, committed, capsys):
    base = tmp_path / "base.json"
    base.write_text(json.dumps(committed))
    good = tmp_path / "fresh_good.json"
    good.write_text(json.dumps(committed))
    fresh = copy.deepcopy(committed)
    fresh["microbench"]["pnr"]["quality"]["rca8"]["wirelength"] *= 2
    bad = tmp_path / "fresh_bad.json"
    bad.write_text(json.dumps(fresh))
    assert main(["--baseline", str(base), "--fresh", str(good)]) == 0
    assert main(["--baseline", str(base), "--fresh", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "REGRESSIONS" in out


def test_cli_refuses_self_comparison(tmp_path, committed, capsys):
    base = tmp_path / "base.json"
    base.write_text(json.dumps(committed))
    assert main(["--baseline", str(base), "--fresh", str(base)]) == 2
    assert "same file" in capsys.readouterr().out


def test_tolerance_is_adjustable(committed):
    fresh = copy.deepcopy(committed)
    row = fresh["microbench"]["pnr"]["quality"]["rca8"]
    row["cycle_time"] = int(row["cycle_time"] * 1.15)
    assert check(committed, fresh, tolerance=0.10) != []
    assert check(committed, fresh, tolerance=0.25) == []


def test_compile_s_is_recorded_but_never_gated(committed, capsys):
    """A 10x compile-time blowup must not fail the gate (machine noise),
    but the drift table must still show the trajectory."""
    from check_regressions import REPORT_ONLY_METRICS

    assert "compile_s" in REPORT_ONLY_METRICS
    fresh = copy.deepcopy(committed)
    for design in PINNED_DESIGNS:
        row = fresh["microbench"]["pnr"]["quality"][design]
        if "compile_s" in row:
            row["compile_s"] = row["compile_s"] * 10
    assert check(committed, fresh) == []


def test_cli_prints_compile_s_trajectory(tmp_path, committed, capsys):
    base = tmp_path / "base.json"
    base.write_text(json.dumps(committed))
    fresh = tmp_path / "fresh.json"
    fresh.write_text(json.dumps(committed))
    assert main(["--baseline", str(base), "--fresh", str(fresh)]) == 0
    out = capsys.readouterr().out
    assert "compile_s" in out
    assert "recorded, not gated" in out


def test_recorded_metrics_print_but_never_gate(tmp_path, committed, capsys):
    """Every metric the reporter's spec records without gating prints as
    "(recorded, not gated)" and cannot fail the gate, even moved 10x."""
    fresh = copy.deepcopy(committed)
    recorded, paths = set(), set()
    for path, (gated, metrics) in REPORT.items():
        for name, row in rows(fresh, path).items():
            for metric in gated + metrics:
                if metric in gated and name in PINNED_DESIGNS:
                    continue
                if isinstance(row.get(metric), (int, float)):
                    row[metric] *= 10
                    recorded.add((f"{path}.{name}" if name else path, metric))
                    paths.add(path)
    assert paths == set(REPORT)  # the committed file holds every kept row
    assert check(committed, fresh) == []

    base = tmp_path / "base.json"
    base.write_text(json.dumps(committed))
    fresh_p = tmp_path / "fresh.json"
    fresh_p.write_text(json.dumps(fresh))
    assert main(["--baseline", str(base), "--fresh", str(fresh_p)]) == 0
    printed = {
        tuple(line.split()[:2]): line
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("  ")
    }
    for key in recorded:
        assert printed[key].endswith("(recorded, not gated)"), key
