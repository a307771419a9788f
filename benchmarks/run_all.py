#!/usr/bin/env python
"""Run every bench once, and record the perf and quality trajectory.

Usage::

    python benchmarks/run_all.py

Each ``bench_*.py`` in this directory runs as its own pytest session in
this process (they are not collected by the default test sweep) and is
timed.  A bench test hands each row it computes to the ``record_row``
fixture (``conftest.py``) and asserts on that same object, so every row
is computed once.  Three rows no bench asserts on are measured here:

* ``event_sim``  — raw event-scheduler throughput (a saturated
  gate-level micropipeline);
* ``batch_sim``  — bit-parallel vectors/second through the 8-bit
  fabric ripple-carry adder on the batch backend;
* ``pnr_speed``  — per-stage PnR seconds and engine throughput
  (``profile_pnr.py``).

The rows go to ``BENCH_results.json`` next to this script, under
``microbench.<path>`` for each path of ``check_regressions.REPORT``, and
the drift table against the file they replace is printed.  A failing
bench makes the exit code non-zero.  Service timing is perfbench's job
(``perfbench/run.py``), not this harness's.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


class RowSink:
    """pytest plugin: the rows bench tests record, and each run's tally."""

    def __init__(self) -> None:
        # ``record_row`` finds the sink by the name pluggy registers it
        # under, which is the plugin's ``__name__``.
        self.__name__ = "bench_rows"
        self.rows: dict[str, dict] = {}
        self.summary = ""

    def pytest_sessionfinish(self, session) -> None:
        failed = session.testsfailed
        self.summary = f"{session.testscollected - failed} passed" + (
            f", {failed} failed" if failed else ""
        )


def run_benches(sink: RowSink) -> dict[str, dict]:
    """Run each bench file under pytest; record wall time and status."""
    results: dict[str, dict] = {}
    for bench in sorted(HERE.glob("bench_*.py")):
        t0 = time.perf_counter()
        code = pytest.main(["-q", str(bench)], plugins=[sink])
        wall = time.perf_counter() - t0
        results[bench.name] = {
            "wall_s": round(wall, 3),
            "passed": code == pytest.ExitCode.OK,
            "summary": sink.summary,
        }
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


def main() -> int:
    sys.path.insert(0, str(SRC))
    from check_regressions import REPORT, drift_table
    from profile_pnr import run_pnr_speed

    # The microbenches run first, on a heap the benches have not grown.
    sink = RowSink()
    sink.rows.update(
        event_sim=microbench_event_throughput(),
        batch_sim=microbench_batch_throughput(),
        pnr_speed=run_pnr_speed(),
    )
    benches = run_benches(sink)
    micro: dict[str, dict] = {}
    for path in REPORT:
        if path in sink.rows:  # else the gate reports the row missing
            *parents, leaf = path.split(".")
            node = micro
            for part in parents:
                node = node.setdefault(part, {})
            node[leaf] = sink.rows[path]
    results = {"benches": benches, "microbench": micro}

    out = HERE / "BENCH_results.json"
    previous = json.loads(out.read_text()) if out.exists() else {}
    print("benches:")
    for name, r in benches.items():
        status = "ok" if r["passed"] else "FAIL"
        print(f"  {name:<36} {r['wall_s']:7.2f}s  {status}")
    print(f"drift against the previous {out.name}:")
    print("\n".join(drift_table(previous, results)))
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out}")
    failed = [name for name, r in benches.items() if not r["passed"]]
    if failed:
        print(f"FAILED benches: {failed}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
