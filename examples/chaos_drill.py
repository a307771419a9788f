"""Chaos drill: the compile service surviving injected disasters.

PR 10 hardened `repro.service` against the failures a long-running
compile farm actually meets — and shipped the fault-injection harness
(`repro.service.FaultPlan`) that proves it.  A plan is deterministic
and content-addressed: the same seed replays the same disasters, so a
recovery is a regression test, not an anecdote.

This drill runs three injected failures (the first two against rca8,
the deadline against the slower rca16) and shows the service
recovering from each with the books balanced:

1. **worker kill** — the first pool worker dies mid-job; the
   supervisor respawns it and resubmits exactly once, and the
   recovered artifact is byte-identical to the fault-free compile;
2. **store corruption** — a persisted blob is corrupted in flight;
   the store quarantines it, reports a clean miss, and the service
   recompiles to identical bytes — never serves wrong ones;
3. **deadline expiry** — an impossible per-job deadline turns a
   would-be hang into `CompileTimeout`, on time and on the books.

Run:  python examples/chaos_drill.py
"""

import tempfile
import time

from repro.datapath.adder import ripple_carry_netlist
from repro.pnr.parallel import CompileTimeout
from repro.service import CompileOptions, CompileService, FaultPlan


def main() -> None:
    store_dir = tempfile.mkdtemp(prefix="chaos-drill-")

    # -- the fault-free reference ---------------------------------------
    with CompileService(workers=2, store=store_dir) as svc:
        reference = svc.compile(ripple_carry_netlist(8)).bitstreams()
    print(f"reference: rca8 compiled fault-free ({len(reference[0])} bytes)")

    # -- act 1: kill a worker mid-compile -------------------------------
    plan = FaultPlan.from_specs([("pool.worker", "die", {"token": "0"})])
    print(f"\nact 1: worker kill (plan {plan.digest()[:12]})")
    with CompileService(workers=2) as svc, plan.activate():
        result = svc.compile(ripple_carry_netlist(8))
        stats = svc.stats()
    assert result.bitstreams() == reference
    assert stats["worker_restarts"] == 1
    print(
        "  worker killed, resubmitted once, byte-identical recovery "
        f"(worker_restarts={stats['worker_restarts']})"
    )

    # -- act 2: corrupt the persisted artifact on load ------------------
    plan = FaultPlan.from_specs([("store.load", "corrupt",)], seed=1)
    print(f"\nact 2: store corruption (plan {plan.digest()[:12]})")
    with CompileService(workers=2, store=store_dir) as svc, plan.activate():
        result = svc.compile(ripple_carry_netlist(8))
        stats = svc.stats()
    assert result.bitstreams() == reference
    assert stats["store"]["quarantined"] == 1
    assert stats["compiles"] == 1
    print(
        "  blob corrupted, quarantined, recompiled to identical bytes "
        f"(quarantined={stats['store']['quarantined']}, "
        f"compiles={stats['compiles']})"
    )

    # -- act 3: an impossible deadline ----------------------------------
    deadline = 0.05
    print(f"\nact 3: deadline expiry ({deadline}s against a cold rca16)")
    with CompileService(workers=0) as svc:
        t0 = time.perf_counter()
        try:
            svc.compile(ripple_carry_netlist(16), CompileOptions(deadline=deadline))
            raise AssertionError("an impossible deadline must expire")
        except CompileTimeout:
            elapsed = time.perf_counter() - t0
        stats = svc.stats()
    assert elapsed < 2 * deadline
    assert stats["timeouts"] == 1
    print(
        f"  CompileTimeout after {elapsed:.3f}s (< 2x the deadline), "
        f"on the books (timeouts={stats['timeouts']})"
    )

    # -- the books ------------------------------------------------------
    assert stats["submissions"] == stats["settled"] + stats["shed"]
    assert stats["pending"] == 0
    print(
        "\nchaos drill: books balanced — submissions == settled + shed, "
        "nothing pending, nothing wrong-byted"
    )


if __name__ == "__main__":
    main()
