"""Tests for the static timing analysis of compiled designs.

The timing model (docs/timing-model.md) promises two things that are
checked here mechanically:

* **consistency** — the routed STA composes exactly the delays
  `CellArray.to_netlist` annotates, so its cycle time equals the
  IR-level longest-path bound over the emitted fabric netlist;
* **soundness vs the event simulator** — measured settle time after an
  input change never exceeds the reported critical path, and a design
  whose critical path is fully exercised (an inverter chain) settles in
  exactly the reported cycle time.
"""

import numpy as np
import pytest

from repro.datapath.accumulator import accumulator_step_netlist
from repro.datapath.adder import ripple_carry_netlist
from repro.datapath.multiplier import array_multiplier_netlist
from repro.netlist import BatchBackend, EventBackend, Netlist
from repro.pnr import (
    HOP_DELAY,
    analyze_timing,
    compile_to_fabric,
    map_netlist,
    verify_equivalence,
)
from repro.sim.values import ONE, ZERO, X


def one_bit_adder() -> Netlist:
    nl = Netlist("fa1")
    a, b, c = (nl.add_input(x) for x in "abc")
    nl.add("xor", "x1", [a, b], "t")
    nl.add("xor", "x2", ["t", c], nl.add_output("s"))
    nl.add("and", "a1", [a, b], "ab")
    nl.add("and", "a2", ["t", c], "tc")
    nl.add("or", "o1", ["ab", "tc"], nl.add_output("cout"))
    return nl


def inverter_chain(n: int) -> Netlist:
    nl = Netlist(f"chain{n}")
    prev = nl.add_input("a")
    for k in range(n):
        prev = nl.add("not", f"inv{k}", [prev], f"n{k}")
    nl.add("buf", "out", [prev], nl.add_output("y"))
    return nl


# ----------------------------------------------------------------------
# The analysis itself
# ----------------------------------------------------------------------

class TestAnalyzeTiming:
    def test_logic_mode_is_pure_depth(self):
        """Without placement, cycle time is gate depth x fabric delay."""
        design = map_netlist(inverter_chain(5))
        report = analyze_timing(design)
        assert report.mode == "logic"
        # 5 inverters + 1 buffer, 3 units each, zero wire delay.
        assert report.cycle_time == report.logic_delay == 18
        assert report.worst_slack == 0
        assert report.wire_delay == 0

    @pytest.mark.parametrize(
        "netlist",
        [one_bit_adder(), ripple_carry_netlist(4), inverter_chain(7)],
        ids=["fa1", "rca4", "chain7"],
    )
    def test_routed_sta_matches_ir_arrival_bound(self, netlist):
        """Acceptance: the routed STA equals the IR longest-path bound.

        `analyze_timing` works on mapped gates and routed wire counts;
        `Netlist.arrival_times` works on the emitted fabric netlist with
        its per-cell delay annotations.  Both views of the same compiled
        design must agree exactly.
        """
        res = compile_to_fabric(netlist, seed=0)
        assert res.timing is not None and res.timing.mode == "routed"
        fabric = res.fabric_netlist().netlist
        assert res.timing.cycle_time == max(fabric.arrival_times().values())

    def test_critical_path_is_traceable(self):
        res = compile_to_fabric(ripple_carry_netlist(4), seed=0)
        t = res.timing
        steps = t.critical_path
        assert steps[0].kind == "launch" and steps[0].arrival == 0
        assert steps[-1].kind == "capture" and steps[-1].arrival == t.cycle_time
        arrivals = [s.arrival for s in steps]
        assert arrivals == sorted(arrivals)
        for step in steps:
            if step.kind in ("gate", "pair"):
                assert step.name in res.design.gates
                assert step.cell in res.placement.cells_of(
                    res.design.gates[step.name]
                )
        assert t.format().startswith("cycle time")

    def test_criticality_normalised(self):
        res = compile_to_fabric(ripple_carry_netlist(4), seed=0)
        crit = res.timing.criticality
        assert all(0.0 <= c <= 1.0 for c in crit.values())
        assert max(crit.values()) == 1.0
        # The endpoint's net is critical by definition.
        endpoint = res.timing.endpoint
        assert crit[endpoint] == 1.0

    def test_slack_against_explicit_period(self):
        nl = inverter_chain(3)
        res = compile_to_fabric(nl, seed=0, target_period=1000)
        assert res.timing.target_period == 1000
        assert res.timing.worst_slack == 1000 - res.timing.cycle_time
        assert res.timing.worst_slack > 0

    def test_pair_macros_are_endpoints(self):
        """Paths capture at a C-element's pins and relaunch at its output."""
        nl = Netlist("ce")
        a, b = nl.add_input("a"), nl.add_input("b")
        nl.add("celement", "c", [a, b], "q", init=X)
        nl.add("not", "inv", ["q"], nl.add_output("y"))
        res = compile_to_fabric(nl, seed=0)
        t = res.timing
        (pair,) = [g for g in res.design.gates.values() if g.is_stateful]
        # The pair launches its output at its own forward delay; the
        # downstream inverter path rides on top of that.
        assert t.arrivals["q"] == pair.fabric_delay == 6
        assert t.cycle_time >= pair.fabric_delay + 3

    def test_stats_mirror_report(self):
        res = compile_to_fabric(ripple_carry_netlist(4), seed=0)
        assert res.stats.cycle_time == res.timing.cycle_time
        assert res.stats.worst_slack == res.timing.worst_slack
        assert res.stats.logic_delay == res.timing.logic_delay


# ----------------------------------------------------------------------
# Agreement with the event simulator
# ----------------------------------------------------------------------

class TestEventSimAgreement:
    def _settle_times(self, res, vectors, seed=0):
        """Quiescence intervals after input changes on the event engine."""
        sim = EventBackend().elaborate(res.fabric_netlist().netlist)
        free = res.fabric_netlist().netlist.free_inputs()
        rng = np.random.default_rng(seed)
        wires = list(res.input_wires.values())
        # Settle the power-on transient before measuring.
        for w in free:
            sim.drive(w, ZERO)
        sim.run_to_quiescence(max_time=100_000)
        settles = []
        for _ in range(vectors):
            t0 = sim.now
            for w in wires:
                sim.drive(w, ONE if rng.integers(0, 2) else ZERO)
            sim.run_to_quiescence(max_time=t0 + 100_000)
            settles.append(sim.now - t0)
        return settles

    def test_settle_time_never_exceeds_critical_path(self):
        """STA soundness: the simulator can never be slower than the STA."""
        for netlist in (one_bit_adder(), ripple_carry_netlist(4)):
            res = compile_to_fabric(netlist, seed=0)
            for settle in self._settle_times(res, vectors=24):
                assert settle <= res.timing.cycle_time

    def test_chain_settles_in_exactly_the_cycle_time(self):
        """A fully exercised critical path meets the STA bound exactly.

        Toggling the input of an inverter chain makes every gate and
        feed-through on the (only) path switch, so the last event lands
        at precisely the reported cycle time — the STA is tight, not
        just an over-approximation.
        """
        res = compile_to_fabric(inverter_chain(6), seed=0)
        sim = EventBackend().elaborate(res.fabric_netlist().netlist)
        wire = res.input_wires["a"]
        sim.drive(wire, ZERO)
        sim.run_to_quiescence(max_time=100_000)
        for value in (ONE, ZERO, ONE):
            t0 = sim.now
            sim.drive(wire, value)
            sim.run_to_quiescence(max_time=t0 + 100_000)
            assert sim.now - t0 == res.timing.cycle_time


# ----------------------------------------------------------------------
# Delay metadata plumbing
# ----------------------------------------------------------------------

class TestDelayMetadata:
    def test_source_delay_survives_mapping(self):
        nl = Netlist("d")
        a = nl.add_input("a")
        nl.add("not", "g", [a], nl.add_output("y"), delay=7)
        design = map_netlist(nl)
        (gate,) = [g for g in design.gates.values() if g.output == "y"]
        assert gate.source_delay == 7
        # The fabric delay is set by the row/driver, not the annotation.
        assert gate.fabric_delay == 3

    def test_hop_delay_matches_fabric_constants(self):
        from repro.fabric.array import ROW_DELAY
        from repro.fabric.driver import DRIVER_DELAY, DriverMode

        assert HOP_DELAY == ROW_DELAY + DRIVER_DELAY[DriverMode.INVERT]

    def test_ir_critical_path_accessor(self):
        nl = inverter_chain(4)
        path = nl.critical_path()
        assert [c.name for c in path] == ["inv0", "inv1", "inv2", "inv3", "out"]
        arr = nl.arrival_times()
        assert arr["y"] == 5  # 4 inverters + 1 buffer, delay 1 each


# ----------------------------------------------------------------------
# Scale-benchmark generators
# ----------------------------------------------------------------------

class TestScaleGenerators:
    def test_array_multiplier_exhaustive(self):
        n = 3
        nl = array_multiplier_netlist(n)
        lim = 1 << n
        a = np.repeat(np.arange(lim), lim)
        b = np.tile(np.arange(lim), lim)
        stim = {}
        for k in range(n):
            stim[f"a{k}"] = ((a >> k) & 1).astype(np.uint8)
            stim[f"b{k}"] = ((b >> k) & 1).astype(np.uint8)
        out = BatchBackend().evaluate(
            nl, stim, outputs=[f"p{w}" for w in range(2 * n)]
        )
        got = np.zeros_like(a)
        for w in range(2 * n):
            got |= out[f"p{w}"].astype(np.int64) << w
        assert np.array_equal(got, a * b)

    def test_accumulator_step_adds(self):
        n = 8
        nl = accumulator_step_netlist(n)
        rng = np.random.default_rng(0)
        acc = rng.integers(0, 1 << n, 512)
        b = rng.integers(0, 1 << n, 512)
        stim = {}
        for k in range(n):
            stim[f"acc{k}"] = ((acc >> k) & 1).astype(np.uint8)
            stim[f"b{k}"] = ((b >> k) & 1).astype(np.uint8)
        outs = [f"nxt{k}" for k in range(n)] + [f"c{n}"]
        out = BatchBackend().evaluate(nl, stim, outputs=outs)
        got = np.zeros_like(acc)
        for k in range(n):
            got |= out[f"nxt{k}"].astype(np.int64) << k
        got |= out[f"c{n}"].astype(np.int64) << n
        assert np.array_equal(got, acc + b)

    def test_multiplier_compiles_and_reports_timing(self):
        res = compile_to_fabric(array_multiplier_netlist(2), seed=0)
        assert res.timing.cycle_time >= res.timing.logic_delay > 0
        verify_equivalence(res, n_vectors=128, event_vectors=2)


@pytest.mark.parametrize("make", [
    lambda: ripple_carry_netlist(8),
    lambda: array_multiplier_netlist(3),
    lambda: accumulator_step_netlist(4),
], ids=["rca8", "mul3", "acc4"])
def test_logic_delay_is_the_zero_wire_propagation(make):
    """The ideal-wire bound is the forward pass with every wire at zero:
    its lean form must agree with the full propagation."""
    from repro.pnr.timing import _logic_delay, _propagate

    design = map_netlist(make())
    _, captures = _propagate(design, {}, {})
    assert _logic_delay(design) == max((c[0] for c in captures), default=0)
