"""Digit emission must write what the CellConfig emitter wrote.

:func:`repro.pnr.emit.emit_design` fills frame digits directly.  The
oracle below is the emitter it replaced: it builds one
:class:`CellConfig` per cell through the validated ``set_product`` /
``set_constant`` API and installs each with ``CellArray.set_cell``,
reading the router's occupancy arrays cell by cell.  Both must produce
the same digit matrix from the same routing state — for plain logic,
feed-throughs, C-element pairs (with and without the reset literal) and
event-latch pairs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.asynclogic.micropipeline import micropipeline_netlist
from repro.datapath.adder import ripple_carry_netlist
from repro.datapath.multiplier import array_multiplier_netlist
from repro.fabric.array import CellArray
from repro.fabric.driver import DriverMode
from repro.fabric.nandcell import CellConfig, Direction, InputSource, LfbPartner
from repro.netlist import Netlist
from repro.pnr import compile_to_fabric, map_netlist
from repro.pnr.flow import _compile_mapped
from repro.pnr.techmap import CONST_GATE, PAIR_CELEMENT, PRODUCT_NAND
from repro.sim.values import ZERO


def _k(state, cell) -> int:
    return (cell[0] * state.n_cols + cell[1]) * 6


def gate_rows(state, cell) -> dict:
    """``{row: direction}`` of the gate fan-out rows on ``cell``."""
    dirs = state.gate_dir[_k(state, cell):][:6]
    return {row: Direction(d) for row, d in enumerate(dirs) if d >= 0}


def thru_rows(state, cell) -> dict:
    """``{row: (column read, direction)}`` of the feed-throughs."""
    k = _k(state, cell)
    return {
        row: (int(col), Direction(d))
        for row, (d, col) in enumerate(
            zip(state.thru_dir[k:k + 6], state.thru_in[k:k + 6])
        )
        if d >= 0
    }


def input_columns(state, gate, cell) -> list[int]:
    """Each input net's first-claimed column on ``cell``."""
    k = _k(state, cell)
    claims = sorted(
        (int(state.col_seq[k + col]), col)
        for col in range(6) if state.col_net[k + col] >= 0
    )
    first = {}
    for _, col in claims:
        first.setdefault(state.net_names[state.col_net[k + col]], col)
    return [first[net] for net in gate.inputs]


def oracle_emit(array: CellArray, state) -> None:
    """The CellConfig emitter: one validated config per cell."""
    configs: dict[tuple[int, int], CellConfig] = {}
    for gate in state.design.gates.values():
        in_cell = state.placement.input_cell(gate)
        out_rows = gate_rows(state, state.placement.output_cell(gate))
        if gate.width == 1:
            cfg = configs[in_cell] = CellConfig()
            if gate.kind == CONST_GATE:
                mode = DriverMode.BUFFER if gate.value == 1 else DriverMode.INVERT
            else:
                cols = sorted(set(input_columns(state, gate, in_cell)))
                mode = (DriverMode.BUFFER if gate.kind == PRODUCT_NAND
                        else DriverMode.INVERT)
            for row, direction in out_rows.items():
                if gate.kind == CONST_GATE:
                    cfg.set_constant(row, 1)
                else:
                    cfg.set_product(row, cols)
                cfg.drivers[row] = mode
                cfg.directions[row] = direction
            continue
        cols = input_columns(state, gate, in_cell)
        if gate.kind == PAIR_CELEMENT:
            a_col, b_col, extra = cols[0], cols[1], cols[2:3]
            products = [[a_col, b_col] + extra, [a_col, 5] + extra,
                        [b_col, 5] + extra]
        else:
            d, r, rn, k, kn = cols
            products = [[r, k, d], [rn, kn, d], [r, kn, 5], [rn, k, 5], [d, 5]]
        a = CellConfig()
        a.lfb_partner = LfbPartner.EAST
        a.input_select[5] = InputSource.LFB0
        for row, product in enumerate(products):
            a.set_product(row, sorted(set(product)))
            a.drivers[row] = DriverMode.BUFFER
        b = CellConfig()
        b.set_product(0, list(range(len(products))))
        b.lfb_taps[0] = 0
        for row, direction in out_rows.items():
            if row != 0:
                b.crosspoints[row] = list(b.crosspoints[0])
            b.drivers[row] = DriverMode.BUFFER
            b.directions[row] = direction
        configs[in_cell] = a
        configs[state.placement.output_cell(gate)] = b
    for cell_id in np.flatnonzero(state.thru_key).tolist():
        cell = divmod(cell_id, state.n_cols)
        cfg = configs.setdefault(cell, CellConfig())
        for row, (in_col, direction) in thru_rows(state, cell).items():
            assert cfg.drivers[row] is DriverMode.OFF
            cfg.set_product(row, [in_col])
            cfg.drivers[row] = DriverMode.INVERT
            cfg.directions[row] = direction
    for (r, c), cfg in configs.items():
        array.set_cell(r, c, cfg)


def stateful_netlist() -> Netlist:
    """A C-element with the reset literal feeding an event latch."""
    nl = Netlist("pairs")
    a, b, d, r, k = (nl.add_input(x) for x in "abdrk")
    nl.add("celement", "c", [a, b], "cq", init=ZERO)
    nl.add("nand", "n", ["cq", d], "nd")
    nl.add("eventlatch", "l", ["nd", r, k], nl.add_output("z"), init=ZERO)
    return nl


def pipeline_netlist() -> Netlist:
    """One micropipeline stage: C-element control, event-latch data."""
    return micropipeline_netlist(1, data_width=2, auto_sink=False)[0]


MAKERS = {
    "rca4": lambda: ripple_carry_netlist(4),
    "rca8": lambda: ripple_carry_netlist(8),
    "mul3": lambda: array_multiplier_netlist(3),
    "pipeline": pipeline_netlist,
    "pairs": stateful_netlist,
}
CASES = [(d, s) for d in ("rca4", "rca8", "mul3") for s in range(4)]
CASES += [("pipeline", 0), ("pairs", 1)]


@pytest.mark.parametrize(
    "name, seed", CASES, ids=[f"{d}-seed{s}" for d, s in CASES]
)
def test_digit_emit_matches_cellconfig_emit(name, seed):
    netlist = MAKERS[name]()
    result, state = _compile_mapped(map_netlist(netlist), netlist, seed=seed)
    assert result.array.to_digits() == compile_to_fabric(
        netlist, seed=seed, workers=0
    ).array.to_digits()
    want = CellArray(result.array.n_rows, result.array.n_cols)
    oracle_emit(want, state)
    assert result.array.to_digits() == want.to_digits()


def test_pair_cases_are_covered():
    """The oracle comparison exercises both stateful pair kinds, and a
    C-element reading the reset literal."""
    for make in (pipeline_netlist, stateful_netlist):
        design = compile_to_fabric(make(), seed=0, workers=0).design
        kinds = {g.kind for g in design.gates.values()}
        assert {"celement", "eventlatch"} <= kinds
    gates = compile_to_fabric(stateful_netlist(), seed=1).design.gates
    assert len(gates["c"].inputs) == 3


def test_set_cells_checks_the_block_before_writing():
    array = CellArray(2, 2)
    before = array.to_digits()
    blank = np.frombuffer(array.to_digits()[:64], dtype=np.uint8)
    bad = blank.copy()
    bad[63] = 1  # a reserved digit
    with pytest.raises(ValueError, match="reserved"):
        array.set_cells([(0, 0), (1, 1)], np.stack([blank, bad]))
    with pytest.raises(ValueError, match="outside 2x2"):
        array.set_cells([(0, 0), (2, 0)], np.stack([blank, blank]))
    assert array.to_digits() == before
