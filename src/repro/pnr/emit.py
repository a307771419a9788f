"""Stage 4 — emission: routing state to concrete cell configurations.

Turns the bookkeeping of :class:`repro.pnr.route.RoutingState` into
:class:`repro.fabric.nandcell.CellConfig` objects and encodes each, once
validated, into a :class:`repro.fabric.array.CellArray`'s digit matrix.
The emitted array is ordinary fabric state: it serialises through
:mod:`repro.fabric.bitstream`, lowers
through :meth:`CellArray.to_netlist`, and simulates on either netlist
backend — nothing downstream knows the configuration came from an
automatic flow rather than a hand-placed macro.

Emission rules (all derived from the Fig. 4/5 tables):

* a ``nand`` gate is one product row per fan-out branch with a BUFFER
  driver; an ``and`` gate the same rows with INVERT drivers;
* a ``const`` gate is a constant-1 row (all crosspoints FORCE_OFF) whose
  driver polarity selects the emitted value;
* a feed-through row is a single-input product with an INVERT driver — a
  non-inverting buffer.  Feed-through rows land on blank cells *and* on
  the spare rows of placed logic cells (one cell, logic plus wire);
* the stateful pairs replay :func:`repro.synth.macros.c_element_pair` /
  :func:`repro.synth.macros.ecse_pair` cell-for-cell, with the optional
  reset literal folded into every product of the C-element.
"""

from __future__ import annotations

from repro.fabric.array import CellArray
from repro.fabric.driver import DriverMode
from repro.fabric.nandcell import CellConfig, InputSource, LfbPartner
from repro.pnr.route import RoutingState
from repro.pnr.techmap import (
    CONST_GATE,
    MappedGate,
    PAIR_CELEMENT,
    PAIR_EVENTLATCH,
    PRODUCT_AND,
    PRODUCT_NAND,
)


class EmitError(RuntimeError):
    """The routing state is incomplete or inconsistent for emission."""


def emit_design(array: CellArray, state: RoutingState) -> dict[str, int]:
    """Install every placed gate and feed-through row on ``array``.

    Returns ``{"cells_logic": ..., "cells_route": ...}`` where
    ``cells_route`` counts cells burned *purely* as interconnect (shared
    logic/route cells count as logic).  All touched cells must be blank
    beforehand (checked by the flow layer).
    """
    design = state.design
    placement = state.placement
    configs: dict[tuple[int, int], CellConfig] = {}
    n_logic = 0
    for gate in design.gates.values():
        in_cell = placement.input_cell(gate)
        out_cell = placement.output_cell(gate)
        out_rows = state.gate_rows.get(out_cell, {})
        if gate.kind in (PRODUCT_NAND, PRODUCT_AND):
            configs[in_cell] = _emit_product(state, gate, in_cell, out_rows)
        elif gate.kind == CONST_GATE:
            configs[in_cell] = _emit_const(gate, out_rows)
        elif gate.kind == PAIR_CELEMENT:
            configs[in_cell], configs[out_cell] = _emit_celement(
                state, gate, in_cell, out_rows
            )
        elif gate.kind == PAIR_EVENTLATCH:
            configs[in_cell], configs[out_cell] = _emit_eventlatch(
                state, gate, in_cell, out_rows
            )
        else:  # pragma: no cover - kinds are closed
            raise EmitError(f"gate {gate.name!r}: unknown kind {gate.kind!r}")
        n_logic += gate.width
    n_route = 0
    for cell, rows in state.thru_rows.items():
        cfg = configs.get(cell)
        if cfg is None:
            cfg = CellConfig()
            configs[cell] = cfg
            n_route += 1
        for row, (in_col, direction) in rows.items():
            if cfg.drivers[row] is not DriverMode.OFF:
                raise EmitError(
                    f"cell {cell}: row {row} claimed by both logic and routing"
                )
            cfg.set_product(row, [in_col])
            cfg.drivers[row] = DriverMode.INVERT  # NAND + INVERT = buffer
            cfg.directions[row] = direction
    for (r, c), cfg in configs.items():
        array.set_cell(r, c, cfg)
    return {"cells_logic": n_logic, "cells_route": n_route}


def _input_columns(state: RoutingState, gate: MappedGate, in_cell) -> list[int]:
    """The columns the router assigned to the gate's input nets."""
    assign = state.col_assign.get(in_cell, {})
    by_net: dict[str, int] = {}
    for col, net in assign.items():
        by_net.setdefault(net, col)
    cols = []
    for net in gate.inputs:
        col = by_net.get(net)
        if col is None:
            raise EmitError(
                f"gate {gate.name!r}: input net {net!r} was never routed "
                f"to cell {in_cell} (partial routing?)"
            )
        cols.append(col)
    return cols


def _emit_product(state, gate: MappedGate, in_cell, out_rows) -> CellConfig:
    cols = sorted(set(_input_columns(state, gate, in_cell)))
    if not out_rows:
        raise EmitError(f"gate {gate.name!r}: no output row was committed")
    cfg = CellConfig()
    mode = DriverMode.BUFFER if gate.kind == PRODUCT_NAND else DriverMode.INVERT
    for row, direction in out_rows.items():
        cfg.set_product(row, cols)
        cfg.drivers[row] = mode
        cfg.directions[row] = direction
    return cfg


def _emit_const(gate: MappedGate, out_rows) -> CellConfig:
    if not out_rows:
        raise EmitError(f"gate {gate.name!r}: no output row was committed")
    cfg = CellConfig()
    mode = DriverMode.BUFFER if gate.value == 1 else DriverMode.INVERT
    for row, direction in out_rows.items():
        cfg.set_constant(row, 1)  # the row reads 1; the driver sets polarity
        cfg.drivers[row] = mode
        cfg.directions[row] = direction
    return cfg


def _pair_outputs(gate: MappedGate, cfg: CellConfig, out_rows) -> CellConfig:
    """Replicate the collector row onto every fan-out row of cell B."""
    if not out_rows:
        raise EmitError(f"gate {gate.name!r}: no output row was committed")
    for row, direction in out_rows.items():
        if row != 0:
            cfg.crosspoints[row] = list(cfg.crosspoints[0])
        cfg.drivers[row] = DriverMode.BUFFER
        cfg.directions[row] = direction
    return cfg


def _emit_celement(state, gate: MappedGate, in_cell, out_rows):
    """c = a.b + a.c + b.c, optionally gated by the reset literal."""
    cols = _input_columns(state, gate, in_cell)  # a, b[, rst_n] at 0, 1[, 2]
    has_reset = len(gate.inputs) == 3
    a_col, b_col = cols[0], cols[1]
    extra = [cols[2]] if has_reset else []
    a = CellConfig()
    a.lfb_partner = LfbPartner.EAST
    a.input_select[5] = InputSource.LFB0  # c, from the collector's tap
    for row, product in enumerate(([a_col, b_col], [a_col, 5], [b_col, 5])):
        a.set_product(row, sorted(set(product + extra)))
        a.drivers[row] = DriverMode.BUFFER
    b = CellConfig()
    b.set_product(0, [0, 1, 2])
    b.lfb_taps[0] = 0
    return a, _pair_outputs(gate, b, out_rows)


def _emit_eventlatch(state, gate: MappedGate, in_cell, out_rows):
    """z = R.A.D + R'.A'.D + R.A'.z + R'.A.z + D.z (paper Fig. 12)."""
    d, r, rn, k, kn = _input_columns(state, gate, in_cell)
    a = CellConfig()
    a.lfb_partner = LfbPartner.EAST
    a.input_select[5] = InputSource.LFB0  # z, from the collector's tap
    for row, product in enumerate(
        ([r, k, d], [rn, kn, d], [r, kn, 5], [rn, k, 5], [d, 5])
    ):
        a.set_product(row, sorted(set(product)))
        a.drivers[row] = DriverMode.BUFFER
    b = CellConfig()
    b.set_product(0, [0, 1, 2, 3, 4])
    b.lfb_taps[0] = 0
    return a, _pair_outputs(gate, b, out_rows)
