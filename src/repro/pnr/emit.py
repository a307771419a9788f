"""Stage 4 — emission: routing state to configuration digits.

Turns the bookkeeping of :class:`repro.pnr.route.RoutingState` into frame
digits (the :mod:`repro.fabric.bitstream` layout) and installs them on a
:class:`repro.fabric.array.CellArray` in one checked block write
(:meth:`CellArray.set_cells`).  No :class:`~repro.fabric.nandcell.CellConfig`
is built on the way: a cell's 64 digits are filled row by row in a
``bytearray``.  The emitted array is ordinary fabric state: it serialises
through :mod:`repro.fabric.bitstream`, lowers through
:meth:`CellArray.to_netlist`, and simulates on either netlist backend —
nothing downstream knows the configuration came from an automatic flow
rather than a hand-placed macro.

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

from functools import lru_cache

import numpy as np

from repro.fabric.array import CellArray
from repro.fabric.bitstream import (
    BLANK_DIGITS,
    _OFF_DIRECTION,
    _OFF_DRIVER,
    _OFF_INSEL,
    _OFF_PARTNER,
    _OFF_TAPS,
)
from repro.fabric.driver import DriverMode
from repro.fabric.leafcell import LeafState
from repro.fabric.nandcell import InputSource, LfbPartner, N_INPUTS
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
    cells: dict[tuple[int, int], bytearray] = {}
    n_logic = 0
    for gate in design.gates.values():
        in_cell = placement.input_cell(gate)
        out_cell = placement.output_cell(gate)
        out_rows = state.gate_rows.get(out_cell, {})
        if not out_rows:
            raise EmitError(f"gate {gate.name!r}: no output row was committed")
        if gate.kind in (PRODUCT_NAND, PRODUCT_AND):
            cells[in_cell] = _emit_product(state, gate, in_cell, out_rows)
        elif gate.kind == CONST_GATE:
            cells[in_cell] = _emit_const(gate, out_rows)
        elif gate.kind == PAIR_CELEMENT:
            cells[in_cell], cells[out_cell] = _emit_celement(
                state, gate, in_cell, out_rows
            )
        elif gate.kind == PAIR_EVENTLATCH:
            cells[in_cell], cells[out_cell] = _emit_eventlatch(
                state, gate, in_cell, out_rows
            )
        else:  # pragma: no cover - kinds are closed
            raise EmitError(f"gate {gate.name!r}: unknown kind {gate.kind!r}")
        n_logic += gate.width
    n_route = 0
    for cell, rows in state.thru_rows.items():
        d = cells.get(cell)
        if d is None:
            d = cells[cell] = bytearray(BLANK_DIGITS)
            n_route += 1
        for row, (in_col, direction) in rows.items():
            if d[_OFF_DRIVER + row] != DriverMode.OFF:
                raise EmitError(
                    f"cell {cell}: row {row} claimed by both logic and routing"
                )
            # NAND + INVERT = buffer.
            _set_row(d, row, _product((in_col,)), DriverMode.INVERT, direction)
    array.set_cells(
        list(cells), np.frombuffer(b"".join(cells.values()), dtype=np.uint8)
    )
    return {"cells_logic": n_logic, "cells_route": n_route}


@lru_cache(maxsize=None)
def _product(cols: tuple[int, ...]) -> bytes:
    """One row's crosspoint digits computing the NAND of ``cols``: the
    active columns ACTIVE, every other column FORCE_ON (tied high)."""
    if not cols or not all(0 <= c < N_INPUTS for c in cols):
        raise EmitError(f"a product row needs columns in 0..5, got {cols}")
    return bytes(
        LeafState.ACTIVE if c in cols else LeafState.FORCE_ON
        for c in range(N_INPUTS)
    )


#: A constant-1 row: every crosspoint FORCE_OFF breaks the pull-down.
_CONST1 = bytes([LeafState.FORCE_OFF] * N_INPUTS)


def _set_row(d: bytearray, row: int, xpoints: bytes, mode, direction=0) -> None:
    """Write one row's crosspoints, driver mode and output direction."""
    d[row * N_INPUTS:(row + 1) * N_INPUTS] = xpoints
    d[_OFF_DRIVER + row] = mode
    d[_OFF_DIRECTION + row] = direction


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


def _emit_product(state, gate: MappedGate, in_cell, out_rows) -> bytearray:
    xpoints = _product(tuple(sorted(set(_input_columns(state, gate, in_cell)))))
    mode = DriverMode.BUFFER if gate.kind == PRODUCT_NAND else DriverMode.INVERT
    d = bytearray(BLANK_DIGITS)
    for row, direction in out_rows.items():
        _set_row(d, row, xpoints, mode, direction)
    return d


def _emit_const(gate: MappedGate, out_rows) -> bytearray:
    # The row reads 1; the driver sets the polarity.
    mode = DriverMode.BUFFER if gate.value == 1 else DriverMode.INVERT
    d = bytearray(BLANK_DIGITS)
    for row, direction in out_rows.items():
        _set_row(d, row, _CONST1, mode, direction)
    return d


def _pair(products, collector: tuple[int, ...], out_rows):
    """A stateful pair's cells: A computes ``products`` (column 5 reads
    the collector's lfb tap), B's row 0 collects them and is replicated
    onto every fan-out row."""
    a = bytearray(BLANK_DIGITS)
    a[_OFF_PARTNER] = LfbPartner.EAST
    a[_OFF_INSEL + 5] = InputSource.LFB0
    for row, cols in enumerate(products):
        _set_row(a, row, _product(tuple(sorted(set(cols)))), DriverMode.BUFFER)
    b = bytearray(BLANK_DIGITS)
    b[0:N_INPUTS] = _product(collector)
    b[_OFF_TAPS:_OFF_TAPS + 2] = b"\0\0"  # lfb tap 0 reads row 0
    for row, direction in out_rows.items():
        _set_row(b, row, b[0:N_INPUTS], DriverMode.BUFFER, direction)
    return a, b


def _emit_celement(state, gate: MappedGate, in_cell, out_rows):
    """c = a.b + a.c + b.c, optionally gated by the reset literal."""
    cols = _input_columns(state, gate, in_cell)  # a, b[, rst_n] at 0, 1[, 2]
    extra = cols[2:3]
    a_col, b_col = cols[0], cols[1]
    products = ([a_col, b_col], [a_col, 5], [b_col, 5])
    return _pair([p + extra for p in products], (0, 1, 2), out_rows)


def _emit_eventlatch(state, gate: MappedGate, in_cell, out_rows):
    """z = R.A.D + R'.A'.D + R.A'.z + R'.A.z + D.z (paper Fig. 12)."""
    d, r, rn, k, kn = _input_columns(state, gate, in_cell)
    products = ([r, k, d], [rn, kn, d], [r, kn, 5], [rn, k, 5], [d, 5])
    return _pair(products, (0, 1, 2, 3, 4), out_rows)
