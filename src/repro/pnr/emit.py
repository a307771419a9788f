"""Stage 4 — emission: routing state to configuration digits.

Turns the occupancy arrays of :class:`repro.pnr.route.RoutingState` into frame
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

import ctypes
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
from repro.fabric.mvram import N_CELLS
from repro.fabric.nandcell import (
    Direction,
    InputSource,
    LfbPartner,
    N_INPUTS,
    N_ROWS,
)
from repro.pnr import kernel
from repro.pnr.route import RoutingState, gate_table
from repro.pnr.techmap import (
    CONST_GATE,
    MappedGate,
    PAIR_CELEMENT,
    PRODUCT_AND,
    PRODUCT_NAND,
)


class EmitError(RuntimeError):
    """The routing state is incomplete or inconsistent for emission."""


def emit_design(array: CellArray, state: RoutingState) -> dict[str, int]:
    """Install every placed gate and feed-through row on ``array``.

    Returns ``{"cells_logic": ..., "cells_route": ...}`` where
    ``cells_route`` counts the cells the router ever gave a feed-through
    that hold no logic (shared logic/route cells count as logic).  All
    touched cells must be blank beforehand (checked by the flow layer).
    The stateful pairs are built cell by cell here; the router's kernel
    (``_route.c``) then writes every single-cell gate's product and
    fan-out rows and every feed-through row in one pass over its arrays.
    """
    design = state.design
    cols = state.n_cols
    _, widths, inputs, pinned = gate_table(design)
    pos = state.gate_pos
    cell = pos[:, 0] * cols + pos[:, 1]
    gates = list(design.gates.values())
    singles = np.flatnonzero(~pinned)
    high, consts = [], []
    for k in singles.tolist():
        gate = gates[k]
        if gate.kind == CONST_GATE:
            # The row reads 1; the driver sets the polarity.
            high.append(gate.value == 1)
            consts.append(True)
        elif gate.kind in (PRODUCT_NAND, PRODUCT_AND):
            high.append(gate.kind == PRODUCT_NAND)
            consts.append(False)
        else:  # pragma: no cover - kinds are closed
            raise EmitError(f"gate {gate.name!r}: unknown kind {gate.kind!r}")
    pair_cells, pair_digits = [], []
    if pinned.any():
        gate_dir = state.gate_dir.reshape(-1, N_ROWS)
        columns = _column_reader(state)
        for k in np.flatnonzero(pinned).tolist():
            gate = gates[k]
            out = int(cell[k]) + gate.width - 1
            out_rows = {
                row: Direction(d)
                for row, d in enumerate(gate_dir[out].tolist()) if d >= 0
            }
            if not out_rows:
                raise EmitError(f"gate {gate.name!r}: no output row was committed")
            emit = (
                _emit_celement if gate.kind == PAIR_CELEMENT else _emit_eventlatch
            )
            a, b = emit(columns, gate, tuple(pos[k].tolist()), out_rows)
            pair_cells += [int(cell[k]), out]
            pair_digits += [a, b]
    logic = np.concatenate([cell[singles], np.array(pair_cells, np.intp)])
    route_only = state.thru_key != 0
    route_only[logic] = False
    route_only = np.flatnonzero(route_only)
    touched = np.concatenate([logic, route_only])
    block = np.empty((len(touched), N_CELLS), np.uint8)
    block[:] = np.frombuffer(BLANK_DIGITS, np.uint8)
    if pair_cells:
        block[len(singles):len(logic)] = np.frombuffer(
            b"".join(pair_digits), np.uint8
        ).reshape(-1, N_CELLS)
    where = np.full(state.n_rows * cols, -1, np.int32)
    where[touched] = np.arange(len(touched))
    err = np.zeros(2, np.int64)
    job = kernel.bind(
        kernel.RouteEmit, n_gates=len(singles),
        gate_cell=cell[singles].astype(np.int32), inputs=inputs[singles],
        mode=np.where(high, DriverMode.BUFFER, DriverMode.INVERT).astype(np.uint8),
        is_const=np.array(consts, np.uint8), where=where, block=block,
        active=LeafState.ACTIVE, tied=LeafState.FORCE_ON,
        cut=LeafState.FORCE_OFF, drv_off=DriverMode.OFF,
        drv_inv=DriverMode.INVERT, off_driver=_OFF_DRIVER,
        off_direction=_OFF_DIRECTION, err=err,
    )
    code = kernel.load(kernel.ROUTE_SOURCE).emit(state.ref, ctypes.addressof(job))
    if code:
        a, b = err.tolist()
        if code == _CLASH:
            raise EmitError(
                f"cell {divmod(a, cols)}: row {b} claimed by both logic and "
                "routing"
            )
        gate = gates[singles[a]]
        if code == _NO_OUTPUT:
            raise EmitError(f"gate {gate.name!r}: no output row was committed")
        raise EmitError(
            f"gate {gate.name!r}: input net {gate.inputs[b]!r} was never "
            f"routed to cell {tuple(pos[singles[a]].tolist())} (partial routing?)"
        )
    array.set_cells(np.stack([touched // cols, touched % cols], axis=1), block)
    return {"cells_logic": int(widths.sum()), "cells_route": len(route_only)}


#: ``emit`` results (see ``_route.c``).
_NO_OUTPUT, _UNROUTED_INPUT, _CLASH = 1, 2, 3


def _column_reader(state: RoutingState):
    """``columns(cell) -> {net id: column}``: the first column the router
    claimed for each net the cell reads."""
    col_net = state.col_net.tolist()
    col_seq = state.col_seq.tolist()
    cols = state.n_cols

    def columns(cell) -> dict[int, int]:
        k = (cell[0] * cols + cell[1]) * N_INPUTS
        first: dict[int, int] = {}
        for col in range(N_INPUTS):
            owner = col_net[k + col]
            if owner >= 0:
                prev = first.get(owner)
                if prev is None or col_seq[k + col] < col_seq[k + prev]:
                    first[owner] = col
        return first

    columns.net_ids = state.net_ids
    return columns


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


def _set_row(d: bytearray, row: int, xpoints: bytes, mode, direction=0) -> None:
    """Write one row's crosspoints, driver mode and output direction."""
    d[row * N_INPUTS:(row + 1) * N_INPUTS] = xpoints
    d[_OFF_DRIVER + row] = mode
    d[_OFF_DIRECTION + row] = direction


def _input_columns(columns, gate: MappedGate, in_cell) -> list[int]:
    """The columns the router assigned to the gate's input nets."""
    by_net = columns(in_cell)
    ids = columns.net_ids
    cols = []
    for net in gate.inputs:
        col = by_net.get(ids[net])
        if col is None:
            raise EmitError(
                f"gate {gate.name!r}: input net {net!r} was never routed "
                f"to cell {in_cell} (partial routing?)"
            )
        cols.append(col)
    return cols


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


def _emit_celement(columns, gate: MappedGate, in_cell, out_rows):
    """c = a.b + a.c + b.c, optionally gated by the reset literal."""
    cols = _input_columns(columns, gate, in_cell)  # a, b[, rst_n] at 0, 1[, 2]
    extra = cols[2:3]
    a_col, b_col = cols[0], cols[1]
    products = ([a_col, b_col], [a_col, 5], [b_col, 5])
    return _pair([p + extra for p in products], (0, 1, 2), out_rows)


def _emit_eventlatch(columns, gate: MappedGate, in_cell, out_rows):
    """z = R.A.D + R'.A'.D + R.A'.z + R'.A.z + D.z (paper Fig. 12)."""
    d, r, rn, k, kn = _input_columns(columns, gate, in_cell)
    products = ([r, k, d], [rn, kn, d], [r, kn, 5], [rn, k, 5], [d, 5])
    return _pair(products, (0, 1, 2, 3, 4), out_rows)
