"""Tiled cell array with rotated abutment and local feedback (paper Fig. 8).

Wiring model (see ARCHITECTURE.md for the derivation from Fig. 8 and the
layer diagram this compiler sits in):

* ``wire (r, c, i)`` is the shared **input line** ``i`` of the cell at grid
  position (r, c).  It can be driven by up to two upstream neighbours —
  the cell to the **west** (row driver configured EAST) and the cell to the
  **south** (row driver configured NORTH); the 3-state drivers guarantee at
  most one actually drives it in a legal configuration (the simulator's
  resolution reports X on conflicts).
* Wires with ``r == n_rows`` or ``c == n_cols`` are the fabric's primary
  outputs; wires on the west/south boundary with no internal driver are
  primary inputs, driven externally by the testbench.
* Each cell owns two **lfb** nets tapped from its row values; a cell's
  input columns may select its *own* lfb lines or those of its east/north
  downstream partner (:class:`repro.fabric.nandcell.LfbPartner`), giving
  the purely-local feedback the paper's state elements rely on.

``to_netlist`` lowers the configured array into the backend-neutral
:class:`repro.netlist.Netlist` IR: every NAND row becomes a ``nand`` cell
(or a constant), every active driver a ``not``/``buf`` cell onto its
abutment wire, every lfb tap a buffer.  Delays: 2 units per NAND row
(series stack), 1 per driver (2 for PASS mode), 1 per lfb tap.
``compile_into`` then elaborates that netlist onto the event-driven
simulator (reference semantics); the same netlist feeds the bit-parallel
:class:`repro.netlist.BatchBackend` for build-once / evaluate-many sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fabric.bitstream import (
    BLANK_DIGITS,
    cell_digits,
    cell_from_digits,
    check_digits,
    decode_array,
    encode_array,
    leaf_counts,
)
from repro.fabric.driver import DRIVER_DELAY, DriverMode
from repro.fabric.mvram import N_CELLS
from repro.fabric.nandcell import (
    CellConfig,
    Direction,
    InputSource,
    LfbPartner,
    N_INPUTS,
    N_LFB,
    N_ROWS,
)
from repro.netlist.backends import EventBackend
from repro.netlist.ir import NetRef, Netlist
from repro.sim.scheduler import Simulator
from repro.sim.values import ONE, ZERO

#: Simulator delay of a NAND row (the 6-high series stack).
ROW_DELAY = 2
#: Simulator delay of an lfb tap buffer.
LFB_DELAY = 1


def wire_name(r: int, c: int, i: int) -> str:
    """Name of input line ``i`` of grid position (r, c)."""
    return f"w[{r}][{c}][{i}]"


def row_net_name(r: int, c: int, j: int) -> str:
    """Name of the NAND-plane value of row ``j`` in cell (r, c)."""
    return f"row[{r}][{c}][{j}]"


def lfb_net_name(r: int, c: int, k: int) -> str:
    """Name of local feedback line ``k`` of cell (r, c)."""
    return f"lfb[{r}][{c}][{k}]"


class ConfigurationError(ValueError):
    """A cell configuration references wiring that does not exist."""


@dataclass
class FabricNetlist:
    """A configured array lowered to the backend-neutral IR.

    Attributes
    ----------
    netlist:
        The :class:`repro.netlist.Netlist` describing the fabric, with
        the boundary wires declared as ports.
    n_gates:
        Number of cells instantiated (area/activity statistics).
    input_wires:
        Names of boundary wires with no internal driver — the primary
        inputs a stimulus may drive.
    output_wires:
        Names of wires past the east/north edges that are driven — the
        primary outputs.
    """

    netlist: Netlist
    n_gates: int
    input_wires: list[str] = field(default_factory=list)
    output_wires: list[str] = field(default_factory=list)


@dataclass
class CompiledFabric:
    """Handle returned by :meth:`CellArray.compile_into`.

    Attributes
    ----------
    sim:
        The simulator holding the lowered netlist.
    n_gates:
        Number of gates instantiated (area/activity statistics).
    input_wires:
        Names of boundary wires with no internal driver — the primary
        inputs a testbench may drive.
    output_wires:
        Names of wires past the east/north edges that are driven — the
        primary outputs.
    netlist:
        The backend-neutral IR the simulator was elaborated from.
    """

    sim: Simulator
    n_gates: int
    input_wires: list[str] = field(default_factory=list)
    output_wires: list[str] = field(default_factory=list)
    netlist: Netlist | None = None


class CellArray:
    """A grid of polymorphic cells plus the abutment wiring rules.

    The configuration is one ``(rows, cols, 64)`` uint8 matrix of frame
    digits in the :mod:`repro.fabric.bitstream` layout, so a new array is
    one allocation and the serialised forms are copies of it.
    :meth:`cell` decodes a *copy* of one cell; :meth:`set_cells` is the
    only writer (:meth:`set_cell` validates one CellConfig and calls it).
    """

    def __init__(self, n_rows: int, n_cols: int) -> None:
        if n_rows < 1 or n_cols < 1:
            raise ValueError(f"array shape must be >= 1x1, got {n_rows}x{n_cols}")
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        blank = np.frombuffer(BLANK_DIGITS, dtype=np.uint8)
        self._digits = np.tile(blank, (self.n_rows, self.n_cols, 1))

    @classmethod
    def _adopt(cls, grid: np.ndarray) -> "CellArray":
        """An array over a copy of an already-checked digit grid."""
        arr = cls.__new__(cls)
        arr.n_rows, arr.n_cols = (int(n) for n in grid.shape[:2])
        arr._digits = grid.copy()
        return arr

    # ------------------------------------------------------------------
    # Config access
    # ------------------------------------------------------------------
    def cell(self, r: int, c: int) -> CellConfig:
        """A decoded copy of the cell at (r, c); mutating it changes nothing.

        Install an edited configuration with :meth:`set_cell`.
        """
        self._check_pos(r, c)
        return cell_from_digits(self._digits[r, c])

    def set_cell(self, r: int, c: int, config: CellConfig) -> None:
        """Validate ``config`` and encode it into the digits at (r, c).

        Later edits to ``config`` are not seen.
        """
        config.validate()
        self.set_cells([(r, c)], np.frombuffer(cell_digits(config), dtype=np.uint8))

    def set_cells(self, positions, digits) -> None:
        """Write whole cells: ``digits[i]`` (64 frame digits) at ``positions[i]``.

        The one writer of the array.  Every position is bounds-checked
        and every digit range-checked (:func:`check_digits`) over the
        whole block before anything is written.
        """
        pos = np.asarray(positions, dtype=np.intp).reshape(-1, 2)
        block = np.asarray(digits, dtype=np.uint8).reshape(len(pos), N_CELLS)
        outside = (pos < 0) | (pos >= (self.n_rows, self.n_cols))
        if outside.any():
            self._check_pos(*pos[outside.any(axis=1).argmax()].tolist())
        check_digits(block)
        self._digits[pos[:, 0], pos[:, 1]] = block

    def _check_pos(self, r: int, c: int) -> None:
        if not (0 <= r < self.n_rows and 0 <= c < self.n_cols):
            raise ValueError(
                f"cell position ({r}, {c}) outside {self.n_rows}x{self.n_cols} array"
            )

    def configured_cells(
        self, rows: range | None = None, cols: range | None = None
    ) -> list[tuple[int, int]]:
        """Positions of the non-blank cells, row-major (one vectorised scan).

        ``rows`` and ``cols`` restrict the scan to a window of the array.
        """
        r0, r1 = (0, self.n_rows) if rows is None else (rows.start, rows.stop)
        c0, c1 = (0, self.n_cols) if cols is None else (cols.start, cols.stop)
        window = leaf_counts(self._digits[r0:r1, c0:c1])
        return [(r0 + r, c0 + c) for r, c in np.argwhere(window).tolist()]

    def used_cells(self) -> int:
        """Number of non-blank cells (utilisation statistics)."""
        return int(np.count_nonzero(leaf_counts(self._digits)))

    def leaf_count(self) -> int:
        """Total configured leaf cells across the array (area proxy)."""
        return int(leaf_counts(self._digits).sum())

    # ------------------------------------------------------------------
    # Serialised forms: copies of the digit matrix
    # ------------------------------------------------------------------
    def to_bitstream(self):
        """Serialise the whole array (see :mod:`repro.fabric.bitstream`)."""
        return encode_array(self._digits)

    @classmethod
    def from_bitstream(cls, bits) -> "CellArray":
        """Rebuild an array from a serialised bitstream."""
        return cls._adopt(decode_array(bits))

    def to_digits(self) -> bytes:
        """Every cell's 64 configuration digits, row-major, one per byte.

        The frames of :meth:`to_bitstream` before bit packing, without
        header or CRC — the compact form the artifact codec stores.
        """
        return self._digits.tobytes()

    @classmethod
    def from_digits(cls, n_rows: int, n_cols: int, digits: bytes) -> "CellArray":
        """Inverse of :meth:`to_digits`; every digit is range-checked."""
        if len(digits) != n_rows * n_cols * N_CELLS:
            raise ValueError(
                f"{len(digits)} digits do not fill a {n_rows}x{n_cols} array"
            )
        grid = np.frombuffer(digits, dtype=np.uint8).reshape(n_rows, n_cols, N_CELLS)
        check_digits(grid)
        return cls._adopt(grid)

    # ------------------------------------------------------------------
    # Lowering onto the netlist IR
    # ------------------------------------------------------------------
    def _column_net(self, nl: Netlist, cfgs: dict, r: int, c: int, col: int) -> NetRef:
        """Resolve a cell's input-column source to a net.

        ``cfgs`` maps every configured position to its decoded cell.
        """
        cfg = cfgs[r, c]
        sel = cfg.input_select[col]
        if sel is InputSource.ABUT:
            return nl.net(wire_name(r, c, col))
        k = 0 if sel is InputSource.LFB0 else 1
        partner = cfg.lfb_partner
        if partner is LfbPartner.SELF:
            pr, pc = r, c
        elif partner is LfbPartner.EAST:
            pr, pc = r, c + 1
        else:
            pr, pc = r + 1, c
        if not (0 <= pr < self.n_rows and 0 <= pc < self.n_cols):
            raise ConfigurationError(
                f"cell ({r},{c}) column {col} selects lfb of {partner.name} "
                f"partner ({pr},{pc}), which is outside the array"
            )
        partner_cfg = cfgs.get((pr, pc))
        if partner_cfg is None or partner_cfg.lfb_taps[k] is None:
            raise ConfigurationError(
                f"cell ({r},{c}) column {col} reads lfb{k} of ({pr},{pc}) "
                "but that line has no tap configured"
            )
        return nl.net(lfb_net_name(pr, pc, k))

    def to_netlist(self) -> FabricNetlist:
        """Lower the configured array into the backend-neutral IR."""
        nl = Netlist(name=f"fabric{self.n_rows}x{self.n_cols}")
        n_gates = 0
        cfgs = {pos: self.cell(*pos) for pos in self.configured_cells()}
        for (r, c), cfg in cfgs.items():
            col_nets = [
                self._column_net(nl, cfgs, r, c, col) for col in range(N_INPUTS)
            ]
            row_nets = [nl.net(row_net_name(r, c, j)) for j in range(N_ROWS)]
            needed = set(cfg.used_rows())
            for j in range(N_ROWS):
                if j not in needed:
                    continue
                kind = cfg.row_kind(j)
                gname = f"cell[{r}][{c}].row{j}"
                if kind == "const1":
                    nl.add("const", gname, [], row_nets[j], delay=ROW_DELAY, value=ONE)
                elif kind == "const0":
                    nl.add("const", gname, [], row_nets[j], delay=ROW_DELAY, value=ZERO)
                else:
                    ins = [col_nets[col] for col in cfg.active_columns(j)]
                    nl.add("nand", gname, ins, row_nets[j], delay=ROW_DELAY)
                n_gates += 1
            for j in range(N_ROWS):
                mode = cfg.drivers[j]
                if mode is DriverMode.OFF:
                    continue
                if cfg.directions[j] is Direction.EAST:
                    target = nl.net(wire_name(r, c + 1, j))
                else:
                    target = nl.net(wire_name(r + 1, c, j))
                gname = f"cell[{r}][{c}].drv{j}"
                delay = DRIVER_DELAY[mode]
                kind = "not" if mode is DriverMode.INVERT else "buf"
                nl.add(kind, gname, [row_nets[j]], target, delay=delay)
                n_gates += 1
            for k in range(N_LFB):
                tap = cfg.lfb_taps[k]
                if tap is None:
                    continue
                gname = f"cell[{r}][{c}].lfb{k}"
                nl.add(
                    "buf", gname, [row_nets[tap]],
                    nl.net(lfb_net_name(r, c, k)), delay=LFB_DELAY,
                )
                n_gates += 1
        inputs, outputs = self._classify_boundary(nl)
        for name in inputs:
            nl.add_input(name)
        for name in outputs:
            nl.add_output(name)
        return FabricNetlist(
            netlist=nl, n_gates=n_gates, input_wires=inputs, output_wires=outputs
        )

    def compile_into(self, sim: Simulator | None = None) -> CompiledFabric:
        """Lower the array to a netlist and elaborate it onto a simulator."""
        return elaborate_fabric(self.to_netlist(), sim=sim)

    def _classify_boundary(self, nl: Netlist) -> tuple[list[str], list[str]]:
        """Split instantiated wires into primary inputs and outputs."""
        inputs: list[str] = []
        outputs: list[str] = []
        for name in nl.net_names():
            if not name.startswith("w["):
                continue
            if nl.drivers_of(name):
                # Driven from inside; wires beyond the edges are outputs.
                r, c, _ = _parse_wire(name)
                if r >= self.n_rows or c >= self.n_cols:
                    outputs.append(name)
            elif nl.readers_of(name):
                inputs.append(name)
        return sorted(inputs), sorted(outputs)


def elaborate_fabric(
    fn: FabricNetlist,
    sim: Simulator | None = None,
    limits=None,
) -> CompiledFabric:
    """Elaborate a lowered fabric onto the event simulator.

    The single assembly point for :class:`CompiledFabric` — used by both
    :meth:`CellArray.compile_into` and the platform layer (which patches
    folded routes into ``fn.netlist`` first).
    """
    sim = EventBackend(limits).elaborate(fn.netlist, sim)
    return CompiledFabric(
        sim=sim,
        n_gates=fn.n_gates,
        input_wires=fn.input_wires,
        output_wires=fn.output_wires,
        netlist=fn.netlist,
    )


def _parse_wire(name: str) -> tuple[int, int, int]:
    """Parse ``w[r][c][i]`` back into indices."""
    parts = name[2:-1].split("][")
    if len(parts) != 3:
        raise ValueError(f"malformed wire name {name!r}")
    r, c, i = (int(p) for p in parts)
    return r, c, i
