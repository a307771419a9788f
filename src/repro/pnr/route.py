"""Stage 3 — routing: nets onto the abutment wiring, cells as wire.

The paper's Section 4 area argument is that interconnect is not a
separate resource: a route is a chain of ordinary cells configured as
feed-throughs (one single-input NAND row + INVERT driver per hop — a
buffer), each hop landing on the next cell's input line.  This router
implements that literally, generalising :mod:`repro.synth.route` from
straight channels to arbitrary nets:

* nets are routed as **trees**, one A* (maze) search per sink over wire
  nodes ``w[r][c][i]``, seeded from everything the net already drives —
  so fan-out branches wherever convenient (a feed-through re-drives its
  input column on several rows, one per branch direction);
* a source gate fans out by replicating its product row (same columns,
  another row, another direction) — exactly the trick
  :func:`repro.synth.macros.full_adder_slice` plays by hand;
* **logic cells carry through-traffic**: a placed gate's spare rows and
  columns are fair game for unrelated nets, so logic and interconnect
  genuinely share cells ("used interchangeably for logic and
  interconnection") — only the stateful pair macros are opaque, since
  their row/column budget is fully committed;
* primary inputs enter on any free, undriven wire (the fabric declares
  every read-but-undriven wire a primary input), chosen by the search;
* congestion is handled by ordering (short nets first), a cost ladder
  that prefers reusing cells the net (or anything else) already
  occupies over burning fresh blanks, and rip-up-and-retry passes that
  reroute failed nets first while *replaying* the rest from their
  committed claim journals;
* the occupancy is a set of flat arrays (:class:`RoutingState`), and the
  A* search, path commits and journal replays run in a C kernel
  (``_route.c``, built and loaded by :mod:`repro.pnr.kernel`); every
  search shares one generation-stamped cost grid — no per-net
  allocation (see ``docs/performance.md``).

Routing is monotone by construction — rows drive east or north only —
so every search is confined to the dominance quadrant between source
and sink, and routed netlists can never acquire feedback.
"""

from __future__ import annotations

import ctypes
from array import array
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.fabric.floorplan import Region
from repro.fabric.nandcell import N_INPUTS, N_ROWS, Direction
from repro.pnr import kernel
from repro.pnr.parallel import checkpoint
from repro.pnr.place import Placement, net_spans
from repro.pnr.techmap import (
    MappedDesign,
    PAIR_CELEMENT,
    PAIR_EVENTLATCH,
    PAIR_PIN_COLUMNS,
)

#: Owner of an unclaimed wire or input column.  Nets own wires and
#: columns by their id (see :func:`net_ids`); the reserved owners below
#: it block a wire for every net.
FREE = -1

#: Wire owner marking a pair macro's internal product lines.
MACRO_OWNER = -2

#: Wire owner marking wires already driven or read by pre-existing
#: configuration on the target array (e.g. another floorplan region).
EXISTING_OWNER = -3

#: Wire owner marking dead wire segments of a per-die defect map
#: (:class:`repro.pnr.defects.DefectMap`): pre-claimed before any net
#: routes, so both fresh A* searches and warm journal replays treat
#: them as permanently occupied.
DEFECT_OWNER = -4

#: Product rows a pair macro drives into its collector cell (cell B
#: columns), by kind — these wires are consumed at placement time.
PAIR_INTERNAL_ROWS: dict[str, int] = {
    PAIR_CELEMENT: 3,
    PAIR_EVENTLATCH: 5,
}

#: Journal op codes (the first int of each op; see :class:`NetRoute`).
OP_ENTRY, OP_ENTRY_FRONT, OP_DRIVE, OP_THRU, OP_COL = range(5)

#: Free-row tuples by free-row bitmask.
_ROWS_OF_MASK: tuple[tuple[int, ...], ...] = tuple(
    tuple(r for r in range(N_ROWS) if mask >> r & 1)
    for mask in range(1 << N_ROWS)
)

#: Rip-up-and-retry passes :meth:`Router.route_design` runs before it
#: gives up on the nets still failing.
MAX_PASSES = 6

#: ``route_net`` results (see ``_route.c``).
_OK, _NO_COLUMN, _NO_PATH, _NO_TAP, _PI_TAP, _NO_MEMORY = range(6)

assert array("i").itemsize == 4, "journals are int32 arrays"


class RoutingError(RuntimeError):
    """A net could not be routed with the available cells and wires."""


@dataclass
class NetRoute:
    """Everything one routed net occupies.

    ``ops`` is the net's commit journal — the ordered resource claims
    that produced the route, as one flat ``array('i')``.  Each op is its
    code then its integers: ``OP_ENTRY`` / ``OP_ENTRY_FRONT`` and the
    wire ``r, c, i`` (a primary-input entry); ``OP_DRIVE``, the wire,
    the source cell ``r, c``, the row and its direction (a source-row
    drive); ``OP_THRU``, the wire, the cell, the column it reads, the row
    and its direction (a feed-through hop); ``OP_COL``, the sink cell
    and the column it lands on.  A later router pass replays the journal
    verbatim when the net's endpoints have not moved, instead of
    searching again (see :meth:`Router.route_design`).
    """

    net: str
    wires: list[tuple[int, int, int]] = field(default_factory=list)
    entry_wire: tuple[int, int, int] | None = None
    sink_cols: dict[tuple[str, int], int] = field(default_factory=dict)
    ops: array = field(default_factory=lambda: array("i"), repr=False)

    @property
    def wirelength(self) -> int:
        """Wires the net occupies (driven hops + the entry line)."""
        return len(self.wires)


def net_ids(design: MappedDesign) -> dict[str, int]:
    """Every net a gate reads or drives, interned to a dense id (cached
    per design)."""
    def compute(d):
        # Inputs, then gate outputs, then nets read but never driven, in
        # first-appearance order (``source_of`` and ``sinks_of`` are
        # keyed in gate order).
        names = dict.fromkeys(d.inputs)
        names.update(d.source_of)
        names.update(d.sinks_of)
        return dict(zip(names, range(len(names))))

    return design.memo("route_net_ids", compute)


def net_wire_bound(design: MappedDesign, shape: tuple[int, int]) -> int:
    """The most wires one net can claim: routing is monotone, so each
    sink's path is at most ``rows + cols + 1`` wires, plus an output tap
    and its entry."""
    return (max_fanout(design) + 1) * (shape[0] + shape[1] + 2)


def max_fanout(design: MappedDesign) -> int:
    """The most sinks any net has (cached per design)."""
    return design.memo(
        "max_fanout", lambda d: max(map(len, d.sinks_of.values()), default=0)
    )


class GateTable(NamedTuple):
    """The gates of a design as arrays (see :func:`gate_table`)."""

    #: Gate names, in design order.
    names: list[str]
    #: Width in cells per gate.
    widths: np.ndarray
    #: ``(gates, 6)`` input net ids per pin (see :func:`net_ids`),
    #: padded with -2.
    inputs: np.ndarray
    #: True for the pair macros, whose input columns are pinned.
    pinned: np.ndarray


def gate_table(design: MappedDesign) -> GateTable:
    """The gates of ``design`` as arrays (cached per design)."""
    def compute(d):
        ids = net_ids(d)
        gates = d.gates.values()
        lens = np.array([len(g.inputs) for g in gates], np.intp)
        inputs = np.full((len(lens), N_INPUTS), -2, np.int32)
        # Row-major boolean assignment fills each gate's first pins.
        inputs[np.arange(N_INPUTS) < lens[:, None]] = [
            ids[net] for g in gates for net in g.inputs
        ]
        return GateTable(
            names=list(d.gates),
            widths=np.array([g.width for g in gates], np.intp),
            inputs=inputs,
            pinned=np.array([g.kind in PAIR_PIN_COLUMNS for g in gates], bool),
        )

    return design.memo("gate_table", compute)


#: ``[j, i]``: pin ``i`` comes before pin ``j``.
_EARLIER_PIN = np.tri(N_INPUTS, k=-1, dtype=bool)


class RoutingState:
    """Occupancy of cells, rows, columns and wires during routing.

    Flat arrays, indexed by cell id ``r * cols + c``, by ``cell id * 6 +
    k`` for a cell's column or row ``k``, or by wire id ``(r * (cols +
    1) + c) * 6 + i`` over the ``(rows + 1, cols + 1, 6)`` wire grid.
    Nets are their :func:`net_ids`.  The router's kernel
    (``_route.c``) reads and writes them through :attr:`ref`; every
    write of the net in flight is undo-logged as ``(buffer, index, old
    value)``, so a net that fails rolls back exactly what it claimed.

    ``wire_net`` (owner per wire), ``depth`` (feed-through hops per
    wire, recorded at commit and replay), ``col_net`` / ``col_seq``
    (owner and claim order per cell column), ``thru_net`` (the net a
    column's feed-throughs read), ``gate_dir`` / ``thru_dir`` /
    ``thru_in`` (per cell row: direction, or -1, and the column a
    feed-through reads), ``row_mask`` (rows in use), ``pend`` /
    ``n_pend`` (input nets a gate still needs a column for: capacity
    through-traffic must not consume), ``pend_out`` (a gate output cell
    still owed its row), ``committed`` (no row free: pair product cells
    and dead cells), ``opaque`` (no net passes), ``logic`` (a gate sits
    here), ``thru_key`` / ``gate_key`` (a row of that kind was ever
    claimed here, kept through rollbacks).
    """

    #: The int32 fields: ``(name, extent, initial value)``, extent ``w``
    #: per wire, ``k`` per cell column or row, ``c`` per cell.
    _LAYOUT = (
        ("wire_net", "w", FREE), ("col_net", "k", FREE),
        ("thru_net", "k", FREE), ("gate_dir", "k", -1), ("thru_dir", "k", -1),
        ("thru_in", "k", -1), ("pend", "k", FREE), ("depth", "w", 0),
        ("row_mask", "c", 0), ("n_pend", "c", 0), ("n_assign", "c", 0),
        ("pend_out", "c", 0), ("committed", "c", 0), ("opaque", "c", 0),
        ("logic", "c", 0), ("thru_key", "c", 0), ("gate_key", "c", 0),
    )

    def __init__(
        self,
        design: MappedDesign,
        placement: Placement,
        shape: tuple[int, int],
        region: Region,
        array=None,
        defects=None,
        history: np.ndarray | None = None,
    ) -> None:
        self.design = design
        self.placement = placement
        self.n_rows, self.n_cols = rows, cols = shape
        self.region = region
        self.defects = defects
        self.net_ids = ids = net_ids(design)
        #: Net names by id.
        self.net_names = list(ids)
        n_cells = rows * cols
        extent = {
            "w": (rows + 1) * (cols + 1) * N_INPUTS,
            "k": n_cells * N_INPUTS,
            "c": n_cells,
        }
        buf = np.empty(sum(extent[size] for _, size, _ in self._LAYOUT), np.int32)
        self.arrays, at = {}, 0
        for name, size, init in self._LAYOUT:
            view = self.arrays[name] = buf[at:at + extent[size]]
            view.fill(init)
            at += extent[size]
        self.arrays["col_seq"] = col_seq = np.zeros(n_cells * N_INPUTS, np.int64)
        vars(self).update(self.arrays)
        a = self.arrays
        wire_net, col_net, row_mask, pend = (
            a["wire_net"], a["col_net"], a["row_mask"], a["pend"]
        )
        n_pend, n_assign, pend_out = a["n_pend"], a["n_assign"], a["pend_out"]
        committed, opaque, logic = a["committed"], a["opaque"], a["logic"]
        stride = (cols + 1) * N_INPUTS

        # Defect pre-claims go in before any gate or existing-config
        # claim: dead wires become permanently owned, dead cells opaque
        # *and* row-committed (so neither drives nor feed-throughs can
        # use them), stuck config rows are masked out of free_rows.
        # Warm journal replays validate each op against this occupancy,
        # so a journal crossing a defect fails its replay and the net
        # re-searches — exactly the repair semantics of
        # :func:`repro.pnr.defects.repair_for_die`.
        if defects is not None:
            for r, c, i in defects.dead_wires:
                wire_net[r * stride + c * N_INPUTS + i] = DEFECT_OWNER
            for r, c in defects.dead_cells:
                opaque[r * cols + c] = committed[r * cols + c] = 1
            for r, c, row in defects.stuck_rows:
                row_mask[r * cols + c] |= 1 << row

        table = gate_table(design)
        positions = placement.positions
        #: Each gate's ``(row, col)``, in :func:`gate_table` order.
        self.gate_pos = pos = np.array(
            [positions[g] for g in table.names], np.intp
        ).reshape(-1, 2)
        cell = pos[:, 0] * cols + pos[:, 1]
        widths = table.widths
        logic[cell] = 1
        logic[cell[widths == 2] + 1] = 1
        pend_out[cell + widths - 1] = 1
        # A flexible gate owes a column to each distinct input net.
        inputs = table.inputs
        repeat = (inputs[:, :, None] == inputs[:, None, :]) & _EARLIER_PIN
        owed = (inputs >= 0) & ~table.pinned[:, None] & ~repeat.any(axis=2)
        n_pend[cell] = owed.sum(axis=1)
        slots = np.where(owed, inputs, FREE)
        pend.reshape(-1, N_INPUTS)[cell] = slots
        names = table.names
        pairs = [
            (k, design.gates[names[k]]) for k in np.flatnonzero(table.pinned)
        ]
        seq = 0
        for k, gate in pairs:
            r, c = pos[k].tolist()
            opaque[cell[k]:cell[k] + gate.width] = 1
            committed[cell[k]] = 1
            for pin, col in enumerate(gate.pin_columns):
                j = cell[k] * N_INPUTS + col
                if col_net[j] == FREE:
                    n_assign[cell[k]] += 1
                    col_seq[j] = seq
                    seq += 1
                col_net[j] = ids[gate.inputs[pin]]
            w = r * stride + (c + 1) * N_INPUTS
            wire_net[w:w + PAIR_INTERNAL_ROWS[gate.kind]] = MACRO_OWNER
        if array is not None:
            self._claim_existing(array)
        #: [undo entries, next column claim stamp]
        self.ctr = np.array([0, seq], np.int64)
        self.history = np.zeros(n_cells) if history is None else history
        reg = region
        # The undo log holds one net's claims: at most 9 entries per
        # wire (a monotone path per sink and an output tap) and 4 per
        # sink landing.
        cap = 9 * net_wire_bound(design, shape) + 4 * max_fanout(design) + 64
        self._c = kernel.bind(
            kernel.RouteState,
            rows=rows, cols=cols,
            r0=reg.row, r1=reg.row + reg.n_rows,
            c0=reg.col, c1=reg.col + reg.n_cols,
            history=self.history, undo=np.empty(3 * cap, np.int32),
            undo_cap=cap, ctr=self.ctr, **self.arrays,
        )
        #: The address of the kernel's view of this state.
        self.ref = ctypes.addressof(self._c)
        self._lib = kernel.load(kernel.ROUTE_SOURCE)

    def _claim_existing(self, array) -> None:
        """Reserve wires another configuration already drives or reads.

        This is what lets several designs compile into disjoint floorplan
        regions of one array without fighting over boundary wires.
        """
        from repro.fabric.driver import DriverMode
        from repro.fabric.nandcell import Direction as Dir, InputSource

        wire_net = self.arrays["wire_net"]
        for r, c in array.configured_cells():
            cfg = array.cell(r, c)
            for row in cfg.used_rows():
                if cfg.drivers[row] is not DriverMode.OFF:
                    w = (
                        self.wire_id(r, c + 1, row)
                        if cfg.directions[row] is Dir.EAST
                        else self.wire_id(r + 1, c, row)
                    )
                    if wire_net[w] == FREE:
                        wire_net[w] = EXISTING_OWNER
                for col in cfg.active_columns(row):
                    if cfg.input_select[col] is InputSource.ABUT:
                        w = self.wire_id(r, c, col)
                        if wire_net[w] == FREE:
                            wire_net[w] = EXISTING_OWNER

    # -- queries ---------------------------------------------------------
    def wire_id(self, r: int, c: int, i: int) -> int:
        """The index of ``w[r][c][i]`` in the per-wire arrays."""
        return (r * (self.n_cols + 1) + c) * N_INPUTS + i

    def wire_exists(self, r: int, c: int, i: int) -> bool:
        """True when ``w[r][c][i]`` is a wire of this array."""
        return 0 <= r <= self.n_rows and 0 <= c <= self.n_cols and 0 <= i < N_INPUTS

    def wire_free(self, w: tuple[int, int, int]) -> bool:
        """True when nothing drives or claims the wire."""
        return self.arrays["wire_net"][self.wire_id(*w)] == FREE

    def free_rows(self, cell: tuple[int, int]) -> tuple[int, ...]:
        """Rows still available for drivers on a cell."""
        r, c = cell
        return _ROWS_OF_MASK[self._lib.free_rows(self.ref, r * self.n_cols + c)]

    def cell_passable(self, cell: tuple[int, int], net: str, in_col: int) -> bool:
        """Can ``net`` pass through ``cell`` reading column ``in_col``?"""
        return bool(
            self._lib.passable(self.ref, *cell, self.net_ids[net], in_col)
        )

    def driver_cell_of(self, wire: tuple[int, int, int]) -> tuple[int, int] | None:
        """The cell whose committed row drives ``wire`` (None if undriven).

        A wire ``(r, c, i)`` can only be driven by its west neighbour's
        row ``i`` configured EAST or its south neighbour's row ``i``
        configured NORTH; this is the boundary-port-cell lookup the
        sharded flow uses to attribute an inter-array channel's source
        wire to a concrete cell.
        """
        r, c, i = wire
        for cell, direction in (
            ((r, c - 1), Direction.EAST),
            ((r - 1, c), Direction.NORTH),
        ):
            if not (0 <= cell[0] < self.n_rows and 0 <= cell[1] < self.n_cols):
                continue
            k = (cell[0] * self.n_cols + cell[1]) * N_ROWS + i
            if direction in (self.gate_dir[k], self.thru_dir[k]):
                return cell
        return None

    def apply(self, net: str, op: tuple[int, ...]) -> None:
        """Commit one journal op for ``net`` unchecked (undo-logged)."""
        buf = array("i", op)
        self._lib.apply(self.ref, self.net_ids[net], buf.buffer_info()[0])

    def rollback_net(self) -> None:
        """Undo every claim of the net in flight."""
        self._lib.rollback(self.ref)


class Router:
    """Maze-routes every net of a placed design.

    The search, path commits and journal replays run in the router's C
    kernel (``_route.c``, built by :mod:`repro.pnr.kernel`); a hop
    through a cell costs 1.0 where the net already reads the cell, 1.5
    where anything else uses it and 2.0 on a fresh blank, plus the
    cell's congestion history.
    """

    def __init__(
        self,
        design: MappedDesign,
        placement: Placement,
        shape: tuple[int, int],
        region: Region,
        array=None,
        warm_routes: dict[str, NetRoute] | None = None,
        warm_moved: set[str] | None = None,
        defects=None,
    ) -> None:
        self.design = design
        self.placement = placement
        self.shape = shape
        self.region = region
        self.defects = defects
        self.lib = kernel.load(kernel.ROUTE_SOURCE)
        rows, cols = shape
        #: Per-cell congestion history, grown between rip-up passes so
        #: later passes spread traffic away from contested cells
        #: (a light take on PathFinder's negotiated congestion).
        self.history = np.zeros(rows * cols)
        # Every pass starts from a freshly pre-claimed state.
        self.array = array
        self.state = self._fresh_state()
        self.routes: dict[str, NetRoute] = {}
        #: Warm-start accounting for the current/last ``route_design``:
        #: how many nets replayed their journal vs paid for an A* search
        #: (repair benchmarks report the replay fraction from these).
        self.n_replayed = 0
        self.n_searched = 0
        #: Routes from a previous compile of (almost) this placement:
        #: a net none of whose endpoint gates appear in ``warm_moved``
        #: replays its journal instead of searching (see ``route_design``).
        self.warm_routes = warm_routes or {}
        self.warm_moved = warm_moved if warm_moved is not None else set()
        self._use_warm = bool(self.warm_routes)
        self._ids = self.state.net_ids
        self._plans: dict[str, tuple] = {}
        #: Every net's placed half-perimeter (see ``net_spans``), set by
        #: ``route_design``, which routes short nets first.
        self.spans: dict[str, int] = {}
        self._routable: list[str] | None = None
        # One search grid and one journal buffer, reused by every net:
        # grid slots are valid only where their generation stamp matches
        # the current search, so "clearing" is a counter increment.
        n_wires = (rows + 1) * (cols + 1) * N_INPUTS
        max_sinks = max_fanout(design)
        wire_cap = net_wire_bound(design, shape)
        op_cap = 9 * wire_cap + 4 * max_sinks
        i32 = np.int32
        self._search = kernel.bind(
            kernel.RouteSearch, gcost=np.zeros(n_wires),
            stamp=np.zeros(n_wires, np.int64), par=np.zeros(n_wires, i32),
            move=np.zeros(n_wires, i32), gen=np.zeros(1, np.int64),
        )
        self._net = kernel.bind(
            kernel.RouteNet, sinks=np.zeros(0, i32),
            sink_col=np.zeros(max_sinks, i32),
            wires=np.empty(3 * wire_cap, i32), ops=np.empty(op_cap, i32),
            path=np.empty(wire_cap, i32), io=np.zeros(5 + N_INPUTS, np.int64),
            wire_cap=wire_cap, op_cap=op_cap,
        )
        self._refs = (ctypes.addressof(self._search), ctypes.addressof(self._net))

    def _fresh_state(self) -> RoutingState:
        """The pre-claimed occupancy every pass starts from."""
        return RoutingState(
            self.design, self.placement, self.shape, self.region,
            array=self.array, defects=self.defects, history=self.history,
        )

    # ------------------------------------------------------------------
    # Net enumeration and ordering
    # ------------------------------------------------------------------
    def routable_nets(self) -> list[str]:
        if self._routable is None:
            sinks_of, outputs = self.design.sinks_of, set(self.design.outputs)
            self._routable = [
                net for net in self.design.nets()
                if sinks_of.get(net) or net in outputs
            ]
        return list(self._routable)

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------
    def route_design(self, strict: bool = True) -> dict[str, NetRoute]:
        """Route every net, rip-up-and-retrying failures.

        With ``strict`` any leftover failure raises :class:`RoutingError`;
        otherwise the partial result is returned and failed nets are
        simply absent from the route map (for congestion studies).

        Nets route shortest-span first.

        When the router was built with ``warm_routes`` (an incremental
        recompile or a die repair re-entering with a previous compile's
        routes), any net whose endpoint gates all kept their position
        replays its previous commit journal — validating every claim against the current
        occupancy — and only falls back to a fresh A* search when the
        replay collides with a moved net's resources.

        Rip-up passes reuse state the same way: after a failed pass the
        failures route first (claiming whatever they need, with the
        congestion history charged), and every net the failed pass *did*
        route becomes a warm route — so a pass with one stuck net costs
        one search plus journal replays, not a full re-route of the
        design.
        """
        spans = self.spans = net_spans(self.design, self.placement)
        nets = sorted(self.routable_nets(), key=lambda n: spans.get(n, 0))
        failed: list[str] = []
        for attempt in range(MAX_PASSES):
            prev_failed = failed
            failed = []
            ordered = nets
            eligible = []
            if self._use_warm:
                # Last pass's failures keep absolute priority, then the
                # replays: they re-claim slices of one mutually
                # consistent previous solution, so played back-to-back
                # they almost never collide; fresh searches then route
                # around the replayed fabric.
                skip = set(prev_failed) | self._stale_nets()
                eligible = [
                    n for n in nets if n not in skip and n in self.warm_routes
                ]
                taken = set(prev_failed) | set(eligible)
                ordered = (
                    prev_failed
                    + eligible
                    + [n for n in nets if n not in taken]
                )
            replayable = set(eligible)
            k = 0
            while k < len(ordered):
                # Cooperative cancellation: a service deadline cancels
                # between nets (or runs of replays), never mid-search.
                checkpoint()
                end = k
                while end < len(ordered) and ordered[end] in replayable:
                    end += 1
                if end > k:
                    k += self._replay_run(ordered[k:end])
                    if k == end:
                        continue
                # A net to search, or the replay that just collided.
                net = ordered[k]
                k += 1
                try:
                    self.routes[net] = self._route_net(net)
                    self.n_searched += 1
                except RoutingError:
                    # Roll the partial tree back so the failure cannot
                    # poison the nets routed after it.
                    self.state.rollback_net()
                    failed.append(net)
            if not failed:
                return self.routes
            if attempt == MAX_PASSES - 1:
                break
            # Charge the cells this pass leaned on, then rip everything
            # up and lead with the failures; the routes this pass *did*
            # commit replay from their journals unless the retried
            # failures grab their resources first.
            st = self.state
            self.history[(st.thru_key | st.gate_key) != 0] += 0.3
            self.warm_routes = dict(self.routes)
            self.warm_moved = set()
            self._use_warm = True
            self.state = self._fresh_state()
            self.routes = {}
            # Keep the remaining order stable: journal replays then stay
            # consistent pass over pass instead of cascading failures
            # through a reshuffled claim order.
            rest = [n for n in nets if n not in failed]
            nets = failed + rest
        if strict:
            raise RoutingError(
                f"unroutable nets after {MAX_PASSES} passes: "
                f"{failed[:6]} (of {len(failed)})"
            )
        return self.routes

    # ------------------------------------------------------------------
    # Warm replay of an earlier pass's routes
    # ------------------------------------------------------------------
    def _stale_nets(self) -> set[str]:
        """Nets with an endpoint gate in ``warm_moved``: their journals
        are not replayed."""
        stale: set[str] = set()
        for name in self.warm_moved:
            gate = self.design.gates.get(name)
            if gate is not None:
                stale.add(gate.output)
                stale.update(gate.inputs)
        return stale

    def _replay_run(self, nets: list[str]) -> int:
        """Re-claim previous routes' resources from their commit journals,
        in order, until one collides; returns how many replayed.

        The kernel validates every op against the *current* routing
        state before applying it, as the search that wrote it did; the
        first collision (or a malformed op) rolls that net back and ends
        the run, so the caller searches it from scratch.  A replay that
        completes reproduces the old route exactly (same wires, same
        sink columns), which is what keeps warm-started routing
        deterministic — the replayed :class:`NetRoute` is the warm one.
        """
        routes = [self.warm_routes[net] for net in nets]
        journals = [
            r.ops if isinstance(r.ops, array) and r.ops.typecode == "i"
            else array("i", r.ops)
            for r in routes
        ]
        offs = np.zeros(len(nets) + 1, np.int64)
        np.cumsum([len(j) for j in journals], out=offs[1:])
        flat = np.frombuffer(b"".join(journals) or b"\0\0\0\0", np.int32)
        ids = np.array([self._ids[net] for net in nets], np.int64)
        done = self.lib.replay_many(
            self.state.ref, ids.ctypes.data, offs.ctypes.data,
            flat.ctypes.data, len(nets),
        )
        self.routes.update(zip(nets[:done], routes))
        self.n_replayed += done
        return done

    # ------------------------------------------------------------------
    # One net
    # ------------------------------------------------------------------
    def _plan(self, net: str) -> tuple:
        """The kernel's view of one net, fixed by the placement: its id,
        source cell, flags, entry bound and sinks, nearest first."""
        plan = self._plans.get(net)
        if plan is not None:
            return plan
        design, placement = self.design, self.placement
        cols = self.shape[1]
        src = design.source_of.get(net)
        sinks = list(design.sinks_of.get(net, []))
        is_output = net in design.outputs
        sink_cells = [placement.input_cell(design.gates[g]) for g, _ in sinks]
        if src is not None:
            r, c = origin = placement.output_cell(design.gates[src])
            src_cell, er, ec = r * cols + c, -1, -1
        else:
            # A primary input has a free entry point, but the whole tree
            # must grow from it — so the entry is confined to the
            # dominance corner every sink can still be reached from.
            origin = er, ec = (
                min((r for r, _ in sink_cells), default=self.region.row),
                min((c for _, c in sink_cells), default=self.region.col),
            )
            src_cell = -1
        # Sinks nearest-first, so the tree grows outward.
        order = sorted(
            range(len(sinks)),
            key=lambda k: abs(sink_cells[k][0] - origin[0])
            + abs(sink_cells[k][1] - origin[1]),
        )
        flat = []
        for k in order:
            (r, c), (gname, pin) = sink_cells[k], sinks[k]
            pins = design.gates[gname].pin_columns
            flat += [r * cols + c, -1 if pins is None else pins[pin]]
        plan = self._plans[net] = (
            self._ids[net], src_cell, len(sinks) > 1 or is_output, is_output,
            er, ec, np.array(flat, np.int32), [sinks[k] for k in order],
        )
        return plan

    def _route_net(self, net: str) -> NetRoute:
        nid, src_cell, multi, is_output, er, ec, sinks, keys = self._plan(net)
        n = self._net
        n.net, n.src_cell, n.multi, n.is_output = nid, src_cell, multi, is_output
        n.er, n.ec, n.n_sinks = er, ec, len(keys)
        n.sinks = sinks.ctypes.data
        code = self.lib.route_net(self.state.ref, *self._refs)
        a = n.arrays
        io = a["io"].tolist()
        if code in (_OK, _PI_TAP):
            flat = a["wires"][:3 * io[0]].tolist()
            entry = io[2]
            route = NetRoute(
                net=net,
                wires=list(zip(flat[0::3], flat[1::3], flat[2::3])),
                entry_wire=(
                    None if entry < 0 else
                    (entry // N_INPUTS // (self.shape[1] + 1),
                     entry // N_INPUTS % (self.shape[1] + 1),
                     entry % N_INPUTS)
                ),
                sink_cols=dict(zip(keys, a["sink_col"][:len(keys)].tolist())),
                ops=array("i", a["ops"][:io[1]].tobytes()),
            )
            if code == _PI_TAP:
                self._tap_input(route)
            return route
        if code == _NO_COLUMN:
            raise RoutingError(
                f"net {net!r}: sink {keys[io[3]][0]!r} has no free input column"
            )
        if code == _NO_PATH:
            cell = divmod(int(sinks[2 * io[3]]), self.shape[1])
            raise RoutingError(
                f"net {net!r}: no path to cell {cell} columns "
                f"{io[5:5 + io[4]]}"
            )
        if code == _NO_TAP:
            raise RoutingError(
                f"output net {net!r}: no free row/wire to expose it"
            )
        if code == _NO_MEMORY:
            raise MemoryError(f"net {net!r}: the search frontier could not grow")
        raise RuntimeError(f"net {net!r}: route buffers overflowed")  # pragma: no cover

    # ------------------------------------------------------------------
    # Output taps of primary inputs
    # ------------------------------------------------------------------
    def _tap_input(self, route: NetRoute) -> None:
        """Expose a primary input that is also a declared output on a
        *driven* wire: a feed-through re-drives it on a spare row."""
        st = self.state
        if route.entry_wire is not None:
            # Forward straight from the cell the entry wire lands on.
            er, ec, ei = route.entry_wire
            if self._tap_from(route, (er, ec), ei):
                return
        else:
            # No entry exists yet: claim one plus one buffer row.
            reg = self.region
            for r in range(reg.row, reg.row + reg.n_rows):
                for c in range(reg.col, reg.col + reg.n_cols):
                    for i in range(N_INPUTS):
                        entry = (r, c, i)
                        if not st.wire_free(entry):
                            continue
                        if not st.cell_passable((r, c), route.net, i):
                            continue
                        if self._tap_from(route, (r, c), i):
                            st.apply(route.net, (OP_ENTRY_FRONT, *entry))
                            route.wires.insert(0, entry)
                            route.entry_wire = entry
                            route.ops.extend((OP_ENTRY_FRONT, *entry))
                            return
        raise RoutingError(
            f"output net {route.net!r}: no cell available to expose it"
        )

    def _tap_from(self, route: NetRoute, cell, in_col: int) -> bool:
        st = self.state
        r, c = cell
        for row in st.free_rows(cell):
            for direction, w in (
                (Direction.EAST, (r, c + 1, row)),
                (Direction.NORTH, (r + 1, c, row)),
            ):
                if st.wire_exists(*w) and st.wire_free(w):
                    op = (OP_THRU, *w, r, c, in_col, row, int(direction))
                    st.apply(route.net, op)
                    route.ops.extend(op)
                    route.wires.append(w)
                    return True
        return False
