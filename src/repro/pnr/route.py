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
* all A* searches share one preallocated, generation-stamped cost grid
  and a numpy congestion-history array — no per-net allocation (see
  ``docs/performance.md``).

Routing is monotone by construction — rows drive east or north only —
so every search is confined to the dominance quadrant between source
and sink, and routed netlists can never acquire feedback.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.fabric.floorplan import Region
from repro.fabric.nandcell import N_INPUTS, N_ROWS, Direction
from repro.pnr.parallel import checkpoint
from repro.pnr.place import Placement
from repro.pnr.techmap import (
    MappedDesign,
    MappedGate,
    PAIR_CELEMENT,
    PAIR_EVENTLATCH,
)

#: Wire owner marking a pair macro's internal product lines.
MACRO_OWNER = "__macro__"

#: Wire owner marking wires already driven or read by pre-existing
#: configuration on the target array (e.g. another floorplan region).
EXISTING_OWNER = "__existing__"

#: Wire owner marking dead wire segments of a per-die defect map
#: (:class:`repro.pnr.defects.DefectMap`): pre-claimed before any net
#: routes, so both fresh A* searches and warm journal replays treat
#: them as permanently occupied.
DEFECT_OWNER = "__defect__"

#: Product rows a pair macro drives into its collector cell (cell B
#: columns), by kind — these wires are consumed at placement time.
PAIR_INTERNAL_ROWS: dict[str, int] = {
    PAIR_CELEMENT: 3,
    PAIR_EVENTLATCH: 5,
}

#: Free-row tuples by used-row bitmask: ``_ROWS_BY_MASK[mask]`` lists the
#: rows whose bit is clear — the O(1) lookup behind
#: :meth:`RoutingState.free_rows`.
_ROWS_BY_MASK: tuple[tuple[int, ...], ...] = tuple(
    tuple(r for r in range(N_ROWS) if not mask >> r & 1)
    for mask in range(1 << N_ROWS)
)


def _clear_row_bit(mask: dict, cell, row: int) -> None:
    """Undo of :meth:`RoutingState._mark_row`."""
    mask[cell] &= ~(1 << row)


class RoutingError(RuntimeError):
    """A net could not be routed with the available cells and wires."""


@dataclass
class NetRoute:
    """Everything one routed net occupies.

    ``ops`` is the net's commit journal — the ordered resource claims
    (entry wires, source-row drives, feed-through hops, sink column
    landings) that produced the route.  A later router pass replays the
    journal verbatim when the net's endpoints have not moved, instead of
    searching again (see :meth:`Router.route_design`).
    """

    net: str
    wires: list[tuple[int, int, int]] = field(default_factory=list)
    entry_wire: tuple[int, int, int] | None = None
    sink_cols: dict[tuple[str, int], int] = field(default_factory=dict)
    ops: list[tuple] = field(default_factory=list, repr=False)

    @property
    def wirelength(self) -> int:
        """Wires the net occupies (driven hops + the entry line)."""
        return len(self.wires)


class RoutingState:
    """Occupancy of cells, rows, columns and wires during routing."""

    def __init__(
        self,
        design: MappedDesign,
        placement: Placement,
        shape: tuple[int, int],
        region: Region,
        array=None,
        defects=None,
    ) -> None:
        self.design = design
        self.placement = placement
        self.n_rows, self.n_cols = shape
        self.region = region
        self.defects = defects
        #: (r, c) -> gate name for cells a gate occupies.
        self.logic_cells: dict[tuple[int, int], str] = {}
        #: Pair-macro cells: fully committed, never shared with routing.
        self.opaque: set[tuple[int, int]] = set()
        #: (r, c) -> bitmask of driver rows in use (gate + feed-through):
        #: the O(1) source of :meth:`free_rows`.
        self._row_mask: dict[tuple[int, int], int] = {}
        #: Pair product cells whose rows are all spoken for.
        self._pair_committed: set[tuple[int, int]] = set()
        #: (r, c) -> {row: Direction} of gate fan-out (function) rows.
        self.gate_rows: dict[tuple[int, int], dict[int, Direction]] = {}
        #: (r, c) -> {row: (in_col, Direction)} of feed-through rows.
        self.thru_rows: dict[tuple[int, int], dict[int, tuple[int, Direction]]] = {}
        #: ((r, c), net) -> the input column the net reads at that cell.
        self.thru_col: dict[tuple[tuple[int, int], str], int] = {}
        #: (r, c) -> {column: net} of claimed input columns (gate pins
        #: and feed-through reads alike).
        self.col_assign: dict[tuple[int, int], dict[int, str]] = {}
        #: (r, c, i) -> owning net (or MACRO_OWNER).
        self.wire_net: dict[tuple[int, int, int], str] = {}
        #: Undo journal for the net currently being routed.
        self._undo: list = []
        #: (r, c) -> input nets a gate still needs columns for: reserved
        #: capacity through-traffic must not consume.
        self.pending_inputs: dict[tuple[int, int], set[str]] = {}
        #: Gate output cells that have not committed a fan-out row yet:
        #: one row stays reserved for them.
        self.pending_output: set[tuple[int, int]] = set()

        # Defect pre-claims go in before any gate or existing-config
        # claim: dead wires become permanently owned, dead cells opaque
        # *and* row-committed (so neither drives nor feed-throughs can
        # use them), stuck config rows are masked out of free_rows.
        # Warm journal replays validate each op against this occupancy,
        # so a journal crossing a defect fails its replay and the net
        # re-searches — exactly the repair semantics of
        # :func:`repro.pnr.defects.repair_for_die`.
        if defects is not None:
            for w in defects.dead_wires:
                self.wire_net[w] = DEFECT_OWNER
            for cell in defects.dead_cells:
                self.opaque.add(cell)
                self._pair_committed.add(cell)
            for dr, dc, row in defects.stuck_rows:
                cell = (dr, dc)
                self._row_mask[cell] = self._row_mask.get(cell, 0) | 1 << row

        for gate in design.gates.values():
            for cell in placement.cells_of(gate):
                self.logic_cells[cell] = gate.name
            in_cell = placement.input_cell(gate)
            self.pending_output.add(placement.output_cell(gate))
            cols = gate.pin_columns
            if cols is None:
                self.pending_inputs[in_cell] = set(gate.inputs)
            if cols is not None:
                self.opaque.update(placement.cells_of(gate))
                self._pair_committed.add(in_cell)
                assign = self.col_assign.setdefault(in_cell, {})
                for pin, col in enumerate(cols):
                    assign[col] = gate.inputs[pin]
                r, c = in_cell
                for row in range(PAIR_INTERNAL_ROWS[gate.kind]):
                    self.wire_net[(r, c + 1, row)] = MACRO_OWNER
        if array is not None:
            self._claim_existing(array)

    def _claim_existing(self, array) -> None:
        """Reserve wires another configuration already drives or reads.

        This is what lets several designs compile into disjoint floorplan
        regions of one array without fighting over boundary wires.
        """
        from repro.fabric.driver import DriverMode
        from repro.fabric.nandcell import Direction as Dir, InputSource

        for r, c in array.configured_cells():
            cfg = array.cell(r, c)
            for row in cfg.used_rows():
                if cfg.drivers[row] is not DriverMode.OFF:
                    target = (
                        (r, c + 1, row)
                        if cfg.directions[row] is Dir.EAST
                        else (r + 1, c, row)
                    )
                    self.wire_net.setdefault(target, EXISTING_OWNER)
                for col in cfg.active_columns(row):
                    if cfg.input_select[col] is InputSource.ABUT:
                        self.wire_net.setdefault((r, c, col), EXISTING_OWNER)

    # -- transactional routing -----------------------------------------
    # All occupancy mutations go through the journaled mutators below,
    # so a net that fails mid-route undoes exactly what it wrote.  A
    # journal entry is ``(function, *args)`` over module-level functions
    # and unbound methods: the success path records a handful of tuples,
    # neither copying the state per net nor allocating closures.

    def begin_net(self) -> None:
        """Start recording mutations for one net."""
        self._undo: list = []

    def commit_net(self) -> None:
        """The net routed: drop its undo journal."""
        self._undo = []

    def rollback_net(self) -> None:
        """Undo every mutation recorded since :meth:`begin_net`."""
        for fn, *args in reversed(self._undo):
            fn(*args)
        self._undo = []

    def claim_wire(self, w: tuple[int, int, int], net: str) -> None:
        self.wire_net[w] = net
        self._undo.append((dict.pop, self.wire_net, w, None))

    def add_gate_row(self, cell, row: int, direction: Direction) -> None:
        rows = self.gate_rows.setdefault(cell, {})
        rows[row] = direction
        self._mark_row(cell, row)
        self._undo.append((dict.pop, rows, row, None))
        if cell in self.pending_output:
            self.pending_output.discard(cell)
            self._undo.append((set.add, self.pending_output, cell))

    def add_thru_row(self, cell, net: str, in_col: int, row: int, direction) -> None:
        if (cell, net) not in self.thru_col:
            self.thru_col[(cell, net)] = in_col
            self._undo.append((dict.pop, self.thru_col, (cell, net), None))
        self.assign_col(cell, in_col, net)
        rows = self.thru_rows.setdefault(cell, {})
        rows[row] = (in_col, direction)
        self._mark_row(cell, row)
        self._undo.append((dict.pop, rows, row, None))

    def _mark_row(self, cell, row: int) -> None:
        mask = self._row_mask
        mask[cell] = mask.get(cell, 0) | 1 << row
        self._undo.append((_clear_row_bit, mask, cell, row))

    def assign_col(self, cell, col: int, net: str) -> None:
        assign = self.col_assign.setdefault(cell, {})
        if col not in assign:
            assign[col] = net
            self._undo.append((dict.pop, assign, col, None))
        pending = self.pending_inputs.get(cell)
        if pending is not None and net in pending:
            pending.discard(net)
            self._undo.append((set.add, pending, net))

    # -- geometry helpers ----------------------------------------------
    def in_region(self, r: int, c: int) -> bool:
        """True when cell (r, c) may be used for routing."""
        return (
            self.region.row <= r < self.region.row + self.region.n_rows
            and self.region.col <= c < self.region.col + self.region.n_cols
        )

    def wire_exists(self, r: int, c: int, i: int) -> bool:
        """True when ``w[r][c][i]`` is a wire of this array."""
        return 0 <= r <= self.n_rows and 0 <= c <= self.n_cols and 0 <= i < N_INPUTS

    def wire_free(self, w: tuple[int, int, int]) -> bool:
        """True when nothing drives or claims the wire."""
        return w not in self.wire_net

    def free_rows(self, cell: tuple[int, int]) -> tuple[int, ...]:
        """Rows still available for drivers on a cell."""
        if cell in self._pair_committed:
            return ()  # the pair's product cell is fully committed
        return _ROWS_BY_MASK[self._row_mask.get(cell, 0)]

    def cell_passable(self, cell: tuple[int, int], net: str, in_col: int) -> bool:
        """Can ``net`` pass through ``cell`` reading column ``in_col``?"""
        if not self.in_region(*cell) or cell in self.opaque:
            return False
        existing = self.thru_col.get((cell, net))
        if existing is not None:
            return in_col == existing
        owner = self.col_assign.get(cell, {}).get(in_col)
        if owner is not None:
            # The column where this very net already lands as a gate
            # input may forward it; anything else is taken.
            return owner == net
        # A fresh column claim must leave enough free columns for the
        # cell's own unrouted gate inputs (unless this net is one).
        pending = self.pending_inputs.get(cell)
        if pending and net not in pending:
            free = N_INPUTS - len(self.col_assign.get(cell, {}))
            return free > len(pending)
        return True

    def thru_rows_available(self, cell: tuple[int, int]) -> tuple[int, ...]:
        """Rows through-traffic may take: keeps one for an undriven gate."""
        rows = self.free_rows(cell)
        if cell in self.pending_output and len(rows) <= 1:
            return ()
        return rows

    def is_route_only(self, cell: tuple[int, int]) -> bool:
        """True for cells burned purely as interconnect."""
        return cell in self.thru_rows and cell not in self.logic_cells

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
            if cell[0] < 0 or cell[1] < 0:
                continue
            if self.gate_rows.get(cell, {}).get(i) is direction:
                return cell
            thru = self.thru_rows.get(cell, {}).get(i)
            if thru is not None and thru[1] is direction:
                return cell
        return None

    def output_candidates(self, gate: MappedGate) -> tuple[tuple[int, int], list[int]]:
        """(output cell, free rows) a gate can drive its net from."""
        cell = self.placement.output_cell(gate)
        return cell, self.free_rows(cell)


def _wire_after(cell: tuple[int, int], row: int, direction: Direction) -> tuple[int, int, int]:
    r, c = cell
    if direction is Direction.EAST:
        return (r, c + 1, row)
    return (r + 1, c, row)


class Router:
    """Maze-routes every net of a placed design."""

    #: Cost of a hop through a cell this net already reads.
    REUSE_COST = 1.0
    #: Cost of sharing a cell something else (logic, another net) uses.
    SHARE_COST = 1.5
    #: Cost of burning a fresh blank cell as a feed-through.
    FRESH_COST = 2.0

    def __init__(
        self,
        design: MappedDesign,
        placement: Placement,
        shape: tuple[int, int],
        region: Region,
        max_passes: int = 6,
        array=None,
        warm_routes: dict[str, NetRoute] | None = None,
        warm_moved: set[str] | None = None,
        defects=None,
    ) -> None:
        self.design = design
        self.placement = placement
        self.shape = shape
        self.region = region
        #: Per-die defect map (see :mod:`repro.pnr.defects`): threaded
        #: into every :class:`RoutingState` this router builds, so the
        #: rip-up rebuilds keep the same blocked resources.
        self.defects = defects
        self.max_passes = max_passes
        self.array = array
        self.state = RoutingState(
            design, placement, shape, region, array=array, defects=defects
        )
        self.routes: dict[str, NetRoute] = {}
        #: Warm-start accounting for the current/last ``route_design``:
        #: how many nets replayed their journal vs paid for an A* search
        #: (repair benchmarks report the replay fraction from these).
        self.n_replayed = 0
        self.n_searched = 0
        #: Per-cell congestion history, grown between rip-up passes so
        #: later passes spread traffic away from contested cells
        #: (a light take on PathFinder's negotiated congestion) — a
        #: numpy grid so charging and lookups stay cheap.
        self.history = np.zeros(shape, dtype=np.float64)
        #: Routes from a previous compile of (almost) this placement:
        #: a net none of whose endpoint gates appear in ``warm_moved``
        #: replays its journal instead of searching (see ``route_design``).
        self.warm_routes = warm_routes or {}
        self.warm_moved = warm_moved if warm_moved is not None else set()
        self._use_warm = bool(self.warm_routes)
        # One preallocated search grid, reused by every A* call: slots
        # are valid only when their generation stamp matches the current
        # search, so "clearing" between nets is a counter increment —
        # no per-net dict allocation or snapshot copies.
        nr, nc = shape
        self._nid_cols = nc + 1
        n_nodes = (nr + 1) * (nc + 1) * N_INPUTS
        self._gcost: list[float] = [0.0] * n_nodes
        self._parent: list[tuple | None] = [None] * n_nodes
        self._stamp: list[int] = [0] * n_nodes
        self._generation = 0

    # ------------------------------------------------------------------
    # Net enumeration and ordering
    # ------------------------------------------------------------------
    def routable_nets(self) -> list[str]:
        nets = []
        for net in self.design.nets():
            sinks = self.design.sinks_of.get(net, [])
            if sinks or net in self.design.outputs:
                nets.append(net)
        return nets

    def _net_span(self, net: str) -> int:
        from repro.pnr.place import net_hpwl

        return net_hpwl(self.design, self.placement, net)

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
        nets = sorted(self.routable_nets(), key=self._net_span)
        failed: list[str] = []
        for attempt in range(self.max_passes):
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
                front = set(prev_failed)
                eligible = [
                    n for n in nets
                    if n not in front
                    and n in self.warm_routes
                    and self._warm_eligible(n)
                ]
                taken = front | set(eligible)
                ordered = (
                    prev_failed
                    + eligible
                    + [n for n in nets if n not in taken]
                )
            replayable = set(eligible)
            for net in ordered:
                # Cooperative cancellation: a service deadline cancels
                # between nets, never mid-search.
                checkpoint()
                if net in replayable:
                    replayed = self._replay_net(self.warm_routes[net])
                    if replayed is not None:
                        self.routes[net] = replayed
                        self.n_replayed += 1
                        continue
                self.state.begin_net()
                try:
                    self.routes[net] = self._route_net(net)
                    self.n_searched += 1
                    self.state.commit_net()
                except RoutingError:
                    # Roll the partial tree back so the failure cannot
                    # poison the nets routed after it.
                    self.state.rollback_net()
                    failed.append(net)
            if not failed:
                return self.routes
            if attempt == self.max_passes - 1:
                break
            # Charge the cells this pass leaned on, then rip everything
            # up and lead with the failures; the routes this pass *did*
            # commit replay from their journals unless the retried
            # failures grab their resources first.
            for cell in set(self.state.thru_rows) | set(self.state.gate_rows):
                self.history[cell] += 0.3
            self.warm_routes = dict(self.routes)
            self.warm_moved = set()
            self._use_warm = True
            self.state = RoutingState(
                self.design, self.placement, self.shape, self.region,
                array=self.array, defects=self.defects,
            )
            self.routes = {}
            # Keep the remaining order stable: journal replays then stay
            # consistent pass over pass instead of cascading failures
            # through a reshuffled claim order.
            rest = [n for n in nets if n not in failed]
            nets = failed + rest
        if strict:
            raise RoutingError(
                f"unroutable nets after {self.max_passes} passes: "
                f"{failed[:6]} (of {len(failed)})"
            )
        return self.routes

    # ------------------------------------------------------------------
    # Warm replay of an earlier pass's routes
    # ------------------------------------------------------------------
    def _warm_eligible(self, net: str) -> bool:
        """True when every endpoint gate of ``net`` is unmoved."""
        src = self.design.source_of.get(net)
        if src is not None and src in self.warm_moved:
            return False
        return all(
            g not in self.warm_moved
            for g, _ in self.design.sinks_of.get(net, [])
        )

    def _replay_net(self, warm: NetRoute) -> NetRoute | None:
        """Re-claim a previous route's resources from its commit journal.

        Every op is validated against the *current* routing state before
        it is applied; the first collision rolls the whole net back and
        returns ``None`` so the caller searches from scratch.  A replay
        that completes reproduces the old route exactly (same wires,
        same sink columns), which is what keeps warm-started routing
        deterministic.
        """
        st = self.state
        net = warm.net
        st.begin_net()
        route = NetRoute(net=net, sink_cols=dict(warm.sink_cols))
        for op in warm.ops:
            kind = op[0]
            if kind == "entry" or kind == "entry_front":
                w = op[1]
                if not st.wire_free(w):
                    break
                st.claim_wire(w, net)
                if kind == "entry":
                    route.wires.append(w)
                else:
                    route.wires.insert(0, w)
                route.entry_wire = w
            elif kind == "drive":
                _, w, cell, row, direction = op
                if not st.wire_free(w) or row not in st.free_rows(cell):
                    break
                st.add_gate_row(cell, row, direction)
                st.claim_wire(w, net)
                route.wires.append(w)
            elif kind == "thru":
                _, w, cell, in_col, row, direction = op
                if (
                    not st.wire_free(w)
                    or not st.cell_passable(cell, net, in_col)
                    or row not in st.thru_rows_available(cell)
                ):
                    break
                st.add_thru_row(cell, net, in_col, row, direction)
                st.claim_wire(w, net)
                route.wires.append(w)
            elif kind == "col":
                _, cell, col = op
                owner = st.col_assign.get(cell, {}).get(col)
                if owner is not None and owner != net:
                    break
                st.assign_col(cell, col, net)
            else:  # pragma: no cover - journal kinds are closed
                break
        else:
            route.ops = list(warm.ops)
            st.commit_net()
            return route
        st.rollback_net()
        return None

    # ------------------------------------------------------------------
    # One net
    # ------------------------------------------------------------------
    def _route_net(self, net: str) -> NetRoute:
        route = NetRoute(net=net)
        src_gate_name = self.design.source_of.get(net)
        src_gate = (
            self.design.gates[src_gate_name] if src_gate_name is not None else None
        )
        sinks = list(self.design.sinks_of.get(net, []))
        is_output = net in self.design.outputs
        # A primary input has a free entry point, but the whole tree must
        # grow from it — so the entry is confined to the dominance corner
        # every sink can still be reached from.
        sink_cells = [
            self.placement.input_cell(self.design.gates[g]) for g, _ in sinks
        ]
        if src_gate is not None:
            origin = self.placement.output_cell(src_gate)
            entry_bound = None
        else:
            origin = (
                min((r for r, _ in sink_cells), default=self.region.row),
                min((c for _, c in sink_cells), default=self.region.col),
            )
            entry_bound = origin
        # Sort sinks nearest-first so the tree grows outward.
        sinks.sort(
            key=lambda s: (
                abs(self.placement.input_cell(self.design.gates[s[0]])[0] - origin[0])
                + abs(self.placement.input_cell(self.design.gates[s[0]])[1] - origin[1])
            )
        )
        for gate_name, pin in sinks:
            self._route_sink(
                route, src_gate, gate_name, pin,
                multi=len(sinks) > 1 or is_output,
                entry_bound=entry_bound,
            )
        if is_output:
            self._ensure_output_tap(route, src_gate)
        return route

    def _sink_target(
        self, gate: MappedGate, pin: int, net: str
    ) -> tuple[tuple[int, int], list[int]]:
        """(input cell, acceptable columns) for one sink pin."""
        cell = self.placement.input_cell(gate)
        cols = gate.pin_columns
        if cols is not None:
            return cell, [cols[pin]]
        assign = self.state.col_assign.get(cell, {})
        if net in assign.values():
            # The net already landed on this cell (duplicate pin).
            return cell, [c for c, n in assign.items() if n == net]
        return cell, [c for c in range(N_INPUTS) if c not in assign]

    def _route_sink(
        self,
        route: NetRoute,
        src_gate: MappedGate | None,
        sink_name: str,
        pin: int,
        multi: bool,
        entry_bound: tuple[int, int] | None = None,
    ) -> None:
        sink_gate = self.design.gates[sink_name]
        target_cell, allowed = self._sink_target(sink_gate, pin, route.net)
        if not allowed:
            raise RoutingError(
                f"net {route.net!r}: sink {sink_name!r} has no free input column"
            )
        tr, tc = target_cell
        # The net may already arrive on an acceptable column of this cell.
        for col in allowed:
            if self.state.wire_net.get((tr, tc, col)) == route.net:
                route.sink_cols[(sink_name, pin)] = col
                self._assign_col(target_cell, col, route.net)
                route.ops.append(("col", target_cell, col))
                return
        came = self._search(route, src_gate, target_cell, allowed, multi, entry_bound)
        goal_col = self._commit(route, came)
        route.sink_cols[(sink_name, pin)] = goal_col
        self._assign_col(target_cell, goal_col, route.net)
        route.ops.append(("col", target_cell, goal_col))

    def _assign_col(self, cell: tuple[int, int], col: int, net: str) -> None:
        self.state.assign_col(cell, col, net)

    # ------------------------------------------------------------------
    # A* search over wire nodes
    # ------------------------------------------------------------------
    def _hop_cost(self, cell: tuple[int, int], net: str) -> float:
        st = self.state
        if (cell, net) in st.thru_col:
            base = self.REUSE_COST
        elif cell in st.logic_cells or cell in st.thru_rows:
            base = self.SHARE_COST
        else:
            base = self.FRESH_COST
        return base + float(self.history[cell])

    def _search(
        self,
        route: NetRoute,
        src_gate: MappedGate | None,
        target: tuple[int, int],
        allowed_cols: list[int],
        multi: bool,
        entry_bound: tuple[int, int] | None = None,
    ):
        """Find a path of wires ending on ``target``'s allowed columns.

        Returns ``(parent lookup, goal node)``; raises RoutingError.
        Nodes are wires ``(r, c, i)``; parents record how the wire came
        to carry the net: ``("seed",)`` (already in the tree),
        ``("drive", row, dir)`` (a new source row), ``("entry",)``
        (primary-input entry) or ``("hop", prev, row, dir)``.

        Cost and parent slots live in the router's single preallocated
        grid, validity-stamped with the search generation — no per-net
        allocation, no clearing sweep.
        """
        st = self.state
        net = route.net
        wire_net = st.wire_net
        tr, tc = target
        self._generation += 1
        gen = self._generation
        gcost = self._gcost
        parent = self._parent
        stamp = self._stamp
        nid_cols = self._nid_cols
        heappush = heapq.heappush
        heappop = heapq.heappop
        east = Direction.EAST
        north = Direction.NORTH

        frontier: list[tuple[float, int, int, tuple[int, int, int]]] = []
        tick = 0

        def push(node, cost, par):
            nonlocal tick
            r, c, i = node
            if r > tr or c > tc:
                return
            nid = (r * nid_cols + c) * N_INPUTS + i
            if stamp[nid] == gen and gcost[nid] <= cost:
                return
            gcost[nid] = cost
            parent[nid] = par
            stamp[nid] = gen
            tick += 1
            # f = g + h with the Manhattan heuristic to the target cell.
            heappush(frontier, (cost + (tr - r) + (tc - c), tick, nid, node))

        for w in route.wires:
            push(w, 0.0, ("seed",))
        if src_gate is not None:
            cell, rows = st.output_candidates(src_gate)
            for row in rows:
                for direction in (east, north):
                    w = _wire_after(cell, row, direction)
                    if st.wire_exists(*w) and w not in wire_net:
                        push(w, 1.0, ("drive", row, direction))
        elif not route.wires:
            # Primary input: enter on any free wire the search can use —
            # a passable cell's free column, or the sink pin directly.
            # The entry bound keeps the root inside every sink's quadrant.
            # Cell-level vetoes (opaque, committed pin capacity) are
            # hoisted out of the per-wire loop: this scan visits every
            # cell of the entry quadrant.
            er, ec = entry_bound if entry_bound is not None else (tr, tc)
            opaque = st.opaque
            col_assign = st.col_assign
            pending_inputs = st.pending_inputs
            thru_col = st.thru_col
            for r in range(self.region.row, min(self.region.row + self.region.n_rows, er + 1)):
                for c in range(self.region.col, min(self.region.col + self.region.n_cols, ec + 1)):
                    cell = (r, c)
                    is_target = cell == target
                    if cell in opaque and not is_target:
                        continue
                    assign = col_assign.get(cell)
                    existing = thru_col.get((cell, net))
                    pending = pending_inputs.get(cell)
                    free_cols = (
                        N_INPUTS - len(assign) if assign is not None else N_INPUTS
                    )
                    for i in range(N_INPUTS):
                        w = (r, c, i)
                        if w in wire_net:
                            continue
                        if not multi and is_target and i in allowed_cols:
                            push(w, 0.0, ("entry",))
                            continue
                        if cell in opaque:
                            continue
                        # Inline cell_passable(cell, net, i):
                        if existing is not None:
                            if i != existing:
                                continue
                        else:
                            owner = assign.get(i) if assign is not None else None
                            if owner is not None:
                                if owner != net:
                                    continue
                            elif pending and net not in pending:
                                if free_cols <= len(pending):
                                    continue
                        push(w, 0.0, ("entry",))

        while frontier:
            f, _, nid, node = heappop(frontier)
            if gcost[nid] + 1e-9 < f - (tr - node[0]) - (tc - node[1]):
                continue
            r, c, i = node
            if r == tr and c == tc and i in allowed_cols:
                return self._parent_lookup(gen), node
            cell = (r, c)
            if not st.cell_passable(cell, net, i):
                continue
            base = self._hop_cost(cell, net)
            g_here = gcost[nid]
            ce = c + 1
            rn = r + 1
            push_east = ce <= tc
            push_north = rn <= tr
            if not (push_east or push_north):
                continue
            for row in st.thru_rows_available(cell):
                # Produced wires always exist: the cell is in-region,
                # so (r, c+1) / (r+1, c) index real wires and
                # row < N_ROWS == N_INPUTS.
                if push_east:
                    w = (r, ce, row)
                    if w not in wire_net:
                        nid2 = (r * nid_cols + ce) * N_INPUTS + row
                        cost = g_here + base
                        if stamp[nid2] != gen or gcost[nid2] > cost:
                            gcost[nid2] = cost
                            parent[nid2] = ("hop", node, row, east)
                            stamp[nid2] = gen
                            tick += 1
                            heappush(
                                frontier,
                                (cost + (tr - r) + (tc - ce), tick, nid2, w),
                            )
                if push_north:
                    w = (rn, c, row)
                    if w not in wire_net:
                        nid2 = (rn * nid_cols + c) * N_INPUTS + row
                        cost = g_here + base
                        if stamp[nid2] != gen or gcost[nid2] > cost:
                            gcost[nid2] = cost
                            parent[nid2] = ("hop", node, row, north)
                            stamp[nid2] = gen
                            tick += 1
                            heappush(
                                frontier,
                                (cost + (tr - rn) + (tc - c), tick, nid2, w),
                            )
        raise RoutingError(
            f"net {route.net!r}: no path to cell {target} columns {allowed_cols}"
        )

    def _parent_lookup(self, gen: int):
        """Parent-map accessor over the generation-stamped search grid."""
        parent = self._parent
        stamp = self._stamp
        nid_cols = self._nid_cols

        def lookup(node: tuple[int, int, int]) -> tuple:
            r, c, i = node
            nid = (r * nid_cols + c) * N_INPUTS + i
            if stamp[nid] != gen:  # pragma: no cover - defensive
                raise RoutingError(f"search grid has no parent for {node}")
            return parent[nid]

        return lookup

    # ------------------------------------------------------------------
    # Committing a found path
    # ------------------------------------------------------------------
    def _commit(self, route: NetRoute, came_and_goal) -> int:
        came, goal = came_and_goal
        st = self.state
        path: list[tuple[tuple[int, int, int], tuple]] = []
        node = goal
        while True:
            parent = came(node)
            path.append((node, parent))
            if parent[0] == "hop":
                node = parent[1]
            else:
                break
        for node, parent in reversed(path):
            kind = parent[0]
            if kind == "seed":
                continue
            if kind == "entry":
                st.claim_wire(node, route.net)
                route.wires.append(node)
                route.entry_wire = node
                route.ops.append(("entry", node))
                continue
            if kind == "drive":
                _, row, direction = parent
                src_cell = self.placement.output_cell(
                    self.design.gates[self.design.source_of[route.net]]
                )
                st.add_gate_row(src_cell, row, direction)
                route.ops.append(("drive", node, src_cell, row, direction))
            else:  # hop
                _, prev, row, direction = parent
                st.add_thru_row(
                    (prev[0], prev[1]), route.net, prev[2], row, direction
                )
                route.ops.append(
                    ("thru", node, (prev[0], prev[1]), prev[2], row, direction)
                )
            st.claim_wire(node, route.net)
            route.wires.append(node)
        return goal[2]

    # ------------------------------------------------------------------
    # Output taps
    # ------------------------------------------------------------------
    def _ensure_output_tap(self, route: NetRoute, src_gate: MappedGate | None) -> None:
        """Guarantee the net value is observable on a *driven* wire."""
        driven = [w for w in route.wires if w != route.entry_wire]
        if driven:
            return
        if src_gate is not None:
            cell, rows = self.state.output_candidates(src_gate)
            if self._tap_from(route, cell, rows, in_col=None):
                return
            raise RoutingError(
                f"output net {route.net!r}: no free row/wire to expose it"
            )
        # Primary input feeding an output: pass it through one cell.
        for (cell, owner), in_col in list(self.state.thru_col.items()):
            if owner == route.net:
                if self._tap_from(
                    route, cell, self.state.free_rows(cell), in_col=in_col
                ):
                    return
        # Forward straight from the cell the entry wire lands on (its
        # reader — a sink or feed-through — re-drives it on a spare row).
        if route.entry_wire is not None:
            er, ec, ei = route.entry_wire
            if self._tap_from(
                route, (er, ec), self.state.free_rows((er, ec)), in_col=ei
            ):
                return
        else:
            # No entry exists yet: claim one plus one buffer row.
            for r in range(self.region.row, self.region.row + self.region.n_rows):
                for c in range(self.region.col, self.region.col + self.region.n_cols):
                    cell = (r, c)
                    for i in range(N_INPUTS):
                        entry = (r, c, i)
                        if not self.state.wire_free(entry):
                            continue
                        if not self.state.cell_passable(cell, route.net, i):
                            continue
                        if self._tap_entry(route, cell, entry):
                            return
        raise RoutingError(
            f"output net {route.net!r}: no cell available to expose it"
        )

    def _tap_entry(self, route, cell, entry) -> bool:
        ok = self._tap_from(route, cell, self.state.free_rows(cell), in_col=entry[2])
        if not ok:
            return False
        self.state.claim_wire(entry, route.net)
        route.wires.insert(0, entry)
        route.entry_wire = entry
        route.ops.append(("entry_front", entry))
        return True

    def _tap_from(self, route, cell, rows, in_col) -> bool:
        st = self.state
        for row in rows:
            for direction in (Direction.EAST, Direction.NORTH):
                w = _wire_after(cell, row, direction)
                if st.wire_exists(*w) and st.wire_free(w):
                    if in_col is not None:
                        st.add_thru_row(cell, route.net, in_col, row, direction)
                        route.ops.append(("thru", w, cell, in_col, row, direction))
                    else:
                        st.add_gate_row(cell, row, direction)
                        route.ops.append(("drive", w, cell, row, direction))
                    st.claim_wire(w, route.net)
                    route.wires.append(w)
                    return True
        return False
