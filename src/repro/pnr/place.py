"""Stage 2 — placement: mapped gates onto the cell grid.

The fabric's abutment wiring is *monotone*: a row drives its east or
north neighbour only, so a net can reach a consumer only if the consumer
sits in the up-right quadrant of its producer.  Placement therefore has a
hard legality component on top of the usual wirelength objective: every
gate-to-gate edge must be **dominance-compatible** (sink row >= source
row AND sink column >= source column).  A corollary worth knowing: the
longest combinational chain a ``R x C`` region can host is ``R + C - 1``
gates — deep designs need proportionally large arrays.

Two phases, in the spirit of the annealing placers in Kuree/cgra_pnr:

* :func:`initial_placement` — greedy topological seeding.  Gates are
  placed in topological order at the free cell nearest the centroid of
  their placed fan-in, constrained to that fan-in's dominance quadrant —
  so the seed is always legal.  Candidates are scanned outward from the
  wanted cell in L1 rings (O(found distance²), not O(region cells)) in
  a fixed sorted order, so the seed is bit-reproducible everywhere.
* :func:`anneal_placement` — simulated annealing over single-gate
  relocations confined to each gate's dominance window, with
  half-perimeter wirelength (HPWL) cost; every accepted state stays
  legal by construction and the best state seen wins.  Move costs come
  from :class:`IncrementalHpwl` — a VPR-style cached per-net bounding
  box updated in O(pins of the moved gate) with *exact* deltas, so the
  accept/reject trajectory for a seed is identical to a full recompute;
  each rung (draws, windows, pricing, accept test, commits) is one call
  of the C kernel of :mod:`repro.pnr.kernel` (see ``docs/performance.md``).

Both operate inside a :class:`repro.fabric.floorplan.Region`, so a design
can be compiled into a carved-out module slot of a shared array.
"""

from __future__ import annotations

import ctypes
import random
from dataclasses import dataclass, field

import numpy as np

from repro.fabric.floorplan import Region
from repro.pnr import kernel
from repro.pnr.parallel import checkpoint
from repro.pnr.techmap import MappedDesign, MappedGate


class PlacementError(RuntimeError):
    """The design does not fit the region, or has unroutable feedback."""


class _PinnedWindowError(PlacementError):
    """A gate whose fan-ins and fan-outs are all fixed has no
    dominance-legal cell: no tie-break variant can open its window."""


@dataclass
class Placement:
    """Gate positions inside a region.

    ``positions`` maps gate name -> (row, col) of the gate's *input* cell;
    a 2-cell pair extends one cell east (its output cell).
    """

    region: Region
    positions: dict[str, tuple[int, int]] = field(default_factory=dict)

    def cells_of(self, gate: MappedGate) -> list[tuple[int, int]]:
        """Grid cells the gate occupies."""
        r, c = self.positions[gate.name]
        return [(r, c + k) for k in range(gate.width)]

    def input_cell(self, gate: MappedGate) -> tuple[int, int]:
        """The cell whose input columns receive the gate's nets."""
        return self.positions[gate.name]

    def output_cell(self, gate: MappedGate) -> tuple[int, int]:
        """The cell whose rows drive the gate's output."""
        r, c = self.positions[gate.name]
        return (r, c + gate.width - 1)


def gate_levels(design: MappedDesign) -> dict[str, int]:
    """Topological level of every gate (0 = fed by primary inputs only).

    Raises :class:`PlacementError` on gate-to-gate feedback: a cycle
    cannot satisfy the monotone east/north dominance constraint (each
    edge would need a strictly-later grid position than the last).  The
    fabric hosts feedback *inside* a cell pair (the lfb lines the
    stateful macros use), not across the routed grid.

    Computed once per design (:meth:`MappedDesign.memo`); each call
    returns a fresh copy.
    """
    return dict(design.memo("levels", _levels)[0])


def level_order(design: MappedDesign) -> list[str]:
    """Gate names sorted by ``(level, name)``: the order placement
    seeding, timing and partitioning walk the graph in.  Cached per
    design, like :func:`gate_levels`; do not mutate."""
    return design.memo("levels", _levels)[1]


def _levels(design: MappedDesign) -> tuple[dict[str, int], list[str]]:
    """Levels and level order, one frontier of ready gates at a time.

    A gate is ready once every input pin driven by a gate has been
    counted off, one count per pin, through the driver's ``sinks_of``.
    """
    gates, source_of, sinks_of = design.gates, design.source_of, design.sinks_of
    pending: dict[str, int] = {}
    for name, g in gates.items():
        n = 0
        for net in g.inputs:
            src = source_of.get(net)
            if src is None:
                continue
            if src == name:
                # A self-loop is the smallest grid-level cycle: the sink
                # cell would have to dominate itself strictly.
                raise PlacementError(
                    f"gate {name!r} reads its own output {net!r}; the "
                    "east/north fabric routes acyclic nets only (close "
                    "loops through the environment or a cell pair's lfb)"
                )
            n += 1
        pending[name] = n
    level: dict[str, int] = {}
    order: list[str] = []
    frontier = sorted(name for name, n in pending.items() if not n)
    depth = 0
    while frontier:
        ready = []
        for name in frontier:
            level[name] = depth
            for sink, _pin in sinks_of.get(gates[name].output, ()):
                pending[sink] -= 1
                if not pending[sink]:
                    ready.append(sink)
        order += frontier
        frontier, depth = sorted(ready), depth + 1
    if len(order) != len(design.gates):
        stuck = sorted(set(design.gates) - set(order))
        raise PlacementError(
            f"design {design.name!r} has feedback through gates "
            f"{stuck[:6]}; the east/north fabric routes acyclic nets only "
            "(close loops through the environment or a cell pair's lfb)"
        )
    return level, order


def dominance_violations(design: MappedDesign, placement: Placement) -> int:
    """Edges whose sink is not in the up-right quadrant of its source."""
    gates, source_of, pos = design.gates, design.source_of, placement.positions
    bad = 0
    for name, g in gates.items():
        tr, tc = pos[name]
        for net in g.inputs:
            src = source_of.get(net)
            if src is not None and src != name:
                sr, sc = pos[src]
                bad += tr < sr or tc < sc + gates[src].width - 1
    return bad


def _net_pins(design: MappedDesign):
    """Every net with sinks as ``(nets, gate names, sink gates, segment
    starts, source gate or -1, source column offset)``, gates by their
    index in design order.  Cached per design."""
    def compute(d):
        names = list(d.gates)
        index = dict(zip(names, range(len(names))))
        sinks_of, gates = d.sinks_of, d.gates
        nets = [net for net, sinks in sinks_of.items() if sinks]
        lens = np.array([len(sinks_of[net]) for net in nets], np.intp)
        sinks = [index[g] for net in nets for g, _ in sinks_of[net]]
        src_gate = list(map(d.source_of.get, nets))
        src = [index.get(g, -1) for g in src_gate]
        off = [0 if g is None else gates[g].width - 1 for g in src_gate]
        return (
            nets, names, np.array(sinks, np.intp), np.cumsum(lens) - lens,
            np.array(src, np.intp), np.array(off, np.intp),
        )

    return design.memo("net_pins", compute)


def net_spans(design: MappedDesign, placement: Placement) -> dict[str, int]:
    """Half-perimeter of every net's bounding box (source + sinks), for
    each net with sinks, in one vectorised pass."""
    nets, names, sinks, starts, src, off = _net_pins(design)
    if not nets:
        return {}
    positions = placement.positions
    pos = np.array([positions[g] for g in names], np.intp).reshape(-1, 2)
    rows, cols = pos[sinks, 0], pos[sinks, 1]
    r_hi, r_lo = np.maximum.reduceat(rows, starts), np.minimum.reduceat(rows, starts)
    c_hi, c_lo = np.maximum.reduceat(cols, starts), np.minimum.reduceat(cols, starts)
    # The source pin is the source gate's output cell.
    driven = src >= 0
    sr, sc = pos[src[driven], 0], pos[src[driven], 1] + off[driven]
    r_hi[driven] = np.maximum(r_hi[driven], sr)
    r_lo[driven] = np.minimum(r_lo[driven], sr)
    c_hi[driven] = np.maximum(c_hi[driven], sc)
    c_lo[driven] = np.minimum(c_lo[driven], sc)
    return dict(zip(nets, ((r_hi - r_lo) + (c_hi - c_lo)).tolist()))


def hpwl(design: MappedDesign, placement: Placement) -> int:
    """Total half-perimeter wirelength over all placed nets."""
    return sum(net_spans(design, placement).values())


def initial_placement(
    design: MappedDesign,
    region: Region,
    rng: random.Random | None = None,
    fixed: dict[str, tuple[int, int]] | None = None,
    blocked: frozenset[tuple[int, int]] | None = None,
    pair_blocked: frozenset[tuple[int, int]] | None = None,
) -> Placement:
    """Greedy legal seeding: topological order, dominance-constrained.

    For each gate the candidate cells are scanned outward from the
    wanted position in L1 rings, in ascending ``(distance, row, col)``
    order, stopping as soon as no farther ring can beat the best cost —
    O(found distance²) instead of a sweep over every free cell of the
    region.  Cost ties resolve through a platform-stable arithmetic hash
    of ``(gate, row, col)`` — salted with one draw from ``rng`` so retry
    attempts still explore different seeds — rather than a coin flip
    over set-iteration order, so equal-cost candidates spread across the
    region (a lowest-(row, col) tie-break packs deep chains into a
    corner until they jam) while the same ``rng`` seed produces
    bit-identical placements on every platform and run (the Mersenne
    Twister draw is itself platform-stable).  When one tie-break policy
    jams — the greedy is a heuristic; any fixed policy jams on *some*
    design — the seeding restarts with the next policy in a fixed
    ladder, so success and the resulting positions stay deterministic.

    ``fixed`` pins gates to known-good positions before the greedy scan
    runs — the warm-start hook behind cross-compile incremental
    recompiles (:func:`repro.pnr.incremental.compile_incremental`):
    surviving gates keep their cached placement and only the delta is
    seeded around them.  Fixed positions are claimed first (overlap or
    out-of-region raises :class:`PlacementError`), and the greedy
    candidates for the remaining gates are additionally bounded by
    their already-placed *fan-outs*, so the combined placement stays
    dominance-legal by construction.

    ``blocked`` cells (dead fabric sites — see
    :mod:`repro.pnr.defects`) are removed from the free grid before
    any gate is claimed, so no gate can seed onto one; ``pair_blocked``
    additionally vetoes 2-cell pair macros *starting* at the named
    cells (a pair's fixed pin columns and internal feedback wires make
    it sensitive to defects a flexible single-cell gate could shrug
    off).  Both are hard constraints: a design that no longer fits the
    surviving cells raises :class:`PlacementError`.
    """
    capacity = region.cells
    if blocked:
        capacity -= sum(
            1
            for r, c in blocked
            if region.row <= r < region.row + region.n_rows
            and region.col <= c < region.col + region.n_cols
        )
    if design.n_cells > capacity:
        raise PlacementError(
            f"design needs {design.n_cells} cells but region "
            f"{region.name!r} offers {capacity}"
        )
    salt_base = rng.getrandbits(32) if rng is not None else 0
    # Failures re-raise from their handler: a jam kept in a local would
    # sit in a reference cycle with its traceback's frames.
    for variant in _SEED_VARIANTS:
        try:
            return _seed_once(
                design, region, variant, salt_base, fixed,
                blocked=blocked, pair_blocked=pair_blocked,
            )
        except _PinnedWindowError:
            raise  # no other tie-break can open this window
        except PlacementError:
            if variant == _SEED_VARIANTS[-1]:
                raise


#: The greedy seed's tie-break policies, in the order they are tried.
_SEED_VARIANTS = (1, 0, 2, 3)


def _seed_once(
    design: MappedDesign,
    region: Region,
    variant: int,
    salt_base: int = 0,
    fixed: dict[str, tuple[int, int]] | None = None,
    blocked: frozenset[tuple[int, int]] | None = None,
    pair_blocked: frozenset[tuple[int, int]] | None = None,
) -> Placement:
    """One deterministic greedy seeding pass under tie-break ``variant``.

    Variant 1 spreads both axes by hash (the routability-friendly
    default, tried first); variant 0 prefers the smaller column on cost
    ties (conserving the columns deep chains march east through) with
    hash-spread rows; variants 2 and 3 fall back to plain lexicographic
    packing (low-column-first, then low-row-first).  Gates named in
    ``fixed`` are claimed at their given positions before the first
    candidate scan.
    """
    fixed = fixed or {}
    order = [n for n in level_order(design) if n not in fixed]
    placement = Placement(region=region)
    row0, col0 = region.row, region.col
    row_hi = region.row + region.n_rows - 1
    col_hi = region.col + region.n_cols - 1
    # Row-major grids of byte flags (scalar reads of a bytearray are
    # several times cheaper than of a numpy array).
    ones = bytes(col0) + b"\1" * region.n_cols
    free = [
        bytearray(ones if r >= row0 else len(ones)) for r in range(row_hi + 1)
    ]
    if blocked:
        for br, bc in blocked:
            if 0 <= br <= row_hi and 0 <= bc <= col_hi:
                free[br][bc] = 0
    pair_blocked = pair_blocked or frozenset()
    mid_row = region.row + region.n_rows // 2
    #: Cells fixed-pin macros depend on for pin delivery (their west and
    #: south neighbours): placing anything there, or making two macros
    #: share one, invites routing contention.
    soft_reserved = [bytearray(len(ones)) for _ in free]
    #: Input cells of placed pair macros: candidates for further pairs
    #: are repelled from them, since clustered fixed-pin macros starve
    #: the shared west/south delivery cells of rows and columns.
    pair_cells: list[tuple[int, int]] = []

    def claim_fixed() -> None:
        gates = design.gates
        for name, (fr, fc) in fixed.items():
            gate = gates.get(name)
            if gate is None:
                raise PlacementError(f"fixed gate {name!r} is not in the design")
            width = gate.width
            for k in range(width):
                if not (row0 <= fr <= row_hi and col0 <= fc + k <= col_hi):
                    raise PlacementError(
                        f"fixed gate {name!r} at ({fr},{fc}) leaves region "
                        f"{region.name!r}"
                    )
                if not free[fr][fc + k]:
                    raise PlacementError(
                        f"fixed gate {name!r} overlaps cell ({fr},{fc + k})"
                    )
                free[fr][fc + k] = 0
            placement.positions[name] = (fr, fc)
            if width == 2:
                pair_cells.append((fr, fc))
                if fc - 1 >= col0:
                    soft_reserved[fr][fc - 1] = 1
                if fr - 1 >= row0:
                    soft_reserved[fr - 1][fc] = 1

    # Fixed gates bound the windows from the start, but take their cells
    # on the grid only when the first candidate scan needs them: a warm
    # wave that jams on a pinned window (below) skips the claim.
    placement.positions.update(fixed)
    unclaimed = bool(fixed)
    for name in order:
        gate = design.gates[name]
        width = gate.width
        min_r, min_c = row0, col0
        fan_rows, fan_cols = [], []
        fan_ins_fixed = True
        for net in gate.inputs:
            src = design.source_of.get(net)
            if src is None or src == name:
                continue
            fan_ins_fixed = fan_ins_fixed and src in fixed
            sr, sc = placement.output_cell(design.gates[src])
            min_r = max(min_r, sr)
            min_c = max(min_c, sc)
            fan_rows.append(sr)
            fan_cols.append(sc)
        want_r = round(sum(fan_rows) / len(fan_rows)) if fan_rows else mid_row
        want_c = (max(fan_cols) + 1) if fan_cols else region.col
        # Gates with many (or fixed-column) input pins need a usable
        # west/south neighbour to deliver those pins from; weight
        # crowded positions accordingly.
        pin_weight = 3 if width == 2 else (1 if len(gate.inputs) >= 3 else 0)
        lo_r, hi_r = min_r, row_hi
        lo_c, hi_c = min_c, col_hi - (width - 1)
        if fixed:
            # Warm-started seeding places a gate whose fan-outs may
            # already sit on the grid (they kept their cached cells):
            # the candidate window is bounded above by those sinks, so
            # every edge to a pre-placed consumer stays
            # dominance-compatible.  The cold path never hits this —
            # topological order places fan-outs later.
            for sname, _pin in design.sinks_of.get(gate.output, ()):
                pos = placement.positions.get(sname)
                if pos is None or sname == name:
                    continue
                if pos[0] < hi_r:
                    hi_r = pos[0]
                if pos[1] - (width - 1) < hi_c:
                    hi_c = pos[1] - (width - 1)
            if hi_r < lo_r or hi_c < lo_c:
                # Fan-outs come later in level order, so the pre-placed
                # ones are fixed; with fixed fan-ins too, every variant
                # that gets this far fails here.
                raise (_PinnedWindowError if fan_ins_fixed else PlacementError)(
                    f"gate {name!r}: no dominance-legal window between its "
                    "fan-ins and pre-placed fan-outs"
                )
        if unclaimed:
            claim_fixed()
            unclaimed = False
        # Stable per-gate salt for the tie-break mix (not Python's
        # salted str hash — this must agree across runs and platforms).
        salt = salt_base
        for ch in name:
            salt = (salt * 131 + ord(ch)) & 0xFFFFFFFF

        def candidate_cost(r: int, c: int, base: int) -> int | None:
            if width == 2 and (r, c) in pair_blocked:
                return None
            for k in range(width):
                if not free[r][c + k]:
                    return None
            cost = base
            if pin_weight:
                for fr, fc in ((r, c - 1), (r - 1, c)):
                    if (
                        fr < row0
                        or fc < col0
                        or not free[fr][fc]
                        or soft_reserved[fr][fc]
                    ):
                        cost += pin_weight
            for k in range(width):
                if soft_reserved[r][c + k]:
                    cost += 2
            if width == 2:
                # Pair macros read several fixed pin columns, each
                # delivered on its own row of the west/south neighbour
                # cells — clustered pairs starve that shared capacity,
                # so repel them from each other with a decaying penalty.
                for pr, pc in pair_cells:
                    d = abs(r - pr) + abs(c - pc)
                    if d < 5:
                        cost += 2 * (5 - d)
            return cost

        best, best_key = None, None
        if lo_r <= hi_r and lo_c <= hi_c:
            d_max = max(
                abs(r - want_r) + abs(c - want_c)
                for r in (lo_r, hi_r)
                for c in (lo_c, hi_c)
            )
            for d in range(d_max + 1):
                # Penalties only add, so once a best exists no ring
                # beyond its cost can improve on it.
                if best is not None and d > best_key[0]:
                    break
                for r in range(max(lo_r, want_r - d), min(hi_r, want_r + d) + 1):
                    rem = d - abs(r - want_r)
                    cols = (want_c - rem, want_c + rem) if rem else (want_c,)
                    for c in cols:
                        if not lo_c <= c <= hi_c:
                            continue
                        cost = candidate_cost(r, c, d)
                        if cost is None:
                            continue
                        mix = (
                            (salt ^ (r * 0x9E3779B1) ^ (c * 0x85EBCA77))
                            & 0xFFFFFFFF
                        )
                        if variant == 0:
                            key = (cost, c, mix, r)
                        elif variant == 1:
                            key = (cost, mix, r, c)
                        elif variant == 2:
                            key = (cost, c, r, 0)
                        else:
                            key = (cost, r, c, 0)
                        if best_key is None or key < best_key:
                            best, best_key = (r, c), key
        if best is None:
            raise PlacementError(
                f"no legal cell for gate {name!r} (needs row >= {min_r}, "
                f"col >= {min_c}, width {width}) in region "
                f"{region.name!r}"
            )
        placement.positions[name] = best
        br, bc = best
        free[br][bc:bc + width] = bytes(width)
        if width == 2:
            pair_cells.append(best)
            if bc - 1 >= col0:
                soft_reserved[br][bc - 1] = 1
            if br - 1 >= row0:
                soft_reserved[br - 1][bc] = 1
    if unclaimed:
        claim_fixed()
    return placement


class IncrementalHpwl:
    """Cached per-net bounding boxes with exact O(pins of gate) updates.

    The VPR-style structure behind :func:`anneal_placement`: every net
    keeps its bounding box **and the number of pins sitting on each of
    the four edges**, so moving one gate updates each incident net in
    O(1) — unless the move vacates an edge whose pin count drops to
    zero, in which case that net alone is rescanned in O(its pins).
    Deltas are therefore *exact* (not the VPR approximation): the
    accept/reject trajectory under a fixed seed is identical to a full
    recompute, which is what keeps annealed results reproducible.  That
    update runs in the kernel's ``price`` pass; :meth:`propose` here
    rescans each incident net instead, an independent reference the
    kernel is tested against.

    Gate positions live in numpy int32 arrays (``rows`` / ``cols``,
    indexed by ``index[name]``); :meth:`propose` prices a move without
    committing, :meth:`commit` applies it, and :attr:`total` always
    equals :func:`hpwl` of the current state.
    """

    def __init__(self, design: MappedDesign, placement: Placement) -> None:
        self.design = design
        names = list(design.gates)
        self.names = names
        self.index = {n: i for i, n in enumerate(names)}
        n = len(names)
        self.rows = np.zeros(n, dtype=np.int32)
        self.cols = np.zeros(n, dtype=np.int32)
        self.widths = np.zeros(n, dtype=np.int32)
        for i, nm in enumerate(names):
            r, c = placement.positions[nm]
            self.rows[i] = r
            self.cols[i] = c
            self.widths[i] = design.gates[nm].width

        # One pin list per net: (gate index, column offset) — the output
        # pin sits on the gate's east cell, sinks on its input cell.
        # Multiplicity is kept (a pair macro may read a net twice).
        net_names: list[str] = []
        net_id: dict[str, int] = {}
        pins: list[list[tuple[int, int]]] = []

        def nid(net: str) -> int:
            k = net_id.get(net)
            if k is None:
                k = net_id[net] = len(net_names)
                net_names.append(net)
                pins.append([])
            return k

        for g in design.gates.values():
            pins[nid(g.output)].append((self.index[g.name], g.width - 1))
        for net, sinks in design.sinks_of.items():
            k = nid(net)
            for gname, _pin in sinks:
                gi = self.index.get(gname)
                if gi is not None:
                    pins[k].append((gi, 0))
        self.net_names = net_names
        self.net_pins = pins

        # Per-gate incident pin occurrences, grouped by net.
        by_gate: list[dict[int, list[int]]] = [{} for _ in range(n)]
        for k, plist in enumerate(pins):
            for gi, off in plist:
                by_gate[gi].setdefault(k, []).append(off)
        self.gate_nets: list[list[tuple[int, tuple[int, ...]]]] = [
            sorted((k, tuple(offs)) for k, offs in d.items()) for d in by_gate
        ]

        # Bounding boxes + edge pin counts, one row per net:
        # (rmin, rmax, cmin, cmax, nrmin, nrmax, ncmin, ncmax).  A 2-D
        # numpy array rather than a list of tuples so the batched
        # evaluator can gather every candidate's incident boxes in one
        # fancy-index; :meth:`propose` reads rows back as python ints
        # through :meth:`_box`.
        m = len(net_names)
        self._boxes = np.zeros((m, 8), dtype=np.int64)
        self.total = 0.0
        for k in range(m):
            box = self._scan(k, -1, 0, 0)
            self._boxes[k] = box
            self.total += (box[1] - box[0]) + (box[3] - box[2])

    # -- internals -------------------------------------------------------
    def _box(self, k: int) -> list[int]:
        """Net ``k``'s cached row, as plain python ints."""
        return self._boxes[k].tolist()

    def _scan(
        self, k: int, moved: int, new_r: int, new_c: int
    ) -> tuple[int, int, int, int, int, int, int, int]:
        """Net ``k``'s bbox and edge pin counts, rescanned with gate
        ``moved`` at ``(new_r, new_c)``."""
        pins = self.net_pins[k]
        rs = [new_r if g == moved else int(self.rows[g]) for g, _ in pins]
        cs = [
            (new_c if g == moved else int(self.cols[g])) + off
            for g, off in pins
        ]
        r0, r1, c0, c1 = min(rs), max(rs), min(cs), max(cs)
        return (
            r0, r1, c0, c1,
            rs.count(r0), rs.count(r1), cs.count(c0), cs.count(c1),
        )

    # -- the move API ----------------------------------------------------
    def propose(
        self, gi: int, new_r: int, new_c: int
    ) -> tuple[float, list[tuple[int, tuple]]]:
        """Exact HPWL delta of moving gate ``gi``; commits nothing.

        Returns ``(delta, updates)``; pass ``updates`` to :meth:`commit`
        to apply the move.
        """
        delta = 0.0
        updates: list[tuple[int, tuple]] = []
        for k, _offs in self.gate_nets[gi]:
            old = self._box(k)
            new = self._scan(k, gi, new_r, new_c)
            d = ((new[1] - new[0]) + (new[3] - new[2])) - (
                (old[1] - old[0]) + (old[3] - old[2])
            )
            delta += d
            updates.append((k, new))
        return delta, updates

    def commit(
        self, gi: int, new_r: int, new_c: int,
        delta: float, updates: list[tuple[int, tuple]],
    ) -> None:
        """Apply a move priced by :meth:`propose`."""
        self.rows[gi] = new_r
        self.cols[gi] = new_c
        for k, box in updates:
            self._boxes[k] = box
        self.total += delta

    def move(self, name: str, position: tuple[int, int]) -> float:
        """Relocate gate ``name``; returns the exact cost delta applied."""
        gi = self.index[name]
        delta, updates = self.propose(gi, *position)
        self.commit(gi, *position, delta, updates)
        return delta


class BatchMoveEvaluator:
    """Exact pricing of K single-gate moves against one cache state, in C.

    The compiled companion to :class:`IncrementalHpwl`: candidate moves
    arrive as arrays ``(gis, trs, tcs)`` and the kernel's ``price`` pass
    (``_anneal.c``) runs :meth:`IncrementalHpwl.propose` on each — the
    per-pin edge-count update, the rescan when a move empties a bounding
    edge, and gates reading one net through several pins (``nand(a, a)``
    style) alike.  Deltas are bit-equal to one-move pricing, which is
    what keeps the annealer's ``cache == scratch`` invariant intact.  The
    kernel reads and writes ``cost``'s arrays in place.
    """

    def __init__(self, cost: IncrementalHpwl) -> None:
        self.cost = cost
        self.lib = kernel.load()
        grp_ptr, grp_net, off_ptr, off = [0], [], [0], []
        for nets in cost.gate_nets:
            for k, offs in nets:
                grp_net.append(k)
                off.extend(offs)
                off_ptr.append(len(off))
            grp_ptr.append(len(grp_net))
        pin_ptr, pin_gate, pin_off = [0], [], []
        for plist in cost.net_pins:
            for gi, o in plist:
                pin_gate.append(gi)
                pin_off.append(o)
            pin_ptr.append(len(pin_gate))
        #: Most nets any one gate touches: entries per priced candidate.
        self.max_nets = max(map(len, cost.gate_nets), default=0)
        i64 = np.int64
        self.hpwl = kernel.bind(
            kernel.Hpwl, rows=cost.rows, cols=cost.cols, boxes=cost._boxes,
            grp_ptr=np.asarray(grp_ptr, i64), grp_net=np.asarray(grp_net, i64),
            off_ptr=np.asarray(off_ptr, i64), off=np.asarray(off, i64),
            pin_ptr=np.asarray(pin_ptr, i64), pin_gate=np.asarray(pin_gate, i64),
            pin_off=np.asarray(pin_off, i64),
        )
        self.h = ctypes.addressof(self.hpwl)

    def rung(self, k: int, **fields):
        """Kernel buffers for pricing up to ``k`` candidates, plus
        ``fields`` (the annealer's window and commit state)."""
        e = k * self.max_nets
        return kernel.bind(
            kernel.Rung,
            pick=np.zeros(k, np.int64), trs=np.zeros(k, np.int64),
            tcs=np.zeros(k, np.int64), idx=np.arange(k, dtype=np.int64),
            deltas=np.zeros(k), ebeg=np.zeros(k + 1, np.int64),
            ent_net=np.zeros(e, np.int64), nb=np.zeros(8 * e, np.int64),
            **fields,
        )

    def propose_batch(
        self, gis: np.ndarray, trs: np.ndarray, tcs: np.ndarray
    ) -> np.ndarray:
        """Exact deltas for K hypothetical moves; commits nothing.

        All candidates are priced against the *current* cache state,
        independently of each other.  Targets may be any cells; gate
        indices must be in range (the kernel indexes with them).
        """
        k = len(gis)
        if k and not 0 <= min(gis) <= max(gis) < len(self.cost.names):
            raise IndexError(f"gate index out of range 0..{len(self.cost.names) - 1}")
        w = self.rung(k)
        for name, arr in (("pick", gis), ("trs", trs), ("tcs", tcs)):
            np.copyto(w.arrays[name], arr)
        self.lib.price(self.h, ctypes.addressof(w), k)
        return w.arrays["deltas"]


def default_anneal_steps(n_gates: int) -> int:
    """The annealing budget :func:`anneal_placement` uses when unset."""
    return max(600, 80 * n_gates)


def anneal_temperatures(
    steps: int, t_start: float, t_end: float
) -> list[float]:
    """The geometric cooling ladder: ``steps`` temperatures from
    ``t_start`` (used by the very first move) down to ``t_end``."""
    if steps <= 0:
        return []
    cooling = (t_end / t_start) ** (1.0 / max(1, steps - 1))
    temps = [t_start]
    for _ in range(steps - 1):
        temps.append(temps[-1] * cooling)
    return temps


#: The temperature :func:`anneal_placement`'s cooling ladder ends at.
ANNEAL_T_END = 0.05

#: Candidate moves drawn and priced per rung when the caller does not
#: choose.  Each batch shares one temperature, so the ladder has
#: ``ceil(steps / batch_moves)`` rungs (floored at
#: :data:`MIN_ANNEAL_RUNGS` when ``steps`` is defaulted); larger
#: batches amortize the per-rung overhead better but drift further
#: from move-by-move annealing.
DEFAULT_BATCH_MOVES = 768

#: Minimum temperature rungs for a default-budget batched anneal.  A
#: large batch divided into ``ceil(steps / batch_moves)`` rungs alone
#: would cool in a handful of giant jumps (rca8: 13 rungs) and lose
#: ~25% quality; flooring the ladder keeps temperature resolution and
#: the extra batches are cheap.  Explicit ``steps`` are honoured
#: exactly — the floor applies only when the budget is defaulted.
MIN_ANNEAL_RUNGS = 96

#: Cap on how far a default budget is boosted over
#: :func:`default_anneal_steps`.  The boost scales with design size
#: (one x per :data:`GATES_PER_BOOST` gates) because dense designs keep
#: improving with extra moves while a few-dozen-gate shard converges
#: within the base budget — measurably, 8x budget on an rca16 shard
#: buys nothing, on rca8 it is worth ~10% wirelength.
MAX_BUDGET_BOOST = 8

#: Gates per unit of default-budget boost (see :data:`MAX_BUDGET_BOOST`).
GATES_PER_BOOST = 15

#: Smallest batch the default path shrinks to.  Below this a rung
#: stops amortizing its fixed overhead (the cancellation checkpoint
#: and the kernel call).
MIN_BATCH_MOVES = 64


def _pcg_state(bits: np.random.PCG64) -> np.ndarray:
    """``bits``' state as the kernel's ``Draw.pcg`` words: the 128-bit
    LCG state and increment (high word first), then ``next_uint32``'s
    spare-half flag and value."""
    st, m = bits.state, (1 << 64) - 1
    s, inc = st["state"]["state"], st["state"]["inc"]
    return np.array(
        [s >> 64, s & m, inc >> 64, inc & m, st["has_uint32"], st["uinteger"]],
        np.uint64,
    )


def _accept_table(temps: list[float], span: int) -> np.ndarray:
    """Per rung, numpy's Metropolis bar ``exp(-d / max(T, 1e-9))`` for
    every integer delta ``d`` in ``0..span``.

    The kernel reads the bar from here rather than calling libm's
    ``exp``, which rounds differently from numpy's on some arguments.
    """
    t = np.maximum(np.asarray(temps), 1e-9)[:, None]
    return np.exp(-np.arange(span + 1.0) / t)


def _csr(lists: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Ragged index lists as (row pointers, flat values)."""
    ptr = np.zeros(len(lists) + 1, dtype=np.int64)
    np.cumsum([len(xs) for xs in lists], out=ptr[1:])
    return ptr, np.asarray([x for xs in lists for x in xs], dtype=np.int64)


class _AnnealContext:
    """The annealer's working state (cache, occupancy, windows).

    Everything :func:`anneal_placement` needs: the exact
    :class:`IncrementalHpwl` cache, the occupancy grid, fan-in/fan-out
    lists for the dominance windows, best-state tracking, and the
    kernel buffers one rung fills.
    """

    def __init__(
        self,
        design: MappedDesign,
        placement: Placement,
        blocked: frozenset[tuple[int, int]] | None = None,
    ) -> None:
        region = placement.region
        self.region = region
        self.cost = IncrementalHpwl(design, placement)
        cost = self.cost
        names = cost.names
        rows, cols, widths = cost.rows, cost.cols, cost.widths
        self.occupied = np.full(
            (region.row + region.n_rows, region.col + region.n_cols),
            -1, dtype=np.int32,
        )
        # Dead sites (defect maps) are marked with a -2 sentinel: the
        # screen and the commit both accept only empty (-1) or
        # self-occupied targets, so every move onto a blocked cell is
        # rejected for free.
        if blocked:
            nr, nc = self.occupied.shape
            for br, bc in blocked:
                if 0 <= br < nr and 0 <= bc < nc:
                    self.occupied[br, bc] = -2
        for i in range(len(names)):
            self.occupied[rows[i], cols[i]:cols[i] + widths[i]] = i

        # Fan-in / fan-out gate indices bounding each gate's legal window.
        fanins: list[list[int]] = [[] for _ in names]
        fanouts: list[list[int]] = [[] for _ in names]
        for g in design.gates.values():
            gi = cost.index[g.name]
            for net in dict.fromkeys(g.inputs):
                src = design.source_of.get(net)
                if src is not None and src != g.name:
                    si = cost.index[src]
                    fanins[gi].append(si)
                    fanouts[si].append(gi)
        # Only 1-wide gates move (pair macros stay where the seed
        # spread them — compacting them trades HPWL for congestion).
        self.movable = np.nonzero(widths == 1)[0].astype(np.int64)
        self.fanins = _csr(fanins)
        self.fanouts = _csr(fanouts)
        self.evaluator = BatchMoveEvaluator(cost)
        self.best_rows = rows.copy()
        self.best_cols = cols.copy()

    def run_batches(
        self,
        temps: list[float],
        pcg: np.ndarray,
        batch_moves: int,
        move_log: list | None = None,
    ) -> dict[str, int]:
        """Anneal one batch of ``batch_moves`` candidates per rung.

        Each rung is one kernel call, ``step``.  It draws the rung's
        gates, targets (inside the windows it computed) and uniforms from
        ``pcg`` (a :func:`_pcg_state` array, advanced in place) exactly
        as numpy's ``Generator`` would, in a fixed, data-independent
        order; screens and prices the candidates; applies the Metropolis
        test with :func:`_accept_table`'s numpy ``exp``; and commits the
        accepted ones greedily in draw order under a conflict screen: a
        candidate is skipped when any net its pricing read was touched by
        an earlier commit of the same rung (which also covers stale
        dominance windows — a moved fan-in/fan-out always shares a net
        with the gate), or when its target cell was claimed meanwhile.
        Commits apply the exact cache update, so ``cost.total`` tracks a
        from-scratch recompute bit-for-bit.  Python keeps the
        cancellation checkpoint and the move log.
        """
        k = batch_moves
        accepted = 0
        if not len(self.movable):
            return {"evaluated": 0, "accepted": 0, "batches": 0}
        if pcg.shape != (6,):
            raise ValueError(
                f"pcg needs the 6 words of _pcg_state, got {pcg.shape}"
            )
        cost, ev, lib = self.cost, self.evaluator, self.evaluator.lib
        region = self.region
        total = np.array([cost.total, cost.total])
        w = ev.rung(
            k,
            lo_r=np.zeros(k, np.int64), hi_r1=np.zeros(k, np.int64),
            lo_c=np.zeros(k, np.int64), hi_c1=np.zeros(k, np.int64),
            ok=np.zeros(k, np.uint8), widths=cost.widths,
            fi_ptr=self.fanins[0], fi=self.fanins[1],
            fo_ptr=self.fanouts[0], fo=self.fanouts[1],
            row_lo=region.row, row_hi=region.row + region.n_rows - 1,
            col_lo=region.col, col_hi=region.col + region.n_cols - 1,
            occupied=self.occupied, occ_cols=self.occupied.shape[1],
            accept=np.zeros(k, np.uint8),
            touched=np.zeros(len(cost.net_names), np.int64),
            committed=np.zeros(k, np.int64), total=total,
            best_rows=self.best_rows, best_cols=self.best_cols,
            n_gates=len(cost.names),
        )
        # A delta is an integer of at most max_nets spans, none longer
        # than the region's half-perimeter.
        table = _accept_table(
            temps, ev.max_nets * (region.n_rows + region.n_cols - 2)
        )
        draw = kernel.bind(
            kernel.Draw, pcg=pcg, movable=self.movable,
            n_mov=len(self.movable), u=np.zeros(k), table=table,
            width=table.shape[1],
        )
        a = w.arrays
        pick, trs, tcs, idx = a["pick"], a["trs"], a["tcs"], a["idx"]
        deltas = a["deltas"]
        h, wp, dp = ev.h, ctypes.addressof(w), ctypes.addressof(draw)
        for rung in range(1, len(temps) + 1):
            # Cooperative cancellation: a service deadline cancels
            # between temperature rungs (one batch is bounded work).
            checkpoint()
            done = lib.step(h, wp, dp, k, rung)
            if done < 0:
                raise RuntimeError(
                    f"anneal rung {rung} priced a delta outside its "
                    f"{table.shape[1]}-entry accept table"
                )
            accepted += done
            if move_log is not None and done:
                for j in a["committed"][:done].tolist():
                    c = int(idx[j])
                    move_log.append((
                        cost.names[pick[c]], (int(trs[c]), int(tcs[c])),
                        float(deltas[j]),
                    ))
        cost.total = float(total[0])
        return {
            "evaluated": k * len(temps),
            "accepted": accepted,
            "batches": len(temps),
        }

    def best_placement(self) -> Placement:
        return Placement(
            region=self.region,
            positions={
                name: (int(self.best_rows[i]), int(self.best_cols[i]))
                for i, name in enumerate(self.cost.names)
            },
        )


def anneal_placement(
    design: MappedDesign,
    placement: Placement,
    rng: random.Random,
    steps: int | None = None,
    *,
    batch_moves: int | None = None,
    stats: dict | None = None,
    move_log: list | None = None,
    blocked: frozenset[tuple[int, int]] | None = None,
) -> Placement:
    """Refine a legal placement by simulated annealing on HPWL.

    Moves relocate one gate inside its **dominance window** — the
    rectangle bounded below by its placed fan-ins' output cells and
    above by its fan-outs' input cells — so every accepted state stays
    legal by construction (the greedy seed is legal, and a window move
    cannot break an edge that was satisfied).  Cost deltas come from the
    cached :class:`IncrementalHpwl` bounding boxes — exact, so the
    trajectory for a seed is identical to a full recompute.

    Candidates are drawn and priced ``batch_moves`` at a time — one
    temperature rung per batch, Metropolis acceptance applied greedily
    in draw order under a conflict screen (see
    :meth:`_AnnealContext.run_batches`).  Each rung is one call of the
    C kernel (:mod:`repro.pnr.kernel`), built on the first anneal; a
    missing compiler raises
    :class:`~repro.pnr.kernel.KernelBuildError` there.

    ``steps=None`` picks a size-scaled budget; explicit ``steps`` are
    honoured, so ``steps=0`` returns ``placement`` unannealed and a
    negative budget raises ``ValueError``.  The ladder cools from half
    the region's perimeter, ``0.5 * (rows + cols)``, to
    :data:`ANNEAL_T_END`.  ``stats``, when given a dict, receives
    evaluated/accepted move and batch counts; ``move_log`` collects
    ``(gate, target, delta)`` per commit for replay-style testing.
    """
    region = placement.region
    names = list(design.gates)
    if batch_moves is not None and batch_moves < 1:
        raise ValueError("batch_moves must be >= 1")
    if steps is not None and steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if stats is not None:
        stats.update(evaluated=0, accepted=0, batches=0)
    if len(names) < 2 or steps == 0:
        return placement
    default_budget = steps is None
    if steps is None:
        steps = default_anneal_steps(len(names))
    auto_batch = batch_moves is None
    if batch_moves is None:
        batch_moves = DEFAULT_BATCH_MOVES
    # One draw seeds the PCG64 stream, so the whole anneal is a
    # function of the caller's rng state.
    master = rng.getrandbits(64)
    if default_budget:
        # Size-scaled budget boost (see MAX_BUDGET_BOOST), with the
        # batch shrunk so the cooling ladder keeps ~MIN_ANNEAL_RUNGS
        # rungs even at small budgets — a handful of giant rungs loses
        # the temperature resolution annealing quality rides on.
        boost = min(MAX_BUDGET_BOOST, max(1, len(names) // GATES_PER_BOOST))
        budget = boost * steps
        if auto_batch:
            batch_moves = min(
                batch_moves,
                max(MIN_BATCH_MOVES, -(-budget // MIN_ANNEAL_RUNGS)),
            )
        n_batches = max(
            -(-steps // batch_moves),
            min(MIN_ANNEAL_RUNGS, -(-budget // batch_moves)),
        )
    else:
        n_batches = max(1, -(-steps // batch_moves))
    ctx = _AnnealContext(design, placement, blocked=blocked)
    pcg = _pcg_state(np.random.PCG64(np.random.SeedSequence((master, 0))))
    temps = anneal_temperatures(
        n_batches, 0.5 * (region.n_rows + region.n_cols), ANNEAL_T_END
    )
    counters = ctx.run_batches(temps, pcg, batch_moves, move_log=move_log)
    if stats is not None:
        stats.update(counters)
    return ctx.best_placement()
