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
  legal by construction and the best state seen wins.  Each rung (draws,
  windows, pricing, accept test, commits) is one call of the C kernel of
  :mod:`repro.pnr.kernel`, which keeps VPR-style per-net bounding boxes
  updated in O(pins of the moved gate) with *exact* deltas, so the
  trajectory for a seed is that of a full recompute with :func:`hpwl`
  (see ``docs/performance.md``).

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


def _ptr(keys: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointers of ``n`` rows, for entries sorted by row ``keys``."""
    ptr = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=ptr[1:])
    return ptr


def _anneal_tables(design: MappedDesign) -> dict:
    """The kernel's static tables for annealing ``design``, cached per
    design so retry attempts and die fallbacks build them once.

    The nets are :func:`_net_pins`' nets, then one single-pin net per
    gate whose output has no sinks.  Such a net never has a span, but it
    is one of its gate's nets: it counts toward ``max_nets`` (the accept
    table's width) and its conflict screen lets a rung commit at most
    one move of the gate.
    """
    def compute(d):
        nets, names, sinks, starts, src, off = _net_pins(d)
        n, m = len(names), len(nets)
        widths = np.array([d.gates[g].width for g in names], np.int32)
        lens = np.diff(starts, append=len(sinks))
        driven = np.flatnonzero(src >= 0)
        lone = np.setdiff1d(np.arange(n), src[driven])
        # Every pin as (net, gate, column offset): a source pin sits on
        # its gate's output cell, a sink pin on its gate's input cell.
        pin_net = np.concatenate(
            [driven, np.repeat(np.arange(m), lens), m + np.arange(len(lone))]
        )
        pin_gate = np.concatenate([src[driven], sinks, lone])
        pin_off = np.concatenate(
            [off[driven], np.zeros(len(sinks), np.intp), widths[lone] - 1]
        )
        by_net = np.argsort(pin_net, kind="stable")
        # Gate -> its nets, each with the column offsets of the gate's
        # pins on it (a gate may read one net through several pins).
        by_gate = np.lexsort((pin_net, pin_gate))
        g, k = pin_gate[by_gate], pin_net[by_gate]
        first = np.ones(len(g), bool)
        first[1:] = (g[1:] != g[:-1]) | (k[1:] != k[:-1])
        # Gate -> gate edges, deduplicated, bound the dominance windows.
        e_src = np.repeat(src, lens)
        fed = e_src >= 0
        edge_src, edge_dst = np.divmod(np.unique(e_src[fed] * n + sinks[fed]), n)
        return {
            "names": names, "nets": nets,
            # Only 1-wide gates move (pair macros stay where the seed
            # spread them: compacting them trades HPWL for congestion).
            "movable": np.flatnonzero(widths == 1),
            "max_nets": int(np.bincount(g[first]).max(initial=0)),
            "cell_gate": np.repeat(np.arange(n), widths),
            "cell_off": np.arange(widths.sum()) - np.repeat(
                np.cumsum(widths) - widths, widths
            ),
            "hpwl": {
                "grp_ptr": _ptr(g[first], n), "grp_net": k[first],
                "off_ptr": np.append(np.flatnonzero(first), len(g)),
                "off": pin_off[by_gate], "pin_ptr": _ptr(pin_net, m + len(lone)),
                "pin_gate": pin_gate[by_net], "pin_off": pin_off[by_net],
            },
            "windows": {
                "widths": widths, "fi_ptr": _ptr(edge_dst, n),
                "fi": edge_src[np.argsort(edge_dst, kind="stable")],
                "fo_ptr": _ptr(edge_src, n), "fo": edge_dst,
            },
        }

    return design.memo("anneal_tables", compute)


class _AnnealContext:
    """The annealer's state, in the arrays the kernel reads and writes.

    Per call: gate positions, every net's bounding box with the number
    of pins on each of its four edges, the occupancy grid, the running
    and best totals and the best positions.  The rest is the design's
    :func:`_anneal_tables`.  The kernel keeps the boxes exact in O(1)
    per pin of a moved gate, rescanning a net only when a move empties
    one of its edges, so ``total[0]`` always equals :func:`hpwl` of the
    current positions.
    """

    def __init__(
        self,
        design: MappedDesign,
        placement: Placement,
        blocked: frozenset[tuple[int, int]] | None = None,
    ) -> None:
        t = self.tables = _anneal_tables(design)
        region = self.region = placement.region
        self.names, self.movable = t["names"], t["movable"]
        positions = placement.positions
        rows, cols = np.array(
            [positions[g] for g in self.names], np.int32
        ).T.copy()
        # Boxes as rmin rmax cmin cmax, then the pin count on each edge.
        h = t["hpwl"]
        pins = np.stack([rows[h["pin_gate"]], cols[h["pin_gate"]] + h["pin_off"]], 1)
        starts = h["pin_ptr"][:-1]
        lo, hi = np.minimum.reduceat(pins, starts), np.maximum.reduceat(pins, starts)
        edges = np.stack([lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1]], 1)
        on = pins[:, [0, 0, 1, 1]] == np.repeat(edges, np.diff(h["pin_ptr"]), 0)
        self.boxes = np.hstack([edges, np.add.reduceat(on, starts, dtype=np.int64)])
        self.total = np.full(2, float((hi - lo).sum()))  # running, best
        # Dead sites (defect maps) are marked with a -2 sentinel: the
        # screen and the commit both accept only empty (-1) or
        # self-occupied targets, so every move onto a blocked cell is
        # rejected for free.
        self.occupied = np.full(
            (region.row + region.n_rows, region.col + region.n_cols),
            -1, np.int32,
        )
        if blocked:
            dead = np.array(list(blocked)).reshape(-1, 2)
            dead = dead[((dead >= 0) & (dead < self.occupied.shape)).all(1)]
            self.occupied[dead[:, 0], dead[:, 1]] = -2
        cell = t["cell_gate"]
        self.occupied[rows[cell], cols[cell] + t["cell_off"]] = cell
        self.best_rows, self.best_cols = rows.copy(), cols.copy()
        self.lib = kernel.load()
        self.hpwl = kernel.bind(
            kernel.Hpwl, rows=rows, cols=cols, boxes=self.boxes, **h
        )
        self.h = ctypes.addressof(self.hpwl)

    def rung(self, k: int):
        """The kernel's ``Rung`` for up to ``k`` candidates: fresh draw,
        window and pricing buffers over this context's grid, totals and
        best state."""
        region, e = self.region, k * self.tables["max_nets"]

        def zeros(size: int = k) -> np.ndarray:
            return np.zeros(size, np.int64)

        return kernel.bind(
            kernel.Rung,
            pick=zeros(), trs=zeros(), tcs=zeros(),
            lo_r=zeros(), hi_r1=zeros(), lo_c=zeros(), hi_c1=zeros(),
            ok=np.zeros(k, np.uint8),
            row_lo=region.row, row_hi=region.row + region.n_rows - 1,
            col_lo=region.col, col_hi=region.col + region.n_cols - 1,
            occupied=self.occupied, occ_cols=self.occupied.shape[1],
            idx=np.arange(k, dtype=np.int64), deltas=np.zeros(k),
            ebeg=zeros(k + 1), ent_net=zeros(e), nb=zeros(8 * e),
            accept=np.zeros(k, np.uint8),
            touched=zeros(len(self.boxes)), committed=zeros(),
            total=self.total, best_rows=self.best_rows,
            best_cols=self.best_cols, n_gates=len(self.names),
            **self.tables["windows"],
        )

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
        Commits apply the exact box update, so ``total[0]`` tracks a
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
        region, lib = self.region, self.lib
        w = self.rung(k)
        # A delta is an integer of at most max_nets spans (the most nets
        # one gate touches), none longer than the region's half-perimeter.
        table = _accept_table(
            temps, self.tables["max_nets"] * (region.n_rows + region.n_cols - 2)
        )
        draw = kernel.bind(
            kernel.Draw, pcg=pcg, movable=self.movable,
            n_mov=len(self.movable), u=np.zeros(k), table=table,
            width=table.shape[1],
        )
        a = w.arrays
        pick, trs, tcs, idx = a["pick"], a["trs"], a["tcs"], a["idx"]
        deltas = a["deltas"]
        h, wp, dp = self.h, ctypes.addressof(w), ctypes.addressof(draw)
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
                        self.names[pick[c]], (int(trs[c]), int(tcs[c])),
                        float(deltas[j]),
                    ))
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
                for i, name in enumerate(self.names)
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
    kernel's cached per-net bounding boxes (:class:`_AnnealContext`) —
    exact, so the trajectory for a seed is identical to a full recompute.

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
