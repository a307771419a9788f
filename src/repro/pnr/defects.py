"""Per-die defect maps and warm-started repair (defect-adaptive compiles).

The paper's central manufacturability argument is that a molecular-scale
fabric will *not* yield perfect dies: the architecture earns its area
only if the compiler can route around each die's defects.  This module
is that story's compiler half:

* :class:`DefectMap` — one die's dead cells, dead wire segments and
  stuck configuration rows, samplable from the device variation models
  (:func:`sample_die`) or from explicit per-resource probabilities
  (:func:`sample_defect_map`), with a content digest for cache keys.
* **Defect-aware compiles** — ``compile_to_fabric(...,
  defect_map=...)`` hard-blocks dead cells in placement (seed
  exclusion, anneal move rejection via the blocked-site sentinel, and
  a pair-start veto for macros whose pins or internal lines would land
  on dead wires), pre-claims dead wires in the router's occupancy so
  both fresh A* searches and warm journal replays avoid them, masks
  stuck rows out of the row allocator, and proves the emitted
  configuration clean (:func:`assert_defect_clean`) before returning.
* :func:`repair_for_die` — the killer path: reuse one **golden**
  (defect-free) compile across a fleet of distinct defective dies.
  Every gate not touching a defect keeps its golden cell, every net
  not crossing a defect replays its golden route journal; only the
  displaced gates re-seed (:func:`ripple_release_placement`) and only
  the disturbed nets re-search.  When the die is too broken for the
  warm path, :class:`RepairFallback` is raised — the compile service
  catches it and compiles that die cold with the defect map, so repair
  can only ever trade wall-clock, never correctness.

The repaired result is **deterministic** (a pure function of the golden
result, the defect map and the seed) and is held to the same bar as any
compile: dual-backend equivalence against the source netlist and a
proven defect-clean bitstream (``tests/test_pnr_defects.py``).  Like
the incremental path it is *not* byte-identical to a cold defect-aware
compile — the cold path re-anneals while repair deliberately keeps the
golden placement.  See ``docs/defect-tolerance.md``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.arch.montecarlo import cell_fail_probability, strict_margin_cell_yield
from repro.fabric.array import CellArray
from repro.fabric.nandcell import N_INPUTS, N_ROWS
from repro.pnr.flow import PnrError, PnrResult, _finish
from repro.pnr.incremental import IncrementalFallback, ripple_release_placement
from repro.pnr.parallel import checkpoint, fault_point
from repro.pnr.place import PlacementError
from repro.pnr.route import PAIR_INTERNAL_ROWS, Router
from repro.pnr.techmap import PAIR_PIN_COLUMNS

__all__ = [
    "DefectMap",
    "DefectViolation",
    "RepairFallback",
    "assert_defect_clean",
    "defect_violations",
    "pair_blocked_cells",
    "repair_for_die",
    "sample_defect_map",
    "sample_die",
]


class DefectViolation(PnrError):
    """An emitted configuration programs a defective resource."""


class RepairFallback(PnrError):
    """The warm repair path declined this die; compile it cold instead.

    Raised when the golden result cannot seed a repair (wrong shape,
    sharded base), when too much of the design is displaced, or when
    the warm placement/routing jams on this die's defects — the message
    says which.  :meth:`repro.service.CompileService.submit_for_die`
    catches this and falls back to a full defect-aware
    :func:`repro.pnr.flow.compile_to_fabric`.
    """


#: Highest wire index a pair macro consumes: the union of the pair pin
#: columns (cell A inputs) and the internal product lines driven into
#: cell B covers wires 0..4 — wire 5 is never pair-reserved.
_PAIR_WIRE_SPAN = max(
    max(max(cols) for cols in PAIR_PIN_COLUMNS.values()),
    max(PAIR_INTERNAL_ROWS.values()) - 1,
) + 1


@dataclass(frozen=True)
class DefectMap:
    """One die's manufacturing defects, in fabric coordinates.

    Attributes
    ----------
    n_rows, n_cols:
        The die's array shape.  A defect map names concrete resources,
        so it pins the array shape of every compile that uses it.
    dead_cells:
        ``(r, c)`` cells that must stay blank — no logic, no
        feed-through, no pair membership.
    dead_wires:
        ``(r, c, i)`` abutment wire segments that must never be driven
        or read (boundary wires with ``r == n_rows`` / ``c == n_cols``
        are legal entries: a broken output pad).
    stuck_rows:
        ``(r, c, row)`` configuration rows whose bits cannot be trusted
        to hold a programmed crosspoint — the row allocator masks them.

    The map is immutable and order-free: collections normalise to
    frozensets of int tuples, and :meth:`digest` is content-addressed,
    so two maps with the same defects hash identically regardless of
    how they were built.
    """

    n_rows: int
    n_cols: int
    dead_cells: frozenset = field(default_factory=frozenset)
    dead_wires: frozenset = field(default_factory=frozenset)
    stuck_rows: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValueError(
                f"defect map needs a positive shape, got "
                f"{self.n_rows}x{self.n_cols}"
            )
        cells = frozenset((int(r), int(c)) for r, c in self.dead_cells)
        wires = frozenset((int(r), int(c), int(i)) for r, c, i in self.dead_wires)
        stuck = frozenset((int(r), int(c), int(j)) for r, c, j in self.stuck_rows)
        object.__setattr__(self, "dead_cells", cells)
        object.__setattr__(self, "dead_wires", wires)
        object.__setattr__(self, "stuck_rows", stuck)
        for r, c in cells:
            if not (0 <= r < self.n_rows and 0 <= c < self.n_cols):
                raise ValueError(f"dead cell ({r},{c}) outside the die")
        for r, c, i in wires:
            if not (
                0 <= r <= self.n_rows
                and 0 <= c <= self.n_cols
                and 0 <= i < N_INPUTS
            ):
                raise ValueError(f"dead wire ({r},{c},{i}) outside the die")
        for r, c, j in stuck:
            if not (
                0 <= r < self.n_rows and 0 <= c < self.n_cols and 0 <= j < N_ROWS
            ):
                raise ValueError(f"stuck row ({r},{c},{j}) outside the die")

    @property
    def shape(self) -> tuple[int, int]:
        """The die's ``(n_rows, n_cols)``."""
        return (self.n_rows, self.n_cols)

    @property
    def n_defects(self) -> int:
        """Total defective resources of all three kinds."""
        return len(self.dead_cells) + len(self.dead_wires) + len(self.stuck_rows)

    @property
    def is_clean(self) -> bool:
        """True for a perfect die."""
        return self.n_defects == 0

    def digest(self) -> str:
        """Content-addressed hex digest — the die's cache-key component.

        Two maps describing the same defects on the same shape digest
        identically; any added, removed or moved defect changes it.
        """
        h = hashlib.sha256()
        h.update(b"defect-map-v1")
        h.update(f"|{self.n_rows}x{self.n_cols}".encode())
        for tag, items in (
            ("c", sorted(self.dead_cells)),
            ("w", sorted(self.dead_wires)),
            ("s", sorted(self.stuck_rows)),
        ):
            for t in items:
                h.update(f"|{tag}{t}".encode())
        return h.hexdigest()


def sample_defect_map(
    n_rows: int,
    n_cols: int,
    *,
    cell_fail: float = 0.0,
    wire_fail: float = 0.0,
    stuck_fail: float = 0.0,
    seed: int = 0,
) -> DefectMap:
    """Draw one die from independent per-resource failure probabilities.

    Each cell, wire segment and configuration row fails as an
    independent Bernoulli trial.  Deterministic per seed — seed ``k``
    is die ``k`` of the lot.
    """
    for name, p in (
        ("cell_fail", cell_fail),
        ("wire_fail", wire_fail),
        ("stuck_fail", stuck_fail),
    ):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {p!r}")
    rng = np.random.default_rng(seed)
    cells = rng.random((n_rows, n_cols)) < cell_fail
    wires = rng.random((n_rows + 1, n_cols + 1, N_INPUTS)) < wire_fail
    stuck = rng.random((n_rows, n_cols, N_ROWS)) < stuck_fail
    return DefectMap(
        n_rows=n_rows,
        n_cols=n_cols,
        dead_cells=frozenset(
            (int(r), int(c)) for r, c in np.argwhere(cells)
        ),
        dead_wires=frozenset(
            (int(r), int(c), int(i)) for r, c, i in np.argwhere(wires)
        ),
        stuck_rows=frozenset(
            (int(r), int(c), int(j)) for r, c, j in np.argwhere(stuck)
        ),
    )


def sample_die(
    n_rows: int,
    n_cols: int,
    *,
    sigma_vt: float,
    seed: int = 0,
    wire_fail_frac: float = 0.25,
) -> DefectMap:
    """Draw one die from the device variation models at ``sigma_vt``.

    Ties the defect sampler to the paper's Section 3 manufacturability
    models: a cell is dead with the analytic margin-failure probability
    (:func:`repro.arch.montecarlo.cell_fail_probability`), a
    configuration row is stuck with the config-margin failure rate
    (the complement of
    :func:`repro.arch.montecarlo.strict_margin_cell_yield`), and a wire
    segment fails at ``wire_fail_frac`` of the cell rate (wires are a
    fraction of a cell's device count).  Deterministic per seed.
    """
    if not 0.0 <= wire_fail_frac <= 1.0:
        raise ValueError(f"wire_fail_frac must be in [0, 1], got {wire_fail_frac!r}")
    cell_fail = cell_fail_probability(sigma_vt)
    return sample_defect_map(
        n_rows,
        n_cols,
        cell_fail=cell_fail,
        wire_fail=wire_fail_frac * cell_fail,
        stuck_fail=1.0 - strict_margin_cell_yield(sigma_vt),
        seed=seed,
    )


def pair_blocked_cells(defect_map: DefectMap) -> frozenset:
    """Cells where a two-cell pair macro must not *start*.

    Pair macros bypass the router for their fixed pin columns and
    internal product lines (claimed at placement time, see
    :mod:`repro.pnr.route`), so the defect veto must happen at
    placement: a pair starting at ``(r, c)`` reads wires ``(r, c,
    pin)`` into cell A, drives internal lines ``(r, c+1, row)`` into
    cell B, and programs rows in both cells.  Any dead wire with index
    below the pair span therefore vetoes pair starts at its own cell
    (pin wire) and at the cell to its west (internal line), and any
    stuck row vetoes both the same way — conservative for celement
    (which spans 3 of the 5 lines) but pairs are rare, and a vetoed
    start only costs the placer one candidate cell.

    Dead *cells* are not included: :func:`initial_placement`'s blocked
    grid already excludes them for both pair cells.
    """
    vetoed: set[tuple[int, int]] = set()
    for r, c, i in defect_map.dead_wires:
        if i < _PAIR_WIRE_SPAN:
            vetoed.add((r, c))
            vetoed.add((r, c - 1))
    for r, c, _row in defect_map.stuck_rows:
        vetoed.add((r, c))
        vetoed.add((r, c - 1))
    return frozenset((r, c) for r, c in vetoed if c >= 0)


def defect_violations(array: CellArray, defect_map: DefectMap) -> list[str]:
    """Every way a configured array touches a defect (empty = clean).

    Mirrors the wire model the router's existing-configuration scan
    uses: a non-blank cell on a dead site, a used row that is stuck, a
    driven abutment wire that is dead (a cell drives east onto
    ``(r, c+1, row)``, north onto ``(r+1, c, row)``), or an
    ABUT-selected active column reading a dead wire ``(r, c, col)``.
    A violation can only happen *at* a defect coordinate of a non-blank
    cell, so the scan is one vectorised blank mask plus O(defects) cell
    decodes — repair proves fifty dies clean without fifty full-array
    sweeps.
    """
    from repro.fabric.driver import DriverMode
    from repro.fabric.nandcell import Direction, InputSource

    configured = set(array.configured_cells())

    def cell_at(r: int, c: int):
        # A blank cell (or none, off the edge) drives, reads and programs
        # nothing, so it is never part of a violation.
        return array.cell(r, c) if (r, c) in configured else None

    violations: list[str] = []
    for r, c in sorted(defect_map.dead_cells):
        if (r, c) in configured:
            violations.append(f"dead cell ({r},{c}) is configured")
    for r, c, row in sorted(defect_map.stuck_rows):
        cfg = cell_at(r, c)
        if cfg is not None and row in cfg.used_rows():
            violations.append(f"cell ({r},{c}) programs stuck row {row}")
    for r, c, i in sorted(defect_map.dead_wires):
        # Who could drive wire (r, c, i): the west neighbour's row i
        # driver configured EAST, or the south neighbour's configured
        # NORTH (the array's two-driver abutment rule).
        west = cell_at(r, c - 1)
        if (
            west is not None
            and west.drivers[i] is not DriverMode.OFF
            and west.directions[i] is Direction.EAST
        ):
            violations.append(
                f"cell ({r},{c - 1}) row {i} drives dead wire ({r},{c},{i})"
            )
        south = cell_at(r - 1, c)
        if (
            south is not None
            and south.drivers[i] is not DriverMode.OFF
            and south.directions[i] is Direction.NORTH
        ):
            violations.append(
                f"cell ({r - 1},{c}) row {i} drives dead wire ({r},{c},{i})"
            )
        # Who could read it: cell (r, c)'s column i, when ABUT-selected
        # and active in any used row's product.
        reader = cell_at(r, c)
        if (
            reader is not None
            and reader.input_select[i] is InputSource.ABUT
            and any(i in reader.active_columns(row) for row in reader.used_rows())
        ):
            violations.append(
                f"cell ({r},{c}) reads dead wire ({r},{c},{i})"
            )
    return violations


def assert_defect_clean(array: CellArray, defect_map: DefectMap) -> None:
    """Raise :class:`DefectViolation` if the array programs a defect."""
    violations = defect_violations(array, defect_map)
    if violations:
        shown = "; ".join(violations[:5])
        more = f" (+{len(violations) - 5} more)" if len(violations) > 5 else ""
        raise DefectViolation(f"configuration touches defects: {shown}{more}")


def _displaced_gates(golden: PnrResult, defect_map: DefectMap) -> set[str]:
    """Golden gates that cannot keep their cells on this die."""
    pair_vetoed = pair_blocked_cells(defect_map)
    displaced: set[str] = set()
    for name, gate in golden.design.gates.items():
        cells = golden.placement.cells_of(gate)
        if any(cell in defect_map.dead_cells for cell in cells):
            displaced.add(name)
        elif gate.width == 2 and golden.placement.positions[name] in pair_vetoed:
            displaced.add(name)
    return displaced


def repair_for_die(
    golden: PnrResult,
    defect_map: DefectMap,
    *,
    target_period: int | None = None,
    seed: int = 0,
    stats: dict | None = None,
) -> PnrResult:
    """Adapt a golden compile to one defective die, reusing its work.

    Parameters
    ----------
    golden:
        A previously compiled, defect-free :class:`PnrResult` of the
        design (typically the service's cached golden compile).
    defect_map:
        This die's defects; its shape must match the golden array.
    target_period, seed:
        As in :func:`repro.pnr.flow.compile_to_fabric`; the seed feeds
        only the displaced gates' greedy re-seed.
    stats:
        Optional dict the repair fills with its reuse accounting:
        ``displaced`` / ``moved`` gate counts and the router's
        ``replayed`` / ``searched`` net counts.

    Every golden gate whose cells avoid the defects keeps its exact
    cell; every net whose endpoints did not move and whose journal
    does not cross a defect replays verbatim.  Returns a fresh
    :class:`PnrResult` on a new array of the golden shape, proven
    defect-clean.  Raises :class:`RepairFallback` when this die needs
    a cold defect-aware compile instead — never a silently degraded
    result.
    """
    if not isinstance(golden, PnrResult):
        raise RepairFallback(
            f"repair needs a single-array PnrResult golden compile; "
            f"got {type(golden).__name__}"
        )
    shape = (golden.array.n_rows, golden.array.n_cols)
    if shape != defect_map.shape:
        raise RepairFallback(
            f"defect map is for a {defect_map.shape[0]}x"
            f"{defect_map.shape[1]} die but the golden array is "
            f"{shape[0]}x{shape[1]}"
        )
    design = golden.design
    displaced = _displaced_gates(golden, defect_map)
    # Escalation loop: keeping the golden placement can leave a net
    # with no defect-free path even though a cold compile would have
    # annealed around the defects.  Each wave re-seeds the endpoint
    # gates of whatever nets stayed stuck (a fresh dominance window
    # usually opens a path); the ripple's release budget bounds how
    # much of the design may move before falling back.
    failed: list[str] = []
    for wave in range(5):
        # Cooperative cancellation between escalation waves, plus the
        # repair path's fault point: a chaos plan can fail or stall any
        # wave of any die (the token carries die digest + wave).
        checkpoint()
        fault_point("repair.wave", token=f"{defect_map.digest()[:12]}:{wave}")
        if not displaced:
            # Nothing to re-place: the golden placement IS the repaired
            # placement (and was already proven dominance-legal), so the
            # die only pays for re-routing its defect-crossing nets.
            placement, moved = golden.placement, set()
        else:
            try:
                placement, moved = ripple_release_placement(
                    design,
                    golden.region,
                    golden.placement.positions,
                    displaced,
                    # Re-salt per wave: a jammed wave's greedy re-seed
                    # must not repeat the same candidate choices with a
                    # slightly larger displaced set, or escalation never
                    # explores.
                    seed=seed + 7919 * wave,
                    blocked=defect_map.dead_cells,
                    pair_blocked=pair_blocked_cells(defect_map),
                )
            except IncrementalFallback as e:
                raise RepairFallback(f"repair placement declined: {e}") from e
            except PlacementError as e:
                raise RepairFallback(f"repair placement jammed: {e}") from e
        router = Router(
            design,
            placement,
            shape,
            golden.region,
            warm_routes=golden.routes,
            warm_moved=moved,
            defects=defect_map,
        )
        routes = router.route_design(strict=False)
        failed = [n for n in router.routable_nets() if n not in routes]
        if not failed:
            break
        frontier = set()
        for net in failed:
            src = design.source_of.get(net)
            if src is not None:
                frontier.add(src)
            for gname, _pin in design.sinks_of.get(net, ()):
                frontier.add(gname)
        frontier = {g for g in frontier if g in design.gates}
        grow = frontier - displaced
        while not grow and frontier:
            # The stuck net's own endpoints already moved: widen the
            # dominance window by releasing their graph neighbours (and
            # theirs, if need be) so the next re-seed can shift the
            # congested neighbourhood, not just the endpoints.
            ring = set()
            for gname in frontier:
                g = design.gates[gname]
                for sname, _pin in design.sinks_of.get(g.output, ()):
                    ring.add(sname)
                for net_in in g.inputs:
                    src = design.source_of.get(net_in)
                    if src is not None:
                        ring.add(src)
            ring = {g for g in ring if g in design.gates}
            grow = ring - displaced
            if ring <= frontier:
                break
            frontier |= ring
        if not grow:
            break
        displaced |= grow
    if failed:
        raise RepairFallback(
            f"repair routing jammed on this die: {failed[:6]} "
            f"(of {len(failed)}) stayed unroutable"
        )

    try:
        result = _finish(golden.source, router, target_period=target_period)
    except DefectViolation as e:
        raise RepairFallback(f"repair emitted onto a defect: {e}") from e
    if stats is not None:
        stats.update(
            displaced=len(displaced),
            moved=len(moved),
            replayed=router.n_replayed,
            searched=router.n_searched,
        )
    return result
