"""Cross-compile incremental recompiles: edit, re-place the delta, replay.

The router reuses its own work *within* one compile: every rip-up
pass replays the journals of the nets the failed pass did route.  This
module lifts that machinery **across compile boundaries**: given a
cached :class:`repro.pnr.flow.PnrResult` and an edited netlist,
:func:`compile_incremental`

1. tech-maps the edited netlist and diffs the mapped gates against the
   cached design (:func:`design_delta` — gates match by name and must
   agree on kind, pins, output and parameters);
2. **keeps the cached placement** for every surviving gate and seeds
   only the delta around it (:func:`repro.pnr.place.initial_placement`
   with ``fixed=``, whose candidate windows are bounded by pre-placed
   fan-outs so the combined placement stays dominance-legal) — no
   re-anneal;
3. routes with the cached result's routes as **warm journals**: any net
   whose endpoint gates are untouched, unmoved, and whose pin lists are
   unchanged replays its committed claim journal verbatim
   (:meth:`repro.pnr.route.Router.route_design`), and only the
   disturbed nets pay for an A* search;
4. re-times, re-emits and packages the result through the cold
   flow's own back half (:func:`repro.pnr.flow._finish`).

When the edit is too large (:data:`MAX_DELTA_FRAC`), the region cannot host
the grown design, or the delta placement/routing jams,
:class:`IncrementalFallback` is raised — the compile service catches it
and falls back to a full cold compile, so the delta path can only ever
trade wall-clock, never correctness.

The incremental result is **deterministic** (a pure function of the
edited netlist, the cached result and the seed — byte-identical across
runs and worker counts) but not, in general, byte-identical to a cold
compile of the edited netlist: the cold path re-anneals from scratch
while the delta path deliberately keeps the cached placement.  It is
held to the same bar on every axis that matters: dual-backend
equivalence against the edited source, and quality within the
regression gate of the cold compile (proven in
``tests/test_pnr_incremental.py``).  See ``docs/compile-service.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.netlist.ir import Netlist
from repro.pnr.flow import PnrError, PnrResult, _finish, _map_design
from repro.pnr.parallel import checkpoint
from repro.pnr.place import (
    Placement,
    PlacementError,
    dominance_violations,
    initial_placement,
)
from repro.pnr.route import Router, RoutingError
from repro.pnr.techmap import MappedDesign

__all__ = [
    "DesignDelta",
    "IncrementalFallback",
    "compile_incremental",
    "design_delta",
    "ripple_release_placement",
]

#: Largest fraction of the cached design's gates the delta may touch
#: (changed + added + removed) before the delta path declines: past
#: this point re-placing the delta greedily costs quality the anneal
#: would have bought back, and the replay fraction is too small to pay
#: for skipping it.
MAX_DELTA_FRAC = 0.25

#: How much of the design the dominance ripple (see
#: :func:`ripple_release_placement`) may unfix before falling back:
#: released gates are re-seeded greedily without an anneal, so past
#: this point the warm compile would mostly be a worse cold compile.
RELEASE_BUDGET_FRAC = 0.5


class IncrementalFallback(PnrError):
    """The delta path declined this edit; compile cold instead.

    Raised *before* any work is wasted (delta too large, region too
    small, sharded base) or when the warm placement/routing jams — the
    message says which.  :meth:`repro.service.CompileService` catches
    this and falls back to :func:`repro.pnr.flow.compile_to_fabric`
    (edit-session steps record the escalation, so a "too big" edit in
    a chain is provable, never silent).  When the decline happened
    *after* diffing, ``delta`` carries the :class:`DesignDelta` that
    provoked it — the proof of *why* (e.g. ``delta.frac`` past the
    budget); it is ``None`` for pre-diff declines (sharded or
    unmappable base).
    """

    def __init__(self, message: str, *, delta: DesignDelta | None = None):
        super().__init__(message)
        self.delta = delta


@dataclass(frozen=True)
class DesignDelta:
    """The gate-level diff between two mapped designs.

    Gates are matched **by name**; a gate counts as ``changed`` when
    any of its kind, input pins, output net, constant value or source
    delay differ.  ``frac`` is the edit size relative to the base
    design — the fallback predicate of the delta path.
    """

    added: frozenset[str]
    removed: frozenset[str]
    changed: frozenset[str]
    n_base: int

    @property
    def touched(self) -> frozenset[str]:
        """Gates of the *new* design that need placing: added + changed."""
        return self.added | self.changed

    @property
    def n_edits(self) -> int:
        """Total gate-level edit size (added + removed + changed)."""
        return len(self.added) + len(self.removed) + len(self.changed)

    @property
    def frac(self) -> float:
        """Edit size relative to the base design's gate count."""
        return self.n_edits / max(1, self.n_base)


def design_delta(base: MappedDesign, new: MappedDesign) -> DesignDelta:
    """Diff two mapped designs gate-by-gate (matched by name)."""
    old, cur = base.gates, new.gates
    return DesignDelta(
        added=frozenset(cur.keys() - old.keys()),
        removed=frozenset(old.keys() - cur.keys()),
        changed=frozenset(
            name for name in old.keys() & cur.keys() if old[name] != cur[name]
        ),
        n_base=base.n_gates,
    )


def _connectivity_moved(base: MappedDesign, new: MappedDesign) -> set[str]:
    """Gates whose nets must re-search rather than replay.

    Beyond the re-placed gates themselves, any net whose *pin list*
    changed (a sink gained, lost, or re-pinned — e.g. an edit rewired
    one input of an otherwise-identical gate) must not replay its old
    journal: the replay would re-claim input columns at cells that no
    longer read the net, and the emitted product rows would pick those
    stale landings up.  Marking every endpoint of such nets as "moved"
    makes :meth:`Router._stale_nets` veto the replay.
    """
    moved = set()
    b_of, n_of = base.sinks_of, new.sinks_of
    b_src, n_src = base.source_of, new.source_of
    for net in b_of.keys() | n_of.keys():
        b_sinks = b_of.get(net, [])
        n_sinks = n_of.get(net, [])
        if b_sinks == n_sinks and b_src.get(net) == n_src.get(net):
            continue
        moved.update(gname for gname, _pin in b_sinks)
        moved.update(gname for gname, _pin in n_sinks)
        for design in (base, new):
            src = design.source_of.get(net)
            if src is not None:
                moved.add(src)
    return moved


def ripple_release_placement(
    design: MappedDesign,
    region,
    base_positions: dict[str, tuple[int, int]],
    displaced: frozenset[str] | set[str],
    *,
    seed: int,
    n_edits: int | None = None,
    n_base: int | None = None,
    blocked: frozenset[tuple[int, int]] | None = None,
    pair_blocked: frozenset[tuple[int, int]] | None = None,
) -> tuple[Placement, set[str]]:
    """Warm greedy placement with a budgeted dominance ripple release.

    The shared engine behind :func:`compile_incremental` and
    :func:`repro.pnr.defects.repair_for_die`: every surviving gate (in
    ``base_positions`` but not ``displaced``) keeps its cached cell via
    ``initial_placement(fixed=...)`` and only the displaced set is
    greedily re-seeded.  An edit (or a defect) can leave a displaced
    gate with *no* dominance-legal cell between its frozen fan-ins and
    fan-outs — each release wave then unfixes the fan-out gates of
    everything released so far and retries the (cheap) greedy seed, up
    to :data:`RELEASE_BUDGET_FRAC` of the design — past that, the warm
    placement would be mostly greedy anyway, so
    :class:`IncrementalFallback` is raised and the caller compiles
    cold.  ``blocked`` / ``pair_blocked`` thread straight into
    :func:`initial_placement` (dead sites of a defect map).

    ``n_edits`` / ``n_base`` parameterize the budget accounting (the
    delta path counts removed gates too); they default to the displaced
    count and the design's gate count.

    Returns the placement, proven dominance-legal, and the ``moved``
    gates whose nets must not replay their journals: ``displaced``
    plus every gate whose cell differs from ``base_positions``.
    """
    displaced = set(displaced)
    n_edits = len(displaced) if n_edits is None else n_edits
    n_base = design.n_gates if n_base is None else n_base
    released: set[str] = set(displaced)
    last_jam: PlacementError | None = None
    for _wave in range(8):
        # Cooperative cancellation: a service deadline cancels between
        # ripple waves.
        checkpoint()
        if len(released - displaced) + n_edits > max(
            1, int(RELEASE_BUDGET_FRAC * n_base)
        ):
            raise IncrementalFallback(
                f"release ripple grew past {RELEASE_BUDGET_FRAC:.0%} of the "
                f"design ({len(released)} gates)"
            ) from last_jam
        fixed = {
            name: base_positions[name]
            for name in design.gates
            if name in base_positions and name not in released
        }
        try:
            placement = initial_placement(
                design, region, random.Random(seed ^ 0x1C4E), fixed=fixed,
                blocked=blocked, pair_blocked=pair_blocked,
            )
            # An earlier wave's jam holds this frame through its
            # traceback; dropping it frees the cycle by refcount.
            last_jam = None
            break
        except PlacementError as e:
            last_jam = e
            grow = set()
            for gname in released:
                g = design.gates.get(gname)
                if g is None:
                    continue
                for sname, _pin in design.sinks_of.get(g.output, ()):
                    grow.add(sname)
            if grow <= released:
                raise IncrementalFallback(f"delta placement jammed: {e}") from e
            released |= grow
    else:
        raise IncrementalFallback(
            f"delta placement jammed: {last_jam}"
        ) from last_jam
    if dominance_violations(design, placement):
        raise IncrementalFallback("warm placement violates dominance")
    moved = displaced | {
        name
        for name, pos in placement.positions.items()
        if base_positions.get(name, pos) != pos
    }
    return placement, moved


def compile_incremental(
    netlist: Netlist,
    base: PnrResult,
    *,
    target_period: int | None = None,
    seed: int = 0,
) -> PnrResult:
    """Recompile an edited netlist against a cached result.

    Parameters
    ----------
    netlist:
        The edited design.
    base:
        A previously compiled :class:`PnrResult` of a *similar* design
        (same gate names for the surviving logic).  Sharded results are
        not accepted — raise-and-fallback keeps the delta path simple.
    target_period, seed:
        As in :func:`repro.pnr.flow.compile_to_fabric`; the seed only
        feeds the greedy seeding's tie-break salt for the delta gates.

    Returns a fresh :class:`PnrResult` on a new array of the cached
    shape.  Raises :class:`IncrementalFallback` when the edit cannot
    (or should not) take the delta path — among others when
    :attr:`DesignDelta.frac` exceeds :data:`MAX_DELTA_FRAC` — and plain
    :class:`PnrError` when the netlist is not compilable at all.
    """
    if not isinstance(base, PnrResult):
        raise IncrementalFallback(
            "incremental recompile needs a single-array PnrResult base; "
            f"got {type(base).__name__}"
        )
    design = _map_design(netlist)
    delta = design_delta(base.design, design)
    if delta.frac > MAX_DELTA_FRAC:
        raise IncrementalFallback(
            f"delta touches {delta.n_edits} of {delta.n_base} gates "
            f"({delta.frac:.0%} > {MAX_DELTA_FRAC:.0%})",
            delta=delta,
        )
    region = base.region
    if design.n_cells > region.cells:
        raise IncrementalFallback(
            f"edited design needs {design.n_cells} cells but the cached "
            f"region offers {region.cells}",
            delta=delta,
        )

    # Ripple release: an edit can rewire a gate so that no cell is
    # dominance-compatible with *both* its new fan-ins and its frozen
    # fan-outs (the monotone east/north rule means an edit that pulls a
    # gate east pushes its downstream cone east too).  The shared
    # :func:`ripple_release_placement` engine unfixes the fan-out cone
    # one wave at a time up to the release budget, or falls back.
    placement, moved = ripple_release_placement(
        design, region, base.placement.positions, delta.touched,
        seed=seed, n_edits=delta.n_edits, n_base=delta.n_base,
    )
    moved |= _connectivity_moved(base.design, design)
    try:
        router = Router(
            design, placement, (base.array.n_rows, base.array.n_cols),
            region, warm_routes=base.routes, warm_moved=moved,
        )
        router.route_design(strict=True)
    except (PlacementError, RoutingError) as e:
        raise IncrementalFallback(f"delta routing jammed: {e}") from e
    return _finish(netlist, router, target_period=target_period)
