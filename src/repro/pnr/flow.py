"""The compile flow: netlist in, configured + verified + timed fabric out.

:func:`compile_to_fabric` chains the stages — tech-map
(:mod:`repro.pnr.techmap`), place (:mod:`repro.pnr.place`), route
(:mod:`repro.pnr.route`), timing analysis (:mod:`repro.pnr.timing`),
emit (:mod:`repro.pnr.emit`) — with seeded retry: a failed routing
attempt re-places with a different annealing seed (and, when the array
is flow-owned, a larger grid) before giving up.  Every result carries a
:class:`repro.pnr.timing.TimingReport`.  See ``docs/compile-flow.md``
and ``docs/timing-model.md``.

:func:`verify_equivalence` closes the loop for combinational designs:
the configured array is lowered back to the netlist IR and swept with
random vectors on the bit-parallel :class:`repro.netlist.BatchBackend`
and (a subset, they are slower) on the reference
:class:`repro.netlist.EventBackend`, against the source netlist's
response.  Designs that placed stateful pairs are exercised by driving
event-level sequences instead (see ``examples/pnr_adder.py`` and the
micropipeline tests).
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.pnr.defects import DefectMap
    from repro.pnr.partition import ShardedPnrResult

import numpy as np

from repro.arch.area import AreaBreakdown, routed_area_breakdown
from repro.fabric.array import CellArray, wire_name
from repro.fabric.floorplan import Region
from repro.netlist.backends import BatchBackend, EventBackend
from repro.netlist.ir import Netlist
from repro.pnr.emit import emit_design
from repro.pnr.parallel import checkpoint
from repro.pnr.place import (
    Placement,
    PlacementError,
    anneal_placement,
    gate_levels,
    initial_placement,
)
from repro.pnr.route import NetRoute, Router, RoutingError, RoutingState
from repro.pnr.techmap import MappedDesign, TechMapError, map_netlist
from repro.pnr.timing import TimingReport, analyze_timing


def lazy_fields(cls):
    """Class decorator: let a result dataclass decode fields on first touch.

    :func:`repro.pnr.artifact.decode_result` builds results whose
    ``__dict__`` holds only the blob's header fields plus a ``_lazy``
    loader.  Reading any other field misses ``__dict__`` and falls back
    to ``__getattr__``, which decodes that field's section once — under
    the blob's lock, so two threads touching ``result.array`` get the
    same object — and stores it as a plain attribute; later reads cost
    nothing.  Field defaults are removed from the class so a missing
    field falls through too (the generated ``__init__`` keeps them).
    Pickling or copying a lazy result decodes every field first.
    """
    for f in dataclasses.fields(cls):
        if f.name in cls.__dict__:
            delattr(cls, f.name)
    cls.__getattr__ = _lazy_getattr
    cls.__getstate__ = _lazy_getstate
    return cls


def _lazy_getattr(self, name: str):
    loader = self.__dict__.get("_lazy")
    if loader is None or name.startswith("__"):
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )
    return loader.load(self, name)


def _lazy_getstate(self) -> dict:
    state = dict(self.__dict__)
    if state.pop("_lazy", None) is not None:
        for f in dataclasses.fields(self):
            state[f.name] = getattr(self, f.name)
    return state


class PnrError(RuntimeError):
    """The design could not be compiled onto the fabric."""


class VerificationError(AssertionError):
    """The configured array disagrees with its source netlist."""


@dataclass(frozen=True, slots=True)
class PnrStats:
    """Placement/routing quality numbers (the bench records these)."""

    n_source_cells: int
    n_gates: int
    cells_logic: int
    cells_route: int
    wirelength: int
    hpwl: int
    routed_nets: int
    total_nets: int
    region_cells: int
    area: AreaBreakdown
    #: Achieved cycle time / worst slack / ideal-wire bound, from the
    #: routed static timing analysis (see ``docs/timing-model.md``).
    cycle_time: int = 0
    worst_slack: int = 0
    logic_delay: int = 0

    @property
    def cells_used(self) -> int:
        """Cells configured, logic plus interconnect."""
        return self.cells_logic + self.cells_route

    @property
    def utilisation(self) -> float:
        """Configured fraction of the placement region."""
        return self.cells_used / self.region_cells if self.region_cells else 0.0

    @property
    def routing_overhead(self) -> float:
        """Cells burned as wire per cell of logic (paper Section 4)."""
        return self.cells_route / self.cells_logic if self.cells_logic else 0.0

    @property
    def routed_fraction(self) -> float:
        """Nets fully routed (1.0 for a strict compile)."""
        return self.routed_nets / self.total_nets if self.total_nets else 1.0


@lazy_fields
@dataclass
class PnrResult:
    """A compiled design: the configured array plus its pin mapping.

    ``input_wires`` / ``output_wires`` map *source netlist* net names to
    fabric wire names — drive and observe those on any backend.  When
    the design contained C-elements asking for a 0 power-on state,
    ``reset_wire`` names the active-low rail to pulse first.
    """

    source: Netlist
    design: MappedDesign
    array: CellArray
    region: Region
    placement: Placement
    routes: dict[str, NetRoute]
    input_wires: dict[str, str]
    output_wires: dict[str, str]
    reset_wire: str | None
    stats: PnrStats
    #: Routed static timing: worst slack, critical path, cycle time.
    timing: TimingReport | None = None
    #: The die's :class:`repro.pnr.defects.DefectMap` when the result
    #: was compiled or repaired for one (else ``None``).
    defect_map: DefectMap | None = None

    def fabric_netlist(self):
        """The configured array lowered to the IR.

        Lowered afresh on each call: the array may have gained other
        regions' configuration since this result was built.
        """
        return self.array.to_netlist()

    def to_bitstream(self):
        """Serialise the configured array (header + frames + CRC)."""
        return self.array.to_bitstream()

    def verify(self, **kwargs):
        """Random-vector equivalence sweep; see :func:`verify_equivalence`."""
        return verify_equivalence(self, **kwargs)

    def to_blob(self) -> bytes:
        """Versioned, pickle-free bytes; see :mod:`repro.pnr.artifact`."""
        from repro.pnr.artifact import encode_result

        return encode_result(self)

    @classmethod
    def from_blob(cls, blob: bytes) -> PnrResult:
        """Decode :meth:`to_blob` output (``ValueError`` on anything else).

        Only the header is decoded here; the other fields decode on
        first touch (see :func:`lazy_fields`).
        """
        from repro.pnr.artifact import decode_result

        result, _ = decode_result(blob)
        if not isinstance(result, cls):
            raise ValueError(
                f"blob holds {type(result).__name__}, not {cls.__name__}"
            )
        return result


def suggest_side(depth: int, cells: int, stateful: bool, slack: int = 2) -> int:
    """Array side comfortably hosting ``depth`` levels over ``cells`` cells.

    The one sizing heuristic behind both :func:`suggest_array` and the
    sharded flow's per-shard estimate: the greedy placer advances
    roughly one column per level and ratchets rows upward at
    reconvergence, so budget a full side for the depth (not just half
    of the ``rows + cols - 1`` poset bound) and 3 cells per gate for
    routing room.  Stateful pairs pin their input columns, which costs
    extra delivery room around them.
    """
    side = max(
        depth + 2,
        math.ceil(math.sqrt(3 * max(1, cells))) + 1,
        4,
    ) + slack
    if stateful:
        side += 2
    return side


def suggest_array(netlist_or_design, slack: int = 2) -> CellArray:
    """A square array comfortably sized for a design.

    Sizing must respect both capacity (3 cells per gate leaves routing
    room) and the monotone-dataflow depth bound: a chain of ``d`` gates
    needs ``rows + cols - 1 >= d``.
    """
    design = (
        netlist_or_design
        if isinstance(netlist_or_design, MappedDesign)
        else map_netlist(netlist_or_design)
    )
    depth = max(gate_levels(design).values(), default=0) + 1
    side = suggest_side(
        depth, design.n_cells, design.has_stateful_gates(), slack
    )
    return CellArray(side, side)


def compile_to_fabric(
    netlist: Netlist,
    array: CellArray | None = None,
    *,
    region: Region | None = None,
    seed: int = 0,
    anneal_steps: int | None = None,
    max_attempts: int = 6,
    target_period: int | None = None,
    shards: int | None = None,
    max_side: int | None = None,
    workers: int | None = None,
    defect_map=None,
) -> PnrResult | ShardedPnrResult:
    """Place and route a netlist onto a cell array.

    Parameters
    ----------
    netlist:
        The design, in the backend-neutral IR.  Combinational kinds map
        to product rows; ``celement`` / ``eventlatch`` map to the
        stateful cell pairs; tristate buses are rejected.
    array:
        Target array.  ``None`` lets the flow size one with
        :func:`suggest_array` (and grow it on retries).
    region:
        Restrict placement and routing to a floorplan region (the whole
        array when ``None``) — cells there must be blank.
    seed, anneal_steps, max_attempts:
        Determinism and effort knobs.  Each retry re-seeds the greedy
        placement; even attempts anneal it, odd ones route the sparser
        greedy seed as is, unless a ``defect_map`` is given, which
        anneals every attempt.
    target_period:
        Required cycle time for slack reporting (default: the design's
        ideal-wire logic depth — see :mod:`repro.pnr.timing`).
    shards, max_side:
        Multi-array sharding.  ``shards=N > 1`` partitions the design
        across N chiplet arrays and returns a
        :class:`repro.pnr.partition.ShardedPnrResult` instead; with
        ``max_side`` set the shard count is chosen automatically (and
        a single array is still used when the design fits one of at
        most ``max_side`` x ``max_side`` cells).  Incompatible with an
        explicit ``array`` / ``region``.  See ``docs/sharding.md``.
    workers:
        Width of the ``concurrent.futures`` pool a sharded compile's
        per-shard compiles fan out on.  ``None`` (the default)
        auto-selects one worker per shard capped at the CPU count;
        ``0``/``1`` run everything serially on the calling thread.
        Results are bit-identical regardless of the worker count —
        parallelism is a wall-clock knob only.  A single-array compile
        ignores it.
    defect_map:
        A :class:`repro.pnr.defects.DefectMap` describing one die's
        dead cells, dead wire segments and stuck configuration rows.
        Placement hard-blocks the dead cells (seed exclusion, anneal
        move rejection, pair-start veto), routing pre-claims the dead
        wires and treats dead cells as impassable, and the emitted
        configuration is proven clean against the map before the result
        is returned (see ``docs/defect-tolerance.md``).  The map names
        a concrete die, so it fixes the array shape: auto-sizing is
        disabled (retries reseed only) and an explicit ``array`` must
        match ``defect_map.shape``.  Incompatible with sharding.

    Returns a :class:`PnrResult` (with a routed
    :class:`repro.pnr.timing.TimingReport` under ``.timing``), or a
    :class:`repro.pnr.partition.ShardedPnrResult` when ``shards`` /
    ``max_side`` requested a sharded compile; raises :class:`PnrError`
    when the design cannot be mapped, placed or routed.
    """
    if shards is not None or max_side is not None:
        if array is not None or region is not None:
            raise PnrError(
                "sharded compiles size their own per-shard arrays; "
                "drop the array/region arguments"
            )
        if defect_map is not None:
            raise PnrError(
                "a defect map names one concrete die; sharded compiles "
                "span several arrays — compile each shard for its die"
            )
        from repro.pnr.partition import compile_sharded

        return compile_sharded(
            netlist, n_shards=shards, max_side=max_side, seed=seed,
            anneal_steps=anneal_steps, max_attempts=max_attempts,
            target_period=target_period, workers=workers,
        )
    result, _ = _compile_mapped(
        _map_design(netlist), netlist, array=array, region=region, seed=seed,
        anneal_steps=anneal_steps, max_attempts=max_attempts,
        target_period=target_period, defect_map=defect_map,
    )
    return result


def _compile_mapped(
    design: MappedDesign,
    netlist: Netlist,
    *,
    array: CellArray | None = None,
    region: Region | None = None,
    seed: int = 0,
    anneal_steps: int | None = None,
    max_attempts: int = 6,
    target_period: int | None = None,
    max_side: int | None = None,
    defect_map=None,
) -> tuple[PnrResult, RoutingState]:
    """The place/route/time/emit retry ladder over a mapped design.

    The shared engine behind :func:`compile_to_fabric` (which tech-maps
    first) and the sharded flow (which partitions a mapped design and
    compiles each shard here, ``max_side`` capping the auto-sized
    per-shard arrays).  Returns the result and the router's final
    state, which the sharded flow reads to time the system and
    attribute channel ports; neither is persisted with the result.
    """
    if defect_map is not None:
        if array is not None and (array.n_rows, array.n_cols) != defect_map.shape:
            raise PnrError(
                f"defect map is for a {defect_map.shape[0]}x"
                f"{defect_map.shape[1]} die but the array is "
                f"{array.n_rows}x{array.n_cols}"
            )
        from repro.pnr.defects import pair_blocked_cells

        blocked = defect_map.dead_cells
        pair_blocked = pair_blocked_cells(defect_map)
    else:
        blocked = None
        pair_blocked = None
    if array is None:
        depth = max(gate_levels(design).values(), default=0) + 1
        stateful = design.has_stateful_gates()
    last_error: Exception | None = None
    for attempt in range(max_attempts):
        # Cooperative cancellation: a service deadline cancels between
        # attempts (and inside each attempt's anneal/route loops).
        checkpoint()
        if array is not None:
            shape = (array.n_rows, array.n_cols)
        elif defect_map is not None:
            # The defect map names a concrete die, so its shape IS the
            # array shape — retries reseed the annealer instead of
            # growing the grid.
            shape = defect_map.shape
        else:
            # Size without building: a CellArray is only constructed
            # once placement and routing succeed (failed attempts and
            # sizing probes never pay for cell allocation).
            side = suggest_side(
                depth, design.n_cells, stateful, slack=2 + 2 * attempt
            )
            if max_side is not None and side > max_side:
                # The cap wins: retries re-seed the annealer instead
                # of growing the grid.
                side = max_side
            shape = (side, side)
        reg = region or Region("pnr", 0, 0, *shape)
        _check_region(shape, reg, array)
        rng = random.Random(seed + 7919 * attempt)
        try:
            placement = initial_placement(
                design, reg, rng, blocked=blocked, pair_blocked=pair_blocked,
            )
            # Annealing compacts for wirelength, which can cost
            # routability on congested designs — alternate attempts fall
            # back to the (sparser) greedy seed.  On a die the shape is
            # pinned, so a retry gets no larger, sparser grid: every
            # attempt anneals, and the anneal finds room around the
            # dead cells.
            if attempt % 2 == 0 or defect_map is not None:
                placement = anneal_placement(
                    design, placement, rng, steps=anneal_steps,
                    blocked=blocked,
                )
            router = Router(
                design, placement, shape, reg, array=array,
                defects=defect_map,
            )
            router.route_design(strict=True)
        except (PlacementError, RoutingError) as e:
            last_error = e
            continue
        # Placement and routing avoid every defect, so a DefectViolation
        # from the proof is a flow bug, not a retryable placement jam:
        # it propagates.
        result = _finish(netlist, router, target_period=target_period)
        return result, router.state
    raise PnrError(
        f"could not compile {netlist.name!r} after {max_attempts} attempts: "
        f"{last_error}"
    ) from last_error


def _check_region(shape, region: Region, array: CellArray | None) -> None:
    """``region`` must fit a ``shape`` array and, on the caller's
    ``array``, cover only blank cells."""
    if region.row + region.n_rows > shape[0] or region.col + region.n_cols > shape[1]:
        raise PnrError(
            f"region {region.name!r} exceeds the {shape[0]}x{shape[1]} array"
        )
    if array is None:
        return
    configured = array.configured_cells(
        range(region.row, region.row + region.n_rows),
        range(region.col, region.col + region.n_cols),
    )
    if configured:
        r, c = configured[0]
        raise PnrError(f"region {region.name!r} overlaps configured cell ({r},{c})")


def _map_design(netlist: Netlist) -> MappedDesign:
    """Tech-map ``netlist`` for a compile engine; :class:`PnrError` if
    the fabric cannot host it (unmappable, or grid-level feedback)."""
    try:
        design = map_netlist(netlist)
        gate_levels(design)
    except (TechMapError, PlacementError) as e:
        raise PnrError(f"cannot compile {netlist.name!r}: {e}") from e
    return design


def _finish(
    netlist: Netlist, router: Router, *, target_period: int | None
) -> PnrResult:
    """The back half of every compile engine, from a routed ``router`` on.

    Routed STA, emit onto the router's array (the caller's, or a new
    one of its shape), prove the configuration clean against the
    router's defect map when it has one (else
    :class:`repro.pnr.defects.DefectViolation`), package the result.
    """
    design, placement, routes = router.design, router.placement, router.routes
    array, defect_map = router.array, router.defects
    if array is None:
        array = CellArray(*router.shape)
    report = analyze_timing(
        design, placement, state=router.state, routes=routes,
        target_period=target_period,
    )
    counts = emit_design(array, router.state)
    if defect_map is not None:
        from repro.pnr.defects import assert_defect_clean

        assert_defect_clean(array, defect_map)
    input_wires = {}
    for net in design.inputs:
        route = routes.get(net)
        if route is not None and route.entry_wire is not None:
            input_wires[net] = wire_name(*route.entry_wire)
    output_wires = {}
    for net in design.outputs:
        route = routes.get(net)
        if route is None:
            continue
        driven = [w for w in route.wires if w != route.entry_wire]
        if driven:
            output_wires[net] = wire_name(*driven[0])
    stats = PnrStats(
        n_source_cells=netlist.n_cells,
        n_gates=design.n_gates,
        cells_logic=counts["cells_logic"],
        cells_route=counts["cells_route"],
        wirelength=sum(r.wirelength for r in routes.values()),
        hpwl=sum(router.spans.values()),
        routed_nets=len(routes),
        total_nets=len(router.routable_nets()),
        region_cells=router.region.cells,
        area=routed_area_breakdown(counts["cells_logic"], counts["cells_route"]),
        cycle_time=report.cycle_time,
        worst_slack=report.worst_slack,
        logic_delay=report.logic_delay,
    )
    return PnrResult(
        source=netlist,
        design=design,
        array=array,
        region=router.region,
        placement=placement,
        routes=routes,
        input_wires=input_wires,
        output_wires=output_wires,
        reset_wire=(
            input_wires.get(design.reset_net) if design.reset_net else None
        ),
        stats=stats,
        timing=report,
        defect_map=defect_map,
    )


def _compare_vectors(stage, net, where, expected, got) -> None:
    if not np.array_equal(expected, got):
        bad = int(np.argmax(expected != got))
        raise VerificationError(
            f"{stage} mismatch on {net!r}{where} at vector {bad}: "
            f"expected {expected[bad]}, got {got[bad]}"
        )


def _sweep_equivalence(
    source: Netlist,
    input_nets,
    out_names,
    run_batch,
    run_event,
    n_vectors: int,
    seed: int,
    event_vectors: int,
    describe=lambda net: "",
) -> tuple[int, int]:
    """The shared random-vector equivalence sweep.

    Drives ``n_vectors`` seeded random vectors through the source
    netlist (batch reference) and through ``run_batch`` /
    ``run_event`` — callables returning ``{source net: values}`` for
    whatever realisation is under test (a configured array, a sharded
    system) — raising :class:`VerificationError` on the first
    mismatch.  ``describe(net)`` decorates messages (e.g. with the
    fabric wire).  Returns ``(n_vectors, n_event)``.
    """
    rng = np.random.default_rng(seed)
    stimuli = {
        name: rng.integers(0, 2, size=n_vectors, dtype=np.uint8)
        for name in input_nets
    }
    expected = BatchBackend().evaluate(source, stimuli, outputs=list(out_names))
    got = run_batch(stimuli)
    for net in out_names:
        _compare_vectors("batch", net, describe(net), expected[net], got[net])
    n_event = min(event_vectors, n_vectors)
    if n_event:
        ev = run_event({k: v[:n_event] for k, v in stimuli.items()})
        for net in out_names:
            _compare_vectors(
                "event", net, describe(net), expected[net][:n_event], ev[net]
            )
    return n_vectors, n_event


def _settle_compare(source: Netlist, realised: Netlist, pairs) -> None:
    """Constant-design path: quiesce both netlists, compare each output.

    ``pairs`` is ``(source net, observed net, message suffix)`` —
    the batch sweep needs at least one stimulus net, so designs with no
    primary inputs settle on the event scheduler instead.
    """
    ref = EventBackend().elaborate(source)
    fab = EventBackend().elaborate(realised)
    ref.run_to_quiescence(max_time=10_000)
    fab.run_to_quiescence(max_time=10_000)
    for net, observed, where in pairs:
        if ref.value(net) != fab.value(observed):
            raise VerificationError(
                f"constant mismatch on {net!r}{where}: "
                f"expected {ref.value(net)}, got {fab.value(observed)}"
            )


def verify_equivalence(
    result: PnrResult,
    n_vectors: int = 1024,
    seed: int = 0,
    event_vectors: int = 16,
) -> dict[str, object]:
    """Prove the configured array matches its source netlist.

    Sweeps ``n_vectors`` random input vectors through the source netlist
    and the lowered fabric on the batch backend, then replays the first
    ``event_vectors`` of them on the event backend (reference
    semantics).  Only combinational designs qualify — stateful pairs
    need sequence-level testbenches.  Raises
    :class:`VerificationError` on the first mismatch.
    """
    if result.design.has_stateful_gates():
        raise VerificationError(
            "random-vector equivalence needs a combinational design; "
            "drive the stateful fabric with event sequences instead"
        )
    if not result.output_wires:
        raise VerificationError("the source netlist declares no outputs")
    src_inputs = result.design.inputs
    if not src_inputs:
        return _verify_constant_design(result)
    fabric = result.fabric_netlist().netlist
    wires = list(result.output_wires.values())

    def fabric_stimuli(stimuli):
        fab_stimuli = {
            result.input_wires[name]: bits
            for name, bits in stimuli.items()
            if name in result.input_wires
        }
        # On a shared array the lowered netlist includes every region;
        # tie free inputs that are not ours low so the sweep stays
        # two-valued.
        zeros = np.zeros(len(next(iter(stimuli.values()))), dtype=np.uint8)
        for name in fabric.free_inputs():
            fab_stimuli.setdefault(name, zeros)
        return fab_stimuli

    def run_on(backend):
        def run(stimuli):
            got = backend.evaluate(fabric, fabric_stimuli(stimuli), outputs=wires)
            return {net: got[w] for net, w in result.output_wires.items()}
        return run

    n_batch, n_event = _sweep_equivalence(
        result.source, src_inputs, list(result.output_wires),
        run_on(BatchBackend()), run_on(EventBackend()),
        n_vectors, seed, event_vectors,
        describe=lambda net: f" (wire {result.output_wires[net]})",
    )
    return {
        "vectors_batch": n_batch,
        "vectors_event": n_event,
        "outputs": len(result.output_wires),
        "ok": True,
    }


def _verify_constant_design(result: PnrResult) -> dict[str, object]:
    """Verify a design with no primary inputs (constants only)."""
    _settle_compare(
        result.source,
        result.fabric_netlist().netlist,
        [
            (net, wire, f" (wire {wire})")
            for net, wire in result.output_wires.items()
        ],
    )
    return {
        "vectors_batch": 0,
        "vectors_event": 1,
        "outputs": len(result.output_wires),
        "ok": True,
    }
