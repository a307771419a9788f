"""Automatic place-and-route: any netlist onto the polymorphic fabric.

The compile path the paper implies but never spells out — "the same
components can be used interchangeably for logic and interconnection"
(Section 4) — realised as five stages over the backend-neutral IR:

1. **tech-map** (:mod:`repro.pnr.techmap`): IR cells to NAND-row gates
   and stateful cell pairs;
2. **place** (:mod:`repro.pnr.place`): deterministic ring-scan seeding
   plus simulated annealing over cached incremental delta-HPWL bounding
   boxes, under the fabric's monotone east/north dominance rule —
   candidates drawn in numpy batches and priced and committed by a C
   kernel (:mod:`repro.pnr.kernel`; compiling needs ``cc``);
3. **route** (:mod:`repro.pnr.route`): A* maze routing on one reusable
   generation-stamped search grid, burning blank cells as
   feed-throughs, with journal-replay rip-up-and-retry (see
   ``docs/performance.md``);
4. **timing** (:mod:`repro.pnr.timing`): static timing analysis over
   the routed design — worst slack, critical path, achievable cycle
   time, per-net criticality;
5. **emit** (:mod:`repro.pnr.emit`): range-checked frame digits on a
   :class:`repro.fabric.array.CellArray`, ready for bitstream
   serialisation and either simulation backend.

Entry points: :func:`compile_to_fabric` (one call, returns a
:class:`PnrResult` with the configured array, pin map and
:class:`TimingReport`) and :func:`verify_equivalence` (random-vector
proof against the source netlist on both backends).  See
``docs/compile-flow.md`` and ``docs/timing-model.md``.
"""

from repro.pnr.defects import (
    DefectMap,
    DefectViolation,
    RepairFallback,
    assert_defect_clean,
    defect_violations,
    pair_blocked_cells,
    repair_for_die,
    sample_defect_map,
    sample_die,
)
from repro.pnr.emit import EmitError, emit_design
from repro.pnr.flow import (
    PnrError,
    PnrResult,
    PnrStats,
    VerificationError,
    compile_to_fabric,
    suggest_array,
    suggest_side,
    verify_equivalence,
)
from repro.pnr.incremental import (
    DesignDelta,
    IncrementalFallback,
    compile_incremental,
    design_delta,
)
from repro.pnr.parallel import TaskPool, parallel_map, resolve_workers
from repro.pnr.place import (
    Placement,
    PlacementError,
    anneal_placement,
    anneal_temperatures,
    default_anneal_steps,
    dominance_violations,
    gate_levels,
    hpwl,
    initial_placement,
)
from repro.pnr.partition import (
    Partition,
    PartitionError,
    ShardedPnrResult,
    ShardedPnrStats,
    compile_sharded,
    partition_design,
    shard_source_netlist,
)
from repro.pnr.route import NetRoute, Router, RoutingError, RoutingState
from repro.pnr.techmap import (
    MappedDesign,
    MappedGate,
    TechMapError,
    map_netlist,
)
from repro.pnr.timing import (
    HOP_DELAY,
    PathStep,
    TimingReport,
    analyze_timing,
    trace_endpoint,
)
from repro.pnr.artifact import RESULT_BLOB_VERSION, decode_result, encode_result

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
    "EmitError",
    "emit_design",
    "PnrError",
    "PnrResult",
    "PnrStats",
    "RESULT_BLOB_VERSION",
    "VerificationError",
    "compile_to_fabric",
    "decode_result",
    "encode_result",
    "suggest_array",
    "suggest_side",
    "verify_equivalence",
    "DesignDelta",
    "IncrementalFallback",
    "compile_incremental",
    "design_delta",
    "Placement",
    "PlacementError",
    "anneal_placement",
    "anneal_temperatures",
    "default_anneal_steps",
    "dominance_violations",
    "TaskPool",
    "parallel_map",
    "resolve_workers",
    "gate_levels",
    "hpwl",
    "initial_placement",
    "HOP_DELAY",
    "PathStep",
    "TimingReport",
    "analyze_timing",
    "trace_endpoint",
    "Partition",
    "PartitionError",
    "ShardedPnrResult",
    "ShardedPnrStats",
    "compile_sharded",
    "partition_design",
    "shard_source_netlist",
    "NetRoute",
    "Router",
    "RoutingError",
    "RoutingState",
    "MappedDesign",
    "MappedGate",
    "TechMapError",
    "map_netlist",
]
