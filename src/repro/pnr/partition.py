"""Multi-array sharding: one netlist compiled across chiplet cell arrays.

The paper's Section 4.1 page-size argument caps a single monotone array:
a combinational chain of ``d`` gates needs ``rows + cols - 1 >= d``, so
designs deeper than one array simply cannot compile.  This module lifts
that ceiling by *sharding*: the tech-mapped design is partitioned into
an acyclic sequence of sub-designs, each placed and routed onto its own
:class:`repro.fabric.array.CellArray` with the existing stages, and the
nets crossing shard boundaries become explicit
:class:`repro.fabric.channel.InterArrayChannel` objects — a boundary-
port cell driving an observable wire on the source array, a crossing
delay, and a primary-input entry wire on each sink array.

Partitioning is contiguous-by-levels seeding refined by a **min-cut**
pass (an inlined Dinic max-flow — the boundary graphs are a few hundred
nodes, small enough that a dependency-free solver beats a general
library by an order of magnitude) at every shard boundary: gates near the
boundary may migrate between the two adjacent shards wherever that
narrows the channel waist, with infinite-capacity closure edges keeping
the shard graph acyclic by construction.

Because the shard graph is acyclic, simulation composes by staged
evaluation: :class:`repro.netlist.BatchBackend` sweeps each shard's
fabric netlist independently (bit-parallel, one pass per shard) and
stitches channel values between stages —
:meth:`ShardedPnrResult.evaluate_batch`.  The same system flattens to a
single IR netlist (:meth:`ShardedPnrResult.to_netlist`) for the event
backend, and :meth:`ShardedPnrResult.verify` proves equivalence against
the source netlist on both.  See ``docs/sharding.md``.

Quickstart — a 9-gate chain split across two arrays:

>>> from repro.netlist import Netlist
>>> nl = Netlist("chain")
>>> prev = nl.add_input("a")
>>> for k in range(8):
...     prev = nl.add("not", f"g{k}", [prev], f"n{k}")
>>> _ = nl.add("buf", "out", [prev], nl.add_output("y"))
>>> res = compile_sharded(nl, n_shards=2, seed=0)
>>> res.stats.n_shards, len(res.channels)
(2, 1)
>>> res.verify(n_vectors=32, event_vectors=2)["ok"]
True
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.fabric.array import CellArray
from repro.fabric.channel import CHANNEL_DELAY, InterArrayChannel
from repro.netlist.backends import BatchBackend, EventBackend, ShardStage, evaluate_staged
from repro.netlist.ir import Netlist
from repro.pnr.flow import (
    PnrError,
    PnrResult,
    VerificationError,
    _compile_mapped,
    _map_design,
    _settle_compare,
    _sweep_equivalence,
    lazy_fields,
    suggest_side,
)
from repro.pnr.parallel import parallel_map
from repro.pnr.place import gate_levels, level_order
from repro.pnr.route import RoutingState
from repro.pnr.techmap import (
    CONST_GATE,
    MappedDesign,
    PAIR_CELEMENT,
    PAIR_EVENTLATCH,
    PRODUCT_AND,
    PRODUCT_NAND,
)
from repro.pnr.timing import PathStep, TimingReport, analyze_timing, trace_endpoint
from repro.sim.values import X, ZERO


class PartitionError(PnrError):
    """The design cannot be partitioned as requested."""


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------

@dataclass
class Partition:
    """An acyclic assignment of mapped gates to shards.

    ``assignment`` maps every gate to its shard index; shard indices are
    a topological order of the shard graph (every net crosses from a
    lower to a strictly higher index).  ``shards`` holds the per-shard
    sub-:class:`MappedDesign`s (cut nets appear as extra inputs /
    outputs); ``cut_nets`` maps each crossing net to its source shard
    and the ascending tuple of sink shards.
    """

    design: MappedDesign
    n_shards: int
    assignment: dict[str, int]
    shards: list[MappedDesign] = field(default_factory=list)
    cut_nets: dict[str, tuple[int, tuple[int, ...]]] = field(default_factory=dict)

    @property
    def cut_size(self) -> int:
        """Total channel crossings (a net entering 2 shards counts 2)."""
        return sum(len(sinks) for _, sinks in self.cut_nets.values())

    def shard_of(self, gate: str) -> int:
        """Shard index hosting ``gate``."""
        return self.assignment[gate]


def _initial_chunks(
    design: MappedDesign, order: list[str], n_shards: int
) -> dict[str, int]:
    """Contiguous topological chunks of roughly equal cell count."""
    total = sum(design.gates[g].width for g in order)
    target = total / n_shards
    assignment: dict[str, int] = {}
    cum = 0.0
    s = 0
    count_in_s = 0
    for idx, g in enumerate(order):
        remaining = len(order) - idx
        if (
            s < n_shards - 1
            and count_in_s > 0
            and (cum >= target * (s + 1) or remaining <= n_shards - 1 - s)
        ):
            s += 1
            count_in_s = 0
        assignment[g] = s
        count_in_s += 1
        cum += design.gates[g].width
    return assignment


def _cut_size_of(design: MappedDesign, assignment: dict[str, int]) -> int:
    """Channel crossings of an assignment (net x sink-shard pairs)."""
    total = 0
    for net, sinks in design.sinks_of.items():
        src = design.source_of.get(net)
        if src is None:
            continue
        total += len({assignment[g] for g, _ in sinks} - {assignment[src]})
    return total


#: "Infinite" capacity for closure/pinning edges: larger than any
#: possible cut (one unit per net), so these edges are never saturated.
_FLOW_INF = 1 << 30


def _min_cut_source_side(
    n_nodes: int, edges: list[tuple[int, int, int]], s: int, t: int
) -> set[int]:
    """Nodes on the source side of a minimum s-t cut (Dinic max-flow).

    ``edges`` are directed ``(u, v, capacity)`` triples.  Deterministic:
    the flow and the returned side depend only on the edge order.
    """
    # Adjacency of mutable [to, residual, reverse-index] triples.
    adj: list[list[list[int]]] = [[] for _ in range(n_nodes)]
    for u, v, cap in edges:
        adj[u].append([v, cap, len(adj[v])])
        adj[v].append([u, 0, len(adj[u]) - 1])
    while True:
        level = [-1] * n_nodes
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for e in adj[u]:
                if e[1] > 0 and level[e[0]] < 0:
                    level[e[0]] = level[u] + 1
                    queue.append(e[0])
        if level[t] < 0:
            break
        # Iterative blocking-flow DFS (windows can be hundreds of gates
        # deep — no recursion-limit surprises).
        it = [0] * n_nodes
        path: list[list[int]] = []
        u = s
        while True:
            if u == t:
                pushed = min(e[1] for e in path)
                for e in path:
                    e[1] -= pushed
                    adj[e[0]][e[2]][1] += pushed
                path = []
                u = s
                continue
            advanced = False
            while it[u] < len(adj[u]):
                e = adj[u][it[u]]
                if e[1] > 0 and level[e[0]] == level[u] + 1:
                    path.append(e)
                    u = e[0]
                    advanced = True
                    break
                it[u] += 1
            if advanced:
                continue
            if u == s:
                break  # the level graph is saturated: next BFS phase
            # Dead end: prune the node and retreat one edge (the pruned
            # level makes the predecessor's iterator skip this edge).
            level[u] = -1
            path.pop()
            u = path[-1][0] if path else s
    seen = {s}
    stack = [s]
    while stack:
        u = stack.pop()
        for e in adj[u]:
            if e[1] > 0 and e[0] not in seen:
                seen.add(e[0])
                stack.append(e[0])
    return seen


def _bisect_window(
    design: MappedDesign,
    window: list[str],
    k: int,
    pin: int,
) -> dict[str, int] | None:
    """One min-cut bisection of ``window`` into shards ``k`` / ``k+1``.

    Builds the classic net-splitting flow network — one unit of capacity
    per net a window gate sources, infinite-capacity closure edges from
    each reader back to its source so no cut can ever orient a net
    backwards — with the topologically earliest / latest ``pin`` gates
    pinned to their shard, and lets :func:`_min_cut_source_side` find
    the narrowest channel waist in between.
    """
    s_pinned = set(window[:pin])
    t_pinned = set(window[-pin:])
    wset = set(window)
    # Node ids: 0 = s, 1 = t, gates and nets numbered on first use.
    ids: dict[tuple[str, str], int] = {}

    def nid(kind: str, name: str) -> int:
        key = (kind, name)
        i = ids.get(key)
        if i is None:
            i = ids[key] = len(ids) + 2
        return i

    edges: list[tuple[int, int, int]] = []
    for g in window:
        if g in s_pinned:
            edges.append((0, nid("g", g), _FLOW_INF))
        if g in t_pinned:
            edges.append((nid("g", g), 1, _FLOW_INF))
    for gname in window:
        net = design.gates[gname].output
        readers = sorted(
            {r for r, _ in design.sinks_of.get(net, []) if r in wset}
        )
        if not readers:
            continue
        edges.append((nid("g", gname), nid("n", net), 1))
        for r in readers:
            edges.append((nid("n", net), nid("g", r), _FLOW_INF))
            # Closure: a reader on the source side forces its source
            # there too, so the cut can never orient the net backwards.
            edges.append((nid("g", r), nid("g", gname), _FLOW_INF))
    if not s_pinned or not t_pinned:
        return None
    s_side = _min_cut_source_side(len(ids) + 2, edges, 0, 1)
    return {
        g: (k if ids.get(("g", g), -1) in s_side else k + 1) for g in window
    }


def _side_fits(
    design: MappedDesign,
    window: list[str],
    candidate: dict[str, int],
    max_side: int,
) -> bool:
    """Placement-aware fit check: would both candidate sides still
    compile onto a ``max_side`` x ``max_side`` array?

    Estimates each side's required array with the same
    :func:`repro.pnr.flow.suggest_side` heuristic the per-shard flow
    uses — longest chain *within the side* (one topological DP over the
    window) plus its cell count — so the min-cut refinement never trades
    crossings for a shard the placer cannot host.
    """
    for side in (min(candidate.values()), max(candidate.values())):
        depth: dict[str, int] = {}
        cells = 0
        stateful = False
        deepest = 0
        for g in window:  # ``window`` is topologically ordered
            if candidate.get(g) != side:
                continue
            gate = design.gates[g]
            cells += gate.width
            stateful = stateful or gate.is_stateful
            d = 1
            for net in gate.inputs:
                src = design.source_of.get(net)
                if src is not None and candidate.get(src) == side:
                    sd = depth.get(src)
                    if sd is not None and sd + 1 > d:
                        d = sd + 1
            depth[g] = d
            if d > deepest:
                deepest = d
        if cells and suggest_side(deepest, cells, stateful) > max_side:
            return False
    return True


def _refine_boundary(
    design: MappedDesign,
    order: list[str],
    assignment: dict[str, int],
    k: int,
    max_side: int | None = None,
) -> None:
    """Min-cut refinement of the boundary between shards ``k`` and ``k+1``.

    Tries the bisection under several pin widths — looser pins give the
    max-flow more room to pull late-read gates (e.g. a level-0
    complement whose only readers sit far downstream) across the
    boundary, tighter pins guarantee balance — and keeps the candidate
    with the fewest total crossings among those whose smaller side
    still holds a quarter of the window's cells (and, when the flow
    compiles under an array-side cap, whose sides both still *fit* that
    cap by the placement-aware :func:`_side_fits` estimate).
    """
    window = [g for g in order if assignment[g] in (k, k + 1)]
    if len(window) < 4:
        return
    cells = {g: design.gates[g].width for g in window}
    window_cells = sum(cells.values())
    best: dict[str, int] | None = None
    best_cut = _cut_size_of(design, assignment)
    for num, den in ((1, 8), (1, 4), (3, 8)):
        pin = max(1, (num * len(window)) // den)
        candidate = _bisect_window(design, window, k, pin)
        if candidate is None:
            continue
        low = sum(c for g, c in cells.items() if candidate[g] == k)
        if not window_cells // 4 <= low <= window_cells - window_cells // 4:
            continue
        if max_side is not None and not _side_fits(
            design, window, candidate, max_side
        ):
            continue
        trial = dict(assignment)
        trial.update(candidate)
        cut = _cut_size_of(design, trial)
        if cut < best_cut:
            best, best_cut = candidate, cut
    if best is not None:
        assignment.update(best)


def _check_acyclic(design: MappedDesign, assignment: dict[str, int]) -> None:
    for g in design.gates.values():
        for net in g.inputs:
            src = design.source_of.get(net)
            if src is not None and assignment[src] > assignment[g.name]:
                raise PartitionError(
                    f"partition is cyclic: {src!r} (shard {assignment[src]}) "
                    f"feeds {g.name!r} (shard {assignment[g.name]})"
                )


def _subdesigns(
    design: MappedDesign, assignment: dict[str, int], n_shards: int
) -> tuple[list[MappedDesign], dict[str, tuple[int, tuple[int, ...]]]]:
    """Per-shard sub-designs plus the cut-net map."""
    cut: dict[str, tuple[int, tuple[int, ...]]] = {}
    for net, sinks in design.sinks_of.items():
        src = design.source_of.get(net)
        if src is None:
            continue
        src_shard = assignment[src]
        sink_shards = tuple(
            sorted({assignment[g] for g, _ in sinks} - {src_shard})
        )
        if sink_shards:
            cut[net] = (src_shard, sink_shards)
    # Declared outputs with no driving gate are input passthroughs; they
    # ride in shard 0 (any shard would do — they occupy no gate).
    passthrough = [n for n in design.outputs if n not in design.source_of]

    shards: list[MappedDesign] = []
    for i in range(n_shards):
        gates = {
            name: g for name, g in design.gates.items() if assignment[name] == i
        }
        read = {net for g in gates.values() for net in g.inputs}
        produced = {g.output for g in gates.values()}
        sub = MappedDesign(name=f"{design.name}.s{i}", gates=gates)
        sub.inputs = [n for n in design.inputs if n in read]
        if i == 0:
            sub.inputs += [n for n in passthrough if n not in sub.inputs]
        # Incoming channels, in first-read order for determinism.
        for g in gates.values():
            for net in g.inputs:
                if (
                    net in cut
                    and cut[net][0] != i
                    and net not in sub.inputs
                ):
                    sub.inputs.append(net)
        sub.outputs = [n for n in design.outputs if n in produced]
        if i == 0:
            sub.outputs += [n for n in passthrough if n not in sub.outputs]
        for g in gates.values():
            net = g.output
            if net in cut and cut[net][0] == i and net not in sub.outputs:
                sub.outputs.append(net)
        if design.reset_net is not None and design.reset_net in sub.inputs:
            sub.reset_net = design.reset_net
        sub._finalise()
        shards.append(sub)
    return shards, cut


def partition_design(
    design: MappedDesign,
    n_shards: int,
    *,
    refine: bool = True,
    max_side: int | None = None,
) -> Partition:
    """Split a mapped design into ``n_shards`` acyclic shards.

    Seeds with contiguous chunks of the topological order (balanced by
    cell count — chunking a topological order makes the shard graph
    acyclic for free), then runs the min-cut refinement over every
    adjacent boundary; with ``max_side`` set, refinement only accepts
    cuts whose sides still fit a ``max_side``-capped array by the
    placement-aware estimate.  Raises :class:`PartitionError` when the
    request is impossible (more shards than gates).
    """
    if n_shards < 1:
        raise PartitionError(f"n_shards must be >= 1, got {n_shards}")
    if n_shards > max(1, design.n_gates):
        raise PartitionError(
            f"cannot split {design.n_gates} gates into {n_shards} shards"
        )
    order = level_order(design)
    assignment = _initial_chunks(design, order, n_shards)
    if refine and n_shards > 1:
        for k in range(n_shards - 1):
            _refine_boundary(design, order, assignment, k, max_side=max_side)
    _check_acyclic(design, assignment)
    shards, cut = _subdesigns(design, assignment, n_shards)
    if design.n_gates and any(not s.gates for s in shards):
        raise PartitionError(
            f"refinement emptied a shard of {design.name!r}"
        )  # pragma: no cover - pinning keeps every shard populated
    return Partition(
        design=design,
        n_shards=n_shards,
        assignment=assignment,
        shards=shards,
        cut_nets=cut,
    )


def shard_source_netlist(sub: MappedDesign) -> Netlist:
    """A sub-design re-expressed in the netlist IR.

    Mapped gates translate one-to-one (``nand`` rows back to ``nand``
    cells, pairs back to ``celement`` / ``eventlatch``), so each shard
    carries an independently verifiable reference netlist — this is
    what the per-shard :class:`repro.pnr.flow.PnrResult.source` holds.
    """
    nl = Netlist(sub.name)
    for net in sub.inputs:
        nl.add_input(net)
    for g in sub.gates.values():
        if g.kind == PRODUCT_NAND:
            nl.add("nand", g.name, list(g.inputs), g.output, delay=g.source_delay)
        elif g.kind == PRODUCT_AND:
            nl.add("and", g.name, list(g.inputs), g.output, delay=g.source_delay)
        elif g.kind == CONST_GATE:
            nl.add("const", g.name, [], g.output, delay=g.source_delay,
                   value=g.value)
        elif g.kind == PAIR_CELEMENT:
            # A 3rd pin is the synthesised active-low reset — that is
            # the fabric realisation of init=0.
            init = ZERO if len(g.inputs) == 3 else X
            nl.add("celement", g.name, list(g.inputs[:2]), g.output,
                   delay=g.source_delay, init=init)
        elif g.kind == PAIR_EVENTLATCH:
            din, req, _rn, ack, _an = g.inputs
            nl.add("eventlatch", g.name, [din, req, ack], g.output,
                   delay=g.source_delay)
        else:  # pragma: no cover - kinds are closed
            raise PartitionError(f"gate {g.name!r}: unknown kind {g.kind!r}")
    for net in sub.outputs:
        nl.add_output(net)
    return nl


# ----------------------------------------------------------------------
# The sharded result
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ShardedPnrStats:
    """Aggregate quality numbers of a sharded compile."""

    n_shards: int
    n_gates: int
    cut_nets: int
    #: Channel crossings: a net fanning into two shards counts twice.
    cut_size: int
    wirelength: int
    cells_logic: int
    cells_route: int
    max_array_side: int
    cycle_time: int = 0
    logic_delay: int = 0
    worst_slack: int = 0

    @property
    def cells_used(self) -> int:
        """Cells configured across every shard array."""
        return self.cells_logic + self.cells_route


@lazy_fields
@dataclass
class ShardedPnrResult:
    """One design compiled across several chiplet arrays.

    ``shards[i]`` is an ordinary :class:`repro.pnr.flow.PnrResult` — its
    array, bitstream, placement and per-shard timing all behave exactly
    as in the single-array flow (each shard's ``source`` is the
    sub-design re-expressed in the IR, so combinational shards even
    verify individually).  ``channels`` carries the inter-array wiring;
    ``timing`` is the composed system report (per-shard critical paths
    plus channel crossing delays).
    """

    source: Netlist
    design: MappedDesign
    partition: Partition
    shards: list[PnrResult]
    channels: list[InterArrayChannel]
    stats: ShardedPnrStats
    timing: TimingReport | None = None

    @property
    def n_shards(self) -> int:
        """Number of chiplet arrays."""
        return len(self.shards)

    @property
    def arrays(self) -> list[CellArray]:
        """The configured per-shard arrays."""
        return [s.array for s in self.shards]

    @property
    def input_wires(self) -> dict[str, dict[int, str]]:
        """Source input net -> {shard index: entry wire} (fan-out shards)."""
        chan = {c.net for c in self.channels}
        out: dict[str, dict[int, str]] = {}
        for i, shard in enumerate(self.shards):
            for net, wire in shard.input_wires.items():
                if net not in chan:
                    out.setdefault(net, {})[i] = wire
        return out

    @property
    def output_wires(self) -> dict[str, tuple[int, str]]:
        """Source output net -> (owning shard, observable wire)."""
        out: dict[str, tuple[int, str]] = {}
        for net in self.design.outputs:
            src = self.design.source_of.get(net)
            i = self.partition.assignment[src] if src is not None else 0
            wire = self.shards[i].output_wires.get(net)
            if wire is not None:
                out[net] = (i, wire)
        return out

    @property
    def reset_wires(self) -> dict[int, str]:
        """Per-shard active-low reset entry wires (stateful shards only)."""
        return {
            i: s.reset_wire
            for i, s in enumerate(self.shards)
            if s.reset_wire is not None
        }

    # -- simulation hooks ----------------------------------------------
    def stages(self) -> list[ShardStage]:
        """The staged-evaluation pipeline: one stage per shard.

        External names are source-design nets, so
        :func:`repro.netlist.evaluate_staged` stitches channel values
        between shards automatically.
        """
        return [
            ShardStage(
                netlist=shard.fabric_netlist().netlist,
                input_map=dict(shard.input_wires),
                output_map=dict(shard.output_wires),
            )
            for shard in self.shards
        ]

    def evaluate_batch(self, stimuli, outputs=None) -> dict[str, np.ndarray]:
        """Bit-parallel evaluation, one independent sweep per shard.

        ``stimuli`` and the result are keyed by *source-design* net
        names; channel values are stitched between shards.  Only
        meaningful for combinational designs (stateful shards would
        reset between vectors).
        """
        if outputs is None:
            outputs = list(self.output_wires)
        return evaluate_staged(
            self.stages(), stimuli, outputs=outputs, backend=BatchBackend()
        )

    def to_netlist(self) -> Netlist:
        """The whole system flattened to one IR netlist.

        Every shard's configured array is lowered and instantiated under
        a ``shard{i}`` prefix with its entry wires bound to source-design
        net names; each channel becomes a ``buf`` of the crossing delay.
        Drive and observe source-level net names on either backend.
        """
        merged = Netlist(f"{self.source.name}.x{self.n_shards}")
        for net in self.design.inputs:
            merged.add_input(net)
        for i, shard in enumerate(self.shards):
            fn = shard.fabric_netlist()
            bindings = {wire: net for net, wire in shard.input_wires.items()}
            merged.instantiate(fn.netlist, f"shard{i}", bindings=bindings)
        for ch in self.channels:
            ch.splice(
                merged, f"shard{ch.source_shard}.{ch.source_wire}", ch.net
            )
        chan_nets = {c.net for c in self.channels}
        for net in self.design.outputs:
            if net not in chan_nets and net not in self.design.inputs:
                owner = self.output_wires.get(net)
                if owner is not None:
                    i, wire = owner
                    merged.add("buf", f"out.{net}", [f"shard{i}.{wire}"], net)
            merged.add_output(net)
        return merged

    def to_bitstreams(self) -> list:
        """Per-shard configuration bitstreams, shard order."""
        return [s.to_bitstream() for s in self.shards]

    def to_blob(self) -> bytes:
        """Versioned, pickle-free bytes; see :mod:`repro.pnr.artifact`."""
        from repro.pnr.artifact import encode_result

        return encode_result(self)

    @classmethod
    def from_blob(cls, blob: bytes) -> ShardedPnrResult:
        """Decode :meth:`to_blob` output (``ValueError`` on anything else)."""
        from repro.pnr.artifact import decode_result

        result, _ = decode_result(blob)
        if not isinstance(result, cls):
            raise ValueError(
                f"blob holds {type(result).__name__}, not {cls.__name__}"
            )
        return result

    # -- equivalence ----------------------------------------------------
    def verify(
        self,
        n_vectors: int = 1024,
        seed: int = 0,
        event_vectors: int = 16,
    ) -> dict[str, object]:
        """Prove the sharded system matches its source netlist.

        Batch path: each shard swept independently with stitched channel
        values (:meth:`evaluate_batch`).  Event path: the flattened
        :meth:`to_netlist` replayed on the reference scheduler.  Both
        compared against the source netlist's response; raises
        :class:`repro.pnr.flow.VerificationError` on the first mismatch.
        """
        if self.design.has_stateful_gates():
            raise VerificationError(
                "random-vector equivalence needs a combinational design; "
                "drive the stateful shards with event sequences instead"
            )
        out_map = self.output_wires
        if not out_map:
            raise VerificationError("the source netlist declares no outputs")
        src_inputs = [
            n for n in self.design.inputs if n != self.design.reset_net
        ]
        if not src_inputs:
            return self._verify_constant()
        out_names = list(out_map)

        def run_event(stimuli):
            merged = self.to_netlist()
            ev_stim = dict(stimuli)
            zeros = np.zeros(len(next(iter(stimuli.values()))), dtype=np.uint8)
            for name in merged.free_inputs():
                ev_stim.setdefault(name, zeros)
            return EventBackend().evaluate(merged, ev_stim, outputs=out_names)

        n_batch, n_event = _sweep_equivalence(
            self.source, src_inputs, out_names,
            lambda stimuli: self.evaluate_batch(stimuli, outputs=out_names),
            run_event, n_vectors, seed, event_vectors,
        )
        return {
            "vectors_batch": n_batch,
            "vectors_event": n_event,
            "outputs": len(out_map),
            "shards": self.n_shards,
            "ok": True,
        }

    def _verify_constant(self) -> dict[str, object]:
        _settle_compare(
            self.source,
            self.to_netlist(),
            [(net, net, "") for net in self.output_wires],
        )
        return {
            "vectors_batch": 0,
            "vectors_event": 1,
            "outputs": len(self.output_wires),
            "shards": self.n_shards,
            "ok": True,
        }


# ----------------------------------------------------------------------
# The sharded compile flow
# ----------------------------------------------------------------------

def _estimate_side(design: MappedDesign, n_shards: int) -> int:
    """Predicted per-shard array side (``suggest_side`` over 1/n of the design)."""
    depth = max(gate_levels(design).values(), default=0) + 1
    return suggest_side(
        math.ceil(depth / n_shards),
        math.ceil(design.n_cells / n_shards),
        design.has_stateful_gates(),
    )


def _resolve_channels(
    partition: Partition, results: list[PnrResult], states: list[RoutingState]
) -> list[InterArrayChannel]:
    channels = []
    for net in sorted(partition.cut_nets):
        src, sinks = partition.cut_nets[net]
        src_res = results[src]
        route = src_res.routes.get(net)
        src_wire_name = src_res.output_wires.get(net)
        if route is None or src_wire_name is None:
            raise PnrError(
                f"channel net {net!r} has no observable wire on shard {src}"
            )
        # output_wires[net] is wire_name(*driven[0]) — see flow._finish.
        driven = [w for w in route.wires if w != route.entry_wire]
        source_cell = states[src].driver_cell_of(driven[0]) if driven else None
        sink_wires = {}
        for t in sinks:
            entry = results[t].input_wires.get(net)
            if entry is None:
                raise PnrError(
                    f"channel net {net!r} has no entry wire on shard {t}"
                )
            sink_wires[t] = entry
        channels.append(
            InterArrayChannel(
                net=net,
                source_shard=src,
                sink_shards=sinks,
                source_wire=src_wire_name,
                sink_wires=sink_wires,
                source_cell=source_cell,
                delay=CHANNEL_DELAY,
            )
        )
    return channels


def _system_timing(
    design: MappedDesign,
    partition: Partition,
    results: list[PnrResult],
    states: list[RoutingState],
    channels: list[InterArrayChannel],
    target_period: int | None,
) -> TimingReport:
    """Compose per-shard routed STA into one system report.

    Two sweeps over the shard DAG.  Forward: each shard is analysed
    with its channel nets launching at the upstream shard's capture
    time plus the crossing delay, so the worst capture anywhere is the
    system cycle time.  Backward: each shard is re-analysed with its
    outgoing channels' *tails* — the crossing delay plus the sink
    shards' own downstream delay — seeded into the backward pass, so
    per-net ``path_through`` (and the slacks/criticality derived from
    it) measure the true launch-to-final-capture path across every
    boundary, not just the local shard.  The critical path is stitched
    back across channels with :func:`repro.pnr.timing.trace_endpoint`.
    """
    ideal = analyze_timing(design)
    logic_delay = ideal.cycle_time
    period = logic_delay if target_period is None else int(target_period)
    by_net = {ch.net: ch for ch in channels}
    n = len(results)
    # Forward sweep: system-level input arrivals per shard.
    reports: list[TimingReport] = []
    arrivals_in: list[dict[str, int]] = []
    for i, res in enumerate(results):
        in_arr = {
            ch.net: reports[ch.source_shard].output_arrivals[ch.net] + ch.delay
            for ch in channels
            if i in ch.sink_shards
        }
        arrivals_in.append(in_arr)
        reports.append(
            analyze_timing(
                res.design, res.placement,
                state=states[i], routes=res.routes,
                target_period=period, input_arrivals=in_arr or None,
            )
        )
    # Backward sweep: system-level downstream tails per shard (sinks
    # come after their source, so reverse order resolves every tail).
    for i in range(n - 1, -1, -1):
        tails = {}
        for ch in channels:
            if ch.source_shard != i:
                continue
            tails[ch.net] = max(
                ch.delay
                + reports[t].path_through[ch.net]
                - reports[t].arrivals[ch.net]
                for t in ch.sink_shards
            )
        if not tails:
            continue
        res = results[i]
        reports[i] = analyze_timing(
            res.design, res.placement,
            state=states[i], routes=res.routes,
            target_period=period, input_arrivals=arrivals_in[i] or None,
            output_tails=tails,
        )
    worst = max(range(n), key=lambda i: (reports[i].cycle_time, -i))
    cycle = reports[worst].cycle_time
    steps = list(reports[worst].critical_path)
    # Stitch upstream shard segments in front of every channel launch.
    while steps and steps[0].kind == "launch" and steps[0].name in by_net:
        ch = by_net[steps[0].name]
        src = ch.source_shard
        up = trace_endpoint(
            results[src].design, results[src].placement,
            state=states[src], routes=results[src].routes,
            input_arrivals=arrivals_in[src] or None, endpoint=ch.net,
        )
        crossing = PathStep(
            "channel", ch.net, None, ch.delay, steps[0].arrival
        )
        steps = up + [crossing] + steps[1:]
    merged: dict[str, dict] = {
        "arrivals": {}, "path_through": {}, "output_arrivals": {},
    }
    for rep in reports:
        for key in merged:
            for net, v in getattr(rep, key).items():
                if v > merged[key].get(net, float("-inf")):
                    merged[key][net] = v
    # Slack and criticality derive from the *system* path and cycle (a
    # channel net appears in two shard reports; its path_through is the
    # backward-swept source-side value, the larger of the two).
    path_through = merged["path_through"]
    slacks = {net: period - p for net, p in path_through.items()}
    criticality = {
        net: min(1.0, p / cycle) if cycle > 0 else 0.0
        for net, p in path_through.items()
    }
    return TimingReport(
        mode="sharded",
        cycle_time=cycle,
        logic_delay=logic_delay,
        target_period=period,
        worst_slack=period - cycle,
        endpoint=f"shard{worst}:{reports[worst].endpoint}",
        critical_path=steps,
        arrivals=merged["arrivals"],
        path_through=path_through,
        slacks=slacks,
        criticality=criticality,
        output_arrivals=merged["output_arrivals"],
    )


def _compile_shards(
    partition: Partition,
    *,
    seed: int,
    anneal_steps: int | None,
    max_attempts: int,
    target_period: int | None,
    max_side: int | None,
    workers: int | None,
) -> list[tuple[PnrResult, RoutingState]]:
    """Compile every shard of a partition, concurrently when asked.

    Per-shard place/route/time/emit are fully independent — each shard
    has its own sub-design, seed (``seed + 101 * i``), RNG, array and
    routing state — so they fan out through
    :func:`repro.pnr.parallel.parallel_map` on a thread pool
    (``workers=None`` auto-sizes it to ``min(shards, cpu_count)``;
    ``0``/``1`` compile serially).  Results, each with its router's
    final state (kept in-process for system timing and channel
    attribution, never persisted), are returned in shard order and are
    bit-identical for any worker count; the first shard failure
    propagates as :class:`repro.pnr.flow.PnrError`.
    """

    def compile_one(item: tuple[int, MappedDesign]):
        i, sub = item
        return _compile_mapped(
            sub, shard_source_netlist(sub),
            seed=seed + 101 * i, anneal_steps=anneal_steps,
            max_attempts=max_attempts, target_period=target_period,
            max_side=max_side,
        )

    return parallel_map(compile_one, enumerate(partition.shards), workers)


def compile_sharded(
    netlist: Netlist,
    n_shards: int | None = None,
    *,
    max_side: int | None = None,
    seed: int = 0,
    anneal_steps: int | None = None,
    max_attempts: int = 6,
    target_period: int | None = None,
    refine: bool = True,
    workers: int | None = None,
) -> ShardedPnrResult:
    """Compile one netlist across several chiplet cell arrays.

    Either pass an explicit ``n_shards``, or pass ``max_side`` (the
    largest array a chiplet offers) and let the flow pick the smallest
    shard count whose per-shard arrays fit — growing it further when a
    shard still fails to place/route under the cap.  ``workers`` sets
    the ``concurrent.futures`` pool width for the independent per-shard
    compiles; the default ``None`` auto-selects ``min(shards,
    os.cpu_count())``, ``0``/``1`` compile serially (the exact
    debugging path), and results are bit-identical for any worker
    count.  All other knobs match :func:`repro.pnr.flow.compile_to_fabric`
    and apply per shard.

    Returns a :class:`ShardedPnrResult`; raises
    :class:`repro.pnr.flow.PnrError` (or :class:`PartitionError`) when
    the design cannot be mapped, partitioned, or compiled.
    """
    if n_shards is None and max_side is None:
        raise PnrError("compile_sharded needs n_shards or max_side")
    design = _map_design(netlist)
    max_shards = max(1, design.n_gates)  # a gateless passthrough still ships
    if n_shards is None:
        n0 = 1
        while n0 < max_shards and _estimate_side(design, n0) > max_side:
            n0 += 1
    else:
        if not 1 <= n_shards <= max_shards:
            raise PartitionError(
                f"n_shards must be in 1..{max_shards}, got {n_shards}"
            )
        n0 = n_shards
    auto = n_shards is None
    last_error: Exception | None = None
    grow_budget = 8
    n_hi = min(max_shards, n0 + grow_budget)
    for n in range(n0, n_hi + 1):
        partition = partition_design(design, n, refine=refine, max_side=max_side)
        try:
            compiled = _compile_shards(
                partition, seed=seed, anneal_steps=anneal_steps,
                max_attempts=max_attempts, target_period=target_period,
                max_side=max_side, workers=workers,
            )
        except PnrError as e:
            last_error = e
            if auto:
                continue  # more shards -> smaller shards -> may fit
            raise
        results = [res for res, _ in compiled]
        states = [state for _, state in compiled]
        channels = _resolve_channels(partition, results, states)
        timing = _system_timing(
            design, partition, results, states, channels, target_period
        )
        stats = ShardedPnrStats(
            n_shards=n,
            n_gates=design.n_gates,
            cut_nets=len(channels),
            cut_size=partition.cut_size,
            wirelength=sum(r.stats.wirelength for r in results),
            cells_logic=sum(r.stats.cells_logic for r in results),
            cells_route=sum(r.stats.cells_route for r in results),
            max_array_side=max(r.array.n_rows for r in results),
            cycle_time=timing.cycle_time,
            logic_delay=timing.logic_delay,
            worst_slack=timing.worst_slack,
        )
        return ShardedPnrResult(
            source=netlist,
            design=design,
            partition=partition,
            shards=results,
            channels=channels,
            stats=stats,
            timing=timing,
        )
    raise PnrError(
        f"could not compile {netlist.name!r} across chiplets of side "
        f"<= {max_side}: {last_error}"
    ) from last_error
