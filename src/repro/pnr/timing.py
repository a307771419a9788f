"""Stage 3½ — static timing analysis over the placed-and-routed design.

The paper's performance case is built from per-row NAND delays: every
gate the flow emits is physically one (or, for the stateful pairs, two)
NAND rows terminated in a driver, and every routed hop is one more row.
This module composes exactly those constants — ``ROW_DELAY`` and
``DRIVER_DELAY`` from :mod:`repro.fabric` — into arrival times, required
times, worst slack, and an achievable cycle time for a compiled design.
``docs/timing-model.md`` specifies the model; the summary:

* a product/const gate costs ``ROW_DELAY + DRIVER_DELAY[mode]`` from its
  latest input to each fan-out wire (3 units);
* a routed feed-through hop costs ``ROW_DELAY + DRIVER_DELAY[INVERT]``
  (3 units) per wire — the router's per-net wire counts are the wire
  delay;
* a stateful pair costs two rows and two drivers forward (6 units) and
  acts as a *timing endpoint*: paths are captured at its input pins and
  relaunched from its output, exactly like a register in synchronous STA;
* primary inputs launch at t=0 on their entry wires; primary outputs and
  pair inputs capture.

The cycle time is the worst capture arrival; the default ``target_period``
is the design's **ideal-wire logic depth** (the same analysis with every
wire delay zero), so the reported worst slack is the price of routing.
Per-net criticality (longest path through the net / cycle time) is
reported alongside, so a caller can see which nets set the cycle time.

Quickstart — compile a 4-bit adder and read its timing:

>>> from repro.datapath.adder import ripple_carry_netlist
>>> from repro.pnr import compile_to_fabric
>>> result = compile_to_fabric(ripple_carry_netlist(4), seed=0)
>>> t = result.timing
>>> t.cycle_time >= t.logic_delay > 0        # routing never beats ideal wires
True
>>> t.critical_path[-1].arrival == t.cycle_time
True
>>> 0 >= t.worst_slack == t.target_period - t.cycle_time
True
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fabric.array import ROW_DELAY
from repro.fabric.driver import DRIVER_DELAY, DriverMode
from repro.fabric.nandcell import N_INPUTS
from repro.pnr.place import Placement, level_order
from repro.pnr.techmap import MappedDesign

#: Delay of one routed feed-through hop: a single-input NAND row plus its
#: INVERT driver (the buffer the router burns per wire).
HOP_DELAY: int = ROW_DELAY + DRIVER_DELAY[DriverMode.INVERT]


class TimingError(RuntimeError):
    """The design cannot be timed (inconsistent routing state)."""


@dataclass(frozen=True, slots=True)
class PathStep:
    """One traceable segment of the critical path.

    ``kind`` is ``launch`` (a primary input or pair output), ``gate`` /
    ``pair`` (a mapped gate, ``delay`` = its fabric delay), ``wire`` (the
    routed hops carrying a net to the next pin) or ``capture`` (the
    endpoint).  ``cell`` is the grid position when a placement was
    analysed, else ``None``; ``arrival`` is the time the signal leaves
    the segment.
    """

    kind: str
    name: str
    cell: tuple[int, int] | None
    delay: int
    arrival: int


@dataclass
class TimingReport:
    """Static timing of one compiled design.

    ``mode`` records how wire delays were obtained: ``logic`` (zero
    wires) or ``routed`` (exact per-net routed wire counts); the sharded
    flow's system report says ``sharded``.  ``arrivals`` maps each net
    to the time its driving wire settles; ``path_through`` to the
    longest launch-to-capture path passing through it; ``slacks`` to ``target_period -
    path_through``; ``criticality`` to ``path_through / cycle_time`` in
    [0, 1] (1.0 on the critical path).
    """

    mode: str
    cycle_time: int
    logic_delay: int
    target_period: int
    worst_slack: int
    endpoint: str
    critical_path: list[PathStep] = field(default_factory=list)
    arrivals: dict[str, int] = field(default_factory=dict)
    path_through: dict[str, int] = field(default_factory=dict)
    slacks: dict[str, int] = field(default_factory=dict)
    criticality: dict[str, float] = field(default_factory=dict)
    #: Capture time of each declared output (launch plus its output-wire
    #: delay) — what a downstream consumer sees.  The sharded flow reads
    #: these to launch inter-array channels (see ``repro.pnr.partition``).
    output_arrivals: dict[str, int] = field(default_factory=dict)

    @property
    def wire_delay(self) -> int:
        """Cycle-time units spent in routed wire, not logic."""
        return self.cycle_time - self.logic_delay

    def format(self) -> str:
        """Multi-line human-readable summary (examples, docs)."""
        lines = [
            f"cycle time {self.cycle_time} units "
            f"(logic {self.logic_delay} + wire {self.wire_delay}), "
            f"worst slack {self.worst_slack:+d} vs target {self.target_period} "
            f"[{self.mode}]",
            f"critical path (endpoint {self.endpoint!r}):",
        ]
        for step in self.critical_path:
            at = "" if step.cell is None else f"  cell {step.cell}"
            lines.append(
                f"  {step.kind:<8} {step.name:<24} +{step.delay:<3d} "
                f"@{step.arrival}{at}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Wire-delay extraction
# ----------------------------------------------------------------------

def _wire_delays(
    design: MappedDesign,
    placement: Placement | None,
    state,
    routes,
) -> tuple[dict[tuple[str, int], int], dict[str, int], str]:
    """Per-sink and per-output wire delays, plus the analysis mode.

    Routed mode reads the feed-through hop depth the router recorded for
    each sink's landing wire (and each output's first driven wire) when
    it committed or replayed the net; logic mode prices every wire at
    zero.
    """
    if state is None or routes is None:
        return {}, {}, "logic"
    stride = state.n_cols + 1
    # Each gate's input cell as the id of its column-0 wire.
    base = {
        g: (r * stride + c) * N_INPUTS
        for g, (r, c) in (placement or state.placement).positions.items()
    }
    keys = [key for route in routes.values() for key in route.sink_cols]
    wires = [
        base[g] + col
        for route in routes.values() for (g, _), col in route.sink_cols.items()
    ]
    outs, taps = [], []
    out_delay: dict[str, int] = {}
    for net in design.outputs:
        route = routes.get(net)
        if route is not None:
            # The exported tap is the first driven wire — the one
            # flow._finish records in output_wires and the sharded
            # flow splices into inter-array channels.  Deeper
            # branches of the tree serve internal sinks, whose own
            # pin arrivals already price them.
            driven = [w for w in route.wires if w != route.entry_wire]
            if driven:
                r, c, i = driven[0]
                outs.append(net)
                taps.append((r * stride + c) * N_INPUTS + i)
            else:
                out_delay[net] = 0
    depth = state.depth
    out_delay.update(zip(outs, (depth[taps] * HOP_DELAY).tolist()))
    sink_delay = dict(zip(keys, (depth[wires] * HOP_DELAY).tolist()))
    return sink_delay, out_delay, "routed"


# ----------------------------------------------------------------------
# The analysis
# ----------------------------------------------------------------------

def _gate_facts(design: MappedDesign) -> list[tuple]:
    """``(name, inputs, output, is_stateful, fabric_delay)`` per gate in
    propagation order (by level, then name); cached per design."""
    def compute(d):
        return [
            (n, g.inputs, g.output, g.is_stateful, g.fabric_delay)
            for n in level_order(d)
            for g in (d.gates[n],)
        ]

    return design.memo("sta_facts", compute)


def _logic_delay(design: MappedDesign) -> int:
    """The ideal-wire cycle time: every wire priced at zero.

    :func:`_propagate` with no wire delays and no input arrivals,
    keeping only the worst capture.
    """
    launch = dict.fromkeys(design.inputs, 0)
    worst = 0
    at = launch.get
    # Plain loops: per gate, a comprehension or ``max(map(...))`` costs
    # several times the work it wraps.  Launches are never negative.
    for _, inputs, output, stateful, delay in _gate_facts(design):
        latest = 0
        for net in inputs:
            t = at(net, 0)
            if t > latest:
                latest = t
        if stateful:
            worst = max(worst, latest)  # captured at the pair's pins
            launch[output] = delay
        else:
            launch[output] = latest + delay
    for net in design.outputs:
        if net in launch:
            worst = max(worst, launch[net])
    return worst


def _propagate(design, sink_delay, out_delay, input_arrivals=None):
    """Forward pass: launch times and capture events.

    A pin's arrival is its net's launch plus its wire delay; launches
    never change once read, since gates go in level order.
    """
    input_arrivals = input_arrivals or {}
    launch: dict[str, int] = {
        net: int(input_arrivals.get(net, 0)) for net in design.inputs
    }
    captures: list[tuple[int, str, str, str | None, int | None]] = []
    at, wire = launch.get, sink_delay.get
    for gname, inputs, output, stateful, delay in _gate_facts(design):
        if stateful:
            for pin, net in enumerate(inputs):
                a = at(net, 0) + wire((gname, pin), 0)
                captures.append((a, "pair", net, gname, pin))
            launch[output] = delay
            continue
        latest = None
        for pin, net in enumerate(inputs):
            a = at(net, 0) + wire((gname, pin), 0)
            if latest is None or a > latest:
                latest = a
        launch[output] = (latest or 0) + delay
    for net in design.outputs:
        if net in launch:
            captures.append(
                (launch[net] + out_delay.get(net, 0), "output", net, None, None)
            )
    return launch, captures



def analyze_timing(
    design: MappedDesign,
    placement: Placement | None = None,
    *,
    state=None,
    routes=None,
    target_period: int | None = None,
    input_arrivals: dict[str, int] | None = None,
    output_tails: dict[str, int] | None = None,
) -> TimingReport:
    """Static timing analysis of a mapped (optionally placed/routed) design.

    Parameters
    ----------
    design:
        The mapped design (stage 1 output).
    placement:
        Gate positions, which locate the critical path's cells.
    state, routes:
        The router's :class:`repro.pnr.route.RoutingState` (its per-wire
        hop depths) and route map; together they enable exact per-net
        routed wire counts (this is the mode the flow reports).
    target_period:
        Required cycle time.  Defaults to the design's ideal-wire logic
        depth, so the default worst slack is ``-(wire delay on the
        critical path)`` — the price paid for routing.
    input_arrivals:
        Launch time of each primary input (default 0).  The sharded
        compile flow passes upstream shard capture times plus the
        channel crossing delay here, composing per-shard analyses into
        one system report (see :mod:`repro.pnr.partition`).
    output_tails:
        Extra downstream delay beyond each declared output's capture
        (default 0) — the backward-pass twin of ``input_arrivals``.
        The sharded flow seeds a channel net's tail with the crossing
        delay plus the sink shards' own downstream delay, so per-net
        ``path_through`` / ``slacks`` / ``criticality`` describe the
        whole system, not just the local shard.  Does not affect the
        cycle time or the capture events.

    Returns a :class:`TimingReport`.  Raises
    :class:`repro.pnr.place.PlacementError` if the gate graph has
    feedback (the monotone fabric cannot route it anyway).
    """
    sink_delay, out_delay, mode = _wire_delays(design, placement, state, routes)

    launch, captures = _propagate(
        design, sink_delay, out_delay, input_arrivals
    )
    cycle = max((c[0] for c in captures), default=0)
    logic_delay = cycle
    if mode != "logic" or input_arrivals:
        logic_delay = design.memo("logic_delay", _logic_delay)
    period = logic_delay if target_period is None else int(target_period)

    # Backward pass: longest downstream delay from each net's launch point.
    tails = output_tails or {}
    downstream: dict[str, int] = {
        net: out_delay.get(net, 0) + tails.get(net, 0)
        for net in design.outputs
    }
    below, wire = downstream.get, sink_delay.get
    for gname, inputs, output, stateful, delay in reversed(_gate_facts(design)):
        if stateful:
            tail = 0  # paths capture at the pair's pins
        else:
            tail = delay + below(output, 0)
        for pin, net in enumerate(inputs):
            cand = wire((gname, pin), 0) + tail
            if cand > below(net, 0):
                downstream[net] = cand

    path_through = {net: at + below(net, 0) for net, at in launch.items()}
    slacks = {net: period - p for net, p in path_through.items()}
    criticality = {
        net: min(1.0, p / cycle) if cycle > 0 else 0.0
        for net, p in path_through.items()
    }

    steps, endpoint = _trace_critical_path(
        design, placement, launch, sink_delay, out_delay, captures
    )
    return TimingReport(
        mode=mode,
        cycle_time=cycle,
        logic_delay=logic_delay,
        target_period=period,
        worst_slack=period - cycle,
        endpoint=endpoint,
        critical_path=steps,
        arrivals=launch,
        path_through=path_through,
        slacks=slacks,
        criticality=criticality,
        output_arrivals={
            net: launch[net] + out_delay.get(net, 0)
            for net in design.outputs
            if net in launch
        },
    )


def trace_endpoint(
    design: MappedDesign,
    placement: Placement | None = None,
    *,
    state=None,
    routes=None,
    input_arrivals: dict[str, int] | None = None,
    endpoint: str,
) -> list[PathStep]:
    """The longest path ending at one declared output, as traceable steps.

    Same propagation as :func:`analyze_timing`, but the trace targets
    ``endpoint`` (an output net) instead of the worst capture overall —
    the sharded flow stitches per-shard segments into a cross-array
    critical path with this.  Raises :class:`TimingError` when
    ``endpoint`` is not a reachable declared output.
    """
    sink_delay, out_delay, _ = _wire_delays(design, placement, state, routes)
    launch, _ = _propagate(design, sink_delay, out_delay, input_arrivals)
    if endpoint not in design.outputs or endpoint not in launch:
        raise TimingError(
            f"{endpoint!r} is not a reachable declared output of "
            f"{design.name!r}"
        )
    capture = (
        launch[endpoint] + out_delay.get(endpoint, 0),
        "output", endpoint, None, None,
    )
    steps, _ = _trace_critical_path(
        design, placement, launch, sink_delay, out_delay, [capture]
    )
    return steps


def _trace_critical_path(
    design, placement, launch, sink_delay, out_delay, captures
):
    """Walk the worst capture back to its launch point, collecting steps."""
    if not captures:
        return [], ""
    arrival, kind, net, gname, pin = max(captures, key=lambda c: (c[0], c[2]))
    steps: list[PathStep] = []
    if kind == "output":
        endpoint = net
        steps.append(
            PathStep("capture", net, None, out_delay.get(net, 0), arrival)
        )
    else:
        endpoint = f"{gname}[{pin}]"
        cell = (
            placement.input_cell(design.gates[gname]) if placement is not None else None
        )
        steps.append(
            PathStep(
                "capture", endpoint, cell, sink_delay.get((gname, pin), 0), arrival
            )
        )
    current = net
    while True:
        src = design.source_of.get(current)
        if src is None:
            steps.append(PathStep("launch", current, None, 0, launch.get(current, 0)))
            break
        gate = design.gates[src]
        cell = placement.output_cell(gate) if placement is not None else None
        steps.append(
            PathStep(
                "pair" if gate.is_stateful else "gate",
                src,
                cell,
                gate.fabric_delay,
                launch[current],
            )
        )
        if gate.is_stateful or not gate.inputs:
            break
        best_pin, best = 0, None  # the first latest pin
        for p, net in enumerate(gate.inputs):
            a = launch.get(net, 0) + sink_delay.get((src, p), 0)
            if best is None or a > best:
                best_pin, best = p, a
        prev = gate.inputs[best_pin]
        wire = sink_delay.get((src, best_pin), 0)
        if wire:
            in_cell = placement.input_cell(gate) if placement is not None else None
            steps.append(PathStep("wire", prev, in_cell, wire, best))
        current = prev
    steps.reverse()
    return steps, endpoint
