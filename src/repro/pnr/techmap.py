"""Stage 1 — technology mapping: netlist IR cells to NAND-cell gates.

The polymorphic cell offers exactly one combinational primitive — the
6-wide NAND row — terminated in a driver that either passes the row value
(BUFFER: the NAND) or complements it (INVERT: the AND), plus the
local-feedback pair idiom for state (paper Fig. 9).  This module lowers an
arbitrary :class:`repro.netlist.Netlist` onto that vocabulary:

* ``nand`` / ``not``       -> a product row with a BUFFER driver;
* ``and`` / ``buf``        -> a product row with an INVERT driver;
* ``or`` / ``nor``         -> De Morgan through shared complement gates;
* ``xor``                  -> the two-product NAND-NAND form;
* ``table``                -> a Quine-McCluskey cover
  (:func:`repro.synth.qm.minimise`) mapped NAND-NAND, exactly the
  :func:`repro.synth.macros.lut_pair` construction but emitted as
  placeable gates instead of a hand-positioned macro;
* ``celement``             -> the 2-cell pair of
  :func:`repro.synth.macros.c_element_pair` (optionally gated by a global
  active-low reset when the IR cell declares ``init=0``);
* ``eventlatch``           -> the 2-cell Sutherland capture-pass pair of
  :func:`repro.synth.macros.ecse_pair`.

Products wider than the cell's 6 input columns are decomposed into AND
trees, so every :class:`MappedGate` fits one NAND row.  Gates whose output
drives nothing (dead logic created by the rewrites) are pruned.

The output is a :class:`MappedDesign` — the unit of work the placer and
router operate on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fabric.array import ROW_DELAY
from repro.fabric.driver import DRIVER_DELAY, DriverMode
from repro.fabric.nandcell import N_INPUTS
from repro.netlist.ir import (
    AND,
    BUF,
    CELEMENT,
    CONST,
    EVENTLATCH,
    NAND,
    NOR,
    NOT,
    Netlist,
    OR,
    TABLE,
    TRISTATE,
    XOR,
)
from repro.sim.values import X, ZERO

#: Gate kinds the placer/router understand.  ``product`` rows compute the
#: NAND of their input columns; the driver polarity is per-gate.
PRODUCT_NAND = "nand"   # BUFFER driver: output = NAND(inputs)
PRODUCT_AND = "and"     # INVERT driver: output = AND(inputs)
CONST_GATE = "const"    # constant row + driver polarity
PAIR_CELEMENT = "celement"
PAIR_EVENTLATCH = "eventlatch"

#: Fixed input-pin columns of the 2-cell macros (cell A of the pair).
#: ``None`` marks a flexible single-cell gate (the router picks columns).
PAIR_PIN_COLUMNS: dict[str, tuple[int, ...]] = {
    # a, b[, rst_n] — c_element_pair layout, column 2 free for the reset.
    PAIR_CELEMENT: (0, 1, 2),
    # din, req, req_n, ack, ack_n — ecse_pair layout (column 5 is the lfb).
    PAIR_EVENTLATCH: (0, 1, 2, 3, 4),
}

#: Maximum table arity the QM-based lowering will expand.
MAX_TABLE_VARS = 8


class TechMapError(ValueError):
    """The netlist contains something the NAND fabric cannot host."""


#: One NAND row plus its driver, by driver mode.
_BUFFER_ROW_DELAY = ROW_DELAY + DRIVER_DELAY[DriverMode.BUFFER]
_INVERT_ROW_DELAY = ROW_DELAY + DRIVER_DELAY[DriverMode.INVERT]


@dataclass(frozen=True, slots=True)
class MappedGate:
    """One placeable unit: a NAND row, a constant row, or a 2-cell pair.

    Attributes
    ----------
    name:
        Unique gate name (derived from the source cell).
    kind:
        ``nand`` / ``and`` / ``const`` (single cell) or ``celement`` /
        ``eventlatch`` (a horizontal 2-cell pair with local feedback).
    inputs:
        Source-netlist nets feeding the gate, in pin order.  Single-cell
        gates have de-duplicated inputs and flexible columns; pair gates
        have the fixed pin columns of :data:`PAIR_PIN_COLUMNS`.
    output:
        The net the gate drives.
    value:
        Constant value (``const`` only).
    source_delay:
        The IR delay annotation of the source cell this gate realises
        (1 for helper gates the rewrites introduce).  Survives mapping
        so source-level and fabric-level timing can be compared; the
        physical delay on the fabric is :attr:`fabric_delay`.
    width:
        Cells occupied horizontally (1, or 2 for pairs).
    """

    name: str
    kind: str
    inputs: tuple[str, ...]
    output: str
    value: int | None = None
    source_delay: int = 1

    @property
    def width(self) -> int:
        """Horizontal footprint in cells."""
        return 2 if self.kind in (PAIR_CELEMENT, PAIR_EVENTLATCH) else 1

    @property
    def fabric_delay(self) -> int:
        """Forward delay (sim units) through the gate's fabric form.

        A product or constant gate is one NAND row plus its driver; a
        stateful pair is two rows and two BUFFER drivers (cell A product
        into cell B collector).  These are exactly the delays
        :meth:`repro.fabric.array.CellArray.to_netlist` annotates, so a
        static analysis over mapped gates agrees with event simulation
        of the emitted fabric.  See ``docs/timing-model.md``.
        """
        if self.is_stateful:
            return 2 * _BUFFER_ROW_DELAY
        if self.kind == CONST_GATE:
            buffered = self.value == 1
        else:
            buffered = self.kind == PRODUCT_NAND
        return _BUFFER_ROW_DELAY if buffered else _INVERT_ROW_DELAY

    @property
    def pin_columns(self) -> tuple[int, ...] | None:
        """Fixed input columns (pair macros), or None when flexible."""
        cols = PAIR_PIN_COLUMNS.get(self.kind)
        return None if cols is None else cols[: len(self.inputs)]

    @property
    def is_stateful(self) -> bool:
        """True for the feedback pair macros."""
        return self.kind in (PAIR_CELEMENT, PAIR_EVENTLATCH)


@dataclass
class MappedDesign:
    """A netlist lowered to placeable NAND-cell gates.

    ``inputs`` lists every net the fabric must accept from outside (the
    source netlist's free inputs plus, when any C-element asked for a
    ``init=0`` power-on state, the synthesised global ``reset_net``,
    active low).  ``outputs`` are the source netlist's declared outputs.
    """

    name: str
    gates: dict[str, MappedGate] = field(default_factory=dict)
    inputs: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)
    reset_net: str | None = None

    # Derived connectivity, built by _finalise().
    source_of: dict[str, str] = field(default_factory=dict)
    sinks_of: dict[str, list[tuple[str, int]]] = field(default_factory=dict)

    @property
    def n_gates(self) -> int:
        """Number of mapped gates."""
        return len(self.gates)

    @property
    def n_cells(self) -> int:
        """Fabric cells the logic will occupy (before routing)."""
        return self.memo(
            "n_cells", lambda d: sum(g.width for g in d.gates.values())
        )

    def has_stateful_gates(self) -> bool:
        """True when the design contains feedback pair macros."""
        return any(g.is_stateful for g in self.gates.values())

    def nets(self) -> list[str]:
        """Every net with a source or a sink, inputs first."""
        seen = dict.fromkeys(self.inputs)
        for g in self.gates.values():
            seen.setdefault(g.output, None)
        return list(seen)

    def memo(self, key: str, compute):
        """``compute(self)``, cached on the design until :meth:`_finalise`.

        For views derived from the gate graph alone (topological levels,
        the STA order), which several compile stages read.
        """
        cache = self.__dict__.setdefault("_memo", {})
        if key not in cache:
            cache[key] = compute(self)
        return cache[key]

    def _finalise(self) -> None:
        self.__dict__.pop("_memo", None)
        self.source_of = {}
        self.sinks_of = {}
        for g in self.gates.values():
            if g.output in self.source_of:
                raise TechMapError(
                    f"net {g.output!r} is driven by both "
                    f"{self.source_of[g.output]!r} and {g.name!r}"
                )
            self.source_of[g.output] = g.name
        for g in self.gates.values():
            for pin, net in enumerate(g.inputs):
                self.sinks_of.setdefault(net, []).append((g.name, pin))


class _Mapper:
    """Single-use rewriting context for :func:`map_netlist`."""

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        self.design = MappedDesign(name=f"{netlist.name}.mapped")
        self._taken_nets = set(netlist.net_names())
        self._taken_gates: set[str] = set()
        self._complements: dict[str, str] = {}
        self._counter = 0

    # -- fresh names ----------------------------------------------------
    def _fresh_net(self, hint: str) -> str:
        while True:
            name = f"{hint}${self._counter}"
            self._counter += 1
            if name not in self._taken_nets:
                self._taken_nets.add(name)
                return name

    def _gate_name(self, hint: str) -> str:
        name = hint
        while name in self._taken_gates:
            name = f"{hint}${self._counter}"
            self._counter += 1
        self._taken_gates.add(name)
        return name

    def _emit(
        self,
        kind: str,
        hint: str,
        inputs: tuple[str, ...],
        output: str,
        value: int | None = None,
        source_delay: int = 1,
    ) -> str:
        name = self._gate_name(hint)
        # Positional: a frozen dataclass's keyword call costs a third more.
        self.design.gates[name] = MappedGate(
            name, kind, inputs, output, value, source_delay
        )
        return output

    # -- shared sub-structures ------------------------------------------
    def complement(self, net: str) -> str:
        """Net carrying NOT(net), creating (once) a 1-input NAND row."""
        out = self._complements.get(net)
        if out is None:
            out = self._fresh_net(f"{net}.n")
            self._emit(PRODUCT_NAND, f"inv.{net}", (net,), out)
            self._complements[net] = out
        return out

    def reset(self) -> str:
        """The global active-low reset rail (created on first use)."""
        if self.design.reset_net is None:
            self.design.reset_net = self._fresh_net("pnr.rst_n")
        return self.design.reset_net

    def _product(
        self,
        kind: str,
        hint: str,
        inputs: list[str],
        output: str,
        source_delay: int = 1,
    ) -> str:
        """Emit a product gate, splitting inputs wider than one row."""
        ins = list(dict.fromkeys(inputs))
        while len(ins) > N_INPUTS:
            chunk, ins = ins[:N_INPUTS], ins[N_INPUTS:]
            mid = self._fresh_net(f"{output}.w")
            self._emit(PRODUCT_AND, f"{hint}.w", tuple(chunk), mid)
            ins.insert(0, mid)
        return self._emit(kind, hint, tuple(ins), output, source_delay=source_delay)

    # -- per-kind lowering ----------------------------------------------
    def lower_cell(self, cell) -> None:
        kind, name, ins, out = cell.kind, cell.name, list(cell.inputs), cell.output
        d = cell.delay
        if kind == NAND or kind == NOT:
            self._product(PRODUCT_NAND, name, ins, out, source_delay=d)
        elif kind == AND or kind == BUF:
            self._product(PRODUCT_AND, name, ins, out, source_delay=d)
        elif kind == OR:
            self._product(
                PRODUCT_NAND, name, [self.complement(n) for n in ins], out,
                source_delay=d,
            )
        elif kind == NOR:
            self._product(
                PRODUCT_AND, name, [self.complement(n) for n in ins], out,
                source_delay=d,
            )
        elif kind == XOR:
            a, b = ins
            t1 = self._fresh_net(f"{out}.t1")
            t2 = self._fresh_net(f"{out}.t2")
            self._product(PRODUCT_NAND, f"{name}.t1", [a, self.complement(b)], t1)
            self._product(PRODUCT_NAND, f"{name}.t2", [self.complement(a), b], t2)
            self._product(PRODUCT_NAND, name, [t1, t2], out, source_delay=d)
        elif kind == CONST:
            self._emit(CONST_GATE, name, (), out, value=cell.param("value"),
                       source_delay=d)
        elif kind == TABLE:
            self._lower_table(cell)
        elif kind == CELEMENT:
            self._lower_celement(cell)
        elif kind == EVENTLATCH:
            self._lower_eventlatch(cell)
        elif kind == TRISTATE:
            raise TechMapError(
                f"cell {name!r}: tristate drivers have no single-driven "
                "NAND-cell mapping; resolve the bus before place-and-route"
            )
        else:  # pragma: no cover - CELL_KINDS is closed
            raise TechMapError(f"cell {name!r}: unmapped kind {kind!r}")

    def _lower_table(self, cell) -> None:
        from repro.synth.qm import minimise
        from repro.synth.truthtable import TruthTable

        ins, out, name = list(cell.inputs), cell.output, cell.name
        if len(ins) > MAX_TABLE_VARS:
            raise TechMapError(
                f"cell {name!r}: table lowering supports up to "
                f"{MAX_TABLE_VARS} inputs, got {len(ins)}"
            )
        table = TruthTable(len(ins), cell.param("table"))
        cover = minimise(table)
        if not cover:
            self._emit(CONST_GATE, name, (), out, value=0)
            return
        if any(impl.mask == 0 for impl in cover):
            self._emit(CONST_GATE, name, (), out, value=1)
            return
        product_lines = []
        for j, impl in enumerate(cover):
            lits = [
                net if positive else self.complement(net)
                for var, positive in impl.literals(len(ins))
                for net in (ins[var],)
            ]
            p = self._fresh_net(f"{out}.p{j}")
            self._product(PRODUCT_NAND, f"{name}.p{j}", lits, p)
            product_lines.append(p)
        # f = OR(products) = NAND of the product complements.
        self._product(PRODUCT_NAND, name, product_lines, out,
                      source_delay=cell.delay)

    def _check_init(self, cell) -> bool:
        """True when the element wants the global reset (init = 0)."""
        init = cell.param("init", X)
        if init == ZERO:
            return True
        if init == X:
            return False
        raise TechMapError(
            f"cell {cell.name!r}: only init=0 (reset rail) or init=X "
            f"(free-running) map onto the fabric, got init={init!r}"
        )

    def _lower_celement(self, cell) -> None:
        a, b = cell.inputs
        pins = [a, b]
        if self._check_init(cell):
            pins.append(self.reset())
        self._emit(PAIR_CELEMENT, cell.name, tuple(pins), cell.output,
                   source_delay=cell.delay)

    def _lower_eventlatch(self, cell) -> None:
        din, req, ack = cell.inputs
        # init=0 is accepted but needs no rail: no column is left for a
        # reset literal on the capture-pass pair (all six are taken by
        # din/req/req'/ack/ack'/feedback), and none is required — the
        # latch initialises through its transparent phase the first time
        # request and acknowledge agree after the control chain resets.
        self._check_init(cell)
        pins = (din, req, self.complement(req), ack, self.complement(ack))
        self._emit(PAIR_EVENTLATCH, cell.name, pins, cell.output,
                   source_delay=cell.delay)


def map_netlist(netlist: Netlist) -> MappedDesign:
    """Lower a netlist to placeable NAND-cell gates.

    Raises :class:`TechMapError` for constructs the fabric cannot host
    (tristate buses, multi-driven nets, arbitrary power-on inits).
    """
    multi = netlist.multi_driven_nets()
    if multi:
        raise TechMapError(
            f"netlist {netlist.name!r} has multi-driven nets {multi[:4]}; "
            "the NAND fabric routes single-driven nets only"
        )
    mapper = _Mapper(netlist)
    for cell in netlist.cells:
        mapper.lower_cell(cell)
    design = mapper.design
    design.outputs = list(netlist.outputs)
    design.inputs = list(netlist.free_inputs())
    if design.reset_net is not None:
        design.inputs.append(design.reset_net)
    _prune_dead(design)
    design._finalise()
    return design


def _prune_dead(design: MappedDesign) -> None:
    """Drop gates whose output reaches no sink and no declared output."""
    keep_nets = set(design.outputs)
    while True:
        read = set(keep_nets)
        for g in design.gates.values():
            read.update(g.inputs)
        dead = [g.name for g in design.gates.values() if g.output not in read]
        if not dead:
            return
        for name in dead:
            del design.gates[name]
