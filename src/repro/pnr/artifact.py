"""The artifact codec: compiled results as pickle-free, sectioned blobs.

A compiled design is, physically, a configuration — 64 quaternary
digits per cell — plus the bookkeeping the service and the warm paths
need (source netlist, mapped design, placement, route journals, timing,
the die's defect map).  This module is the one owner of the byte format
both :meth:`repro.pnr.PnrResult.to_blob` and the persisted
:class:`repro.service.store.ArtifactStore` use.  Decoding never runs
code from the blob: it parses JSON, inflates zlib streams, reads int32
columns and range-checks configuration digits, so a hostile or
corrupted blob can only fail with ``ValueError``.

Layout::

    repro.pnr.result <RESULT_BLOB_VERSION>\\n   magic line
    <header>\\n                                 canonical JSON, eager
    <section><section>...                      zlib streams, header order

The **header** holds everything a cache hit reads: the result kind,
the caller's ``meta`` (the store keeps a cache entry's port order and
flags there), ``stats``, ``region``, the pin maps, ``reset_wire``, the
array shape, and the section table — ``[name, stored bytes, decoded
bytes]`` per section.  Sharded results list one such header per shard.

The **sections** are decoded only when the field is first touched
(:func:`repro.pnr.flow.lazy_fields`): ``source``, ``design``, ``array``
(a copy of the array's digit buffer, :meth:`repro.fabric.CellArray.to_digits`),
``placement``, ``routes`` (wires, sink columns and the flat int32
commit journals, restored as ``array('i')``; a journal is not parsed
here — the router's replay validates every op before it claims
anything), ``timing`` and ``defect_map`` (the die a repaired or
defect-aware result was built for, else null).  The router's occupancy
is not stored: nothing reads it after a compile, and a warm path
rebuilds it from the placement and the journals.  Sharded results add
``partition`` and ``channels`` and prefix each shard's sections with
``shards.<i>.``.  Apart from ``array``, a section
decodes to one JSON line followed by a little-endian int32 column: the
integer-heavy fields (wires, journals) travel in the column,
which is several times cheaper to write and read than JSON numbers.
Inflation is bounded by the declared decoded size: a section that
inflates past it, or short of it, raises ``ValueError`` when touched.

The header is checked eagerly (magic, version, kind, section table
against the blob length); section *contents* are checked on first
touch.  The store adds a SHA-256 over the whole blob, checked before
decoding, so store corruption surfaces at load time as a miss.

>>> from repro.datapath.adder import ripple_carry_netlist
>>> from repro.pnr import compile_to_fabric
>>> res = compile_to_fabric(ripple_carry_netlist(2), seed=0, workers=0)
>>> blob = encode_result(res, meta={"note": "demo"})
>>> back, meta = decode_result(blob)
>>> meta, back.stats == res.stats, "array" in vars(back)
({'note': 'demo'}, True, False)
>>> bytes(back.to_bitstream()) == bytes(res.to_bitstream())   # decodes "array"
True
>>> encode_result(back, meta={"note": "demo"}) == blob
True
"""

from __future__ import annotations

import json
import sys
import threading
import zlib
from array import array
from dataclasses import fields
from itertools import chain, islice

from repro.arch.area import AreaBreakdown
from repro.fabric.array import CellArray
from repro.fabric.channel import InterArrayChannel
from repro.fabric.floorplan import Region
from repro.netlist.ir import Netlist
from repro.pnr.defects import DefectMap
from repro.pnr.flow import PnrResult, PnrStats
from repro.pnr.partition import Partition, ShardedPnrResult, ShardedPnrStats
from repro.pnr.place import Placement
from repro.pnr.route import NetRoute
from repro.pnr.techmap import MappedDesign, MappedGate
from repro.pnr.timing import PathStep, TimingReport

__all__ = ["RESULT_BLOB_VERSION", "decode_result", "encode_result"]

#: Version of the blob format.  Bump it whenever a field of a result
#: (or anything a section holds) changes meaning: older blobs then fail
#: the magic-line check instead of decoding into nonsense.  Version 1
#: was a pickle; version 2 is this sectioned, pickle-free layout;
#: version 3 drops the router's occupancy (``routing_state``) and keeps
#: a die's defect map as its own ``defect_map`` section.
RESULT_BLOB_VERSION = 3

_MAGIC = f"repro.pnr.result {RESULT_BLOB_VERSION}".encode()

#: Deflate cannot expand a stream by more than about 1032:1, so a
#: declared decoded size beyond that is a lie told to allocate memory.
_MAX_INFLATE = 1032

#: zlib level of every section: level 1 is several times cheaper to
#: write than the default 6 and costs a few kB per blob.
_LEVEL = 1

_dumps = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode
_header_dumps = json.JSONEncoder(
    separators=(",", ":"), sort_keys=True, check_circular=False
).encode

_SWAP = sys.byteorder != "little"  # int columns are stored little-endian


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------

def encode_result(result, meta: dict | None = None) -> bytes:
    """Encode a :class:`PnrResult` or :class:`ShardedPnrResult`.

    ``meta`` is any JSON-ready dict carried in the header and handed
    back by :func:`decode_result`.  Encoding is deterministic: equal
    results (and a decoded result re-encoded) give identical bytes.
    """
    sections: list[tuple[str, bytes]] = []
    if isinstance(result, PnrResult):
        head = _pnr_sections(result, "", sections)
    elif isinstance(result, ShardedPnrResult):
        head = _sharded_sections(result, sections)
    else:
        raise TypeError(f"cannot encode a {type(result).__name__}")
    table, payload = [], []
    for name, raw in sections:
        packed = zlib.compress(raw, _LEVEL)
        table.append([name, len(packed), len(raw)])
        payload.append(packed)
    header = {
        "kind": type(result).__name__,
        "meta": meta or {},
        "result": head,
        "sections": table,
    }
    return b"".join(
        [_MAGIC, b"\n", _header_dumps(header).encode(), b"\n", *payload]
    )


def decode_result(blob: bytes):
    """``(result, meta)`` of an :func:`encode_result` blob.

    Only the header is parsed here; every other field decodes on first
    touch.  Raises ``ValueError`` on anything that is not a current-
    version blob (a pickle, a truncated blob, a foreign format).
    """
    blob = bytes(blob)
    magic, _, rest = blob.partition(b"\n")
    if magic != _MAGIC:
        raise ValueError(
            f"not a version-{RESULT_BLOB_VERSION} repro.pnr result blob "
            f"(magic {magic[:32]!r})"
        )
    head, sep, _ = rest.partition(b"\n")
    if not sep:
        raise ValueError("result blob truncated inside its header")
    try:
        header = json.loads(head)
        sections = _Sections(blob, len(magic) + len(head) + 2, header["sections"])
        if header["kind"] == "PnrResult":
            result = _lazy_pnr(header["result"], sections, "")
        elif header["kind"] == "ShardedPnrResult":
            result = _lazy_sharded(header["result"], sections)
        else:
            raise ValueError(f"unknown result kind {header['kind']!r}")
        meta = header["meta"]
    except (KeyError, TypeError, IndexError, AttributeError) as e:
        raise ValueError(f"malformed result blob header: {e!r}") from e
    if not isinstance(meta, dict):
        raise ValueError("malformed result blob header: meta is not a dict")
    return result, meta


# ----------------------------------------------------------------------
# Sections, int columns and lazy fields
# ----------------------------------------------------------------------

class _Sections:
    """The section table of one blob; inflates a section on request."""

    def __init__(self, blob: bytes, start: int, table) -> None:
        self._blob = blob
        self._where: dict[str, tuple[int, int, int]] = {}
        offset = start
        for name, stored, size in table:
            if not (
                isinstance(name, str)
                and type(stored) is int
                and type(size) is int
                and 0 <= stored
                and 0 <= size <= _MAX_INFLATE * stored + 64
            ):
                raise ValueError(f"bad section entry {[name, stored, size]!r}")
            if name in self._where:
                raise ValueError(f"duplicate section {name!r}")
            self._where[name] = (offset, stored, size)
            offset += stored
        if offset != len(blob):
            raise ValueError(
                f"section table covers {offset} bytes, blob has {len(blob)}"
            )
        #: One lock per blob: decoding is at-most-once across threads,
        #: and re-entrant because some sections reference others.
        self.lock = threading.RLock()

    def raw(self, name: str) -> bytes:
        """The decoded bytes of a section, exactly its declared size."""
        try:
            offset, stored, size = self._where[name]
        except KeyError:
            raise ValueError(f"result blob has no {name!r} section") from None
        inflate = zlib.decompressobj()
        try:
            # One byte past the declared size is enough to catch a lie.
            data = inflate.decompress(self._blob[offset : offset + stored], size + 1)
        except zlib.error as e:
            raise ValueError(f"section {name!r} does not inflate: {e}") from e
        if len(data) > size:
            raise ValueError(
                f"section {name!r} is larger than its declared {size} bytes"
            )
        if len(data) < size or not inflate.eof or inflate.unused_data:
            raise ValueError(f"section {name!r} is not a complete {size}-byte stream")
        return data


def _section(encode, value, res=None) -> bytes:
    """One JSON line plus the int32 column ``encode`` appended to."""
    ints = array("i")
    head = _dumps(encode(value, ints, res)).encode()
    if _SWAP:
        ints.byteswap()
    return head + b"\n" + ints.tobytes()


class _Ints:
    """A section's int32 column, read front to back in exact-size takes."""

    __slots__ = ("_it",)

    def __init__(self, column: bytes) -> None:
        if len(column) % 4:
            raise ValueError(f"int column of {len(column)} bytes is ragged")
        ints = array("i")
        ints.frombytes(column)
        if _SWAP:
            ints.byteswap()
        self._it = iter(ints.tolist())

    def take(self, n: int) -> list[int]:
        out = list(islice(self._it, n))
        if len(out) != n:
            raise ValueError("int column ends early")
        return out

    def tuples(self, n: int, k: int) -> list[tuple]:
        """The next ``n`` ``k``-tuples."""
        out = list(islice(zip(*[self._it] * k), n))
        if len(out) != n:
            raise ValueError("int column ends early")
        return out

    def done(self) -> None:
        if next(self._it, None) is not None:
            raise ValueError("int column has trailing values")


class _Loader:
    """Decodes a lazily built result's fields (see ``flow.lazy_fields``)."""

    __slots__ = ("sections", "prefix", "decoders", "shape")

    def __init__(self, sections, prefix, decoders, shape=None) -> None:
        self.sections = sections
        self.prefix = prefix
        self.decoders = decoders
        self.shape = shape

    def load(self, obj, name: str):
        decode = self.decoders.get(name)
        if decode is None:
            raise AttributeError(
                f"{type(obj).__name__!r} object has no attribute {name!r}"
            )
        with self.sections.lock:
            state = obj.__dict__
            if name not in state:
                section = self.prefix + name
                raw = self.sections.raw(section)
                try:
                    state[name] = decode(raw, obj, self)
                except (KeyError, TypeError, IndexError, AttributeError) as e:
                    raise ValueError(f"malformed section {section!r}: {e!r}") from e
            return state[name]


def _columns(decode):
    """A section decoder over the JSON line and the int32 column."""
    def run(raw: bytes, res, _loader):
        head, sep, column = raw.partition(b"\n")
        if not sep:
            raise ValueError("section has no int column")
        ints = _Ints(column)
        value = decode(json.loads(head), ints, res)
        ints.done()
        return value
    return run


def _lazy(cls, eager: dict, loader: _Loader):
    obj = cls.__new__(cls)
    obj.__dict__.update(eager)
    obj.__dict__["_lazy"] = loader
    return obj


# ----------------------------------------------------------------------
# PnrResult
# ----------------------------------------------------------------------

def _pnr_sections(res: PnrResult, prefix: str, out: list) -> dict:
    """Append a PnrResult's sections to ``out``; return its header fields."""
    array_ = res.array
    out += [
        (prefix + "source", _section(_netlist_out, res.source)),
        (prefix + "design", _section(_design_out, res.design)),
        (prefix + "array", array_.to_digits()),
        (prefix + "placement", _section(_placement_out, res.placement)),
        (prefix + "routes", _section(_routes_out, res.routes)),
        (prefix + "timing", _section(_timing_out, res.timing)),
        (prefix + "defect_map", _section(_defects_out, res.defect_map)),
    ]
    return {
        "shape": [array_.n_rows, array_.n_cols],
        "region": _region_out(res.region),
        "input_wires": list(res.input_wires.items()),
        "output_wires": list(res.output_wires.items()),
        "reset_wire": res.reset_wire,
        "stats": _stats_out(res.stats),
    }


def _lazy_pnr(head: dict, sections: _Sections, prefix: str) -> PnrResult:
    stats = dict(head["stats"])
    stats["area"] = AreaBreakdown(**stats["area"])
    eager = {
        "region": Region(*head["region"]),
        "input_wires": dict(head["input_wires"]),
        "output_wires": dict(head["output_wires"]),
        "reset_wire": head["reset_wire"],
        "stats": PnrStats(**stats),
    }
    shape = tuple(head["shape"])
    return _lazy(PnrResult, eager, _Loader(sections, prefix, _PNR_DECODERS, shape))


def _array_in(digits: bytes, _res, loader: _Loader) -> CellArray:
    return CellArray.from_digits(*loader.shape, digits)


# ----------------------------------------------------------------------
# ShardedPnrResult
# ----------------------------------------------------------------------

def _sharded_sections(res: ShardedPnrResult, out: list) -> dict:
    part = res.partition
    if (
        part.design is not res.design
        or len(part.shards) != len(res.shards)
        or any(d is not s.design for d, s in zip(part.shards, res.shards))
    ):
        raise ValueError("the partition must describe the result's own designs")
    out += [
        ("source", _section(_netlist_out, res.source)),
        ("design", _section(_design_out, res.design)),
        ("partition", _section(_partition_out, part)),
        ("channels", _section(_channels_out, res.channels)),
        ("timing", _section(_timing_out, res.timing)),
    ]
    shards = [
        _pnr_sections(shard, f"shards.{i}.", out)
        for i, shard in enumerate(res.shards)
    ]
    return {"stats": _dataclass_out(res.stats), "shards": shards}


def _lazy_sharded(head: dict, sections: _Sections) -> ShardedPnrResult:
    eager = {
        "stats": ShardedPnrStats(**head["stats"]),
        "shards": [
            _lazy_pnr(shard, sections, f"shards.{i}.")
            for i, shard in enumerate(head["shards"])
        ],
    }
    return _lazy(ShardedPnrResult, eager, _Loader(sections, "", _SHARDED_DECODERS))


def _partition_out(part: Partition, _ints, _res) -> dict:
    return {
        "n_shards": part.n_shards,
        "assignment": list(part.assignment.items()),
        "cut_nets": [[net, src, sinks] for net, (src, sinks) in part.cut_nets.items()],
    }


def _partition_in(obj, _ints, res: ShardedPnrResult) -> Partition:
    return Partition(
        design=res.design,
        n_shards=obj["n_shards"],
        assignment=dict(obj["assignment"]),
        shards=[shard.design for shard in res.shards],
        cut_nets={net: (src, tuple(sinks)) for net, src, sinks in obj["cut_nets"]},
    )


def _channels_out(channels: list[InterArrayChannel], _ints, _res) -> list:
    return [
        [
            ch.net, ch.source_shard, ch.sink_shards, ch.source_wire,
            list(ch.sink_wires.items()), ch.source_cell, ch.delay,
        ]
        for ch in channels
    ]


def _channels_in(obj, _ints, _res) -> list[InterArrayChannel]:
    return [
        InterArrayChannel(
            net=net, source_shard=src, sink_shards=tuple(sinks),
            source_wire=wire, sink_wires=dict(sink_wires),
            source_cell=_cell_in(cell), delay=delay,
        )
        for net, src, sinks, wire, sink_wires, cell, delay in obj
    ]


# ----------------------------------------------------------------------
# The field codecs
# ----------------------------------------------------------------------

def _cell_in(cell):
    return None if cell is None else (cell[0], cell[1])


def _dataclass_out(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _stats_out(stats: PnrStats) -> dict:
    out = _dataclass_out(stats)
    out["area"] = _dataclass_out(stats.area)
    return out


def _region_out(region: Region) -> list:
    return [region.name, region.row, region.col, region.n_rows, region.n_cols]


def _param_out(name: str, value):
    if isinstance(value, tuple):
        return {"tuple": [_param_out(name, v) for v in value]}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ValueError(
        f"netlist param {name!r} holds a {type(value).__name__}; the codec "
        "stores JSON scalars and tuples of them"
    )


def _param_in(value):
    if isinstance(value, dict):
        return tuple(_param_in(v) for v in value["tuple"])
    return value


def _netlist_out(nl: Netlist, _ints, _res) -> dict:
    return {
        "name": nl.name,
        "nets": nl.net_names(),
        "inputs": nl.inputs,
        "outputs": nl.outputs,
        "cells": [
            [
                c.name, c.kind, c.inputs, c.output, c.delay,
                {k: _param_out(k, v) for k, v in c.params.items()},
            ]
            for c in nl.cells
        ],
    }


def _netlist_in(obj, _ints, _res) -> Netlist:
    nl = Netlist(obj["name"])
    for net in obj["nets"]:
        nl.net(net)
    for name, kind, inputs, output, delay, params in obj["cells"]:
        nl.add(
            kind, name, inputs, output, delay=delay,
            **{k: _param_in(v) for k, v in params.items()},
        )
    nl.inputs = list(obj["inputs"])
    nl.outputs = list(obj["outputs"])
    return nl


def _design_out(design: MappedDesign, _ints, _res) -> dict:
    if any(name != g.name for name, g in design.gates.items()):
        raise ValueError(f"design {design.name!r} keys a gate by another name")
    return {
        "name": design.name,
        "gates": [
            [g.name, g.kind, g.inputs, g.output, g.value, g.source_delay]
            for g in design.gates.values()
        ],
        "inputs": design.inputs,
        "outputs": design.outputs,
        "reset_net": design.reset_net,
        "source_of": design.source_of,
        "sinks_of": design.sinks_of,
    }


def _design_in(obj, _ints, _res) -> MappedDesign:
    return MappedDesign(
        name=obj["name"],
        gates={
            name: MappedGate(name, kind, tuple(inputs), output, value, delay)
            for name, kind, inputs, output, value, delay in obj["gates"]
        },
        inputs=obj["inputs"],
        outputs=obj["outputs"],
        reset_net=obj["reset_net"],
        source_of=obj["source_of"],
        sinks_of={
            net: [(gate, pin) for gate, pin in sinks]
            for net, sinks in obj["sinks_of"].items()
        },
    )


def _placement_out(placement: Placement, ints, _res) -> dict:
    ints.extend(chain.from_iterable(placement.positions.values()))
    return {
        "region": _region_out(placement.region),
        "gates": list(placement.positions),
    }


def _placement_in(obj, ints: _Ints, _res) -> Placement:
    gates = obj["gates"]
    return Placement(
        region=Region(*obj["region"]),
        positions=dict(zip(gates, ints.tuples(len(gates), 2))),
    )


def _routes_out(routes: dict[str, NetRoute], ints, _res) -> list:
    """Per route ``[net, wires, has entry, sink names, journal length]``;
    the wires, entry wire, sink pins/columns and journal go to ``ints``."""
    out = []
    for net, route in routes.items():
        if net != route.net:
            raise ValueError(f"route of {route.net!r} is keyed as {net!r}")
        ints.extend(chain.from_iterable(route.wires))
        if route.entry_wire is not None:
            ints.extend(route.entry_wire)
        for (_sink, pin), col in route.sink_cols.items():
            ints.extend((pin, col))
        ints.extend(route.ops)
        out.append([
            net, len(route.wires), route.entry_wire is not None,
            [sink for sink, _ in route.sink_cols], len(route.ops),
        ])
    return out


def _routes_in(obj, ints: _Ints, _res) -> dict[str, NetRoute]:
    routes = {}
    for net, n_wires, has_entry, sinks, n_ops in obj:
        wires = ints.tuples(n_wires, 3)
        entry = tuple(ints.take(3)) if has_entry else None
        pins = ints.tuples(len(sinks), 2)
        routes[net] = NetRoute(
            net=net,
            wires=wires,
            entry_wire=entry,
            sink_cols={(sink, pin): col for sink, (pin, col) in zip(sinks, pins)},
            ops=array("i", ints.take(n_ops)),
        )
    return routes


def _timing_out(report: TimingReport | None, _ints, _res):
    if report is None:
        return None
    out = _dataclass_out(report)
    out["critical_path"] = [
        [s.kind, s.name, s.cell, s.delay, s.arrival] for s in report.critical_path
    ]
    return out


def _timing_in(obj, _ints, _res) -> TimingReport | None:
    if obj is None:
        return None
    obj["critical_path"] = [
        PathStep(kind, name, _cell_in(cell), delay, arrival)
        for kind, name, cell, delay, arrival in obj["critical_path"]
    ]
    return TimingReport(**obj)


def _defects_out(defects: DefectMap | None, _ints, _res):
    if defects is None:
        return None
    return [
        defects.n_rows, defects.n_cols, sorted(defects.dead_cells),
        sorted(defects.dead_wires), sorted(defects.stuck_rows),
    ]


def _defects_in(obj, _ints, _res) -> DefectMap | None:
    if obj is None:
        return None
    n_rows, n_cols, cells, wires, stuck = obj
    return DefectMap(n_rows, n_cols, cells, wires, stuck)


_PNR_DECODERS = {
    "source": _columns(_netlist_in),
    "design": _columns(_design_in),
    "array": _array_in,
    "placement": _columns(_placement_in),
    "routes": _columns(_routes_in),
    "timing": _columns(_timing_in),
    "defect_map": _columns(_defects_in),
}
_SHARDED_DECODERS = {
    "source": _columns(_netlist_in),
    "design": _columns(_design_in),
    "partition": _columns(_partition_in),
    "channels": _columns(_channels_in),
    "timing": _columns(_timing_in),
}
