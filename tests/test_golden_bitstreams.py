"""Golden-bitstream pin: compiled bytes must not drift across commits.

Every other determinism test compares two compiles made by the same
code.  This one compares against SHA-256 digests recorded once, so a
refactor of the placer, router or emitter that silently changes a
single configuration bit fails here even if it is self-consistent.
The cases cover the plain single-array flow, a compile for one
defective die (defect map threaded through seed, anneal and route) and
a sharded compile (partition, per-shard compiles, channel stitching).

A digest may only change in a commit that means to change the compiled
artifacts, and that commit must say so.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.datapath.adder import ripple_carry_netlist
from repro.datapath.multiplier import array_multiplier_netlist
from repro.pnr import compile_to_fabric
from repro.pnr.defects import sample_defect_map


def _digest(bitstreams) -> str:
    h = hashlib.sha256()
    for bits in bitstreams:
        h.update(bits.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize(
    "make, seed, digest",
    [
        (lambda: ripple_carry_netlist(4), 0,
         "3191e96495e9d8bacc4a444b347a98061399bdee66d429f12eeeca1745ec1fc0"),
        (lambda: ripple_carry_netlist(6), 1,
         "fbc764cd37938a84e0a36b55a7006f1210b20adcec639f34ea86cb60ab5b46c8"),
        (lambda: array_multiplier_netlist(3), 2,
         "2f2fd9e8c4a424852f5ea555f3b44464cce534b30ad59be490f186a6ea5833d9"),
        (lambda: ripple_carry_netlist(8), 0,
         "c51da86bf78236e8029133036d627ecf31be6194aa907c02bf20c3cfb0ff247c"),
    ],
    ids=["rca4-seed0", "rca6-seed1", "mul3-seed2", "rca8-seed0"],
)
def test_single_array_bitstream_is_pinned(make, seed, digest):
    result = compile_to_fabric(make(), seed=seed, workers=0)
    assert _digest([result.to_bitstream()]) == digest


def test_defective_die_bitstream_is_pinned():
    golden = compile_to_fabric(ripple_carry_netlist(4), seed=0, workers=0)
    die = sample_defect_map(
        golden.array.n_rows, golden.array.n_cols,
        cell_fail=0.01, wire_fail=0.004, stuck_fail=0.004, seed=1,
    )
    assert die.n_defects == 16
    result = compile_to_fabric(
        ripple_carry_netlist(4), defect_map=die, seed=0, workers=0
    )
    assert _digest([result.to_bitstream()]) == (
        "7f7bdf49103f32fecf7cc6ab7fd98e754a12c595de00a010fe0aac1f6701c5aa"
    )


def test_sharded_bitstreams_are_pinned():
    result = compile_to_fabric(
        ripple_carry_netlist(8), shards=3, seed=0, workers=0
    )
    assert len(result.shards) == 3
    assert _digest(result.to_bitstreams()) == (
        "8525ce33f9faa12844ccb61703ce215b8217ba264098f859732cf326b07ad0fb"
    )
