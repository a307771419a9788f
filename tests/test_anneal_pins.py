"""Anneal-trajectory pins: the placer's move sequence must not drift.

The golden-bitstream digests catch a changed artifact; these catch a
changed anneal one stage earlier, with a sharper message.  Each case
hashes the full ``move_log`` (every committed move, in commit order,
with its exact delta), the ``stats`` counters and the returned
placement.  The cases cover the default budget on rca5 and mul3, an
anneal around dead cells, and a design whose gates read one net through
several pins (``nand(a, a)``), which the pricing must handle exactly,
plus a default-budget rca8 and a mul3 on a sampled defective die
(recorded before the rung's draws and accept test moved into the
kernel).

A digest may only change in a commit that means to change the anneal
trajectory (the rng stream, the move set or the accept rule), and that
commit must say so.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

import pytest

from repro.datapath.adder import ripple_carry_netlist
from repro.datapath.multiplier import array_multiplier_netlist
from repro.fabric.floorplan import Region
from repro.pnr import map_netlist
from repro.pnr.defects import sample_defect_map
from repro.pnr.flow import suggest_array
from repro.pnr.place import anneal_placement, initial_placement


def multi_pin_design():
    """A mapped rca4 where every third 2+-input single-cell gate reads its
    first net twice, so some movable gates carry a repeated sink pin."""
    design = map_netlist(ripple_carry_netlist(4))
    picked = [
        g for g in design.gates.values()
        if g.width == 1 and len(g.inputs) >= 2
    ][::3]
    for g in picked:
        design.gates[g.name] = dataclasses.replace(
            g, inputs=(g.inputs[0],) + g.inputs
        )
    design._finalise()
    assert picked
    return design


def blocked_cells(n: int) -> frozenset[tuple[int, int]]:
    return frozenset(
        (r, c) for r in range(n) for c in range(n) if (r + 2 * c) % 11 == 0
    )


def anneal_digest(design, region, seed, **kwargs) -> str:
    placement = initial_placement(
        design, region, random.Random(seed), blocked=kwargs.get("blocked")
    )
    log: list = []
    stats: dict = {}
    refined = anneal_placement(
        design, placement, random.Random(seed), stats=stats, move_log=log,
        **kwargs,
    )
    text = repr((
        log, sorted(stats.items()), sorted(refined.positions.items())
    ))
    return hashlib.sha256(text.encode()).hexdigest()


def suggested_region(design) -> Region:
    array = suggest_array(design)
    return Region("t", 0, 0, array.n_rows, array.n_cols)


@pytest.mark.parametrize(
    "make, seed, digest",
    [
        (lambda: ripple_carry_netlist(5), 0,
         "78b1978018f58bdcd2e57fadad25f8de2175083ce8b08f32eb512c9008c94fcb"),
        (lambda: ripple_carry_netlist(5), 1,
         "1577b158c0cafecbffe545f81623a107d6c6e328c35783847ff247e89486e97f"),
        (lambda: ripple_carry_netlist(5), 2,
         "275847ff4ac24a2b33543e3acb3013d6fe5f12337caee700541989cef55d9f45"),
        (lambda: array_multiplier_netlist(3), 2,
         "a2750ec787c34219451b7be995e54447f7afc5c7e7dfcd17d2bcd154352cef1e"),
        (lambda: ripple_carry_netlist(8), 4,
         "fc65670e42a68aa61df7e3e323436478a6f9681fa88fb589e0a116f277e822f9"),
    ],
    ids=["rca5-seed0", "rca5-seed1", "rca5-seed2", "mul3-seed2", "rca8-seed4"],
)
def test_default_anneal_trajectory_is_pinned(make, seed, digest):
    design = map_netlist(make())
    assert anneal_digest(design, suggested_region(design), seed) == digest


def test_blocked_anneal_trajectory_is_pinned():
    design = map_netlist(ripple_carry_netlist(4))
    region = Region("t", 0, 0, 20, 20)
    got = anneal_digest(design, region, 1, blocked=blocked_cells(20))
    assert got == (
        "2d746ba20f5006ac8e7436c58e0882e0ddc1812de2425b92f0866f001b7a4a47"
    )


def test_die_anneal_trajectory_is_pinned():
    """mul3 around the dead cells of one sampled 24x24 die."""
    design = map_netlist(array_multiplier_netlist(3))
    die = sample_defect_map(24, 24, cell_fail=0.02, seed=5)
    assert len(die.dead_cells) == 19
    got = anneal_digest(
        design, Region("t", 0, 0, 24, 24), 6, blocked=die.dead_cells
    )
    assert got == (
        "7b13db4eba8905076f620f0ef62eacc58e379b7b2044fd8d8c7706c915ee9c6e"
    )


def test_multi_pin_anneal_trajectory_is_pinned():
    design = multi_pin_design()
    got = anneal_digest(design, suggested_region(design), 3)
    assert got == (
        "13b69d937e11335478d279ca2503eec5f91aedb9870dc9eda724625e5329957d"
    )
