"""Route-journal pins: the router's output must not drift.

The golden-bitstream digests catch a changed artifact; these catch a
changed route one stage earlier, with a sharper message.  Each case
hashes, per net in route order, the net's commit journal (``ops``, in
the codec's flat integer layout: an op code followed by the op's
integers) and its ``sink_cols``.  The cases cover cold compiles of
rca5, rca8 and mul3 at three seeds, the router on a die whose compile
needs retries (annealed attempt-0 placement, ``strict=False``, so the
rip-up passes and their journal replays run against dead resources), a
cold defect-aware compile, two stress-die repairs, a one-gate recompile
and a sharded rca32.

A digest may only change in a commit that means to change routing (the
search order, its costs or the journal format), and that commit must
say so.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.datapath.adder import ripple_carry_netlist
from repro.datapath.multiplier import array_multiplier_netlist
from repro.fabric.floorplan import Region
from repro.netlist.ir import Netlist
from repro.pnr import (
    DefectMap,
    compile_incremental,
    compile_to_fabric,
    map_netlist,
    repair_for_die,
    sample_defect_map,
)
from repro.pnr.defects import pair_blocked_cells
from repro.pnr.place import anneal_placement, initial_placement
from repro.pnr.route import Router

#: The codec's op codes (see ``repro.pnr.artifact``).
_CODES = {"entry": 0, "entry_front": 1, "drive": 2, "thru": 3, "col": 4}


def _ints(value):
    if isinstance(value, tuple):
        for v in value:
            yield from _ints(v)
    else:
        yield int(value)


def journal(route) -> list[int]:
    """A route's ops as flat integers, whether stored as op tuples or
    already flat."""
    flat = []
    for op in route.ops:
        if isinstance(op, tuple):
            flat.append(_CODES[op[0]])
            flat.extend(_ints(op[1:]))
        else:
            flat.append(int(op))
    return flat


def routes_digest(routes, failed=()) -> str:
    text = repr((
        [
            (net, journal(r), sorted(r.sink_cols.items()))
            for net, r in routes.items()
        ],
        sorted(failed),
    ))
    return hashlib.sha256(text.encode()).hexdigest()


def result_digest(res) -> str:
    shards = getattr(res, "shards", None)
    if shards is None:
        return routes_digest(res.routes)
    return hashlib.sha256(
        "".join(routes_digest(s.routes) for s in shards).encode()
    ).hexdigest()


def clone_with_or(nl: Netlist) -> Netlist:
    """``nl`` with its first ``and`` cell turned into an ``or``."""
    target = next(c for c in nl.cells if c.kind == "and")
    out = Netlist(nl.name)
    for p in nl.inputs:
        out.add_input(p)
    for p in nl.outputs:
        out.add_output(p)
    for c in nl.cells:
        kind = "or" if c.name == target.name else c.kind
        out.add(kind, c.name, list(c.inputs), c.output, delay=c.delay,
                **dict(c.params))
    return out


#: Warm-stream seed 25's rca8 die.  Its annealed attempt-0 placement
#: leaves two nets unroutable, so routing it runs every rip-up pass.
SEED25_DIE = DefectMap(31, 31, [
    (1, 13), (2, 7), (10, 19), (12, 11), (13, 22), (22, 11), (27, 12),
    (27, 29),
])


def die_attempt0_digest() -> str:
    design = map_netlist(ripple_carry_netlist(8))
    die = SEED25_DIE
    region = Region("pnr", 0, 0, *die.shape)
    rng = random.Random(0)
    placement = initial_placement(
        design, region, rng, blocked=die.dead_cells,
        pair_blocked=pair_blocked_cells(die),
    )
    placement = anneal_placement(
        design, placement, rng, blocked=die.dead_cells
    )
    router = Router(design, placement, die.shape, region, defects=die)
    routes = router.route_design(strict=False)
    failed = [n for n in router.routable_nets() if n not in routes]
    return routes_digest(routes, failed)


def stress_die(seed):
    return sample_defect_map(
        31, 31, cell_fail=0.0015, wire_fail=0.0006, stuck_fail=0.0006,
        seed=seed,
    )


CASES = {
    **{
        f"rca5-seed{s}": (lambda s=s: compile_to_fabric(
            ripple_carry_netlist(5), seed=s, workers=0))
        for s in range(3)
    },
    **{
        f"rca8-seed{s}": (lambda s=s: compile_to_fabric(
            ripple_carry_netlist(8), seed=s, workers=0))
        for s in range(3)
    },
    **{
        f"mul3-seed{s}": (lambda s=s: compile_to_fabric(
            array_multiplier_netlist(3), seed=s, workers=0))
        for s in range(3)
    },
    "die-cold-stress3": lambda: compile_to_fabric(
        ripple_carry_netlist(8), defect_map=stress_die(3), seed=0, workers=0
    ),
    **{
        f"die-repair-stress{s}": (lambda s=s: repair_for_die(
            compile_to_fabric(ripple_carry_netlist(8), seed=0, workers=0),
            stress_die(s), seed=0,
        ))
        for s in (0, 15)
    },
    "one-gate-edit-rca8": lambda: compile_incremental(
        clone_with_or(ripple_carry_netlist(8)),
        compile_to_fabric(ripple_carry_netlist(8), seed=0, workers=0),
        seed=0,
    ),
    "sharded-rca32": lambda: compile_to_fabric(
        ripple_carry_netlist(32), max_side=24, seed=0, workers=0
    ),
}

PINS = {
    'die-cold-stress3': 'c6953c4eba12e47bca842f98128abaf741e9b7b610144a1b162ac5c1a05e2a09',
    'die-repair-stress0': '6fa178a593591961d3d5a76e33d53a352c13b65884e35c765d40a5176c87f259',
    'die-repair-stress15': '16663502d71abf85f4904276ff8a91559a4be0bc346bcbac950a9282d5681488',
    'mul3-seed0': '54c2963aa4571f3d0923adbc352a34d27d5e9f5f80c38b957a1d5722ea0fcee5',
    'mul3-seed1': 'efbd915648a69367506343c2b0f80994f2450ab0705b6ae76204c0f1ab160a76',
    'mul3-seed2': '230e0a6efbede118870596e86a04463f0e483b83478f430fec160a29e67c7099',
    'one-gate-edit-rca8': 'b1fd3780a76dcc835e21b1f5ad3359f7ef02c181f0f5f34f2758eea287ef7ba4',
    'rca5-seed0': 'f155854186d817bb94890956a804d96785d0f27e22e78eb6cb69a8c6492fbc98',
    'rca5-seed1': '877af7f122fad84aca45314f69744428cd02ef412f3c19ae5d92de5e3c7bcdd5',
    'rca5-seed2': '3e0f7c9c56dfd4cafa39d47715ce1a39dba741d8a37ecb2fc5a57e25dbde5a07',
    'rca8-seed0': '2faaf89990f7a42b3000c74634af25f65c6f7d843179e2ef519e7015faa2e090',
    'rca8-seed1': '7edc548071ac29efc1dff95a5bab95eb045620a566f58d566f9cbd49811deb4c',
    'rca8-seed2': '5061d810308960f1e0d5b2fab0b95a1a719947b2c4e53599daae812be3c57a0e',
    'sharded-rca32': 'd3254564865bf43c691727e00db3f5223ed364861ef17db4689dcc25d1d01e11',
    'die-attempt0-seed25': 'cf07200590ba899627dea905ff460b69e47dca15e089438e7c568a5e63de4713',
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_route_journals_are_pinned(case):
    assert result_digest(CASES[case]()) == PINS[case]


def test_retrying_die_attempt_routes_are_pinned():
    assert die_attempt0_digest() == PINS["die-attempt0-seed25"]


if __name__ == "__main__":  # print the current digests
    for name in sorted(CASES):
        print(f"    {name!r}: {result_digest(CASES[name]())!r},")
    print(f"    'die-attempt0-seed25': {die_attempt0_digest()!r},")
