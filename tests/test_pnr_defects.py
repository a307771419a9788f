"""Defect maps, defect-aware compiles, and warm-started die repair.

The ISSUE 8 contract, stated as tests:

* a :class:`DefectMap` is immutable, bounds-checked, order-free and
  content-addressed — two maps with the same defects share a digest;
* the samplers are deterministic per seed and tie into the paper's
  Section 3 variation models (``sample_die``);
* placement never seeds or anneals a gate onto a dead cell;
* a defect-aware compile verifies dual-backend **and** is proven to
  never configure a dead resource (``assert_defect_clean``);
* ``repair_for_die`` reuses the golden compile, is deterministic,
  verifies, proves cleanliness — and when a die is beyond warm repair
  it raises :class:`RepairFallback` rather than silently degrading
  (the Hypothesis sweep at the bottom states this as a property over
  random dies at several defect densities).

Repair reuses the golden placement, so its artifact is generally *not*
bit-identical to a cold defect-aware compile of the same die — the
contract is equivalence (dual-backend verify), cleanliness and
determinism, exactly as ``docs/defect-tolerance.md`` spells out.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.montecarlo import (
    analytic_cell_yield,
    cell_fail_probability,
    strict_margin_cell_yield,
)
from repro.datapath.adder import ripple_carry_netlist
from repro.fabric.array import CellArray
from repro.fabric.driver import DriverMode
from repro.fabric.floorplan import Region
from repro.fabric.nandcell import CellConfig, Direction, N_INPUTS, N_ROWS
from repro.pnr import (
    DefectMap,
    DefectViolation,
    PnrError,
    RepairFallback,
    anneal_placement,
    assert_defect_clean,
    compile_to_fabric,
    defect_violations,
    initial_placement,
    map_netlist,
    pair_blocked_cells,
    repair_for_die,
    sample_defect_map,
    sample_die,
    verify_equivalence,
)


@pytest.fixture(scope="module")
def rca4_golden():
    """One defect-free golden compile the repair tests adapt to dies."""
    return compile_to_fabric(ripple_carry_netlist(4), seed=0, workers=0)


def golden_shape(golden):
    return (golden.array.n_rows, golden.array.n_cols)


def die_for(golden, seed, cell_fail=0.01, wire_fail=0.004, stuck_fail=0.004):
    """A reproducible defective die of the golden array's shape."""
    return sample_defect_map(
        *golden_shape(golden),
        cell_fail=cell_fail,
        wire_fail=wire_fail,
        stuck_fail=stuck_fail,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# DefectMap: normalisation, validation, content addressing
# ---------------------------------------------------------------------------


def test_defect_map_normalises_collections_to_frozensets():
    dm = DefectMap(
        4, 4,
        dead_cells=[(1, 2), [3, 0], (1, 2)],
        dead_wires=[[0, 0, 5]],
        stuck_rows=((2, 2, 1),),
    )
    assert dm.dead_cells == frozenset({(1, 2), (3, 0)})
    assert dm.dead_wires == frozenset({(0, 0, 5)})
    assert dm.stuck_rows == frozenset({(2, 2, 1)})
    assert dm.n_defects == 4
    assert not dm.is_clean
    assert dm.shape == (4, 4)


def test_defect_map_is_clean_when_empty():
    assert DefectMap(3, 3).is_clean
    assert DefectMap(3, 3).n_defects == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"dead_cells": [(4, 0)]},
        {"dead_cells": [(0, -1)]},
        {"dead_wires": [(5, 0, 0)]},          # r may reach n_rows, not past
        {"dead_wires": [(0, 0, N_INPUTS)]},
        {"stuck_rows": [(0, 0, N_ROWS)]},
        {"stuck_rows": [(4, 0, 0)]},          # stuck rows live on cells
    ],
)
def test_defect_map_rejects_out_of_bounds_resources(kwargs):
    with pytest.raises(ValueError):
        DefectMap(4, 4, **kwargs)


def test_defect_map_rejects_degenerate_shape():
    with pytest.raises(ValueError):
        DefectMap(0, 4)


def test_boundary_wires_are_legal_defects():
    # r == n_rows / c == n_cols name output-pad wires off the die edge.
    dm = DefectMap(4, 4, dead_wires=[(4, 2, 0), (1, 4, 3)])
    assert dm.n_defects == 2


def test_digest_is_content_addressed():
    a = DefectMap(4, 4, dead_cells=[(1, 2), (3, 0)], stuck_rows=[(2, 2, 1)])
    b = DefectMap(4, 4, dead_cells=[(3, 0), (1, 2)], stuck_rows=[(2, 2, 1)])
    assert a.digest() == b.digest()  # construction order is irrelevant
    c = DefectMap(4, 4, dead_cells=[(1, 2)], stuck_rows=[(2, 2, 1)])
    assert a.digest() != c.digest()
    # shape participates: the same defects on a bigger die are a
    # different die
    d = DefectMap(5, 4, dead_cells=[(1, 2), (3, 0)], stuck_rows=[(2, 2, 1)])
    assert a.digest() != d.digest()
    assert DefectMap(4, 4).digest() != DefectMap(5, 5).digest()


# ---------------------------------------------------------------------------
# Samplers: determinism and the variation-model tie-in
# ---------------------------------------------------------------------------


def test_sampler_is_deterministic_per_seed():
    kw = dict(cell_fail=0.05, wire_fail=0.02, stuck_fail=0.02)
    a = sample_defect_map(20, 20, **kw, seed=7)
    b = sample_defect_map(20, 20, **kw, seed=7)
    c = sample_defect_map(20, 20, **kw, seed=8)
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()
    assert a.n_defects > 0


def test_sampler_zero_rates_draw_a_clean_die():
    assert sample_defect_map(16, 16, seed=3).is_clean


@pytest.mark.parametrize("name", ["cell_fail", "wire_fail", "stuck_fail"])
def test_sampler_validates_probabilities(name):
    with pytest.raises(ValueError):
        sample_defect_map(4, 4, **{name: 1.5})
    with pytest.raises(ValueError):
        sample_defect_map(4, 4, **{name: -0.1})


def test_sample_die_matches_explicit_variation_rates():
    # sample_die is exactly sample_defect_map fed by the montecarlo
    # models: same seed, same rates, same die.
    sigma = 0.25
    p_cell = cell_fail_probability(sigma)
    explicit = sample_defect_map(
        12, 12,
        cell_fail=p_cell,
        wire_fail=0.25 * p_cell,
        stuck_fail=1.0 - strict_margin_cell_yield(sigma),
        seed=11,
    )
    assert sample_die(12, 12, sigma_vt=sigma, seed=11).digest() == explicit.digest()


def test_sample_die_ideal_process_is_defect_free():
    # sigma 0 is the ideal-process limit: every failure rate collapses
    # to zero, so every die of the lot is clean.
    assert sample_die(16, 16, sigma_vt=0.0, seed=5).is_clean


def test_sample_die_validates_wire_fraction():
    with pytest.raises(ValueError):
        sample_die(4, 4, sigma_vt=0.1, wire_fail_frac=2.0)


# ---------------------------------------------------------------------------
# Variation-model edge cases (the montecarlo satellite)
# ---------------------------------------------------------------------------


def test_analytic_cell_yield_sigma_zero_is_the_ideal_limit():
    assert analytic_cell_yield(0.0) == 1.0
    # A widened force margin pushes the good interval above the nominal
    # threshold: with zero spread every cell then fails.
    assert analytic_cell_yield(0.0, margin=0.5) == 0.0


def test_analytic_cell_yield_rejects_negative_sigma():
    with pytest.raises(ValueError):
        analytic_cell_yield(-0.01)
    with pytest.raises(ValueError):
        strict_margin_cell_yield(-0.01)


def test_analytic_cell_yield_collapses_at_extreme_sigma():
    assert analytic_cell_yield(1e3) < 1e-3
    assert strict_margin_cell_yield(1e3) < 0.1


def test_yields_are_probabilities_and_decrease_with_sigma():
    grid = [0.0, 0.05, 0.1, 0.2, 0.4]
    for fn in (analytic_cell_yield, strict_margin_cell_yield):
        ys = [fn(s) for s in grid]
        assert all(0.0 <= y <= 1.0 for y in ys)
        assert ys == sorted(ys, reverse=True), f"{fn.__name__} not monotone"
    assert strict_margin_cell_yield(0.0) == 1.0


def test_cell_fail_probability_is_the_yield_complement():
    for sigma in (0.0, 0.1, 0.3):
        assert cell_fail_probability(sigma) == pytest.approx(
            1.0 - analytic_cell_yield(sigma)
        )


# ---------------------------------------------------------------------------
# Pair blocking: wire and row defects veto 2-cell macro starts
# ---------------------------------------------------------------------------


def test_pair_blocked_cells_covers_internal_wires():
    # Wire (2, 3, 1) is inside the pair span: a pair starting at (2, 3)
    # reads it as a pin, one starting at (2, 2) drives it internally.
    dm = DefectMap(6, 6, dead_wires=[(2, 3, 1)])
    assert pair_blocked_cells(dm) == frozenset({(2, 3), (2, 2)})


def test_pair_blocked_cells_ignores_wires_above_the_span():
    # Wire index 5 is neither a pair pin column nor an internal row, so
    # it never vetoes a pair (plain gates are covered by the clean
    # check, not by pair blocking).
    dm = DefectMap(6, 6, dead_wires=[(2, 3, 5)])
    assert pair_blocked_cells(dm) == frozenset()


def test_pair_blocked_cells_covers_stuck_rows():
    dm = DefectMap(6, 6, stuck_rows=[(4, 1, 0)])
    assert pair_blocked_cells(dm) == frozenset({(4, 1), (4, 0)})


def test_pair_blocked_cells_excludes_dead_cells():
    # Dead cells are hard-blocked by the placement grid itself; the
    # pair veto is only for the subtler wire/row defects.
    dm = DefectMap(6, 6, dead_cells=[(1, 1)])
    assert pair_blocked_cells(dm) == frozenset()


# ---------------------------------------------------------------------------
# Placement: dead sites are never seeded and never annealed onto
# ---------------------------------------------------------------------------


def placed_cells(design, placement):
    cells = set()
    for gate in design.gates.values():
        cells.update(placement.cells_of(gate))
    return cells


def test_initial_placement_avoids_blocked_cells():
    design = map_netlist(ripple_carry_netlist(4))
    region = Region("t", 0, 0, 20, 20)
    blocked = frozenset(
        (r, c) for r in range(20) for c in range(20) if (r * 7 + c * 3) % 13 == 0
    )
    placement = initial_placement(
        design, region, random.Random(0), blocked=blocked
    )
    assert not placed_cells(design, placement) & blocked


def test_anneal_never_moves_onto_blocked_cells():
    design = map_netlist(ripple_carry_netlist(4))
    region = Region("t", 0, 0, 20, 20)
    blocked = frozenset(
        (r, c) for r in range(20) for c in range(20) if (r + 2 * c) % 11 == 0
    )
    placement = initial_placement(
        design, region, random.Random(0), blocked=blocked
    )
    annealed = anneal_placement(
        design, placement, random.Random(1),
        steps=600, blocked=blocked,
    )
    assert not placed_cells(design, annealed) & blocked


def test_initial_placement_jams_when_the_die_is_mostly_dead():
    design = map_netlist(ripple_carry_netlist(4))
    region = Region("t", 0, 0, 12, 12)
    blocked = frozenset(
        (r, c) for r in range(12) for c in range(12) if (r + c) % 5 != 4
    )
    from repro.pnr import PlacementError

    with pytest.raises(PlacementError):
        initial_placement(design, region, random.Random(0), blocked=blocked)


# ---------------------------------------------------------------------------
# The clean checker: every defect kind is detected on a hand-built array
# ---------------------------------------------------------------------------


def test_clean_checker_passes_a_blank_array():
    dm = DefectMap(3, 3, dead_cells=[(1, 1)], dead_wires=[(1, 1, 2)],
                   stuck_rows=[(0, 0, 1)])
    array = CellArray(3, 3)
    assert defect_violations(array, dm) == []
    assert_defect_clean(array, dm)  # does not raise


def test_clean_checker_flags_a_configured_dead_cell():
    dm = DefectMap(3, 3, dead_cells=[(1, 1)])
    array = CellArray(3, 3)
    cfg = CellConfig().set_product(0, [0])
    cfg.drivers[0] = DriverMode.BUFFER
    array.set_cell(1, 1, cfg)
    (violation,) = defect_violations(array, dm)
    assert "dead cell" in violation


def test_clean_checker_flags_a_programmed_stuck_row():
    dm = DefectMap(3, 3, stuck_rows=[(2, 0, 3)])
    array = CellArray(3, 3)
    cfg = CellConfig().set_product(3, [1])
    cfg.drivers[3] = DriverMode.BUFFER
    array.set_cell(2, 0, cfg)
    (violation,) = defect_violations(array, dm)
    assert "stuck" in violation


def test_clean_checker_flags_driving_a_dead_wire_east():
    dm = DefectMap(3, 3, dead_wires=[(1, 1, 2)])
    array = CellArray(3, 3)
    # Wire (1, 1, 2)'s west driver is cell (1, 0), row 2, EAST.
    cfg = CellConfig().set_product(2, [0])
    cfg.drivers[2] = DriverMode.BUFFER
    cfg.directions[2] = Direction.EAST
    array.set_cell(1, 0, cfg)
    (violation,) = defect_violations(array, dm)
    assert "drives dead wire" in violation


def test_clean_checker_flags_driving_a_dead_wire_north():
    dm = DefectMap(3, 3, dead_wires=[(1, 1, 2)])
    array = CellArray(3, 3)
    # Wire (1, 1, 2)'s south driver is cell (0, 1), row 2, NORTH.
    cfg = CellConfig().set_product(2, [0])
    cfg.drivers[2] = DriverMode.BUFFER
    cfg.directions[2] = Direction.NORTH
    array.set_cell(0, 1, cfg)
    (violation,) = defect_violations(array, dm)
    assert "drives dead wire" in violation


def test_clean_checker_flags_reading_a_dead_wire():
    dm = DefectMap(3, 3, dead_wires=[(1, 1, 2)])
    array = CellArray(3, 3)
    # Cell (1, 1) reads wire (1, 1, 2) through input column 2.
    cfg = CellConfig().set_product(0, [2])
    cfg.drivers[0] = DriverMode.BUFFER
    array.set_cell(1, 1, cfg)
    (violation,) = defect_violations(array, dm)
    assert "reads dead wire" in violation


def test_clean_checker_ignores_unrelated_configuration():
    # A fully-used cell far from every defect is not a violation.
    dm = DefectMap(3, 3, dead_cells=[(2, 2)], dead_wires=[(2, 2, 0)])
    array = CellArray(3, 3)
    cfg = CellConfig().set_product(0, [0, 1])
    cfg.drivers[0] = DriverMode.BUFFER
    array.set_cell(0, 0, cfg)
    assert defect_violations(array, dm) == []


def test_assert_defect_clean_raises_with_a_sample_of_violations():
    dm = DefectMap(3, 3, dead_cells=[(1, 1)])
    array = CellArray(3, 3)
    cfg = CellConfig().set_product(0, [0])
    cfg.drivers[0] = DriverMode.BUFFER
    array.set_cell(1, 1, cfg)
    with pytest.raises(DefectViolation, match="dead cell"):
        assert_defect_clean(array, dm)


def test_cell_returns_a_copy_and_set_cell_is_the_only_writer():
    # The checkers above configure cells through set_cell because
    # cell() decodes a copy: editing it leaves the array's digits alone.
    array = CellArray(3, 3)
    before = array.to_digits()
    cfg = array.cell(1, 1)
    cfg.set_product(0, [0])
    cfg.drivers[0] = DriverMode.BUFFER
    assert array.to_digits() == before
    assert array.cell(1, 1).is_blank()
    assert defect_violations(array, DefectMap(3, 3, dead_cells=[(1, 1)])) == []
    array.set_cell(1, 1, cfg)
    assert array.cell(1, 1) == cfg and array.to_digits() != before
    cfg.drivers[1] = DriverMode.BUFFER  # later edits are not seen either
    assert array.cell(1, 1).drivers[1] is DriverMode.OFF
    # set_cell validates before it writes anything.
    written = array.to_digits()
    bad = CellConfig()
    bad.lfb_taps[0] = 9
    with pytest.raises(ValueError, match="lfb tap"):
        array.set_cell(0, 0, bad)
    assert array.to_digits() == written


# ---------------------------------------------------------------------------
# Defect-aware cold compiles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("die_seed", [1, 2, 3])
def test_defect_aware_compile_verifies_and_is_clean(rca4_golden, die_seed):
    dm = die_for(rca4_golden, die_seed)
    assert dm.n_defects > 0
    result = compile_to_fabric(
        ripple_carry_netlist(4), defect_map=dm, seed=0, workers=0
    )
    verify_equivalence(result, n_vectors=64, event_vectors=2)
    assert_defect_clean(result.array, dm)


def test_defect_map_pins_the_array_shape(rca4_golden):
    rows, cols = golden_shape(rca4_golden)
    dm = DefectMap(rows + 3, cols + 2, dead_cells=[(0, 0)])
    result = compile_to_fabric(
        ripple_carry_netlist(4), defect_map=dm, seed=0, workers=0
    )
    assert (result.array.n_rows, result.array.n_cols) == dm.shape


def test_defect_map_shape_must_match_an_explicit_array():
    dm = DefectMap(12, 12)
    with pytest.raises(PnrError, match="12x12"):
        compile_to_fabric(
            ripple_carry_netlist(4), array=CellArray(14, 14), defect_map=dm,
            seed=0, workers=0,
        )


def test_defect_map_is_incompatible_with_sharding():
    dm = DefectMap(12, 12)
    with pytest.raises(PnrError, match="shard"):
        compile_to_fabric(
            ripple_carry_netlist(8), shards=2, defect_map=dm,
            seed=0, workers=0,
        )


def test_defect_aware_compile_exhausts_the_retry_ladder_on_a_dead_die():
    # Nearly every cell dead: every placement attempt jams, and the
    # flow reports the failure instead of emitting onto dead silicon.
    rows = cols = 12
    dm = DefectMap(
        rows, cols,
        dead_cells=[(r, c) for r in range(rows) for c in range(cols)
                    if (r + c) % 6 != 5],
    )
    with pytest.raises(PnrError):
        compile_to_fabric(
            ripple_carry_netlist(4), defect_map=dm, seed=0, workers=0,
            max_attempts=2,
        )


# ---------------------------------------------------------------------------
# Warm-started per-die repair
# ---------------------------------------------------------------------------


def test_repair_verifies_cleans_and_reuses_the_golden_work(rca4_golden):
    dm = die_for(rca4_golden, seed=1)
    assert dm.n_defects > 0
    stats = {}
    repaired = repair_for_die(rca4_golden, dm, seed=0, stats=stats)
    verify_equivalence(repaired, n_vectors=64, event_vectors=2)
    assert_defect_clean(repaired.array, dm)
    # The point of repair is reuse: most nets replay from the golden
    # journals instead of being searched from scratch.
    assert stats["replayed"] > stats["searched"]
    assert stats["moved"] >= stats["displaced"]


def test_repair_of_a_clean_die_reproduces_the_golden_bitstream(rca4_golden):
    dm = DefectMap(*golden_shape(rca4_golden))
    repaired = repair_for_die(rca4_golden, dm, seed=0)
    assert np.array_equal(
        repaired.to_bitstream(), rca4_golden.to_bitstream()
    )


def test_repair_is_deterministic(rca4_golden):
    dm = die_for(rca4_golden, seed=2)
    a = repair_for_die(rca4_golden, dm, seed=0)
    b = repair_for_die(rca4_golden, dm, seed=0)
    assert np.array_equal(a.to_bitstream(), b.to_bitstream())


def test_repair_demands_a_matching_die_shape(rca4_golden):
    rows, cols = golden_shape(rca4_golden)
    with pytest.raises(RepairFallback, match="die"):
        repair_for_die(rca4_golden, DefectMap(rows + 1, cols), seed=0)


def test_repair_demands_a_single_array_golden():
    with pytest.raises(RepairFallback, match="PnrResult"):
        repair_for_die("not a compile", DefectMap(4, 4))


def test_repair_falls_back_provably_on_a_hopeless_die(rca4_golden):
    rows, cols = golden_shape(rca4_golden)
    dm = DefectMap(
        rows, cols,
        dead_cells=[(r, c) for r in range(rows) for c in range(cols)],
    )
    with pytest.raises(RepairFallback):
        repair_for_die(rca4_golden, dm, seed=0)


def test_a_failed_defect_proof_falls_back_in_repair_and_raises_cold(
    rca4_golden, monkeypatch
):
    """Compile and repair share one back half, with one split: repair
    turns a failed defect proof into :class:`RepairFallback` (the die is
    then compiled cold), while the cold path, which blocks every defect
    up front, lets the :class:`DefectViolation` propagate as a bug."""
    import repro.pnr.defects as defects_module

    def refuse(array, defect_map):
        raise DefectViolation("configuration touches defects: forced")

    monkeypatch.setattr(defects_module, "assert_defect_clean", refuse)
    dm = die_for(rca4_golden, seed=1)
    with pytest.raises(RepairFallback, match="emitted onto a defect.*forced"):
        repair_for_die(rca4_golden, dm, seed=0)
    with pytest.raises(DefectViolation, match="forced"):
        compile_to_fabric(
            ripple_carry_netlist(4), defect_map=dm, seed=0, workers=0
        )


# ---------------------------------------------------------------------------
# The property: repair never silently degrades
# ---------------------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(
    die_seed=st.integers(min_value=0, max_value=10_000),
    density=st.sampled_from([0.0005, 0.002, 0.008, 0.02]),
)
def test_repair_contract_holds_for_random_dies(rca4_golden, die_seed, density):
    """For any die: an equivalent clean artifact, or a provable fallback.

    Sweeps defect densities from light (warm repair trivially wins) to
    heavy (fallback territory).  Whatever the die, the outcome is one
    of exactly two things — a repaired result that verifies on both
    backends, touches no dead resource and is deterministic, or a
    :class:`RepairFallback` whose cold defect-aware escalation itself
    either compiles cleanly or raises.  There is no third, silent
    outcome.
    """
    dm = sample_defect_map(
        *golden_shape(rca4_golden),
        cell_fail=density,
        wire_fail=0.4 * density,
        stuck_fail=0.4 * density,
        seed=die_seed,
    )
    try:
        repaired = repair_for_die(rca4_golden, dm, seed=0)
    except RepairFallback:
        try:
            cold = compile_to_fabric(
                ripple_carry_netlist(4), defect_map=dm, seed=0,
                workers=0, max_attempts=3,
            )
        except PnrError:
            return  # the die is provably unusable, reported loudly
        verify_equivalence(cold, n_vectors=32, event_vectors=1)
        assert_defect_clean(cold.array, dm)
        return
    verify_equivalence(repaired, n_vectors=32, event_vectors=1)
    assert_defect_clean(repaired.array, dm)
    again = repair_for_die(rca4_golden, dm, seed=0)
    assert np.array_equal(repaired.to_bitstream(), again.to_bitstream())


# ---------------------------------------------------------------------------
# Dies whose cold defect-aware compile needs retries
# ---------------------------------------------------------------------------
# On a die the array shape is pinned, so a retry gets no larger, sparser
# grid: every attempt anneals, and the anneal finds room around the dead
# cells.  These dies once failed every attempt.

def test_open_defect_mul3_die_seed_82():
    from repro.datapath.multiplier import array_multiplier_netlist
    from repro.service import CompileService

    with CompileService(workers=0) as svc:
        served = svc.compile_for_die(
            array_multiplier_netlist(3),
            sample_defect_map(24, 24, cell_fail=0.002, seed=82),
        )
    assert served.result.defect_map is not None


@pytest.mark.parametrize("dead", [
    # perfbench ``warm`` seed 25's rca8 die.
    [(1, 13), (2, 7), (10, 19), (12, 11), (13, 22), (22, 11), (27, 12),
     (27, 29)],
    # perfbench ``warm`` seed 602's rca8 die.
    [(10, 11), (11, 5), (14, 1), (15, 9), (16, 2)],
], ids=["warm-seed25", "warm-seed602"])
def test_retrying_rca8_dies_compile_at_seed_0(dead):
    die = DefectMap(31, 31, dead)
    res = compile_to_fabric(
        ripple_carry_netlist(8), defect_map=die, seed=0, workers=0
    )
    assert_defect_clean(res.array, die)
    verify_equivalence(res, n_vectors=32, event_vectors=1)


# ---------------------------------------------------------------------------
# Open defect of the defect-aware flow, pinned until fixed
# ---------------------------------------------------------------------------
# ``strict=True`` makes a fix flip this test red, so whoever fixes the
# flow also moves it into the passing suite.

@pytest.mark.xfail(strict=True, raises=PnrError, reason=(
    "open defect: five dead cells leave 6 of 9 rca8 nets unroutable on "
    "its 31x31 die"
))
def test_open_defect_rca8_die_seed_788060227():
    from repro.service import CompileService

    with CompileService(workers=0) as svc:
        svc.compile_for_die(
            ripple_carry_netlist(8),
            sample_defect_map(31, 31, cell_fail=0.002, seed=788060227),
        )
