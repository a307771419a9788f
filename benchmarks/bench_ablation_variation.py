"""Ablation (Section 3 manufacturability claim): undoped DG vs doped bulk.

The paper's device-level argument — "the undoped channel region eliminates
performance variations ... due to random dopant dispersion" — quantified as
fabric configurability yield: Monte-Carlo over whole arrays of leaf cells,
with the analytic Gaussian cross-check.

Second half: the *functional* Monte-Carlo (gate-level fault sweep over the
Fig. 10 adder slice) run on both simulation backends, measuring the
configurations-per-second speedup the bit-parallel batch engine delivers
over one-at-a-time event simulation.
"""

import numpy as np

from repro.arch.montecarlo import (
    analytic_cell_yield,
    cell_fail_probability,
    compare_device_options,
    functional_fabric_yield,
)
from repro.core.report import ExperimentReport
from repro.devices.variation import bulk_rdf_sigma_vt, dg_geometric_sigma_vt
from repro.netlist import BatchBackend, EventBackend
from repro.synth.macros import full_adder_testbench


def run_mc():
    return compare_device_options(
        n_arrays=300, blocks_per_array=64, length_nm=10.0,
        rng=np.random.default_rng(42),
    )


def test_variation_ablation(benchmark):
    dg, bulk = benchmark(run_mc)
    rep = ExperimentReport("ablation", "RDF-free DG vs doped bulk at 10 nm")
    rep.add("sigma_VT, undoped DG", "geometry-limited (small)",
            f"{dg.sigma_vt * 1e3:.1f} mV")
    rep.add("sigma_VT, doped bulk", "RDF-dominated (large at 10 nm)",
            f"{bulk.sigma_vt * 1e3:.1f} mV",
            verdict="match" if bulk.sigma_vt > 5 * dg.sigma_vt else "deviation")
    rep.add("leaf-cell configurability yield",
            "DG ~ 1, bulk degraded",
            f"DG {dg.cell_yield:.4f} vs bulk {bulk.cell_yield:.4f}",
            verdict="match" if dg.cell_yield > bulk.cell_yield else "deviation")
    rep.add("6x6 block yield", "bulk collapses at block granularity",
            f"DG {dg.block_yield:.4f} vs bulk {bulk.block_yield:.4f}",
            verdict="match" if dg.block_yield > bulk.block_yield + 0.2 else "deviation")
    ana_bulk = analytic_cell_yield(bulk.sigma_vt)
    rep.add("Monte-Carlo vs analytic (bulk)", "agree",
            f"{bulk.cell_yield:.4f} vs {ana_bulk:.4f}",
            verdict="match" if abs(bulk.cell_yield - ana_bulk) < 0.02 else "deviation")
    print()
    print(rep.render())
    print()
    print("  sigma_VT vs gate length (bulk RDF / DG geometric), nm -> mV:")
    for length in (50.0, 25.0, 10.0):
        print(f"    {length:4.0f} nm: bulk {bulk_rdf_sigma_vt(length, length) * 1e3:6.1f}"
              f"  dg {float(dg_geometric_sigma_vt(length)) * 1e3:5.2f}")
    assert rep.all_match()


def run_functional_yield_comparison(
    n_event_configs: int = 40, n_batch_configs: int = 4000
) -> dict:
    """Functional yield on both backends: the ``microbench.mc_yield`` row.

    The batch run evaluates 100x the configurations of the event run —
    the throughput metric (configs/second) is what is compared.
    """
    nl, stim, golden = full_adder_testbench()
    p_fail = cell_fail_probability(bulk_rdf_sigma_vt(10.0, 10.0))
    event = functional_fabric_yield(
        nl, stim, golden, p_fail, n_event_configs,
        rng=np.random.default_rng(42), backend=EventBackend(),
        label="event one-at-a-time",
    )
    batch = functional_fabric_yield(
        nl, stim, golden, p_fail, n_batch_configs,
        rng=np.random.default_rng(42), backend=BatchBackend(),
        label="batch bit-parallel",
    )
    return {
        "event_configs_per_s": round(event.configs_per_second),
        "batch_configs_per_s": round(batch.configs_per_second),
        "speedup": round(batch.configs_per_second / event.configs_per_second, 1),
        "event_yield": event.functional_yield,
        "batch_yield": batch.functional_yield,
    }


def test_functional_yield_batch_speedup(record_row):
    row = record_row("mc_yield", run_functional_yield_comparison())
    rep = ExperimentReport(
        "mc-backends", "Monte-Carlo functional yield: batch vs event backend"
    )
    rep.add(
        "event throughput", "baseline (1 config per simulation)",
        f"{row['event_configs_per_s']:,} configs/s",
    )
    rep.add(
        "batch throughput", ">= 10x the event backend",
        f"{row['batch_configs_per_s']:,} configs/s ({row['speedup']:,.0f}x)",
        verdict="match" if row["speedup"] >= 10 else "deviation",
    )
    rep.add(
        "yield agreement", "both engines sample the same model",
        f"event {row['event_yield']:.3f} vs batch {row['batch_yield']:.3f}",
        verdict="match"
        if abs(row["event_yield"] - row["batch_yield"]) < 0.15
        else "deviation",
    )
    print()
    print(rep.render())
    assert rep.all_match()
