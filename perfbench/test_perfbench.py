"""The benchmark's own arithmetic: percentiles, span self time, seeded inputs.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

import itertools
from types import SimpleNamespace

import pytest

import percentiles
import run
import spans
import workloads
from spans import Span


def take(stream, n):
    return list(itertools.islice(stream, n))


class TestPercentileRule:
    def test_needs_ten_samples_beyond(self):
        assert percentiles.percentile(range(1, 101), 90) == 90
        with pytest.raises(percentiles.TooFewSamples):
            percentiles.percentile(range(1, 100), 90)

    def test_p99_needs_a_thousand(self):
        assert percentiles.percentile(range(1, 1001), 99) == 990
        with pytest.raises(percentiles.TooFewSamples):
            percentiles.percentile(range(1, 1000), 99)

    def test_median_is_nearest_rank(self):
        assert percentiles.percentile([5, 1, 4, 2, 3] * 4, 50) == 3
        with pytest.raises(percentiles.TooFewSamples):
            percentiles.percentile(range(19), 50)

    def test_beyond_counts_samples_above_the_rank(self):
        assert percentiles.beyond(100, 90) == 10
        assert percentiles.beyond(1000, 99) == 10
        assert percentiles.beyond(150, 90) == 15

    def test_min_samples_is_the_fewest_accepted(self):
        for q in (50, 90, 99):
            n = percentiles.min_samples(q)
            percentiles.percentile(range(n), q)
            with pytest.raises(percentiles.TooFewSamples):
                percentiles.percentile(range(n - 1), q)
        assert percentiles.min_samples(90) == 100

    def test_rejects_out_of_range_q(self):
        with pytest.raises(ValueError):
            percentiles.percentile(range(100), 100)

    def test_geomean(self):
        assert percentiles.geomean([1, 4, 16]) == pytest.approx(4.0)


class TestSelfTime:
    def test_nested_children_are_subtracted(self):
        tree = [
            Span(0, "op", 0.0, 10.0, None, 1),
            Span(1, "flow", 1.0, 9.0, 0, 1),
            Span(2, "route", 2.0, 5.0, 1, 1),
            Span(3, "emit", 6.0, 7.0, 1, 1),
        ]
        selfs = spans.self_times(tree)
        assert selfs == {0: 2.0, 1: 4.0, 2: 3.0, 3: 1.0}
        assert sum(selfs.values()) == 10.0

    def test_overlapping_children_count_once_and_clip(self):
        # Children on two threads overlap each other and outlive the parent.
        tree = [
            Span(0, "op", 0.0, 10.0, None, 1),
            Span(1, "service.queue_wait", 1.0, 4.0, 0, 1),
            Span(2, "service.run", 3.0, 12.0, 0, 1),
        ]
        assert spans.self_times(tree)[0] == pytest.approx(1.0)

    def test_covered_union(self):
        assert spans.covered(0, 10, [(1, 3), (2, 4), (8, 20)]) == 5
        assert spans.covered(0, 10, []) == 0

    def test_coverage_counts_gc_pauses_inside_ops(self):
        tree = [
            Span(0, "op", 0.0, 10.0, None, 1),
            Span(1, "canonical.hash", 0.0, 6.0, 0, 1),
            Span(2, "gc.gen2", 5.0, 8.0, None, None),
            Span(3, "op", 20.0, 30.0, None, 2),
            Span(4, "store.get", 20.0, 30.0, 3, 2),
        ]
        assert spans.coverage(tree) == pytest.approx((8 + 10) / 20)

    def test_layer_metrics_rates_and_means(self):
        tree = [
            Span(0, "op", 0.0, 1.0, None, 1),
            Span(1, "flow", 0.0, 1.0, 0, 1),
            Span(2, "place.seed", 0.0, 0.1, 1, 1),
            Span(3, "route", 0.1, 0.4, 1, 1, outcome="RoutingError"),
            Span(4, "place.seed", 0.4, 0.5, 1, 1),
            Span(5, "route", 0.5, 0.7, 1, 1),
        ]
        m = spans.layer_metrics(tree)
        assert m["flow.attempts_per_compile"] == (2.0, "ratio")
        assert m["route.failures"] == (1.0, "1/op")
        assert m["route.ms"][0] == pytest.approx(250.0)
        assert m["flow.self_ms"][0] == pytest.approx(300.0)
        assert m["trace.coverage"][0] == pytest.approx(1.0)


class ScriptedService:
    """Answers ``submit`` with scripted replies: an exception is raised."""

    def __init__(self, replies):
        self.replies = iter(replies)

    def submit(self, netlist, options):
        reply = next(self.replies)
        return SimpleNamespace(result=lambda: _answer(reply))


def _answer(reply):
    if isinstance(reply, Exception):
        raise reply
    return reply


class TestVerdict:
    """A run is correct only if no op failed, whether or not the oracle saw it."""

    KEY, STATS = ("catalogue", 0), "stats-0"

    def reply(self, key=KEY, stats=STATS, degraded=False):
        return SimpleNamespace(key=key, result=SimpleNamespace(stats=stats),
                               degraded=degraded)

    def serve(self, last):
        """Three good serve ops, then ``last``, through the real loop."""
        workload = workloads.Serve(0)
        state = {"refs": [(None, None, self.KEY, self.STATS, b"")]}
        svc = ScriptedService([self.reply()] * 3 + [last])
        ops, _ = run.run_phase(workload, state, svc, [itertools.repeat(0)],
                               itertools.count(), 0.0, min_ops=4)
        return ops

    def test_all_good_is_correct(self):
        ops = self.serve(self.reply())
        assert run.verdict(ops, {}, {}) == {
            "correct": True, "attempted": 4, "failed": 0, "metrics": {}}

    @pytest.mark.parametrize("make_last", [
        lambda t: RuntimeError("PnrError: no routable placement"),
        lambda t: t.reply(degraded=True),
        lambda t: t.reply(key=("other", 1)),
        lambda t: t.reply(stats="stats-1"),
    ], ids=["raised", "degraded", "wrong-key", "wrong-stats"])
    def test_one_failed_op_makes_the_run_incorrect(self, make_last):
        ops = self.serve(make_last(self))
        assert [bool(op.error) for op in ops] == [False] * 3 + [True]
        line = run.verdict(ops, {}, {})
        assert (line["correct"], line["failed"]) == (False, 1)

    def test_oracle_failure_makes_the_run_incorrect(self):
        ops = self.serve(self.reply())
        line = run.verdict(ops, {ops[0].rid: "not equivalent"}, {})
        assert (line["correct"], line["failed"]) == (False, 1)


class TestTracedService:
    def test_spans_nest_under_the_request(self):
        from repro.datapath.multiplier import array_multiplier_netlist
        from repro.service import CompileService, CompileOptions

        tracer = spans.Tracer()
        undo = spans.instrument(tracer)
        try:
            with CompileService(workers=2) as svc, tracer.op(7):
                svc.submit(array_multiplier_netlist(2), CompileOptions(seed=3)).result()
        finally:
            undo()
        by_name = {s.name: s for s in tracer.spans}
        assert {"op", "canonical.hash", "service.queue_wait", "service.run",
                "flow", "techmap", "place.seed", "route", "emit"} <= set(by_name)
        assert all(s.rid == 7 for s in tracer.spans if s.name != "gc.gen2")
        assert by_name["flow"].parent == by_name["service.run"].sid
        assert by_name["route"].parent == by_name["flow"].sid
        assert by_name["service.run"].parent == by_name["op"].sid

    def test_undo_restores_the_program(self):
        from repro.pnr import flow
        from repro.service import service

        before = (flow.map_netlist, service.canonical_hash)
        spans.instrument(spans.Tracer())()
        assert (flow.map_netlist, service.canonical_hash) == before


class TestSeededInputs:
    @pytest.mark.parametrize("make", [
        lambda seed: workloads.cold_inputs(seed),
        lambda seed: workloads.serve_inputs(seed, 1, 24),
        lambda seed: workloads.warm_inputs(seed, (31, 31)),
    ])
    def test_same_seed_same_inputs(self, make):
        assert take(make(5), 40) == take(make(5), 40)
        assert take(make(5), 40) != take(make(6), 40)

    def test_catalogue_is_seeded(self):
        assert workloads.serve_catalogue(3) == workloads.serve_catalogue(3)
        assert workloads.serve_catalogue(3) != workloads.serve_catalogue(4)
        assert len(set(workloads.serve_catalogue(3))) == 24

    def test_cold_keys_never_repeat_and_mix_is_exact(self):
        k = len(workloads.COLD_DESIGNS)
        jobs = take(workloads.cold_inputs(9), 100 * k)
        assert len(set(jobs)) == 100 * k
        for block in range(0, 100 * k, k):
            names = sorted(name for name, _ in jobs[block:block + k])
            assert names == sorted(workloads.COLD_DESIGNS)

    def test_warm_dies_are_distinct_and_defective(self):
        ops = take(workloads.warm_inputs(2, (31, 31)), 200)
        dies = [op[2] for op in ops if op[0] == "die"]
        assert len({d.digest() for d in dies}) == len(dies) == 100
        assert all(d.dead_cells for d in dies)
        edits = [op for op in ops if op[0] == "edit"]
        assert len({op[3] for op in edits}) == len(edits)

    def test_edits_complement_one_gate(self):
        nl = workloads.build("rca8")
        cell = next(c for c in nl.cells if c.kind == "and")
        edited = workloads.complement(nl, cell.name)
        changed = [
            (a.kind, b.kind) for a, b in zip(nl.cells, edited.cells)
            if a.kind != b.kind
        ]
        assert changed == [("and", "nand")]
