"""Run one workload of the compile-service benchmark and print its metrics.

    python3 perfbench/run.py --workload cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program under test is imported
from ``src/`` next to this directory.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
from a traced run with ``--trace 1``).  See ``README.md`` here.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import multiprocessing
import resource
import shutil
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import percentiles
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for stores and span dumps, inside the checkout.
WORK = HERE / "_work"
#: Worker processes that check the artifacts after the timed window.
AUDIT_PROCESSES = 2


def import_workloads():
    """Put the checkout's ``src`` first on the path; import the workloads."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    import workloads

    return workloads


def run_phase(workload, state, svc, streams, rids, seconds, min_ops,
              tracer=None):
    """Closed loop: each client sends its next request when one returns.

    The window lasts ``seconds``, or longer until the clients together
    have finished ``min_ops`` ops: a slow host makes a slow run, not one
    short of the samples its percentiles need.
    """
    from workloads import Op

    done = [[] for _ in streams]
    deadline = perf_counter() + seconds

    def client(stream, ops):
        while perf_counter() < deadline or sum(map(len, done)) < min_ops:
            item = next(stream)
            call = workload.prepare(state, item)
            rid = next(rids)
            scope = tracer.op(rid) if tracer is not None else nullcontext()
            start = perf_counter()
            try:
                with scope:
                    res = call(svc)
            except Exception as e:  # noqa: BLE001 - a failed op is data
                ops.append(Op(rid, start, perf_counter(),
                              error=f"{type(e).__name__}: {e}"))
                continue
            end = perf_counter()
            ops.append(workload.observe(state, Op(rid, start, end), item, res))

    began = perf_counter()
    if len(streams) == 1:
        client(streams[0], done[0])
    else:
        with ThreadPoolExecutor(max_workers=len(streams)) as clients:
            for f in [clients.submit(client, *a) for a in zip(streams, done)]:
                f.result()
    ops = [op for client_ops in done for op in client_ops]
    wall = max(op.end for op in ops) - began
    return sorted(ops, key=lambda op: op.rid), wall


def run_audits(store_root, audits, failures):
    """The oracle, on worker processes after the window; returns the digest.

    Records each failed audit against the ops it answered and hashes
    the bitstreams the audits returned, in audit order.
    """
    from workloads import audit

    chunks = [list(range(i, len(audits), AUDIT_PROCESSES))
              for i in range(AUDIT_PROCESSES)]
    results = [None] * len(audits)
    # Fork, not spawn: a spawn pool starts multiprocessing's resource
    # tracker, a process that outlives the run.  The service's threads
    # have all been joined by now, so forking is safe.
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(AUDIT_PROCESSES, mp_context=fork) as pool:
        futures = {
            pool.submit(audit, str(store_root),
                        [audits[i] for i in chunk]): chunk
            for chunk in chunks if chunk
        }
        for future, chunk in futures.items():
            for i, result in zip(chunk, future.result()):
                results[i] = result
    digest, n = hashlib.sha256(), 0
    for a, (failure, bits) in zip(audits, results):
        if failure:
            for rid in a.rids:
                failures.setdefault(rid, failure)
        if bits is not None:
            digest.update(bits)
            n += 1
    return digest.hexdigest(), n


def latencies_ms(ops):
    """Failed ops miss every latency limit: they count as infinitely slow."""
    return [float("inf") if op.error else 1000 * (op.end - op.start) for op in ops]


def metric(value, unit):
    return {"value": value, "unit": unit}


def count_failed(ops, failures) -> int:
    """Ops that raised, came back degraded or wrong (``op.error``), or
    failed the oracle (``failures``)."""
    return sum(1 for op in ops if op.error or op.rid in failures)


def verdict(ops, failures, metrics) -> dict:
    """The result line: the run is correct only if no op failed."""
    failed = count_failed(ops, failures)
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }


def reset_peak_rss() -> bool:
    """Restart the kernel's resident-set high-water mark (Linux only)."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        return False
    return True


def peak_rss_mb() -> float:
    """The resident-set high-water mark since the last reset, in MB."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cold", "serve", "warm"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = import_workloads()

    workload = workloads.WORKLOADS[args.workload](args.seed)
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_times = []
        for i in range(workload.setup_repeats):
            where = work / f"store{i}"
            gc.collect()
            t0 = perf_counter()
            state = workload.setup(where)
            setup_times.append(perf_counter() - t0)
        svc = workloads.open_service(state["store"])
        with svc:
            streams = [workload.inputs(state, c) for c in range(workload.clients)]
            rids = itertools.count()
            gc.collect()
            if not reset_peak_rss():
                print("peak_rss_mb: no high-water reset here; it includes set-up")
            if args.trace:
                ops, tracer, extra = traced_run(
                    workload, state, svc, streams, rids, args.seconds)
            else:
                ops, wall = run_phase(workload, state, svc, streams, rids,
                                      args.seconds,
                                      percentiles.min_samples(workload.tail_q))
            peak_mb = peak_rss_mb()
            store_bytes, store_entries = svc.store.size_bytes(), len(svc.store)
            failures = {}
            audits = workload.audits(state, svc, ops, failures)
        digest, n_digest = run_audits(state["store"], audits, failures)
        print(f"digest {args.workload} seed={args.seed}: sha256 {digest} "
              f"over {n_digest} artifact bitstreams")
        for rid, why in sorted(failures.items())[:5]:
            print(f"oracle: op {rid}: {why}")
        for op in [op for op in ops if op.error][:5]:
            print(f"failed: op {op.rid}: {op.error}")

        if args.trace:
            metrics = extra
            path = work.parent / f"spans-{args.workload}-{args.seed}.jsonl"
            tracer.write(path)
            print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
        else:
            lat = latencies_ms(ops)
            stats = workload.artifacts(state, ops)
            tail_q = workload.tail_q
            failed = count_failed(ops, failures)
            metrics = {
                "setup_s": metric(statistics.median(setup_times), "s"),
                "p50_ms": metric(percentiles.percentile(lat, 50), "ms"),
                "p90_ms": metric(percentiles.percentile(lat, 90), "ms"),
                "tail_ms": metric(percentiles.percentile(lat, tail_q), "ms"),
                "ops_per_s": metric(len(ops) / wall, "1/s"),
                "success_rate": metric((len(ops) - failed) / len(ops), "ratio"),
                "cycle_ratio": metric(percentiles.geomean(
                    s.cycle_time / s.logic_delay for s in stats), "ratio"),
                "routing_overhead": metric(statistics.fmean(
                    s.routing_overhead for s in stats), "ratio"),
                "blob_kb": metric(store_bytes / store_entries / 1000, "kB"),
                "peak_rss_mb": metric(peak_mb, "MB"),
            }
            print(f"{args.workload}: {len(ops)} ops in {wall:.2f} s; "
                  f"tail_ms is p{tail_q}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps(verdict(ops, failures, metrics), allow_nan=False))
    return 0


def traced_run(workload, state, svc, streams, rids, seconds):
    """Untraced half, then traced half, on the same service and streams.

    Per-layer metrics come from the traced half; the overhead of the
    tracing is its p50 minus the untraced half's.
    """
    need = percentiles.min_samples(50)
    plain, _ = run_phase(workload, state, svc, streams, rids, seconds / 2, need)
    tracer = spans.Tracer()
    before = svc.stats()
    undo = spans.instrument(tracer)
    try:
        traced, _ = run_phase(workload, state, svc, streams, rids, seconds / 2,
                              need, tracer)
    finally:
        undo()
    after = svc.stats()
    lookups = after["cache"]["lookups"] - before["cache"]["lookups"]
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    layers = spans.layer_metrics(tracer.spans)
    layers.update({
        "cache.hit_rate": (hits / lookups if lookups else 0.0, "ratio"),
        "service.coalesced": (
            (after["coalesced"] - before["coalesced"]) / len(traced), "1/op"),
        "service.failed": (
            sum(1 for op in traced if op.error) / len(traced), "1/op"),
        "trace.overhead_ms": (
            percentiles.percentile(latencies_ms(traced), 50)
            - percentiles.percentile(latencies_ms(plain), 50),
            "ms",
        ),
    })
    metrics = {name: metric(v, unit) for name, (v, unit) in sorted(layers.items())}
    return plain + traced, tracer, metrics


if __name__ == "__main__":
    sys.exit(main())
