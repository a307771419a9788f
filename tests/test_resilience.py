"""Resilience: fault injection, deadlines, retries, crash isolation.

Pins the PR-10 hardening contract (see ``docs/resilience.md``):

* the fault-injection layer itself — content-addressed deterministic
  :class:`FaultPlan`, token scoping, the transient/deterministic
  taxonomy, seeded retry backoff;
* per-job deadlines: a stuck compile raises ``CompileTimeout`` within
  2x the deadline instead of hanging the pool (the acceptance pin);
* shutdown semantics: futures settle, never hang; submit-after-close
  raises;
* crash-isolated workers: a worker death is survived by resubmitting
  exactly once, byte-identically; a double death surfaces as
  ``WorkerLost`` — and coalesced waiters settle either way;
* graceful degradation: bounded admission sheds with
  ``ServiceOverloaded``; an exhausted die repair serves the golden
  artifact marked ``degraded=True``, never cached;
* store durability: publishes interrupted at every fault point leave
  the old state or the complete new blob; corruption quarantines into
  a miss; transient IO retries then degrades to a miss.

The random-plan closure of the same properties lives in
``tests/test_resilience_chaos.py``.
"""

import os
import threading
import time

import pytest

from repro.datapath.adder import ripple_carry_netlist
from repro.pnr import compile_to_fabric, sample_defect_map
from repro.pnr.parallel import (
    CompileTimeout,
    ProcessWorkerPool,
    TaskPool,
    TransientFault,
    WorkerCrash,
    WorkerLost,
    checkpoint,
    current_deadline,
    deadline_scope,
    fault_point,
)
from repro.service import CompileOptions, CompileService
from repro.service.resilience import (
    FAULT_EXCEPTIONS,
    DeterministicFault,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    ServiceOverloaded,
    StoreIOFault,
    is_transient,
)
from repro.service.store import ArtifactStore, CacheEntry


def reference_bitstreams(netlist, options=None):
    kwargs = (options or CompileOptions()).compile_kwargs()
    result = compile_to_fabric(netlist, **kwargs)
    return [result.to_bitstream().tobytes()]


# ---------------------------------------------------------------------------
# Deadlines and cooperative cancellation
# ---------------------------------------------------------------------------
def test_checkpoint_is_noop_without_deadline_and_raises_past_one():
    checkpoint()  # no scope installed: must not raise
    assert current_deadline() is None
    with deadline_scope(0.005):
        assert current_deadline() is not None
        checkpoint()  # not expired yet
        time.sleep(0.02)
        with pytest.raises(CompileTimeout):
            checkpoint()
    assert current_deadline() is None
    checkpoint()  # scope restored cleanly after the timeout


def test_nested_deadline_scopes_keep_the_tighter_one():
    with deadline_scope(60.0):
        outer = current_deadline()
        with deadline_scope(0.001):
            assert current_deadline().expires_at < outer.expires_at
            time.sleep(0.005)
            with pytest.raises(CompileTimeout):
                checkpoint()
        assert current_deadline() is outer
        checkpoint()
    # None inside a scope means "no tightening", not "no deadline".
    with deadline_scope(0.001):
        with deadline_scope(None):
            assert current_deadline() is not None


def test_real_compile_times_out_within_2x_deadline():
    """The acceptance pin: CompileTimeout, not a hang, within 2x."""
    deadline = 0.05  # well under rca24's cold compile time
    with CompileService(workers=0) as svc:
        t0 = time.perf_counter()
        with pytest.raises(CompileTimeout):
            svc.compile(
                ripple_carry_netlist(24), CompileOptions(deadline=deadline)
            )
        elapsed = time.perf_counter() - t0
    assert elapsed < 2 * deadline, (
        f"timed out after {elapsed:.3f}s against a {deadline}s deadline"
    )


def test_stalled_job_still_times_out_within_2x_deadline():
    """An injected 2s stall cannot outlive a 0.2s deadline."""
    deadline = 0.2
    plan = FaultPlan.from_specs([("service.run", "stall", {"delay": 2.0})])
    with CompileService(workers=0) as svc, plan.activate():
        t0 = time.perf_counter()
        with pytest.raises(CompileTimeout):
            svc.compile(
                ripple_carry_netlist(2), CompileOptions(deadline=deadline)
            )
        elapsed = time.perf_counter() - t0
    assert elapsed < 2 * deadline
    stats = svc.stats()
    assert stats["timeouts"] == 1
    assert stats["submissions"] == stats["settled"] == 1


def test_timeout_books_and_identity_hold():
    with CompileService(workers=0) as svc:
        with pytest.raises(CompileTimeout):
            svc.compile(ripple_carry_netlist(24), CompileOptions(deadline=0.05))
        ok = svc.compile(ripple_carry_netlist(2))
        assert not ok.degraded
        stats = svc.stats()
    assert stats["timeouts"] == 1
    assert stats["submissions"] == 2
    assert stats["settled"] == 2
    assert stats["shed"] == 0 and stats["pending"] == 0


# ---------------------------------------------------------------------------
# FaultPlan: content addressing, determinism, token scoping
# ---------------------------------------------------------------------------
def test_fault_plan_digest_is_content_addressed():
    a = FaultPlan((FaultSpec("pool.worker", "die", token="0"),), seed=3)
    b = FaultPlan.from_specs([("pool.worker", "die", {"token": "0"})], seed=3)
    assert a.digest() == b.digest()
    assert a.digest() != FaultPlan((), seed=3).digest()
    assert a.digest() != FaultPlan(a.specs, seed=4).digest()


def test_fault_spec_validation():
    with pytest.raises(ValueError, match="unknown fault point"):
        FaultSpec("nonsense.point", "error")
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec("service.run", "explode")
    with pytest.raises(ValueError, match="unknown fault exception"):
        FaultSpec("service.run", "error", exc="nonsense")
    with pytest.raises(ValueError, match="rate"):
        FaultSpec("service.run", "error", rate=1.5)
    with pytest.raises(ValueError, match="delay"):
        FaultSpec("service.run", "stall", delay=-1.0)


def test_fault_point_rejects_unregistered_names_under_a_plan():
    plan = FaultPlan(())
    with plan.activate():
        with pytest.raises(ValueError, match="unregistered fault point"):
            fault_point("not.a.point")
    # ...but with no plan active the call is a no-op passthrough even
    # for nonsense (the zero-overhead path does not validate).
    assert fault_point("service.run", data=b"x") == b"x"


def test_fault_point_without_a_plan_is_cheap():
    # The zero-overhead claim the harness rests on.  Generous ceiling:
    # the no-plan path is two attribute loads and a None check, so
    # microseconds per visit would mean the guard regressed.
    visits = 100_000
    t0 = time.perf_counter()
    for _ in range(visits):
        fault_point("service.run", token="probe")
    assert (time.perf_counter() - t0) / visits < 5_000e-9


def test_rate_gating_is_deterministic_and_seed_dependent():
    plan = FaultPlan.from_specs(
        [("service.run", "error", {"rate": 0.5})], seed=1
    )

    def fire_pattern(p):
        out = []
        with p.activate():
            for t in range(24):
                try:
                    fault_point("service.run", token=str(t))
                    out.append(False)
                except TransientFault:
                    out.append(True)
        return out

    first = fire_pattern(plan)
    assert first == fire_pattern(plan), "same plan must replay identically"
    assert 4 < sum(first) < 20, "a 0.5 rate should fire roughly half"
    other = fire_pattern(
        FaultPlan.from_specs([("service.run", "error", {"rate": 0.5})], seed=2)
    )
    assert first != other, "the seed must change the draw"


def test_token_scoping_targets_specific_visits():
    plan = FaultPlan.from_specs(
        [("pool.worker", "error", {"token": "job-7"})]
    )
    with plan.activate():
        fault_point("pool.worker", token="job-6")  # no match, no fire
        with pytest.raises(TransientFault):
            fault_point("pool.worker", token="job-7")


def test_corrupt_fault_flips_exactly_one_byte_deterministically():
    plan = FaultPlan.from_specs([("store.load", "corrupt",)], seed=9)
    data = bytes(range(64))
    with plan.activate():
        a = fault_point("store.load", token="k", data=data)
        b = fault_point("store.load", token="k", data=data)
    assert a == b != data
    assert sum(x != y for x, y in zip(a, data)) == 1


def test_exception_registry_covers_the_taxonomy():
    for name, cls in FAULT_EXCEPTIONS.items():
        plan = FaultPlan.from_specs(
            [("service.run", "error", {"exc": name})]
        )
        with plan.activate():
            with pytest.raises(cls):
                fault_point("service.run")


# ---------------------------------------------------------------------------
# The taxonomy and the retry policy
# ---------------------------------------------------------------------------
def test_is_transient_taxonomy():
    assert is_transient(TransientFault("x"))
    assert is_transient(WorkerCrash("x"))
    assert is_transient(WorkerLost("x"))
    assert is_transient(OSError("disk"))
    assert is_transient(StoreIOFault("disk"))
    # CompileTimeout IS an OSError (via TimeoutError) — the carve-out
    # that keeps deadline expiries out of the retry loop.
    assert isinstance(CompileTimeout("t"), OSError)
    assert not is_transient(CompileTimeout("t"))
    assert not is_transient(DeterministicFault("x"))
    assert not is_transient(ValueError("x"))


def test_retry_policy_retries_transient_only_within_budget():
    calls = []

    def flaky():
        calls.append(1)
        if len(calls) < 3:
            raise StoreIOFault("blip")
        return "ok"

    policy = RetryPolicy(max_attempts=3, base_delay=0.001, seed=5)
    retries = []
    assert policy.call(flaky, on_retry=lambda: retries.append(1)) == "ok"
    assert len(calls) == 3 and len(retries) == 2

    # Budget exhausted: the transient fault propagates.
    calls.clear()
    with pytest.raises(StoreIOFault):
        RetryPolicy(max_attempts=2, base_delay=0.001).call(
            lambda: (_ for _ in ()).throw(StoreIOFault("always"))
        )

    # Deterministic failures never retry.
    calls.clear()

    def det():
        calls.append(1)
        raise DeterministicFault("no")

    with pytest.raises(DeterministicFault):
        policy.call(det)
    assert len(calls) == 1

    def timed_out():
        calls.append(1)
        raise CompileTimeout("budget spent")

    calls.clear()
    with pytest.raises(CompileTimeout):
        policy.call(timed_out)
    assert len(calls) == 1


def test_retry_backoff_is_seeded_and_deterministic():
    p = RetryPolicy(max_attempts=4, base_delay=0.1, jitter=0.0)
    assert [round(p.delay(a), 3) for a in range(3)] == [0.1, 0.2, 0.4]
    q = RetryPolicy(seed=1)
    assert q.delay(1, "tok") == q.delay(1, "tok")
    assert q.delay(1, "tok") != q.delay(1, "other")
    assert RetryPolicy(seed=2).delay(1, "tok") != q.delay(1, "tok")
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)


# ---------------------------------------------------------------------------
# Shutdown semantics (satellite): settle, never hang
# ---------------------------------------------------------------------------
def test_taskpool_submit_after_close_raises_and_close_is_idempotent():
    pool = TaskPool(workers=0)
    assert pool.submit(lambda: 5).result() == 5
    pool.close()
    pool.close()  # idempotent
    with pytest.raises(RuntimeError, match="closed"):
        pool.submit(lambda: 5)


def test_taskpool_close_settles_every_pending_future():
    started = threading.Event()
    with TaskPool(workers=2) as pool:
        def slow(i):
            started.wait(1.0)
            return i
        futures = [pool.submit(slow, i) for i in range(6)]
        started.set()
        pool.close()
        # close() drained: every future is already settled.
        assert all(f.done() for f in futures)
        assert sorted(f.result(timeout=0) for f in futures) == list(range(6))


def test_service_close_settles_inflight_and_refuses_new_jobs():
    svc = CompileService(workers=2)
    futures = [svc.submit(ripple_carry_netlist(n)) for n in (2, 3)]
    svc.close()
    assert all(f.done() for f in futures)
    for f in futures:
        assert f.result(timeout=0).bitstreams()  # settled with a result
    with pytest.raises(RuntimeError, match="closed"):
        svc.submit(ripple_carry_netlist(2))
    with pytest.raises(RuntimeError, match="closed"):
        svc.submit_for_die(
            ripple_carry_netlist(2), sample_defect_map(13, 13, seed=0)
        )
    with pytest.raises(RuntimeError, match="closed"):
        svc.recompile(ripple_carry_netlist(2), futures[0].result())
    stats = svc.stats()
    assert stats["submissions"] == stats["settled"] + stats["shed"]
    svc.close()  # idempotent


# ---------------------------------------------------------------------------
# Crash-isolated workers: resubmit exactly once, byte-identically
# ---------------------------------------------------------------------------
def _exit_hard(code):
    os._exit(code)


def _double(x):
    return 2 * x


def test_process_pool_survives_a_crash_and_respawns():
    with ProcessWorkerPool(workers=1) as pool:
        assert pool.run(_double, 21) == 42
        with pytest.raises(WorkerCrash):
            pool.run(_exit_hard, 3)
        assert pool.restarts == 1
        assert pool.run(_double, 4) == 8  # respawned and healthy


def test_worker_death_resubmits_exactly_once_byte_identically():
    nl = ripple_carry_netlist(3)
    reference = reference_bitstreams(ripple_carry_netlist(3))
    # Kill the first pool job (submission sequence 0); the supervisor's
    # resubmission runs as sequence 1 and must succeed.
    plan = FaultPlan.from_specs([("pool.worker", "die", {"token": "0"})])
    with CompileService(workers=2) as svc, plan.activate():
        result = svc.submit(nl).result(timeout=30)
    assert result.bitstreams() == reference
    stats = svc.stats()
    assert stats["worker_restarts"] == 1
    assert stats["compiles"] == 1
    assert stats["submissions"] == stats["settled"] == 1


def test_double_worker_death_settles_waiters_with_worker_lost():
    nl = ripple_carry_netlist(2)
    # A stall before each death keeps the job in flight long enough for
    # the second submission to coalesce deterministically.
    plan = FaultPlan.from_specs([
        ("pool.worker", "stall", {"delay": 0.3}),
        ("pool.worker", "die"),
    ])
    with CompileService(workers=2) as svc, plan.activate():
        first = svc.submit(nl)
        second = svc.submit(nl)  # coalesces onto the same in-flight job
        with pytest.raises(WorkerLost):
            first.result(timeout=30)
        with pytest.raises(WorkerLost):
            second.result(timeout=30)
    stats = svc.stats()
    assert stats["worker_restarts"] == 1, "exactly one resubmission"
    assert stats["coalesced"] == 1
    assert stats["submissions"] == stats["settled"] == 2
    assert stats["pending"] == 0


def test_process_isolation_survives_real_worker_death():
    nl = ripple_carry_netlist(2)
    reference = reference_bitstreams(ripple_carry_netlist(2))
    with CompileService(workers=0, isolation="process") as svc:
        key_hash = svc.job_key(nl, CompileOptions())[0][:12]
        # Kill attempt 0 of this job *inside* the subprocess: the
        # injected WorkerCrash becomes os._exit(3), the parent sees the
        # broken pool, respawns, and resubmits as attempt 1.
        plan = FaultPlan.from_specs(
            [("pool.worker", "die", {"token": f"proc:{key_hash}:0"})]
        )
        with plan.activate():
            result = svc.compile(nl)
        assert result.bitstreams() == reference
        stats = svc.stats()
    assert stats["worker_restarts"] == 1
    assert stats["process_restarts"] == 1
    assert stats["submissions"] == stats["settled"]


def test_isolation_mode_validation():
    with pytest.raises(ValueError, match="isolation"):
        CompileService(workers=0, isolation="container")
    with pytest.raises(ValueError, match="max_pending"):
        CompileService(workers=0, max_pending=0)


# ---------------------------------------------------------------------------
# Graceful degradation: load shedding and golden stand-ins
# ---------------------------------------------------------------------------
def test_bounded_admission_sheds_with_depth_and_retry_after():
    # Two workers stall on injected 0.6s faults; the queue bound is 2,
    # so the third concurrent submission must shed synchronously.
    plan = FaultPlan.from_specs([("service.run", "stall", {"delay": 0.6})])
    netlists = [ripple_carry_netlist(n) for n in (2, 3, 4)]
    with CompileService(workers=2, max_pending=2) as svc, plan.activate():
        admitted = [svc.submit(nl) for nl in netlists[:2]]
        with pytest.raises(ServiceOverloaded) as exc:
            svc.submit(netlists[2])
        assert exc.value.queue_depth >= 2
        assert exc.value.max_pending == 2
        assert exc.value.retry_after > 0
        for f in admitted:
            assert f.result(timeout=30).bitstreams()
    stats = svc.stats()
    assert stats["shed"] == 1
    assert stats["submissions"] == stats["settled"] + stats["shed"]
    assert stats["pending"] == 0


def test_cache_hits_are_never_shed():
    nl = ripple_carry_netlist(2)
    with CompileService(workers=0, max_pending=1) as svc:
        svc.compile(nl)
        # Saturate the gauge artificially impossible here (serial), so
        # prove the ordering instead: a hit resolves without consulting
        # admission even when max_pending is the tightest possible.
        hit = svc.compile(nl)
        assert hit.cached
    assert svc.stats()["shed"] == 0


def test_exhausted_die_repair_degrades_to_marked_golden():
    nl = ripple_carry_netlist(2)
    die = sample_defect_map(13, 13, cell_fail=0.01, wire_fail=0.004, seed=9)
    with CompileService(workers=0) as svc:
        golden = svc.compile(nl)
        # A deadline the repair cannot possibly meet: the wave-0
        # checkpoint fires immediately, and the service serves the
        # golden artifact as an explicit stand-in.
        t0 = time.perf_counter()
        degraded = svc.compile_for_die(nl, die, CompileOptions(deadline=1e-6))
        degraded_s = time.perf_counter() - t0
        assert degraded.degraded and not degraded.repaired
        assert degraded.bitstreams() == golden.bitstreams()
        # Never cached: the die gets its real repair when asked again
        # without pressure.
        assert svc.cache.peek(svc.die_key(nl, CompileOptions(), die)) is None
        t0 = time.perf_counter()
        real = svc.compile_for_die(nl, die)
        repair_s = time.perf_counter() - t0
        assert real.repaired and not real.degraded
        # The stand-in is cheaper than the repair it stands in for.
        assert degraded_s < repair_s
        assert real.bitstreams() != golden.bitstreams()
        stats = svc.stats()
    assert stats["degraded"] == 1
    assert stats["timeouts"] == 1
    assert stats["submissions"] == stats["settled"] + stats["shed"]


def test_degradation_can_be_disabled():
    nl = ripple_carry_netlist(2)
    die = sample_defect_map(13, 13, cell_fail=0.01, wire_fail=0.004, seed=9)
    with CompileService(workers=0, degrade_under_pressure=False) as svc:
        svc.compile(nl)
        with pytest.raises(CompileTimeout):
            svc.compile_for_die(nl, die, CompileOptions(deadline=1e-6))
    assert svc.stats()["degraded"] == 0


def test_repair_fallback_under_pressure_serves_degraded_golden():
    nl = ripple_carry_netlist(2)
    die = sample_defect_map(13, 13, cell_fail=0.01, wire_fail=0.004, seed=9)
    other = ripple_carry_netlist(3)
    # Wave 0 stalls (long enough to pile load behind it), then the
    # repair declines; the queue is full, so the golden stand-in wins
    # over a cold defect-aware compile.
    plan = FaultPlan.from_specs([
        ("repair.wave", "stall", {"delay": 0.5, "token": ":0"}),
        ("repair.wave", "error", {"exc": "repair", "token": ":0"}),
        ("service.run", "stall", {"delay": 0.8, "token": other_hash()}),
    ])
    with CompileService(workers=2, max_pending=2) as svc:
        golden = svc.compile(nl)
        with plan.activate():
            die_future = svc.submit_for_die(nl, die)
            svc.submit(other).result(timeout=30)  # the pressure
            result = die_future.result(timeout=30)
    assert result.degraded and not result.repaired
    assert result.bitstreams() == golden.bitstreams()
    stats = svc.stats()
    assert stats["degraded"] == 1
    assert stats["repair_fallbacks"] == 1
    assert stats["submissions"] == stats["settled"] + stats["shed"]


def other_hash():
    from repro.netlist.canonical import canonical_hash

    return canonical_hash(ripple_carry_netlist(3))[:12]


# ---------------------------------------------------------------------------
# One job core: recompile and die repair keep submit's guarantees
# ---------------------------------------------------------------------------
def _rca2_die(seed):
    return sample_defect_map(13, 13, cell_fail=0.01, wire_fail=0.004, seed=seed)


def test_recompile_at_a_full_queue_is_shed():
    base_nl = ripple_carry_netlist(2)
    plan = FaultPlan.from_specs(
        [("service.run", "stall", {"delay": 0.6, "token": other_hash()})]
    )
    with CompileService(workers=2, max_pending=1) as svc:
        base = svc.compile(base_nl)
        with plan.activate():
            busy = svc.submit(ripple_carry_netlist(3))
            with pytest.raises(ServiceOverloaded) as exc:
                svc.recompile(_bump_one_delay(base_nl), base)
            assert exc.value.max_pending == 1
            busy.result(timeout=30)
        stats = svc.stats()
    assert stats["shed"] == 1
    assert stats["incremental_compiles"] == 0
    assert stats["submissions"] == stats["settled"] + stats["shed"]
    assert stats["pending"] == 0


def test_recompile_deadline_covers_its_fallback():
    deadline = 0.1  # well under rca24's cold compile time
    with CompileService(workers=2) as svc:
        base = svc.compile(ripple_carry_netlist(2))
        t0 = time.perf_counter()
        with pytest.raises(CompileTimeout):
            svc.recompile(
                ripple_carry_netlist(24), base, CompileOptions(deadline=deadline)
            )
        elapsed = time.perf_counter() - t0
        stats = svc.stats()
    assert elapsed < 2 * deadline, (
        f"timed out after {elapsed:.3f}s against a {deadline}s deadline"
    )
    # The delta declined first; the cold fallback then ran out of the
    # same budget, inside the same job.
    assert stats["incremental_fallbacks"] == 1
    assert stats["timeouts"] == 1
    assert stats["submissions"] == stats["settled"] == 2


def test_more_dies_than_workers_against_an_uncached_golden_all_settle():
    dies = [_rca2_die(s) for s in range(5)]
    with CompileService(workers=2) as svc:
        futures = [
            svc.submit_for_die(ripple_carry_netlist(2), die) for die in dies
        ]
        results = [f.result(timeout=60) for f in futures]
        stats = svc.stats()
    assert not any(r.degraded for r in results)
    assert stats["repairs"] + stats["repair_fallbacks"] == 5
    assert stats["compiles"] == 1 + stats["repair_fallbacks"]  # one golden
    assert stats["submissions"] == stats["settled"] == 10


def test_die_jobs_free_their_slots_while_the_golden_compiles(monkeypatch):
    from repro.service import service as service_mod

    golden_nl = ripple_carry_netlist(2)
    release = threading.Event()
    real = service_mod.compile_to_fabric

    def gated(netlist, **kwargs):
        if netlist is golden_nl and "defect_map" not in kwargs:
            release.wait()
        return real(netlist, **kwargs)

    monkeypatch.setattr(service_mod, "compile_to_fabric", gated)
    safety = threading.Timer(10, release.set)  # never hang the suite
    safety.start()
    try:
        with CompileService(workers=2) as svc:
            dies = [
                svc.submit_for_die(golden_nl, _rca2_die(s)) for s in (0, 1, 3)
            ]
            # Three dies wait on one golden compile that holds one of the
            # two slots; the other slot stays free for unrelated work.
            svc.submit(ripple_carry_netlist(3)).result(timeout=30)
            golden_still_compiling = not release.is_set()
            dies_waiting = not any(f.done() for f in dies)
            release.set()
            results = [f.result(timeout=60) for f in dies]
            stats = svc.stats()
    finally:
        safety.cancel()
    assert golden_still_compiling and dies_waiting
    assert all(r.repaired for r in results)
    assert stats["compiles"] == 2  # the golden and rca3
    assert stats["submissions"] == stats["settled"] == 7


def test_an_admitted_die_is_never_shed_by_its_own_golden_lookup():
    with CompileService(workers=2, max_pending=1) as svc:
        result = svc.compile_for_die(ripple_carry_netlist(2), _rca2_die(0))
        stats = svc.stats()
    assert result.repaired
    assert stats["shed"] == 0
    assert stats["submissions"] == stats["settled"] == 2


def _slow_golden(monkeypatch, golden_nl, delay, *, before):
    """Make ``golden_nl``'s cold compile take ``delay`` seconds longer.

    ``before=True`` sleeps before compiling, ``False`` after: then the
    golden finishes inside its own deadline but returns late.
    """
    from repro.service import service as service_mod

    real = service_mod.compile_to_fabric

    def slow(netlist, **kwargs):
        is_golden = netlist is golden_nl and "defect_map" not in kwargs
        if is_golden and before:
            time.sleep(delay)
        result = real(netlist, **kwargs)
        if is_golden and not before:
            time.sleep(delay)
        return result

    monkeypatch.setattr(service_mod, "compile_to_fabric", slow)


def test_close_drains_accepted_die_jobs_to_their_repairs(monkeypatch):
    from repro.netlist.canonical import canonical_hash

    golden_nl = ripple_carry_netlist(2)
    _slow_golden(monkeypatch, golden_nl, 0.5, before=True)
    dies = [_rca2_die(0), _rca2_die(1)]
    late_token = f"{canonical_hash(golden_nl)[:12]}:die:{dies[1].digest()[:12]}"
    # The first die is waiting on the in-flight golden when close()
    # starts; the second has not even looked its golden up yet.
    plan = FaultPlan.from_specs(
        [("service.run", "stall", {"delay": 0.25, "token": late_token})]
    )
    svc = CompileService(workers=2)
    with plan.activate():
        futures = [svc.submit_for_die(golden_nl, die) for die in dies]
        svc.close()
        assert all(f.done() for f in futures)
    results = [f.result() for f in futures]
    stats = svc.stats()
    assert all(r.repaired and not r.degraded for r in results)
    assert stats["compiles"] == 1
    assert stats["submissions"] == stats["settled"] == 4
    with pytest.raises(RuntimeError):
        svc.submit_for_die(golden_nl, _rca2_die(3))


@pytest.mark.parametrize("workers", [0, 2])
def test_a_die_deadline_covers_its_repair_not_its_golden(
    monkeypatch, workers
):
    # The golden compiles well inside its own deadline, then returns
    # later than the die's whole budget: only a fresh budget for the
    # repair (the golden's own, inline or on another slot) repairs.
    golden_nl = ripple_carry_netlist(2)
    deadline = 1.0
    _slow_golden(monkeypatch, golden_nl, 1.2 * deadline, before=False)
    with CompileService(workers=workers) as svc:
        result = svc.compile_for_die(
            golden_nl, _rca2_die(0), CompileOptions(deadline=deadline)
        )
        stats = svc.stats()
    assert result.repaired and not result.degraded
    assert stats["timeouts"] == stats["degraded"] == 0
    assert stats["submissions"] == stats["settled"] == 2


def test_a_die_resumed_after_its_golden_keeps_one_resubmission(monkeypatch):
    golden_nl = ripple_carry_netlist(2)
    _slow_golden(monkeypatch, golden_nl, 0.2, before=True)
    # Pool sequence: 0 the die (dies), 1 its resubmission, 2 the golden,
    # 3 the die resumed after the golden (dies again).
    plan = FaultPlan.from_specs([
        ("pool.worker", "die", {"token": "0"}),
        ("pool.worker", "die", {"token": "3"}),
    ])
    with CompileService(workers=2) as svc, plan.activate():
        die = svc.submit_for_die(golden_nl, _rca2_die(0))
        with pytest.raises(WorkerLost):
            die.result(timeout=30)
        stats = svc.stats()
    assert stats["worker_restarts"] == 1, "exactly one resubmission per job"
    assert stats["compiles"] == 1  # the golden
    assert stats["submissions"] == stats["settled"] == 2


# ---------------------------------------------------------------------------
# Store durability (satellite): interrupted publishes, retried loads
# ---------------------------------------------------------------------------
PUBLISH_POINTS = ("store.publish", "store.publish.stage",
                  "store.publish.commit")


@pytest.fixture(scope="module")
def rca2_result():
    return compile_to_fabric(ripple_carry_netlist(2), seed=0, workers=0)


def _entry(result, repaired=False):
    nl = result.source
    return CacheEntry(
        result, tuple(nl.inputs), tuple(nl.outputs), repaired=repaired
    )


@pytest.mark.parametrize("point", PUBLISH_POINTS)
def test_publish_interrupted_at_every_point_is_old_state_or_complete(
    tmp_path, point, rca2_result
):
    key = ("design", ("opts", 1))
    store = ArtifactStore(tmp_path)
    store.put(key, _entry(rca2_result, repaired=False))  # "old"
    plan = FaultPlan.from_specs([(point, "error", {"exc": "io"})])
    with plan.activate():
        with pytest.raises(StoreIOFault):
            store.put(key, _entry(rca2_result, repaired=True))  # "new"
    # No staging litter survives an interruption.
    assert not list(tmp_path.glob("objects/stage-*.tmp"))
    # A fresh store (a restarted process) sees old state before the
    # rename, the complete new blob after it — never a torn write.
    seen = ArtifactStore(tmp_path).get(key)
    assert seen.result.stats == rca2_result.stats
    assert seen.repaired == (point == "store.publish.commit")


def test_publish_corruption_is_quarantined_into_a_miss(tmp_path, rca2_result):
    key = ("design", ("opts", 2))
    store = ArtifactStore(tmp_path)
    plan = FaultPlan.from_specs([("store.publish", "corrupt",)])
    with plan.activate():
        store.put(key, _entry(rca2_result))  # publishes poisoned bytes
    fresh = ArtifactStore(tmp_path)
    assert fresh.get(key) is None
    assert fresh.quarantined == 1
    s = fresh.stats()
    assert s["lookups"] == s["hits"] + s["misses"]


def test_publish_fsyncs_the_containing_directory(tmp_path, rca2_result):
    store = ArtifactStore(tmp_path)
    assert store.dir_syncs == 0
    store.put(("k",), _entry(rca2_result))
    assert store.dir_syncs == 1
    assert store.stats()["dir_syncs"] == 1


def test_load_corruption_degrades_to_recompile_with_identical_bytes(
    tmp_path,
):
    nl = ripple_carry_netlist(2)
    with CompileService(workers=0, store=tmp_path) as first:
        reference = first.compile(nl).bitstreams()
    plan = FaultPlan.from_specs([("store.load", "corrupt",)])
    with CompileService(workers=0, store=tmp_path) as second, plan.activate():
        result = second.compile(nl)
    assert result.bitstreams() == reference
    stats = second.stats()
    assert stats["compiles"] == 1, "corrupt store blob costs one recompile"
    assert stats["store"]["quarantined"] == 1
    assert stats["store_errors"] == 0, "corruption is a miss, not an error"


def test_transient_store_io_retries_then_degrades_to_miss(tmp_path):
    nl = ripple_carry_netlist(2)
    with CompileService(workers=0, store=tmp_path) as first:
        reference = first.compile(nl).bitstreams()
    plan = FaultPlan.from_specs([("store.load", "error", {"exc": "io"})])
    retry = RetryPolicy(max_attempts=3, base_delay=0.001)
    with CompileService(
        workers=0, store=tmp_path, retry=retry
    ) as second, plan.activate():
        result = second.compile(nl)
    assert result.bitstreams() == reference
    stats = second.stats()
    assert stats["retries"] == 2, "two backoffs before degrading"
    assert stats["store_errors"] == 1
    assert stats["compiles"] == 1
    assert stats["submissions"] == stats["settled"]


# ---------------------------------------------------------------------------
# Sessions under pressure
# ---------------------------------------------------------------------------
def _bump_one_delay(nl):
    """+1 delay on the first and-gate — a tiny pure-timing edit."""
    from repro.netlist.ir import Netlist

    target = next(c.name for c in nl.cells if c.kind == "and")
    out = Netlist(nl.name)
    for p in nl.inputs:
        out.add_input(p)
    for p in nl.outputs:
        out.add_output(p)
    for c in nl.cells:
        delay = c.delay + 1 if c.name == target else c.delay
        out.add(c.kind, c.name, list(c.inputs), c.output,
                delay=delay, **dict(c.params))
    return out


def test_session_records_declined_edits_and_stays_reappliable():
    base = ripple_carry_netlist(2)
    edit = _bump_one_delay(base)
    with CompileService(workers=0) as svc:
        session = svc.open_session(base)
        session.options = CompileOptions(deadline=1e-6)
        with pytest.raises(CompileTimeout):
            session.apply(edit)
        assert session.stats()["errors"] == 1
        assert session.stats()["steps"] == 0
        assert session.current is session.base, "chain stayed put"
        session.options = CompileOptions()
        applied = session.apply(edit)  # re-appliable when calmer
        assert applied.bitstreams()
        stats = session.stats()
    assert stats["steps"] == 1
    assert stats["errors"] == 1
    assert stats["fallbacks"] == 0
