"""The compile service: queue, worker pool, cache, delta recompiles.

:class:`CompileService` turns the one-shot compile entry points
(:func:`repro.pnr.compile_to_fabric` / the sharded flow it dispatches
to) into a served system, the client/server split of circuit_training's
placement server re-imagined for this fabric:

* **content-addressed cache** — jobs are keyed on
  ``(canonical_hash(netlist), options.key())``
  (:mod:`repro.netlist.canonical`): two clients submitting the same
  circuit under different spellings share one compiled artifact, with a
  port map translated back to each client's own names;
* **persisted artifact store** — with ``store=`` set, a second,
  on-disk tier (:class:`repro.service.store.ArtifactStore`) under the
  in-memory cache: lookups go memory → store → compile, every compiled
  artifact is published to disk, and a restarted or sibling service on
  the same directory serves it byte-identically with zero recompiles;
* **single-flight coalescing** — concurrent submissions of one key run
  one job; the duplicates wait on the same future and count as
  coalesced, not as compiles;
* **worker pool** — jobs fan out on a persistent
  :class:`repro.pnr.parallel.TaskPool`; each job's compile runs
  *serial inside* (``workers=0``), so results are a pure function of
  (netlist, options) and byte-identical for any pool width;
* **incremental recompiles** — :meth:`CompileService.recompile` routes
  an edited netlist through
  :func:`repro.pnr.incremental.compile_incremental` against a cached
  base, falling back to a cold compile *inside the same job* whenever
  the delta path declines
  (:class:`repro.pnr.incremental.IncrementalFallback`);
  :meth:`CompileService.open_session` chains this across a whole
  *sequence* of edits, each step warm-starting from the previous
  step's artifact (:class:`repro.service.session.EditSession`);
* **per-die repair** — :meth:`CompileService.submit_for_die` compiles
  a design once (the **golden** artifact, shared through the normal
  cache) and adapts it to each defective die with
  :func:`repro.pnr.defects.repair_for_die`, falling back to a cold
  defect-aware compile when the die is too broken
  (:class:`repro.pnr.defects.RepairFallback`).  Die artifacts are
  cached under ``(netlist, options, defect-map digest)``, so one
  golden compile serves a whole wafer's worth of distinct dies.

**One job core.**  All three kinds of work — cold compile, die repair,
delta recompile — are short *job functions* returning a
:class:`~repro.service.store.CacheEntry`, and all three are served by
one private path (``CompileService._serve``): memory probe on the
caller's thread, admission, the locked re-check, coalescing onto the
in-flight job, launch on the pool under crash supervision, the
deadline scope, the store probe, publish, settle and the books.  So
every path has single-flight, admission, deadlines, crash supervision
and exact books; none has a guarantee the others lack.

Determinism contract (proven in ``tests/test_service.py``): a cache
*miss* compiles cold and is byte-identical to calling
``compile_to_fabric`` yourself; a cache *hit* returns the bytes of the
entry's original cold compile (if you hit with a renamed-but-isomorphic
netlist, you get those bytes with your port names mapped on top — the
circuit is the same, the spelling of its pins is yours); an
*incremental* recompile is deterministic and dual-backend equivalent
but placed from the cached base, so its bytes legitimately differ from
a cold compile's.  See ``docs/compile-service.md``.

**Resilience** (proven in ``tests/test_resilience.py`` and the chaos
suite): every job passes named fault points (``service.submit`` /
``service.run`` / ``service.settle``) so a
:class:`repro.service.resilience.FaultPlan` can interrogate the
hardening — per-job deadlines cooperatively cancel stuck compiles
(:class:`repro.pnr.parallel.CompileTimeout`), transient store IO and
worker loss retry under a seeded :class:`~repro.service.resilience.RetryPolicy`,
dead workers are respawned with their jobs resubmitted exactly once,
a bounded admission queue sheds overload
(:class:`~repro.service.resilience.ServiceOverloaded`), and
``compile_for_die`` degrades to serving the golden artifact (marked
``degraded=True``, never cached) when repair exhausts its budget under
pressure.  The byte-identity contract extends to all of it: whatever
faults fire, a served artifact is byte-identical to the fault-free
reference or explicitly marked degraded.  See ``docs/resilience.md``.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, wait
from functools import partial
from dataclasses import dataclass
from pathlib import Path

from repro.netlist.canonical import CANONICAL_HASH_VERSION, canonical_hash
from repro.netlist.ir import Netlist
from repro.pnr.defects import DefectMap, RepairFallback, repair_for_die
from repro.pnr.flow import PnrResult, compile_to_fabric
from repro.pnr.incremental import IncrementalFallback, compile_incremental
from repro.pnr.parallel import (
    CompileTimeout,
    ProcessWorkerPool,
    TaskPool,
    TransientFault,
    WorkerCrash,
    WorkerLost,
    active_fault_plan,
    current_deadline,
    deadline_scope,
    fault_point,
    inject_faults,
)
from repro.service.cache import ResultCache
from repro.service.resilience import (
    RetryPolicy,
    ServiceOverloaded,
    is_transient,
)
from repro.service.store import ArtifactStore, CacheEntry

__all__ = ["CompileOptions", "CompileService", "ServiceResult"]


@dataclass(frozen=True)
class CompileOptions:
    """The result-affecting knobs of a compile, as one hashable value.

    Mirrors the :func:`repro.pnr.compile_to_fabric` keywords that
    change *what gets built* (seed, anneal schedule, target period,
    sharding).  Pool-shape knobs (``workers``) are deliberately absent:
    by the repo's determinism contract they never change results, so
    they must not split the cache.
    """

    seed: int = 0
    anneal_steps: int | None = None
    max_attempts: int = 6
    target_period: int | None = None
    shards: int | None = None
    max_side: int | None = None
    #: Wall-clock budget (seconds) for this job; ``None`` = unbounded.
    #: The compile loops check it cooperatively and raise
    #: :class:`repro.pnr.parallel.CompileTimeout` when it expires.
    #: Like ``workers``, a deadline never changes *what* gets built —
    #: it only bounds how long we try — so it is deliberately excluded
    #: from :meth:`key` (same artifact, same cache slot, any deadline)
    #: and from :meth:`compile_kwargs`.
    deadline: float | None = None

    def key(self) -> tuple:
        """The options' contribution to the cache key."""
        return (
            "opts",
            CANONICAL_HASH_VERSION,
            self.seed,
            self.anneal_steps,
            self.max_attempts,
            self.target_period,
            self.shards,
            self.max_side,
        )

    def compile_kwargs(self) -> dict:
        """Keyword arguments for :func:`compile_to_fabric`."""
        return {
            "seed": self.seed,
            "anneal_steps": self.anneal_steps,
            "max_attempts": self.max_attempts,
            "target_period": self.target_period,
            "shards": self.shards,
            "max_side": self.max_side,
            # Jobs parallelise across the service pool, never inside a
            # compile: serial inner compiles keep tracebacks flat and
            # make every artifact a pure function of (netlist, options).
            "workers": 0,
        }


@dataclass(frozen=True)
class ServiceResult:
    """One submission's view of a compiled artifact.

    The underlying ``result`` may have been compiled from a *different
    spelling* of the same circuit (content-addressing coalesces
    isomorphic netlists); ``input_wires`` / ``output_wires`` are keyed
    by **this submission's** port names, mapped positionally onto the
    artifact's ports.  ``cached``/``coalesced``/``incremental`` say how
    the artifact was obtained — ``bitstreams()`` is byte-identical for
    every submission that shares the same cache key.
    """

    key: tuple
    result: object  # PnrResult | ShardedPnrResult
    input_wires: dict
    output_wires: dict
    cached: bool
    coalesced: bool
    incremental: bool
    #: True when the artifact was produced by warm per-die repair of a
    #: golden compile rather than a from-scratch compile.
    repaired: bool = False
    #: True when the artifact was loaded from the persisted
    #: :class:`repro.service.store.ArtifactStore` rather than compiled
    #: (or memory-cached) in this process — typically a compile some
    #: *other* service instance, or an earlier life of this one, paid
    #: for.  The bytes are identical either way.
    from_store: bool = False
    #: True when the service served a *stand-in* under pressure: the
    #: golden artifact in place of a per-die repair whose budget was
    #: exhausted (see ``docs/resilience.md``).  A degraded result is
    #: correct for the defect-free fabric but NOT adapted to this die's
    #: defects; it is never cached, so a calmer resubmission gets the
    #: real repair.
    degraded: bool = False

    def bitstreams(self) -> list[bytes]:
        """Configuration bitstream(s) as bytes: one per array, shard order.

        The flow's ``to_bitstream`` returns the frame array; a served
        artifact serialises to actual wire bytes, so clients (and the
        byte-identity tests) compare with plain ``==``.
        """
        if isinstance(self.result, PnrResult):
            streams = [self.result.to_bitstream()]
        else:
            streams = self.result.to_bitstreams()
        return [s.tobytes() for s in streams]


def _view(
    key: tuple,
    entry: CacheEntry,
    ports: tuple[tuple[str, ...], tuple[str, ...]],
    *,
    cached: bool,
    coalesced: bool = False,
    from_store: bool = False,
) -> ServiceResult:
    """One submission's :class:`ServiceResult` of ``entry``.

    ``ports`` is the submission's ``(inputs, outputs)`` spelling.
    Content-addressing guarantees it has the same port *structure*
    (count and position) as the entry's; names may differ, so the pin
    maps are translated positionally.  Wires for ports the flow never
    routed (dead inputs) are absent from both sides.
    """

    def remap(names, own, wires):
        return {n: wires[o] for n, o in zip(names, own) if o in wires}

    res = entry.result
    return ServiceResult(
        key=key,
        result=res,
        input_wires=remap(ports[0], entry.input_ports, res.input_wires),
        output_wires=remap(ports[1], entry.output_ports, res.output_wires),
        cached=cached,
        coalesced=coalesced,
        incremental=entry.incremental,
        repaired=entry.repaired,
        from_store=from_store,
        degraded=entry.degraded,
    )


def _isolated_compile(netlist, kwargs, deadline, plan, token, attempt):
    """One compile inside a crash-isolated subprocess worker.

    Module-level so it pickles.  Re-installs the parent's fault plan
    and the *remaining* deadline in the child, so injected faults and
    timeouts behave identically under both isolation modes.  An
    injected worker death (:class:`WorkerCrash`) becomes a real
    ``os._exit`` — the parent sees ``BrokenProcessPool``, exercising
    the genuine crash-recovery path, not a simulation of it.
    """
    import contextlib
    import os

    from repro.pnr import parallel as _parallel

    # A forked worker inherits the parent's installed plan; clear it so
    # re-installing the shipped copy (or running plan-free) is clean.
    _parallel._ACTIVE_PLAN = None
    cm = inject_faults(plan) if plan is not None else contextlib.nullcontext()
    try:
        with cm, deadline_scope(deadline):
            fault_point("pool.worker", token=f"proc:{token}:{attempt}")
            return compile_to_fabric(netlist, **kwargs)
    except WorkerCrash:
        os._exit(3)


class CompileService:
    """A concurrent compile server over a content-addressed cache.

    Parameters
    ----------
    workers:
        Pool width for concurrent jobs, under the repo convention
        (``None`` auto, ``0``/``1`` serial-inline, ``N`` threads).
    cache_capacity:
        LRU entry budget of the result cache (0 disables caching).
    store:
        The persisted tier: an
        :class:`repro.service.store.ArtifactStore`, or a directory path
        to open one on (``None`` = in-memory only).  Lookups go memory
        → store → compile; every compiled, repaired or incremental
        artifact is published to the store, so a restarted or sibling
        service on the same directory serves it byte-identically with
        zero recompiles (see ``docs/artifact-store.md``).
    retry:
        The :class:`repro.service.resilience.RetryPolicy` applied to
        transient faults on the store path (IO errors retry with
        seeded backoff, then degrade: a failed load is a miss, a
        failed publish is counted and the compile still served).
        ``None`` installs the default policy.
    max_pending:
        Bounded admission: with ``N`` set, a submission arriving while
        ``N`` or more are already pending is *shed* —
        :class:`~repro.service.resilience.ServiceOverloaded` (carrying
        the queue depth and a retry-after hint) instead of an unbounded
        queue.  ``None`` (default) admits everything.
    isolation:
        ``"thread"`` (default) runs compiles on the thread pool;
        ``"process"`` runs each cold compile in a crash-isolated
        subprocess — a worker death (real or injected) is survived by
        respawning the worker and resubmitting the job exactly once
        (``worker_restarts`` in :meth:`stats`), and only a second
        death surfaces (:class:`repro.pnr.parallel.WorkerLost`).
    degrade_under_pressure:
        When True (default), :meth:`compile_for_die` under pressure
        serves the golden artifact marked ``degraded=True`` instead of
        erroring when per-die repair exhausts its budget (see
        ``docs/resilience.md``); False restores strict behaviour.

    Use as a context manager or call :meth:`close` to release workers
    (the store needs no closing — its whole point is to outlive this).
    Closing drains: every already-accepted future settles before
    :meth:`close` returns, and later submissions raise ``RuntimeError``.
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        cache_capacity: int = 64,
        store: ArtifactStore | str | Path | None = None,
        retry: RetryPolicy | None = None,
        max_pending: int | None = None,
        isolation: str = "thread",
        degrade_under_pressure: bool = True,
    ) -> None:
        if isolation not in ("thread", "process"):
            raise ValueError(
                f"isolation must be 'thread' or 'process', got {isolation!r}"
            )
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.cache = ResultCache(cache_capacity)
        self.store = (
            ArtifactStore(store) if isinstance(store, (str, Path)) else store
        )
        self._pool = TaskPool(workers)
        self._retry = retry if retry is not None else RetryPolicy()
        self._max_pending = max_pending
        self._degrade = degrade_under_pressure
        self._procs = (
            ProcessWorkerPool(workers=1) if isolation == "process" else None
        )
        self._closed = False
        self._lock = threading.Lock()
        self._inflight: dict[tuple, Future] = {}
        self._stats_lock = threading.Lock()
        self._pending = 0
        self._counters = {
            "submissions": 0,
            "compiles": 0,
            "coalesced": 0,
            "store_hits": 0,
            "store_errors": 0,
            "incremental_compiles": 0,
            "incremental_fallbacks": 0,
            "repairs": 0,
            "repair_fallbacks": 0,
            # Resilience books (see docs/resilience.md).  Identity:
            # submissions == settled + shed + pending, at every instant.
            "settled": 0,
            "shed": 0,
            "timeouts": 0,
            "retries": 0,
            "worker_restarts": 0,
            "degraded": 0,
        }

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Drain outstanding jobs and stop the workers.

        Every already-accepted future settles (with its result or its
        job's exception) before this returns — a waiter can never hang
        on a closed service.  Submitting afterwards raises
        ``RuntimeError``.  Idempotent.
        """
        with self._lock:
            self._closed = True
        # Drain before the pool closes: an accepted die job may still
        # look its golden up, or resume after it, on the pool.
        while True:
            with self._lock:
                jobs = list(self._inflight.values())
            if not jobs:
                break
            wait(jobs)
        self._pool.close()
        if self._procs is not None:
            self._procs.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "CompileService is closed; jobs can no longer be submitted"
            )

    def __enter__(self) -> CompileService:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- accounting -----------------------------------------------------
    def _bump(self, counter: str) -> None:
        with self._stats_lock:
            self._counters[counter] += 1

    def stats(self) -> dict:
        """Service + cache (+ store, when attached) counters, one snapshot.

        The resilience identity — ``submissions == settled + shed +
        pending`` — holds at every instant (chaos-tested): every
        admitted submission's future is counted settled exactly once,
        shed ones never got a future, and ``pending`` gauges the rest.
        """
        with self._stats_lock:
            out = dict(self._counters)
            out["pending"] = self._pending
        out["cache"] = self.cache.stats()
        out["store"] = self.store.stats() if self.store is not None else None
        out["workers"] = self._pool.workers
        if self._procs is not None:
            out["process_restarts"] = self._procs.restarts
        return out

    def _track(self, future: Future) -> Future:
        """Count one admitted submission: pending now, settled at done.

        Attached to *every* future the service hands out (immediate
        cache hits included — their callback fires synchronously), so
        the ``submissions == settled + shed + pending`` identity is a
        property of the code shape, not of any particular path.
        """
        with self._stats_lock:
            self._pending += 1

        def _done(_: Future) -> None:
            with self._stats_lock:
                self._pending -= 1
                self._counters["settled"] += 1

        future.add_done_callback(_done)
        return future

    def _admit(self) -> None:
        """Bounded admission: shed when the pending queue is full.

        Cache hits never reach here (they cost nothing to serve); a
        real job arriving at a full queue raises
        :class:`ServiceOverloaded` with the depth and a retry-after
        hint sized to the backlog.
        """
        if self._max_pending is None:
            return
        with self._stats_lock:
            depth = self._pending
            if depth < self._max_pending:
                return
            self._counters["shed"] += 1
        raise ServiceOverloaded(
            queue_depth=depth,
            max_pending=self._max_pending,
            retry_after=max(0.05, 0.05 * (depth - self._max_pending + 1)),
        )

    def _under_pressure(self) -> bool:
        """Saturated right now?  (Admission-full, with a bound set.)"""
        if self._max_pending is None:
            return False
        with self._stats_lock:
            return self._pending >= self._max_pending

    # -- the persisted tier ---------------------------------------------
    def _store_get(self, key: tuple) -> CacheEntry | None:
        """Probe the persisted tier (miss when no store is attached).

        A hit is promoted into the in-memory cache and counted under
        ``store_hits``, so the next lookup of this key is a plain
        memory hit.  Store-side integrity failures surface here as
        misses by the store's own contract; transient IO trouble
        retries under the service policy and then *degrades to a miss*
        (counted under ``store_errors``) — a flaky disk costs a
        recompile, never a failed job.  A deadline expiring mid-retry
        still surfaces: timing out is the job's contract, not the
        store's.
        """
        if self.store is None:
            return None
        try:
            entry = self._retry.call(
                lambda: self.store.get(key),
                token=str(key),
                on_retry=lambda: self._bump("retries"),
            )
        except CompileTimeout:
            raise
        except (TransientFault, OSError):
            self._bump("store_errors")
            return None
        if entry is not None:
            self._bump("store_hits")
            self.cache.put(key, entry)
        return entry

    def _store_put(self, key: tuple, entry: CacheEntry) -> None:
        """Publish an artifact; disk trouble must not fail the compile.

        Transient failures retry, then degrade: a full or read-only
        disk shrinks the store, and a deadline expiring during publish
        backoff is swallowed too (counted under both books) — the
        compile that produced this artifact already succeeded, so it
        is served regardless.
        """
        if self.store is None:
            return
        try:
            self._retry.call(
                lambda: self.store.put(key, entry),
                token=str(key),
                on_retry=lambda: self._bump("retries"),
            )
        except CompileTimeout:
            self._bump("timeouts")
            self._bump("store_errors")
        except (TransientFault, OSError):
            self._bump("store_errors")

    # -- the jobs -------------------------------------------------------
    def _compile_cold(
        self,
        netlist: Netlist,
        options: CompileOptions,
        token: str,
        defect_map: DefectMap | None = None,
    ) -> CacheEntry:
        """The cold-compile job, under the configured isolation mode.

        Thread mode calls :func:`compile_to_fabric` in place (the job's
        deadline scope covers it).  Process mode ships the job — with
        the *remaining* deadline and the active fault plan — into a
        crash-isolated subprocess: if the worker dies mid-job
        (``os._exit``, a segfault, an injected crash) it is respawned
        and the job resubmitted exactly once (``worker_restarts``); a
        second death raises :class:`WorkerLost`.  Results are
        byte-identical across modes and across restarts — a compile is
        a pure function of (netlist, options), so re-running it is safe
        by construction.
        """
        self._bump("compiles")
        kwargs = options.compile_kwargs()
        if defect_map is not None:
            kwargs["defect_map"] = defect_map
        ports = (tuple(netlist.inputs), tuple(netlist.outputs))
        if self._procs is None:
            return CacheEntry(compile_to_fabric(netlist, **kwargs), *ports)
        deadline = current_deadline()
        remaining = deadline.remaining() if deadline is not None else None
        plan = active_fault_plan()
        for attempt in range(2):
            try:
                result = self._procs.run(
                    _isolated_compile,
                    netlist, kwargs, remaining, plan, token, attempt,
                )
                return CacheEntry(result, *ports)
            except WorkerCrash:
                if attempt == 0:
                    self._bump("worker_restarts")
                    continue
                raise WorkerLost(
                    f"compile worker died twice on job {token}; giving up"
                ) from None

    def _repair(
        self,
        golden: ServiceResult,
        netlist: Netlist,
        defect_map: DefectMap,
        options: CompileOptions,
        token: str,
    ) -> CacheEntry:
        """The die job: warm-repair ``golden``, else compile defect-aware.

        Graceful degradation: when repair declines under pressure, or
        the job's deadline or worker budget is spent, the golden
        artifact is returned as a marked stand-in (``degraded=True``,
        never cached) instead of an error.
        """
        # The repaired artifact keeps the *golden* netlist's port
        # spelling (repair reuses the golden source, which may be an
        # isomorphic sibling of this submission), so entry ports come
        # from the artifact; the requester's spelling is remapped per
        # view.
        source = golden.result.source
        stand_in = CacheEntry(
            golden.result, tuple(source.inputs), tuple(source.outputs),
            degraded=True,
        )
        try:
            try:
                result = repair_for_die(
                    golden.result,
                    defect_map,
                    target_period=options.target_period,
                    seed=options.seed,
                )
            except RepairFallback:
                self._bump("repair_fallbacks")
                if not (self._degrade and self._under_pressure()):
                    return self._compile_cold(
                        netlist, options, token, defect_map
                    )
                # Repair declined and the queue is full: a cold
                # defect-aware compile now would stall everyone behind it.
                self._bump("degraded")
                return stand_in
        except (CompileTimeout, TransientFault) as e:
            if not self._degrade:
                raise
            # The job's time or worker budget is spent — the golden
            # stand-in beats erroring the die.
            if isinstance(e, CompileTimeout):
                self._bump("timeouts")
            self._bump("degraded")
            return stand_in
        self._bump("repairs")
        return CacheEntry(
            result, tuple(result.source.inputs), tuple(result.source.outputs),
            repaired=True,
        )

    def _delta(
        self,
        netlist: Netlist,
        base: PnrResult,
        options: CompileOptions,
        token: str,
    ) -> CacheEntry:
        """The recompile job: the delta path, else a cold compile."""
        try:
            result = compile_incremental(
                netlist,
                base,
                target_period=options.target_period,
                seed=options.seed,
            )
        except IncrementalFallback:
            self._bump("incremental_fallbacks")
            return self._compile_cold(netlist, options, token)
        self._bump("incremental_compiles")
        return CacheEntry(
            result, tuple(netlist.inputs), tuple(netlist.outputs),
            incremental=True,
        )

    # -- the one job core -----------------------------------------------
    def _settle(
        self, key: tuple, job: Future, value=None, error=None
    ) -> None:
        """Retire ``key``'s in-flight slot, then settle its job future."""
        with self._lock:
            self._inflight.pop(key, None)
        if error is not None:
            job.set_exception(error)
        else:
            job.set_result(value)

    def _launch(self, key: tuple, job: Future, run, retry: bool = True):
        """Put ``run`` on the pool, supervised against worker death.

        ``run`` itself never raises (it settles ``job``), so an
        exception on the *pool-level* future means the worker died
        before ``run`` executed — an injected ``pool.worker`` fault, in
        practice.  The supervisor resubmits exactly once
        (``worker_restarts``); a second death, or a pool that closed
        before the job could run, settles ``job`` with
        :class:`WorkerLost`, so coalesced waiters always settle, never
        hang.

        ``run`` may instead return a future: the job waits for it
        without holding a pool slot, and ``run(future)`` is launched,
        with what is left of the resubmission budget, once it settles.
        (The wait is handled here, not inside ``run``, so no closure
        refers to itself: a finished job is freed by reference
        counting, not left to the cyclic garbage collector.)
        """

        def _supervise(pool_future: Future) -> None:
            err = pool_future.exception()
            if err is None:
                dep = pool_future.result()
                if dep is not None:
                    dep.add_done_callback(lambda d: self._launch(
                        key, job, partial(run, d), retry
                    ))
                return
            if job.done():
                return
            if is_transient(err) and retry:
                self._bump("worker_restarts")
                self._launch(key, job, run, retry=False)
                return
            if is_transient(err):
                err = WorkerLost(
                    "worker died twice running one job; giving up"
                )
            self._settle(key, job, error=err)

        try:
            self._pool.submit(run).add_done_callback(_supervise)
        except RuntimeError:
            self._settle(key, job, error=WorkerLost(
                "the pool closed before the job could run"
            ))

    def _publish(
        self, key: tuple, job: Future, entry: CacheEntry, token: str
    ) -> None:
        """Cache and persist a fresh entry (never a degraded one), settle."""
        if not entry.degraded:
            self.cache.put(key, entry)
            self._store_put(key, entry)
        fault_point("service.settle", token=token)
        self._settle(key, job, (entry, False))

    def _serve(
        self,
        key: tuple,
        netlist: Netlist,
        options: CompileOptions,
        work,
        *,
        token: str,
        needs=None,
        admit: bool = True,
    ) -> Future:
        """The one submission path; returns a Future of a ServiceResult.

        ``work`` is the job function returning a :class:`CacheEntry`.
        With ``needs`` set (a callable returning a Future of a
        :class:`ServiceResult`), the job waits for that result and
        receives it as its argument — without holding a pool slot: the
        job continues on the pool from the dependency's done-callback.

        A memory hit resolves on the caller's thread, with no pool hop
        and no admission.  Otherwise the submission is admitted (unless
        ``admit`` is False), coalesces onto the key's in-flight job or
        launches one; the job probes the store, then runs ``work`` under
        ``options.deadline``, publishes the entry (never a degraded one)
        and settles.  A dependency is looked up outside that deadline
        and ``work`` gets a fresh one after it, so a die's budget covers
        its repair, not its golden.  Every future handed out is tracked,
        so ``submissions == settled + shed + pending`` on every path.
        The public wrappers refuse work after :meth:`close`; this core
        does not, so an accepted die job can still look its golden up
        while the service drains.
        """
        fault_point("service.submit", token=token)
        self._bump("submissions")
        # Snapshot the requester's port spelling now — the netlist is
        # the caller's object and this future may resolve much later.
        ports = (tuple(netlist.inputs), tuple(netlist.outputs))
        entry = self.cache.get(key)
        if entry is None:
            if admit:
                self._admit()
            with self._lock:
                # Re-check under the lock: a racing job may have
                # finished (cache.put, then the in-flight pop) between
                # the lock-free probe above and here.  peek, not get —
                # the probe above already charged this submission its
                # miss.
                entry = self.cache.peek(key)
                job = self._inflight.get(key)
                coalesced = job is not None
                if entry is None and not coalesced:
                    job = self._inflight[key] = Future()
        mine: Future = Future()
        if entry is not None:
            mine.set_result(_view(key, entry, ports, cached=True))
            return self._track(mine)
        if coalesced:
            self._bump("coalesced")

        def _done(done: Future) -> None:
            if done.exception() is not None:
                mine.set_exception(done.exception())
                return
            entry, from_store = done.result()
            mine.set_result(_view(
                key, entry, ports, cached=coalesced or from_store,
                coalesced=coalesced, from_store=from_store,
            ))

        job.add_done_callback(_done)
        self._track(mine)
        if coalesced:
            return mine

        def run(dep: Future | None = None) -> Future | None:
            try:
                if dep is None:
                    with deadline_scope(options.deadline):
                        fault_point("service.run", token=token)
                        # Tier 2, probed on the pool: decoding a large
                        # artifact must not block the submitting thread,
                        # and the in-flight future already coalesces
                        # duplicates across tiers.
                        entry = self._store_get(key)
                        if entry is not None:
                            fault_point("service.settle", token=token)
                            self._settle(key, job, (entry, True))
                            return None
                        if needs is None:
                            self._publish(key, job, work(), token)
                            return None
                    # Outside this job's deadline: the dependency runs
                    # under its own, and ``work`` gets a fresh one below.
                    dep = needs()
                    if not dep.done():
                        # No slot waits on another future: the job
                        # resumes once its dependency settles.
                        return dep
                if dep.exception() is not None:
                    # The dependency's failure is this job's failure
                    # (already booked there, e.g. as a timeout).
                    self._settle(key, job, error=dep.exception())
                    return None
                with deadline_scope(options.deadline):
                    self._publish(key, job, work(dep.result()), token)
            except CompileTimeout as e:
                self._bump("timeouts")
                self._settle(key, job, error=e)
            except BaseException as e:  # noqa: BLE001 - future carries it
                self._settle(key, job, error=e)

        self._launch(key, job, run)
        return mine

    # -- the public paths -----------------------------------------------
    def job_key(self, netlist: Netlist, options: CompileOptions) -> tuple:
        """The content-addressed cache key of one submission."""
        return (canonical_hash(netlist), options.key())

    def submit(
        self, netlist: Netlist, options: CompileOptions | None = None
    ) -> Future:
        """Enqueue one compile; returns a Future of a ServiceResult.

        Cache hits resolve immediately; concurrent duplicate keys
        coalesce onto the one in-flight job.  A memory miss probes the
        persisted store *inside* the job (single-flight is preserved
        across tiers: duplicates coalesce whether the key resolves from
        disk or from a compile) and only compiles on a store miss.  The
        returned future is *per-submission*: its ``ServiceResult``
        carries pin maps in this submission's port names even when the
        artifact was compiled from an isomorphic sibling.

        Resilience semantics: with ``options.deadline`` set, the job's
        compile loops cooperatively cancel on expiry and the future
        carries :class:`CompileTimeout` — within 2x the deadline, never
        hanging the pool; with ``max_pending`` set, a full queue sheds
        the submission *synchronously*
        (:class:`ServiceOverloaded` — cache hits are never shed); after
        :meth:`close`, ``RuntimeError``.  However a job ends — result,
        timeout, worker death, injected fault — an admitted future
        settles exactly once.
        """
        self._check_open()
        options = options or CompileOptions()
        key = self.job_key(netlist, options)
        token = key[0][:12]
        return self._serve(
            key, netlist, options,
            lambda: self._compile_cold(netlist, options, token),
            token=token,
        )

    def compile(
        self, netlist: Netlist, options: CompileOptions | None = None
    ) -> ServiceResult:
        """Blocking :meth:`submit`."""
        return self.submit(netlist, options).result()

    def die_key(
        self,
        netlist: Netlist,
        options: CompileOptions,
        defect_map: DefectMap,
    ) -> tuple:
        """Cache key of one die's artifact: the golden key + die digest.

        Composes the content-addressed job key with the defect map's
        digest, so two isomorphic netlists targeting the same die share
        one repaired artifact while distinct dies never collide.
        """
        return (
            canonical_hash(netlist),
            options.key(),
            ("die", defect_map.digest()),
        )

    def submit_for_die(
        self,
        netlist: Netlist,
        defect_map: DefectMap,
        options: CompileOptions | None = None,
    ) -> Future:
        """Enqueue a defect-adaptive compile for one die.

        Compiles the design once (the **golden** artifact, obtained
        through the normal cached :meth:`submit` path, so a fleet of
        dies shares one cold compile) and then adapts it to this die's
        defects with :func:`repro.pnr.defects.repair_for_die` on the
        pool.  When the die is too broken for the warm path
        (:class:`repro.pnr.defects.RepairFallback`), the job falls back
        to a full defect-aware cold compile — an unroutable die
        surfaces as the compile error on the returned future.

        Die artifacts cache under :meth:`die_key` and are served exactly
        like :meth:`submit`'s: memory hits resolve immediately, misses
        are admitted, coalesce and probe the store inside the job — a
        die another process repaired is served from disk without
        touching the golden.  Only on a store miss does the job look
        the golden up: one golden submission in :meth:`stats`, never
        shed (the die was already admitted), and never waited on from
        a pool slot — the repair resumes on the pool once the golden
        settles, so a small pool cannot deadlock on its goldens.  A
        golden failure is the die's failure.

        Graceful degradation (``degrade_under_pressure``, default on):
        when repair declines (:class:`RepairFallback`) while the
        service is saturated, or the job's deadline/worker budget is
        exhausted, the future resolves to the **golden** artifact
        marked ``degraded=True`` instead of erroring — correct for the
        defect-free fabric, not adapted to this die, and never cached,
        so a calmer resubmission performs the real repair.
        """
        self._check_open()
        options = options or CompileOptions()
        if options.shards is not None or options.max_side is not None:
            raise ValueError(
                "per-die compiles are single-array; drop shards/max_side"
            )
        key = self.die_key(netlist, options, defect_map)
        token = f"{key[0][:12]}:die:{defect_map.digest()[:12]}"

        def golden() -> Future:
            return self._serve(
                key[:2], netlist, options,
                lambda: self._compile_cold(netlist, options, key[0][:12]),
                token=key[0][:12], admit=False,
            )

        return self._serve(
            key, netlist, options,
            lambda g: self._repair(g, netlist, defect_map, options, token),
            token=token, needs=golden,
        )

    def compile_for_die(
        self,
        netlist: Netlist,
        defect_map: DefectMap,
        options: CompileOptions | None = None,
    ) -> ServiceResult:
        """Blocking :meth:`submit_for_die`."""
        return self.submit_for_die(netlist, defect_map, options).result()

    def recompile(
        self,
        netlist: Netlist,
        base: ServiceResult | PnrResult,
        options: CompileOptions | None = None,
    ) -> ServiceResult:
        """Recompile an edited netlist, warm-starting from ``base``.

        Takes the delta path (:func:`compile_incremental`) when the
        edit is small enough; otherwise the same job falls back to a
        full cold compile.  The result is cached under the *edited*
        netlist's content key — in memory and in the persisted store —
        so submitting the same edit again (from this service or a
        sibling on the same store) is a plain hit.

        A blocking wrapper over the same job core as :meth:`submit`:
        a memory hit returns at once, concurrent identical recompiles
        coalesce onto one job, a full queue sheds
        (:class:`ServiceOverloaded`), ``options.deadline`` bounds the
        delta *and* any fallback as one budget, a worker death is
        resubmitted once, and the call books exactly one submission —
        fallback included.  ``RuntimeError`` after :meth:`close`.
        """
        self._check_open()
        options = options or CompileOptions()
        key = self.job_key(netlist, options)
        token = key[0][:12]
        base = base.result if isinstance(base, ServiceResult) else base
        return self._serve(
            key, netlist, options,
            lambda: self._delta(netlist, base, options, token),
            token=token,
        ).result()

    def open_session(
        self, netlist: Netlist, options: CompileOptions | None = None
    ):
        """Open a multi-edit incremental session against ``netlist``.

        Compiles (or serves) the base through the normal tiered path,
        then returns an :class:`repro.service.session.EditSession`
        whose :meth:`~repro.service.session.EditSession.apply` chains
        each edit's recompile off the **previous step's** artifact —
        a whole edit chain without ever re-cold-compiling, every
        intermediate cached and persisted under its own content key.
        """
        from repro.service.session import EditSession

        options = options or CompileOptions()
        base = self.compile(netlist, options)
        return EditSession(self, base, options)
