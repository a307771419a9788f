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
  one compile; the duplicates wait on the same future and count as
  coalesced, not as compiles;
* **worker pool** — jobs fan out on a persistent
  :class:`repro.pnr.parallel.TaskPool`; each job's compile runs
  *serial inside* (``workers=0``), so results are a pure function of
  (netlist, options) and byte-identical for any pool width;
* **incremental recompiles** — :meth:`CompileService.recompile` routes
  an edited netlist through
  :func:`repro.pnr.incremental.compile_incremental` against a cached
  base, falling back to a cold compile whenever the delta path
  declines (:class:`repro.pnr.incremental.IncrementalFallback`);
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

Determinism contract (proven in ``tests/test_service.py``): a cache
*miss* compiles cold and is byte-identical to calling
``compile_to_fabric`` yourself; a cache *hit* returns the bytes of the
entry's original cold compile (if you hit with a renamed-but-isomorphic
netlist, you get those bytes with your port names mapped on top — the
circuit is the same, the spelling of its pins is yours); an
*incremental* recompile is deterministic and dual-backend equivalent
but placed from the cached base, so its bytes legitimately differ from
a cold compile's.  See ``docs/compile-service.md``.

**Resilience** (PR 10, proven in ``tests/test_resilience.py`` and the
chaos suite): every submission path passes named fault points
(``service.submit`` / ``service.run`` / ``service.settle``) so a
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
from concurrent.futures import Future
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
    change *what gets built* (seed, anneal schedule, timing mode,
    sharding).  Pool-shape knobs (``workers``) are deliberately absent:
    by the repo's determinism contract they never change results, so
    they must not split the cache.
    """

    seed: int = 0
    anneal_steps: int | None = None
    max_attempts: int = 6
    timing_driven: bool = False
    timing_weight: float = 2.0
    target_period: int | None = None
    shards: int | None = None
    max_side: int | None = None
    replicas: int = 1
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
            self.timing_driven,
            self.timing_weight,
            self.target_period,
            self.shards,
            self.max_side,
            self.replicas,
        )

    def compile_kwargs(self) -> dict:
        """Keyword arguments for :func:`compile_to_fabric`."""
        return {
            "seed": self.seed,
            "anneal_steps": self.anneal_steps,
            "max_attempts": self.max_attempts,
            "timing_driven": self.timing_driven,
            "timing_weight": self.timing_weight,
            "target_period": self.target_period,
            "shards": self.shards,
            "max_side": self.max_side,
            "replicas": self.replicas,
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


def _remap_ports(
    entry: CacheEntry, inputs: tuple[str, ...], outputs: tuple[str, ...]
) -> tuple[dict, dict]:
    """Translate the entry's pin maps to the requester's port names.

    Content-addressing guarantees the requester's netlist has the same
    port *structure* (count and position) as the entry's; names may
    differ.  Wires for ports the flow never routed (dead inputs) are
    absent from both sides.
    """
    res = entry.result
    in_wires = {}
    for i, req_name in enumerate(inputs):
        wire = res.input_wires.get(entry.input_ports[i])
        if wire is not None:
            in_wires[req_name] = wire
    out_wires = {}
    for i, req_name in enumerate(outputs):
        wire = res.output_wires.get(entry.output_ports[i])
        if wire is not None:
            out_wires[req_name] = wire
    return in_wires, out_wires


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
    max_delta_frac, release_budget_frac:
        Passed through to :func:`compile_incremental`; see there.
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
        max_delta_frac: float | None = None,
        release_budget_frac: float | None = None,
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
        self._isolation = isolation
        self._degrade = degrade_under_pressure
        self._procs = (
            ProcessWorkerPool(workers=1) if isolation == "process" else None
        )
        self._closed = False
        self._lock = threading.Lock()
        self._inflight: dict[tuple, Future] = {}
        self._delta_kwargs = {}
        if max_delta_frac is not None:
            self._delta_kwargs["max_delta_frac"] = max_delta_frac
        if release_budget_frac is not None:
            self._delta_kwargs["release_budget_frac"] = release_budget_frac
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
    def _bump(self, counter: str, by: int = 1) -> None:
        with self._stats_lock:
            self._counters[counter] += by

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

    # -- the compile path -----------------------------------------------
    def _compile_cold(
        self,
        netlist: Netlist,
        options: CompileOptions,
        *,
        token: str,
        defect_map: DefectMap | None = None,
    ):
        """One cold compile under the configured isolation mode.

        Thread mode calls :func:`compile_to_fabric` in place (the
        deadline scope installed by the caller covers it).  Process
        mode ships the job — with the *remaining* deadline and the
        active fault plan — into a crash-isolated subprocess: if the
        worker dies mid-job (``os._exit``, a segfault, an injected
        crash) it is respawned and the job resubmitted exactly once
        (``worker_restarts``); a second death raises
        :class:`WorkerLost`.  Results are byte-identical across modes
        and across restarts — a compile is a pure function of
        (netlist, options), so re-running it is safe by construction.
        """
        kwargs = options.compile_kwargs()
        if defect_map is not None:
            kwargs["defect_map"] = defect_map
        if self._procs is None:
            return compile_to_fabric(netlist, **kwargs)
        deadline = current_deadline()
        remaining = deadline.remaining() if deadline is not None else None
        plan = active_fault_plan()
        for attempt in range(2):
            try:
                return self._procs.run(
                    _isolated_compile,
                    netlist, kwargs, remaining, plan, token, attempt,
                )
            except WorkerCrash:
                if attempt == 0:
                    self._bump("worker_restarts")
                    continue
                raise WorkerLost(
                    f"compile worker died twice on job {token}; giving up"
                ) from None

    def _launch(self, key: tuple, compiled: Future, run) -> None:
        """Put ``run`` on the pool, supervised against worker death.

        ``run`` itself never raises (it settles ``compiled``), so an
        exception on the *pool-level* future means the worker died
        before ``run`` executed — an injected ``pool.worker`` fault, in
        practice.  The supervisor resubmits exactly once
        (``worker_restarts``); a second death settles ``compiled`` with
        :class:`WorkerLost` and performs the in-flight cleanup ``run``
        never got to, so coalesced waiters always settle, never hang.
        """

        resubmitted = [False]

        def _supervise(pool_future: Future) -> None:
            err = pool_future.exception()
            if err is None or compiled.done():
                return
            if is_transient(err) and not resubmitted[0]:
                resubmitted[0] = True
                self._bump("worker_restarts")
                try:
                    self._pool.submit(run).add_done_callback(_supervise)
                    return
                except RuntimeError:
                    err = WorkerLost(
                        "worker died and the pool closed before the job "
                        "could be resubmitted"
                    )
            elif is_transient(err):
                err = WorkerLost(
                    "worker died twice running one job; giving up"
                )
            with self._lock:
                self._inflight.pop(key, None)
            compiled.set_exception(err)

        self._pool.submit(run).add_done_callback(_supervise)

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
        options = options or CompileOptions()
        self._check_open()
        key = self.job_key(netlist, options)
        token = key[0][:12]
        fault_point("service.submit", token=token)
        self._bump("submissions")
        # Snapshot the requester's port spelling now — the netlist is
        # the caller's object and this future may resolve much later.
        req_inputs = tuple(netlist.inputs)
        req_outputs = tuple(netlist.outputs)

        def view(
            entry: CacheEntry, *, cached: bool, coalesced: bool,
            from_store: bool = False,
        ):
            in_wires, out_wires = _remap_ports(entry, req_inputs, req_outputs)
            return ServiceResult(
                key=key,
                result=entry.result,
                input_wires=in_wires,
                output_wires=out_wires,
                cached=cached,
                coalesced=coalesced,
                incremental=entry.incremental,
                repaired=entry.repaired,
                from_store=from_store,
                degraded=entry.degraded,
            )

        entry = self.cache.get(key)
        if entry is not None:
            future: Future = Future()
            future.set_result(view(entry, cached=True, coalesced=False))
            return self._track(future)

        self._admit()
        with self._lock:
            # Re-check under the lock: a racing compile may have
            # finished (cache.put then inflight pop, in that order)
            # between the lock-free cache probe above and here.  peek,
            # not get — the entry is already most-recent and the probe
            # above already charged this submission its miss.
            entry = self.cache.peek(key)
            if entry is not None:
                future = Future()
                future.set_result(view(entry, cached=True, coalesced=False))
                return self._track(future)
            inflight = self._inflight.get(key)
            if inflight is not None:
                self._bump("coalesced")
                chained: Future = Future()

                def _chain(done: Future, out: Future = chained) -> None:
                    err = done.exception()
                    if err is not None:
                        out.set_exception(err)
                    else:
                        entry, from_store = done.result()
                        out.set_result(view(
                            entry, cached=True, coalesced=True,
                            from_store=from_store,
                        ))

                inflight.add_done_callback(_chain)
                return self._track(chained)

            compiled: Future = Future()
            self._inflight[key] = compiled

        def run() -> None:
            try:
                with deadline_scope(options.deadline):
                    fault_point("service.run", token=token)
                    # Tier 2: the persisted store.  Probed on the pool,
                    # not in submit() — deserialising a large artifact
                    # must not block the submitting thread, and the
                    # in-flight future already coalesces duplicates.
                    entry = self._store_get(key)
                    if entry is not None:
                        fault_point("service.settle", token=token)
                        compiled.set_result((entry, True))
                        return
                    self._bump("compiles")
                    result = self._compile_cold(netlist, options, token=token)
                    entry = CacheEntry(
                        result=result,
                        input_ports=req_inputs,
                        output_ports=req_outputs,
                    )
                    self.cache.put(key, entry)
                    self._store_put(key, entry)
                    fault_point("service.settle", token=token)
                    compiled.set_result((entry, False))
            except CompileTimeout as e:
                self._bump("timeouts")
                compiled.set_exception(e)
            except BaseException as e:  # noqa: BLE001 - future carries it
                compiled.set_exception(e)
            finally:
                with self._lock:
                    self._inflight.pop(key, None)

        mine: Future = Future()

        def _settle(done: Future, out: Future = mine) -> None:
            err = done.exception()
            if err is not None:
                out.set_exception(err)
            else:
                entry, from_store = done.result()
                out.set_result(view(
                    entry, cached=from_store, coalesced=False,
                    from_store=from_store,
                ))

        compiled.add_done_callback(_settle)
        self._launch(key, compiled, run)
        return self._track(mine)

    def compile(
        self, netlist: Netlist, options: CompileOptions | None = None
    ) -> ServiceResult:
        """Blocking :meth:`submit`."""
        return self.submit(netlist, options).result()

    # -- per-die repair ---------------------------------------------------
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
        through the normal cached :meth:`compile` path, so a fleet of
        dies shares one cold compile) and then adapts it to this die's
        defects with :func:`repro.pnr.defects.repair_for_die` on the
        pool.  When the die is too broken for the warm path
        (:class:`repro.pnr.defects.RepairFallback`), the job falls back
        to a full defect-aware cold compile — an unroutable die
        surfaces as the compile error on the returned future.

        The golden compile resolves synchronously in the *calling*
        thread (a cache hit after the first die), never inside the pool
        job: a nested blocking submit from a pool slot could deadlock a
        small pool.  Each die submission therefore also counts one
        golden submission in :meth:`stats`.

        Die artifacts cache under :meth:`die_key`; hits resolve
        immediately (from memory or the persisted store — a die another
        process repaired is served from disk without touching the
        golden) and concurrent submissions of the same die coalesce,
        exactly like :meth:`submit`.

        Graceful degradation (``degrade_under_pressure``, default on):
        when repair declines (:class:`RepairFallback`) while the
        service is saturated, or the job's deadline/worker budget is
        exhausted, the future resolves to the **golden** artifact
        marked ``degraded=True`` instead of erroring — correct for the
        defect-free fabric, not adapted to this die, and never cached,
        so a calmer resubmission performs the real repair.
        """
        options = options or CompileOptions()
        self._check_open()
        if options.shards is not None or options.max_side is not None:
            raise ValueError(
                "per-die compiles are single-array; drop shards/max_side"
            )
        key = self.die_key(netlist, options, defect_map)
        token = f"{key[0][:12]}:die:{defect_map.digest()[:12]}"
        fault_point("service.submit", token=token)
        self._bump("submissions")
        req_inputs = tuple(netlist.inputs)
        req_outputs = tuple(netlist.outputs)

        def view(
            entry: CacheEntry, *, cached: bool, coalesced: bool,
            from_store: bool = False,
        ):
            in_wires, out_wires = _remap_ports(entry, req_inputs, req_outputs)
            return ServiceResult(
                key=key,
                result=entry.result,
                input_wires=in_wires,
                output_wires=out_wires,
                cached=cached,
                coalesced=coalesced,
                incremental=entry.incremental,
                repaired=entry.repaired,
                from_store=from_store,
                degraded=entry.degraded,
            )

        entry = self.cache.get(key)
        if entry is not None:
            future: Future = Future()
            future.set_result(view(entry, cached=True, coalesced=False))
            return self._track(future)

        self._admit()
        with self._lock:
            entry = self.cache.peek(key)
            if entry is not None:
                future = Future()
                future.set_result(view(entry, cached=True, coalesced=False))
                return self._track(future)
            inflight = self._inflight.get(key)
            if inflight is not None:
                self._bump("coalesced")
                chained: Future = Future()

                def _chain(done: Future, out: Future = chained) -> None:
                    err = done.exception()
                    if err is not None:
                        out.set_exception(err)
                    else:
                        entry, from_store = done.result()
                        out.set_result(view(
                            entry, cached=True, coalesced=True,
                            from_store=from_store,
                        ))

                inflight.add_done_callback(_chain)
                return self._track(chained)

            compiled: Future = Future()
            self._inflight[key] = compiled

        mine: Future = Future()

        def _settle(done: Future, out: Future = mine) -> None:
            err = done.exception()
            if err is not None:
                out.set_exception(err)
            else:
                entry, from_store = done.result()
                out.set_result(view(
                    entry, cached=from_store, coalesced=False,
                    from_store=from_store,
                ))

        compiled.add_done_callback(_settle)

        # Tier 2 first: a die already repaired by another process (or
        # an earlier life of this one) serves straight from the store —
        # the golden artifact is not even loaded.  This probe runs in
        # the calling thread because the golden resolve below does too.
        try:
            entry = self._store_get(key)
        except BaseException as e:  # noqa: BLE001 - future carries it
            with self._lock:
                self._inflight.pop(key, None)
            compiled.set_exception(e)
            return self._track(mine)
        if entry is not None:
            with self._lock:
                self._inflight.pop(key, None)
            compiled.set_result((entry, True))
            return self._track(mine)

        try:
            golden = self.compile(netlist, options)
        except BaseException as e:  # noqa: BLE001 - future carries it
            with self._lock:
                self._inflight.pop(key, None)
            compiled.set_exception(e)
            return self._track(mine)

        def degraded_entry() -> CacheEntry:
            # Serve the golden artifact as a marked stand-in.  Its
            # port spelling is the golden source's (the same remap
            # contract as the repair path); it is handed to waiters
            # but never cached or persisted — the die deserves its
            # real repair when pressure subsides.
            return CacheEntry(
                result=golden.result,
                input_ports=tuple(golden.result.source.inputs),
                output_ports=tuple(golden.result.source.outputs),
                degraded=True,
            )

        def run() -> None:
            try:
                with deadline_scope(options.deadline):
                    fault_point("service.run", token=token)
                    try:
                        try:
                            result = repair_for_die(
                                golden.result,
                                defect_map,
                                target_period=options.target_period,
                                seed=options.seed,
                            )
                            self._bump("repairs")
                            repaired = True
                        except RepairFallback:
                            self._bump("repair_fallbacks")
                            if self._degrade and self._under_pressure():
                                # Repair declined and the queue is
                                # full: a cold defect-aware compile now
                                # would stall everyone behind it.
                                self._bump("degraded")
                                compiled.set_result((degraded_entry(), False))
                                return
                            self._bump("compiles")
                            result = self._compile_cold(
                                netlist, options,
                                token=token, defect_map=defect_map,
                            )
                            repaired = False
                    except (CompileTimeout, TransientFault) as e:
                        if not self._degrade:
                            raise
                        # The job's time or worker budget is spent —
                        # the golden stand-in beats erroring the die.
                        if isinstance(e, CompileTimeout):
                            self._bump("timeouts")
                        self._bump("degraded")
                        compiled.set_result((degraded_entry(), False))
                        return
                    # The repaired artifact keeps the *golden*
                    # netlist's port spelling (repair reuses the golden
                    # source, which may be an isomorphic sibling of
                    # this submission), so the entry's port order must
                    # come from the artifact — the requester's spelling
                    # is remapped per view.
                    entry = CacheEntry(
                        result=result,
                        input_ports=tuple(result.source.inputs),
                        output_ports=tuple(result.source.outputs),
                        repaired=repaired,
                    )
                    self.cache.put(key, entry)
                    self._store_put(key, entry)
                    fault_point("service.settle", token=token)
                    compiled.set_result((entry, False))
            except CompileTimeout as e:
                self._bump("timeouts")
                compiled.set_exception(e)
            except BaseException as e:  # noqa: BLE001 - future carries it
                compiled.set_exception(e)
            finally:
                with self._lock:
                    self._inflight.pop(key, None)

        self._launch(key, compiled, run)
        return self._track(mine)

    def compile_for_die(
        self,
        netlist: Netlist,
        defect_map: DefectMap,
        options: CompileOptions | None = None,
    ) -> ServiceResult:
        """Blocking :meth:`submit_for_die`."""
        return self.submit_for_die(netlist, defect_map, options).result()

    # -- incremental recompiles -----------------------------------------
    def recompile(
        self,
        netlist: Netlist,
        base: ServiceResult | PnrResult,
        options: CompileOptions | None = None,
    ) -> ServiceResult:
        """Recompile an edited netlist, warm-starting from ``base``.

        Takes the delta path (:func:`compile_incremental`) when the
        edit is small enough; otherwise falls back to a full cold
        compile through the normal cached/coalesced :meth:`submit`
        machinery.  The result is cached under the *edited* netlist's
        content key — in memory and in the persisted store — so
        submitting the same edit again (from this service or a sibling
        on the same store) is a plain hit.

        A blocking call still keeps the resilience books: it counts
        pending while it runs and settled when it returns (or raises),
        honours ``options.deadline`` on the delta path, and raises
        ``RuntimeError`` after :meth:`close`.
        """
        options = options or CompileOptions()
        self._check_open()
        key = self.job_key(netlist, options)
        fault_point("service.submit", token=key[0][:12])
        self._bump("submissions")
        with self._stats_lock:
            self._pending += 1
        try:
            return self._recompile_body(netlist, base, options, key)
        finally:
            with self._stats_lock:
                self._pending -= 1
                self._counters["settled"] += 1

    def _recompile_body(
        self,
        netlist: Netlist,
        base: ServiceResult | PnrResult,
        options: CompileOptions,
        key: tuple,
    ) -> ServiceResult:
        """:meth:`recompile` body, inside its accounting bracket."""

        def cached_view(entry: CacheEntry, *, from_store: bool):
            in_w, out_w = _remap_ports(
                entry, tuple(netlist.inputs), tuple(netlist.outputs)
            )
            return ServiceResult(
                key=key,
                result=entry.result,
                input_wires=in_w,
                output_wires=out_w,
                cached=True,
                coalesced=False,
                incremental=entry.incremental,
                repaired=entry.repaired,
                from_store=from_store,
                degraded=entry.degraded,
            )

        entry = self.cache.get(key)
        if entry is not None:
            return cached_view(entry, from_store=False)
        # recompile() is a blocking API, so the store probe runs right
        # here — an edit some sibling service already compiled (or a
        # replayed session step) never pays the delta path again.
        entry = self._store_get(key)
        if entry is not None:
            return cached_view(entry, from_store=True)
        base_result = base.result if isinstance(base, ServiceResult) else base
        try:
            with deadline_scope(options.deadline):
                result = compile_incremental(
                    netlist,
                    base_result,
                    target_period=options.target_period,
                    seed=options.seed,
                    **self._delta_kwargs,
                )
        except CompileTimeout:
            self._bump("timeouts")
            raise
        except IncrementalFallback:
            self._bump("incremental_fallbacks")
            return self.compile(netlist, options)
        self._bump("incremental_compiles")
        entry = CacheEntry(
            result=result,
            input_ports=tuple(netlist.inputs),
            output_ports=tuple(netlist.outputs),
            incremental=True,
        )
        self.cache.put(key, entry)
        self._store_put(key, entry)
        return ServiceResult(
            key=key,
            result=result,
            input_wires=dict(result.input_wires),
            output_wires=dict(result.output_wires),
            cached=False,
            coalesced=False,
            incremental=True,
        )

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
