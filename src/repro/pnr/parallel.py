"""Deterministic fan-out helpers shared by the PnR parallel paths.

Two consumers, one contract: the sharded flow
(:func:`repro.pnr.partition.compile_sharded`) fans independent
per-shard compiles onto a thread pool, and the compile service
(:class:`repro.service.CompileService`) runs whole jobs — including
the persisted store's deserialise-on-hit IO, which must not block the
submitting thread — on a long-lived :class:`TaskPool`.  Both demand the
same property: **results must be byte-identical for any worker
count**, so the helpers here never let pool scheduling leak into
results — tasks are mapped in submission order and returned in
submission order (``Executor.map`` semantics), and the serial path is
the plain list comprehension.

``workers`` convention (used across the compile flow):

* ``None`` — auto: one worker per item, capped at ``os.cpu_count()``;
* ``0`` or ``1`` — serial, no pool at all (the exact debugging path:
  everything runs on the calling thread, tracebacks stay flat);
* ``N > 1`` — a pool of at most ``N`` workers.

This module also hosts the **resilience primitives** the serving stack
builds on (see ``docs/resilience.md``), placed here because both the
PnR loops and the service need them without an import cycle:

* **cooperative deadlines** — :func:`deadline_scope` installs a
  thread-local :class:`Deadline`; the long loops of the compile flow
  (anneal rungs, per-net routing, repair waves) call :func:`checkpoint`
  so a stuck compile raises :class:`CompileTimeout` promptly instead of
  hanging its pool slot.  With no deadline installed a checkpoint is a
  thread-local read — effectively free;
* **failure taxonomy** — :class:`TransientFault` (worth retrying:
  worker loss, injected IO trouble) vs everything else (deterministic
  compile errors, timeouts — retrying those only repeats them);
* **fault injection hook** — :func:`fault_point` marks the named
  places faults can be injected (:data:`FAULT_POINTS`).  With no plan
  active (:func:`inject_faults`) it returns immediately; an active
  plan (:class:`repro.service.resilience.FaultPlan`, duck-typed here)
  may raise, stall, or transform the bytes passing through the point;
* **crash-isolated workers** — :class:`ProcessWorkerPool` runs jobs in
  subprocesses and reports a dead worker as :class:`WorkerCrash` after
  respawning the pool, so one crashing compile can never take the
  service down with it.
"""

from __future__ import annotations

import os
import threading
import time
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "FAULT_POINTS",
    "CompileTimeout",
    "Deadline",
    "ProcessWorkerPool",
    "TaskPool",
    "TransientFault",
    "WorkerCrash",
    "WorkerLost",
    "active_fault_plan",
    "checkpoint",
    "current_deadline",
    "deadline_scope",
    "fault_point",
    "inject_faults",
    "parallel_map",
    "resolve_workers",
    "sleep_checked",
]


# ---------------------------------------------------------------------------
# Failure taxonomy
# ---------------------------------------------------------------------------
class CompileTimeout(TimeoutError):
    """A compile exceeded its deadline and was cooperatively cancelled.

    Raised by :func:`checkpoint` from inside the anneal/route/repair
    loops.  Deliberately **not** transient: re-running the same compile
    under the same deadline would only time out again, so the retry
    policy never retries it (note ``TimeoutError`` *is* an ``OSError``
    subclass — the transient classifier special-cases this).
    """


class TransientFault(RuntimeError):
    """A fault worth retrying: the operation may succeed if repeated.

    The root of the *transient* side of the failure taxonomy (worker
    loss, injected store IO trouble).  Deterministic compile errors
    (:class:`repro.pnr.flow.PnrError` and friends) are deliberately
    outside this hierarchy — retrying them only repeats them.
    """


class WorkerCrash(TransientFault):
    """A worker died mid-job (a real subprocess death, or injected).

    Transient: the job itself may be fine — the supervisor respawns the
    worker and resubmits the job exactly once.
    """


class WorkerLost(TransientFault):
    """A job's worker died and the one respawn-resubmission died too.

    What the supervisor settles waiting futures with after the
    resubmission budget is spent — a waiter never hangs on a dead
    worker.
    """


# ---------------------------------------------------------------------------
# Cooperative deadlines
# ---------------------------------------------------------------------------
_TLS = threading.local()


@dataclass(frozen=True)
class Deadline:
    """A wall-clock budget, checked cooperatively via :func:`checkpoint`."""

    expires_at: float  # time.monotonic() timestamp
    seconds: float     # the budget it was created with (for messages)

    @classmethod
    def after(cls, seconds: float) -> Deadline:
        return cls(expires_at=time.monotonic() + seconds, seconds=seconds)

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self.expires_at - time.monotonic()

    def check(self) -> None:
        """Raise :class:`CompileTimeout` when the budget is spent."""
        if self.remaining() <= 0.0:
            raise CompileTimeout(
                f"compile exceeded its {self.seconds:g}s deadline"
            )


def current_deadline() -> Deadline | None:
    """The innermost active deadline of this thread, if any."""
    return getattr(_TLS, "deadline", None)


@contextmanager
def deadline_scope(seconds: float | None):
    """Install a thread-local deadline for the duration of the block.

    ``None`` installs nothing (the common, zero-cost case).  Scopes
    nest by keeping whichever deadline expires first, so an outer
    budget can never be stretched by an inner one.

    >>> with deadline_scope(None) as dl:
    ...     dl is None, current_deadline() is None
    (True, True)
    >>> with deadline_scope(60.0) as dl:
    ...     checkpoint()            # plenty of budget: no-op
    ...     round(dl.seconds, 1)
    60.0
    """
    if seconds is None:
        yield None
        return
    prev = getattr(_TLS, "deadline", None)
    deadline = Deadline.after(seconds)
    if prev is not None and prev.expires_at < deadline.expires_at:
        deadline = prev
    _TLS.deadline = deadline
    try:
        yield deadline
    finally:
        _TLS.deadline = prev


def checkpoint() -> None:
    """Raise :class:`CompileTimeout` if this thread's deadline expired.

    Threaded into the compile flow's loops (anneal temperature rungs,
    per-net routing, ripple-release and repair waves) at a granularity
    of milliseconds, so a deadline-exceeding compile surfaces well
    inside the contract's 2x-deadline bound.  With no deadline
    installed this is one thread-local read.
    """
    deadline = getattr(_TLS, "deadline", None)
    if deadline is not None:
        deadline.check()


def sleep_checked(seconds: float) -> None:
    """Sleep in small slices, honouring the active deadline throughout.

    Backoff delays and injected stalls both sleep through here, so a
    stall can never carry a compile silently past its deadline — the
    checkpoint inside the loop raises :class:`CompileTimeout` at the
    budget, not after the full sleep.
    """
    end = time.monotonic() + seconds
    while True:
        checkpoint()
        remaining = end - time.monotonic()
        if remaining <= 0.0:
            return
        time.sleep(min(remaining, 0.01))


# ---------------------------------------------------------------------------
# Fault injection hook
# ---------------------------------------------------------------------------
#: The registry of named fault points: every place the serving stack
#: lets a :class:`repro.service.resilience.FaultPlan` inject trouble.
#: An unregistered name passed to :func:`fault_point` under an active
#: plan is an error — the registry is the documented failure surface
#: (see ``docs/resilience.md``), not a stringly free-for-all.
FAULT_POINTS: dict[str, str] = {
    "service.submit": "admission: before a submission is accounted",
    "service.run": "a compile job beginning execution on its worker",
    "service.settle": "a finished job about to settle its futures",
    "store.publish": "blob bytes entering ArtifactStore.put (corruptible)",
    "store.publish.stage": "blob staged to the temp file, before os.replace",
    "store.publish.commit": "blob renamed into place, before the dir fsync",
    "store.load": "blob bytes leaving disk in ArtifactStore.get (corruptible)",
    "store.evict": "an over-budget blob about to be evicted",
    "pool.worker": "a pool worker picking up a submitted job",
    "repair.wave": "one escalation wave of repair_for_die",
}

#: The active fault plan (process-global; ``None`` = every
#: :func:`fault_point` is a no-op).  Duck-typed: anything with a
#: ``fire(point, token, data)`` method qualifies.
_ACTIVE_PLAN = None


@contextmanager
def inject_faults(plan):
    """Activate a fault plan for the duration of the block.

    One plan at a time, process-wide — chaos runs exercise one seeded
    plan against the whole stack, and the tokens passed at each point
    keep its decisions deterministic under any thread interleaving.
    """
    global _ACTIVE_PLAN
    if _ACTIVE_PLAN is not None:
        raise RuntimeError("a fault plan is already active")
    _ACTIVE_PLAN = plan
    try:
        yield plan
    finally:
        _ACTIVE_PLAN = None


def fault_point(point: str, token: str = "", data=None):
    """Offer the active fault plan a chance to misbehave here.

    Returns ``data`` (possibly transformed by a ``corrupt`` fault); may
    raise or stall according to the plan.  With no active plan this is
    one global read and an immediate return — the zero-overhead
    contract production code relies on.

    ``token`` names *this visit* (a key digest, a wave number, a job
    sequence number) so a plan's decisions are a pure function of
    ``(plan, point, token)`` — deterministic across runs, threads and
    processes.
    """
    plan = _ACTIVE_PLAN
    if plan is None:
        return data
    if point not in FAULT_POINTS:
        raise ValueError(f"unregistered fault point {point!r}")
    return plan.fire(point, token, data)


def active_fault_plan():
    """The fault plan currently installed, or ``None``.

    The service ships this into its crash-isolated subprocess workers
    so injected faults fire *inside* the worker too — a plan is plain
    picklable data, unlike the context manager that installed it.
    """
    return _ACTIVE_PLAN


def resolve_workers(n_items: int, workers: int | None) -> int:
    """The effective pool width for ``n_items`` independent tasks.

    ``None`` auto-selects ``min(n_items, os.cpu_count())``; ``0`` and
    ``1`` both mean serial (0 reads as "no pool", the debugging
    convention); anything larger is capped at ``n_items`` — a wider
    pool would only hold idle workers.

    >>> resolve_workers(4, 1)
    1
    >>> resolve_workers(4, 0)
    1
    >>> resolve_workers(4, 16)
    4
    """
    if n_items <= 1:
        return 1
    if workers is None:
        workers = os.cpu_count() or 1
    return max(1, min(int(workers), n_items))


def parallel_map(
    fn: Callable, items: Iterable, workers: int | None = None
) -> list:
    """``[fn(x) for x in items]``, optionally on a thread pool.

    Results come back in item order whatever the pool width, and the
    first exception propagates (remaining futures are drained by the
    executor's context manager) — so callers observe serial semantics.
    """
    items = list(items) if not isinstance(items, Sequence) else items
    if _ACTIVE_PLAN is not None:
        # Fire the worker fault point once per item, indexed by the
        # item's submission position — the same tokens whatever the
        # worker count, so chaos plans stay worker-invariant.  (Bound
        # only under an active plan: the production path is untouched.)
        inner = fn

        def fn(pair, _inner=inner):  # noqa: F811 - deliberate shadow
            i, item = pair
            fault_point("pool.worker", token=f"map:{i}")
            return _inner(item)

        items = list(enumerate(items))
    n_workers = resolve_workers(len(items), workers)
    if n_workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(fn, items))


class TaskPool:
    """A persistent submit-style worker pool under the same convention.

    :func:`parallel_map` tears its pool down after one batch; a served
    system (:class:`repro.service.CompileService`) wants workers that
    outlive individual jobs.  ``TaskPool`` wraps a long-lived
    :class:`~concurrent.futures.ThreadPoolExecutor` behind the repo's
    ``workers`` convention — and in serial mode (``workers`` 0/1 when
    only one job would run anyway) it runs the callable **inline on the
    calling thread** and hands back an already-resolved
    :class:`~concurrent.futures.Future`, so the debugging path has flat
    tracebacks and zero threads, while callers keep one code shape.

    Determinism note: the pool only decides *when and where* a job
    runs, never what it computes — every job submitted by the compile
    service is a pure function of its inputs, so results are identical
    for any ``workers`` value (proven in ``tests/test_service.py``).

    >>> with TaskPool(workers=0) as pool:
    ...     pool.submit(lambda a, b: a + b, 2, 3).result()
    5
    """

    def __init__(self, workers: int | None = None) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        self.workers = max(0, int(workers))
        self._pool: ThreadPoolExecutor | None = (
            ThreadPoolExecutor(max_workers=self.workers)
            if self.workers > 1
            else None
        )
        self._closed = False
        self._seq = 0
        self._seq_lock = threading.Lock()

    @property
    def serial(self) -> bool:
        """True when jobs run inline on the submitting thread."""
        return self._pool is None

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran; further submits raise."""
        return self._closed

    def submit(self, fn: Callable, *args, **kwargs) -> Future:
        """Run ``fn(*args, **kwargs)``; returns its Future.

        Raises ``RuntimeError`` after :meth:`close` — a closed pool
        must refuse work loudly, never accept a job whose future could
        silently hang.  Under an active fault plan every job passes the
        ``pool.worker`` fault point (token = submission sequence
        number) before running, so injected worker deaths surface as
        the job future's exception — the supervisor layers above turn
        that into a respawn-and-resubmit.
        """
        if self._closed:
            raise RuntimeError(
                "TaskPool is closed; jobs can no longer be submitted"
            )
        if _ACTIVE_PLAN is not None:
            with self._seq_lock:
                token = str(self._seq)
                self._seq += 1
            inner = fn

            def fn(*a, _inner=inner, _token=token, **kw):  # noqa: F811
                fault_point("pool.worker", token=_token)
                return _inner(*a, **kw)

        if self._pool is not None:
            return self._pool.submit(fn, *args, **kwargs)
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as e:  # noqa: BLE001 - futures carry any error
            future.set_exception(e)
        return future

    def close(self) -> None:
        """Drain outstanding jobs, then release the worker threads.

        Every already-submitted future settles (completed, or failed
        with its job's exception) before this returns — a waiter can
        never hang on a closed pool.  Idempotent.
        """
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def __enter__(self) -> TaskPool:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ProcessWorkerPool:
    """Crash-isolated workers: each job runs in a supervised subprocess.

    The thread-backed :class:`TaskPool` shares one interpreter — a
    compile that segfaults (or is killed by an injected fault) takes
    the whole service with it.  ``ProcessWorkerPool`` runs jobs on a
    :class:`~concurrent.futures.ProcessPoolExecutor` instead: a worker
    death breaks only that executor, which is torn down and **respawned**
    for the next job, and the death is reported to the caller as
    :class:`WorkerCrash` (transient — the supervisor resubmits the job
    exactly once).  ``fn`` and its arguments must be picklable
    module-level callables, the usual process-pool contract.

    >>> pool = ProcessWorkerPool(workers=1)
    >>> pool.run(max, 2, 3)
    3
    >>> pool.close()
    """

    def __init__(self, workers: int = 1) -> None:
        self.workers = max(1, int(workers))
        self.restarts = 0
        self._lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None
        self._closed = False

    def run(self, fn: Callable, *args):
        """Run ``fn(*args)`` in a worker subprocess, blocking for the result.

        The job's own exceptions propagate as raised.  A worker that
        dies mid-job (``BrokenProcessPool``) respawns the pool and
        raises :class:`WorkerCrash` instead — the caller decides
        whether to resubmit.
        """
        if self._closed:
            raise RuntimeError(
                "ProcessWorkerPool is closed; jobs can no longer run"
            )
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            future = self._pool.submit(fn, *args)
        try:
            return future.result()
        except BrokenProcessPool as e:
            with self._lock:
                broken, self._pool = self._pool, None
                if broken is not None:
                    broken.shutdown(wait=False)
                self.restarts += 1
            raise WorkerCrash("process worker died mid-job") from e

    def close(self) -> None:
        """Release the worker processes (idempotent)."""
        self._closed = True
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> ProcessWorkerPool:
        return self

    def __exit__(self, *exc) -> None:
        self.close()
