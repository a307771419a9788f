"""The compile service: the PnR flow served, cached, and incremental.

The ROADMAP's "compiles for millions of users" step: instead of every
client paying a full :func:`repro.pnr.compile_to_fabric`, a
:class:`CompileService` owns a worker pool, a content-addressed LRU
result cache (:class:`ResultCache`, keyed on
:func:`repro.netlist.canonical_hash` + :class:`CompileOptions`), an
optional **persisted artifact store** (:class:`ArtifactStore` — an
on-disk second tier under the same keys, so artifacts outlive the
process and are shared between sibling services), and a delta path
(:func:`repro.pnr.incremental.compile_incremental`) that recompiles
small edits against a cached base in a fraction of the cold time —
chained across a whole edit sequence by :class:`EditSession`
(:meth:`CompileService.open_session`).  The whole stack is hardened
against failure — per-job deadlines, transient-fault retries,
crash-isolated workers, bounded admission with load-shedding — and
*proven* so by a deterministic fault-injection layer
(:class:`FaultPlan`, :mod:`repro.service.resilience`; see
``docs/resilience.md``).

Quickstart:

>>> from repro.datapath.adder import ripple_carry_netlist
>>> from repro.service import CompileOptions, CompileService
>>> with CompileService(workers=0, cache_capacity=8) as svc:
...     first = svc.compile(ripple_carry_netlist(2))
...     again = svc.compile(ripple_carry_netlist(2))
...     first.cached, again.cached
...     first.bitstreams() == again.bitstreams()
(False, True)
True

Persistence is one keyword: ``CompileService(store=some_dir)`` — a
*fresh* service on the same directory then serves the artifact from
disk with zero compiles:

>>> import tempfile
>>> root = tempfile.mkdtemp()
>>> with CompileService(workers=0, store=root) as svc:
...     bits = svc.compile(ripple_carry_netlist(2)).bitstreams()
>>> with CompileService(workers=0, store=root) as svc2:
...     served = svc2.compile(ripple_carry_netlist(2))
...     served.bitstreams() == bits, served.from_store
...     svc2.stats()["compiles"]
(True, True)
0

Correctness is proven, not asserted: ``tests/test_service.py`` shows
byte-identity between served and cold-compiled bitstreams under
concurrent duplicate submissions, exact coalescing/eviction
accounting, and worker-count invariance;
``tests/test_service_store.py`` pins the cross-process round-trip and
corruption-degrades-to-miss contract; ``tests/test_pnr_incremental.py``
holds the delta path to dual-backend equivalence and the cold flow's
quality gate.  See ``docs/compile-service.md`` and
``docs/artifact-store.md``.
"""

from repro.service.cache import ResultCache
from repro.service.resilience import (
    CompileTimeout,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    ServiceOverloaded,
)
from repro.service.service import CompileOptions, CompileService, ServiceResult
from repro.service.session import EditSession, SessionStep
from repro.service.store import ArtifactStore, CacheEntry, StoreKeyError

__all__ = [
    "ArtifactStore",
    "CacheEntry",
    "CompileOptions",
    "CompileService",
    "CompileTimeout",
    "EditSession",
    "FaultPlan",
    "FaultSpec",
    "ResultCache",
    "RetryPolicy",
    "ServiceOverloaded",
    "ServiceResult",
    "SessionStep",
    "StoreKeyError",
]
