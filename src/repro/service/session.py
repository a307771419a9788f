"""Multi-edit incremental sessions: a chain of deltas against one base.

:meth:`repro.service.CompileService.recompile` warm-starts one edit
from one cached artifact.  An interactive client doesn't make one
edit — it makes a *sequence*: tweak a gate, recompile, look at the
timing, tweak again.  :class:`EditSession` is that loop as an API:
:meth:`EditSession.apply` recompiles each edited netlist against the
**previous step's** artifact (not the original base), so a chain of N
small edits costs N delta compiles and zero cold ones, even though step
N may share almost nothing with the base anymore.

Every step goes through the service's ordinary tiered machinery, which
is what makes sessions durable and shareable:

* each step's artifact is cached — and, when the service has a
  persisted :class:`repro.service.store.ArtifactStore`, published to
  disk — under the *edited netlist's own* content key, so any
  intermediate is independently addressable: replaying the session (in
  this process or a sibling on the same store) is all hits, and a
  client submitting step 3's netlist cold gets step 3's exact bytes;
* a step whose delta is too large (or whose warm placement/routing
  jams) raises :class:`repro.pnr.incremental.IncrementalFallback`
  inside the service, which **escalates to a full cold compile** —
  recorded on the step (``fallback=True``) and in the service books
  (``incremental_fallbacks``), never silently;
* the chain then continues from the fallback's artifact: one oversized
  edit does not spoil the warm path for the edits after it.

Sessions are a view over one service; they hold no compile state of
their own and are **not** thread-safe (each step's base is the
previous step — a session is one client's serial edit loop).

Quickstart:

>>> from repro.datapath.adder import ripple_carry_netlist
>>> from repro.netlist import Netlist
>>> from repro.service import CompileService
>>> def flip_gate(nl, name, kind):   # one-cell edit, same ports
...     out = Netlist(nl.name)
...     for p in nl.inputs:
...         out.add_input(p)
...     for p in nl.outputs:
...         out.add_output(p)
...     for c in nl.cells:
...         out.add(kind if c.name == name else c.kind, c.name,
...                 list(c.inputs), c.output, delay=c.delay,
...                 **dict(c.params))
...     return out
>>> base = ripple_carry_netlist(2)
>>> gates = [c.name for c in base.cells if c.kind == "and"]
>>> edit1 = flip_gate(base, gates[0], "or")     # each edit builds on
>>> edit2 = flip_gate(edit1, gates[1], "or")    # the previous one
>>> with CompileService(workers=0) as svc:
...     session = svc.open_session(base)
...     _ = session.apply(edit1)
...     _ = session.apply(edit2)
...     [s.incremental for s in session.steps]
...     session.stats()["fallbacks"]
[True, True]
0

See ``docs/artifact-store.md`` (the session walkthrough),
``examples/persistent_service.py`` and ``tests/test_service_session.py``
(the ≥3x-or-provable-fallback acceptance pin).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.netlist.ir import Netlist
from repro.pnr.parallel import CompileTimeout
from repro.service.resilience import ServiceOverloaded

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.service.service import (
        CompileOptions,
        CompileService,
        ServiceResult,
    )

__all__ = ["EditSession", "SessionStep"]


@dataclass(frozen=True)
class SessionStep:
    """One applied edit: its artifact plus how it was obtained.

    Exactly one of the three provenance flags describes the warm path's
    outcome: ``incremental`` (the delta path succeeded), ``fallback``
    (it provably declined and a cold compile served the step), or
    ``cached`` (the step's key was already cached/persisted — nothing
    was compiled at all, e.g. a replayed session).
    """

    index: int
    #: The netlist this step compiled (the edited design).
    edited: Netlist
    result: ServiceResult
    incremental: bool
    fallback: bool
    cached: bool
    #: Wall-clock of this step's recompile, seconds.
    seconds: float


@dataclass
class EditSession:
    """A chain of incremental recompiles against one evolving base.

    Construct through :meth:`repro.service.CompileService.open_session`
    (which compiles or serves the base first); then call :meth:`apply`
    once per edit.  ``current`` is the artifact the *next* edit will
    warm-start from — the base before any edit, afterwards the last
    step's result.
    """

    service: CompileService
    base: ServiceResult
    options: CompileOptions
    steps: list[SessionStep] = field(default_factory=list)
    #: Edits that did *not* apply: ``(would-be step index, exception)``
    #: for each recompile the service timed out or shed.  The chain
    #: stays on the previous artifact — a failed edit is re-appliable,
    #: and the session survives a resilient service saying "not now".
    errors: list[tuple[int, BaseException]] = field(default_factory=list)

    @property
    def current(self) -> ServiceResult:
        """The artifact the next :meth:`apply` warm-starts from."""
        return self.steps[-1].result if self.steps else self.base

    def apply(self, netlist: Netlist) -> ServiceResult:
        """Recompile an edited netlist against the current artifact.

        Routes through :meth:`CompileService.recompile` with the
        previous step's result as the base, records the step (with its
        provenance and wall-clock) and advances the chain.  Returns the
        step's :class:`ServiceResult`.
        """
        t0 = time.perf_counter()
        try:
            result = self.service.recompile(
                netlist, self.current, self.options
            )
        except (CompileTimeout, ServiceOverloaded) as e:
            # The service declined this edit (deadline spent, queue
            # full); record it and leave the chain on the previous
            # artifact so the caller can re-apply when calmer.
            self.errors.append((len(self.steps) + 1, e))
            raise
        seconds = time.perf_counter() - t0
        # Provenance comes from this step's own result, never from the
        # service-wide counters another client's recompile also moves:
        # a fresh artifact that is not incremental is a fallback.
        self.steps.append(SessionStep(
            index=len(self.steps) + 1,
            edited=netlist,
            result=result,
            incremental=result.incremental and not result.cached,
            fallback=not result.cached and not result.incremental,
            cached=result.cached,
            seconds=seconds,
        ))
        return result

    def stats(self) -> dict:
        """The chain's books: step counts by provenance, total seconds."""
        return {
            "steps": len(self.steps),
            "incremental": sum(1 for s in self.steps if s.incremental),
            "fallbacks": sum(1 for s in self.steps if s.fallback),
            "cached": sum(1 for s in self.steps if s.cached),
            "errors": len(self.errors),
            "seconds": round(sum(s.seconds for s in self.steps), 4),
        }
