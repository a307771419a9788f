"""The three closed-loop workloads and the seeded inputs they send.

Each workload drives one :class:`repro.service.CompileService` with an
:class:`repro.service.ArtifactStore` attached, as the service is
deployed.  The inputs (which design, which compile seed, which edit,
which die) are pure functions of the workload seed; the service only
ever sees the netlists, options and defect maps built from them.

Op sizes stay in one band per workload, so no percentile sits on the
boundary between two modes:

* ``cold`` compiles rca4/rca5/rca6 (20-30 source cells) under fresh
  compile seeds, in shuffled blocks of three so the mix is exact;
* ``serve`` only reads a catalogue that set-up compiled;
* ``warm`` edits by complementing one AND/OR gate (and<->nand,
  or<->nor), which leaves the mapped footprint alone, and repairs rca8
  dies drawn at one fixed ``cell_fail``.  Other one-gate kind swaps
  rewrite 50-90% of the mapped gates, exceed the delta budget and fall
  back to a cold compile, which would add a second mode four to eight
  times slower.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

from repro.datapath.adder import ripple_carry_netlist
from repro.datapath.multiplier import array_multiplier_netlist
from repro.netlist import Netlist
from repro.pnr import verify_equivalence
from repro.pnr.defects import defect_violations, sample_defect_map
from repro.service import ArtifactStore, CompileOptions, CompileService

DESIGNS = {
    "rca4": lambda: ripple_carry_netlist(4),
    "rca5": lambda: ripple_carry_netlist(5),
    "rca6": lambda: ripple_carry_netlist(6),
    "rca8": lambda: ripple_carry_netlist(8),
    "mul3": lambda: array_multiplier_netlist(3),
}
#: Cold compiles: one attempt each, 50-160 ms (mul3 retries 37% of its
#: compile seeds, at two to three times the cost, so it stays out).
COLD_DESIGNS = ("rca4", "rca5", "rca6")
SERVE_DESIGNS = ("rca4", "rca5", "rca6", "mul3")
#: Compile seeds per design in the serve catalogue (4 x 6 = 24 artifacts).
CATALOGUE_SEEDS = 6
#: Zipf exponent of serve's popularity over catalogue ranks.
ZIPF_S = 1.4
EDIT_DESIGNS = ("rca8", "mul3")
#: Die repairs target rca8 only; see the package README for why not mul3.
DIE_DESIGN = "rca8"
CELL_FAIL = 0.002
#: One-gate edits: complement an AND/OR gate's output.
COMPLEMENT = {"and": "nand", "nand": "and", "or": "nor", "nor": "or"}

#: Pool threads of every service; clients never exceed it either.
POOL_WORKERS = 2
#: Memory-cache entries: smaller than serve's 24-artifact catalogue.
CACHE_CAPACITY = 8
#: Random vectors per equivalence check (the event backend replays 4).
VERIFY_VECTORS = 64
#: Artifacts, in op order, that the printed bitstream digest covers.
DIGEST_OPS = 16


def build(name: str) -> Netlist:
    return DESIGNS[name]()


def complement(netlist: Netlist, cell: str) -> Netlist:
    """``netlist`` with ``cell``'s kind replaced by its complement."""
    out = Netlist(netlist.name)
    for port in netlist.inputs:
        out.add_input(port)
    for port in netlist.outputs:
        out.add_output(port)
    for c in netlist.cells:
        kind = COMPLEMENT[c.kind] if c.name == cell else c.kind
        out.add(kind, c.name, list(c.inputs), c.output,
                delay=c.delay, **dict(c.params))
    return out


# -- generated inputs: pure functions of the seed ------------------------

def cold_inputs(seed: int):
    """Endless ``(design, compile seed)`` jobs, no key ever repeated."""
    rng = random.Random(seed)
    compile_seeds = itertools.count(rng.randrange(1 << 30))
    while True:
        for name in rng.sample(COLD_DESIGNS, len(COLD_DESIGNS)):
            yield name, next(compile_seeds)


def serve_catalogue(seed: int) -> list[tuple[str, int]]:
    """24 ``(design, compile seed)`` artifacts, in popularity-rank order.

    Rank ``r`` holds design ``SERVE_DESIGNS[r % 4]`` for every seed, so the
    mix of designs among hot and cold ranks is the same in every run;
    the seed draws the compile seeds.
    """
    rng = random.Random(seed)
    return [
        (SERVE_DESIGNS[r % len(SERVE_DESIGNS)], rng.randrange(1 << 30))
        for r in range(len(SERVE_DESIGNS) * CATALOGUE_SEEDS)
    ]


def serve_inputs(seed: int, client: int, n: int):
    """Endless Zipf draws of catalogue ranks ``0..n-1`` for one client."""
    rng = random.Random(f"serve/{seed}/{client}")
    cum = list(itertools.accumulate(1 / (r + 1) ** ZIPF_S for r in range(n)))
    ranks = range(n)
    while True:
        yield rng.choices(ranks, cum_weights=cum)[0]


def warm_inputs(seed: int, die_shape: tuple[int, int]):
    """Endless alternation of one-gate edits and distinct defective dies.

    Edits are ``("edit", design, cell, recompile seed)`` and dies are
    ``("die", design, DefectMap)``.  Recompile seeds never repeat, and a
    die is kept only if it has a dead cell and a digest not drawn
    before, so every op is a distinct cache key.
    """
    rng = random.Random(seed)
    sites = {
        name: [c.name for c in build(name).cells if c.kind in COMPLEMENT]
        for name in EDIT_DESIGNS
    }
    recompile_seeds = itertools.count(rng.randrange(1 << 30))
    die_seeds = itertools.count(rng.randrange(1 << 30))
    seen = set()
    for name in itertools.cycle(EDIT_DESIGNS):
        yield "edit", name, rng.choice(sites[name]), next(recompile_seeds)
        while True:
            die = sample_defect_map(
                *die_shape, cell_fail=CELL_FAIL, seed=next(die_seeds)
            )
            if die.dead_cells and die.digest() not in seen:
                break
        seen.add(die.digest())
        yield "die", DIE_DESIGN, die


# -- the workloads ---------------------------------------------------------

@dataclass
class Op:
    """One request as the client saw it."""

    rid: int
    start: float
    end: float
    error: str = ""
    key: tuple | None = None
    stats: object = None
    die: object = None


def open_service(store_dir: Path) -> CompileService:
    return CompileService(
        workers=POOL_WORKERS,
        cache_capacity=CACHE_CAPACITY,
        store=ArtifactStore(store_dir),
    )


def bitstream(result) -> bytes:
    return result.to_bitstream().tobytes()


@dataclass(frozen=True)
class Audit:
    """One artifact for the oracle, read back from the store under ``key``.

    The service put into the store the very object it served (same key,
    same ``stats``), so checking the stored copy checks what the client
    got without holding every artifact in memory during the window.
    ``rids`` are the ops the artifact answered; ``die`` is the defect
    map it must avoid; with ``want_bits`` the check returns its
    bitstream, which must equal ``reference`` when one is given.
    """

    rids: tuple
    key: tuple
    stats: object
    die: object = None
    want_bits: bool = False
    reference: bytes | None = None


def audit(store_root: str, audits: list[Audit]) -> list[tuple[str, bytes | None]]:
    """Check each artifact; ``(failure or "", bitstream or None)`` per audit.

    Runs in a worker process: equivalence against the IR simulators
    (batch backend, then the event backend as the reference), defect
    avoidance for die artifacts, and the bitstream when asked for.
    """
    store = ArtifactStore(store_root)
    out = []
    for a in audits:
        entry = store.peek(a.key)
        if entry is None:
            out.append(("artifact missing from the store", None))
            continue
        result = entry.result
        bits = bitstream(result) if a.want_bits else None
        if result.stats != a.stats:
            out.append(("stored artifact differs from the served one", bits))
            continue
        if a.reference is not None and bits != a.reference:
            out.append(("served bytes differ from the reference", bits))
            continue
        if a.die is not None and defect_violations(result.array, a.die):
            out.append(("die artifact uses a defective resource", bits))
            continue
        try:
            verify_equivalence(result, n_vectors=VERIFY_VECTORS, event_vectors=4)
        except AssertionError as e:
            out.append((f"not equivalent: {e}", bits))
            continue
        out.append(("", bits))
    return out


def published_audits(ops: list[Op]) -> list[Audit]:
    """One audit per successful op; the first ones feed the digest."""
    done = [op for op in ops if not op.error]
    return [
        Audit((op.rid,), op.key, op.stats, op.die, want_bits=i < DIGEST_OPS)
        for i, op in enumerate(done)
    ]


class Workload:
    """A closed-loop workload over one seeded input stream per client.

    ``setup`` builds everything the timed window needs under a store
    directory; ``prepare`` turns one input into a call on the service
    (outside the timed region); ``observe`` records what came back.
    The defaults fit workloads whose every op publishes a new artifact.
    """

    name: str
    clients = 1
    #: Percentile reported as ``tail_ms``, at least 90: the window runs
    #: on until it has the samples this one needs.
    tail_q = 90
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats = 11

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def observe(self, state, op: Op, item, res) -> Op:
        op.key, op.stats = res.key, res.result.stats
        if res.degraded:
            op.error = "degraded"
        return op

    def audits(self, state, svc, ops, failures) -> list[Audit]:
        return published_audits(ops)

    def artifacts(self, state, ops) -> list:
        """``stats`` of the distinct artifacts the window produced."""
        return [op.stats for op in ops if not op.error]


class Cold(Workload):
    """One client, every job a distinct key: the full compile path."""

    name = "cold"

    def setup(self, where: Path) -> dict:
        netlists = {name: build(name) for name in COLD_DESIGNS}
        # Compile each design once under a seed the stream never uses,
        # so first-call costs are paid before timing starts.
        with open_service(where) as svc:
            for nl in netlists.values():
                svc.compile(nl, CompileOptions(seed=-1))
        return {"store": where, "netlists": netlists}

    def inputs(self, state, client: int):
        return cold_inputs(self.seed)

    def prepare(self, state, item):
        name, compile_seed = item
        netlist, options = state["netlists"][name], CompileOptions(seed=compile_seed)
        return lambda svc: svc.submit(netlist, options).result()


class Serve(Workload):
    """Two clients read a published catalogue through a fresh service."""

    name = "serve"
    clients = 2
    tail_q = 99
    #: Each set-up compiles the 24-artifact catalogue (about 4 s).
    setup_repeats = 3

    def setup(self, where: Path) -> dict:
        netlists = {name: build(name) for name in SERVE_DESIGNS}
        refs = []
        with open_service(where) as svc:
            for name, compile_seed in serve_catalogue(self.seed):
                options = CompileOptions(seed=compile_seed)
                res = svc.compile(netlists[name], options)
                refs.append((netlists[name], options, res.key,
                             res.result.stats, bitstream(res.result)))
        return {"store": where, "refs": refs}

    def inputs(self, state, client: int):
        return serve_inputs(self.seed, client, len(state["refs"]))

    def prepare(self, state, item):
        netlist, options = state["refs"][item][:2]
        return lambda svc: svc.submit(netlist, options).result()

    def observe(self, state, op: Op, item, res) -> Op:
        super().observe(state, op, item, res)
        _, _, key, stats, _ = state["refs"][item]
        if not op.error and (op.key, op.stats) != (key, stats):
            op.error = "served a different artifact than the catalogue's"
        return op

    def audits(self, state, svc, ops, failures) -> list[Audit]:
        """Zero compiles, and every catalogue blob decodes to its reference.

        Every artifact served in the window is a decode of one of these
        blobs (or a memory-cache alias of one): the service compiled
        and published nothing, so checking each blob's bitstream checks
        each served bitstream.
        """
        counters = svc.stats()
        if counters["compiles"] or counters["store"]["insertions"]:
            for op in ops:
                failures.setdefault(op.rid, "the service compiled during serve")
        return [
            Audit(
                tuple(op.rid for op in ops if op.key == key), key, stats,
                want_bits=True, reference=reference,
            )
            for _, _, key, stats, reference in state["refs"]
        ]

    def artifacts(self, state, ops) -> list:
        return [ref[3] for ref in state["refs"]]


class Warm(Workload):
    """One client: one-gate edits against, and die repairs of, goldens."""

    name = "warm"

    def setup(self, where: Path) -> dict:
        netlists = {name: build(name) for name in EDIT_DESIGNS}
        with open_service(where) as svc:
            goldens = {name: svc.compile(nl) for name, nl in netlists.items()}
        array = goldens[DIE_DESIGN].result.array
        return {
            "store": where,
            "netlists": netlists,
            "goldens": goldens,
            "die_shape": (array.n_rows, array.n_cols),
        }

    def inputs(self, state, client: int):
        return warm_inputs(self.seed, state["die_shape"])

    def prepare(self, state, item):
        if item[0] == "edit":
            _, name, cell, recompile_seed = item
            edited = complement(state["netlists"][name], cell)
            base = state["goldens"][name]
            options = CompileOptions(seed=recompile_seed)
            return lambda svc: svc.recompile(edited, base, options)
        _, name, die = item
        netlist = state["netlists"][name]
        return lambda svc: svc.compile_for_die(netlist, die)

    def observe(self, state, op: Op, item, res) -> Op:
        if item[0] == "die":
            op.die = item[2]
        return super().observe(state, op, item, res)


WORKLOADS = {w.name: w for w in (Cold, Serve, Warm)}
