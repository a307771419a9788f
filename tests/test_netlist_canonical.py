"""Property tests for the canonical netlist content hash.

The compile service keys its result cache on
:func:`repro.netlist.canonical_hash` — so these tests are the proof
obligations behind every cache hit: the hash must collapse all
spellings of one circuit (insertion order, names, commutative pin
order) onto one key, and must never collapse two different circuits or
two different compile option sets onto one key on the tested corpus.

The hypothesis strategy draws an abstract *circuit description* (a DAG
of kinds over numbered nets) and realises it as a concrete
:class:`~repro.netlist.Netlist` under a chosen cell order and naming —
so invariance properties compare two realisations of provably the same
circuit, and perturbation properties change the description itself.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datapath.accumulator import accumulator_step_netlist
from repro.datapath.adder import ripple_carry_netlist
from repro.datapath.multiplier import array_multiplier_netlist
from repro.netlist import CANONICAL_HASH_VERSION, Netlist, canonical_hash
from repro.service import CompileOptions

_KINDS = ("nand", "and", "or", "nor", "xor", "not", "buf")
_ARITY = {"xor": 2, "not": 1, "buf": 1}


@st.composite
def circuits(draw):
    """An abstract DAG: (n_inputs, [(kind, input net indices)], outputs).

    Net ``j`` is primary input ``j`` when ``j < n_inputs``, else the
    output of gate ``j - n_inputs``; gate ``i`` may only read nets
    ``< n_inputs + i``, so every realisation is acyclic.
    """
    n_in = draw(st.integers(1, 4))
    n_gates = draw(st.integers(1, 12))
    gates = []
    for i in range(n_gates):
        kind = draw(st.sampled_from(_KINDS))
        arity = _ARITY.get(kind) or draw(st.integers(2, 3))
        avail = n_in + i
        ins = tuple(
            draw(st.integers(0, avail - 1)) for _ in range(arity)
        )
        gates.append((kind, ins))
    n_out = draw(st.integers(1, min(3, n_gates)))
    outs = tuple(
        draw(
            st.lists(
                st.integers(n_in, n_in + n_gates - 1),
                min_size=n_out,
                max_size=n_out,
                unique=True,
            )
        )
    )
    return (n_in, tuple(gates), outs)


def realize(desc, order=None, rename=None):
    """Build a concrete netlist from a description.

    ``order`` permutes the cell insertion sequence; ``rename`` maps
    every net and cell name bijectively.  Port declaration *order* is
    always the description's (position is identity for ports).
    """
    n_in, gates, outs = desc
    rename = rename or (lambda s: s)

    def net(j):
        return rename(f"i{j}") if j < n_in else rename(f"n{j}")

    nl = Netlist("t")
    for j in range(n_in):
        nl.add_input(net(j))
    for o in outs:
        nl.add_output(net(o))
    for gi in order if order is not None else range(len(gates)):
        kind, ins = gates[gi]
        nl.add(kind, rename(f"g{gi}"), [net(j) for j in ins], net(n_in + gi))
    return nl


@settings(max_examples=60, deadline=None)
@given(circuits(), st.randoms(use_true_random=False))
def test_hash_invariant_under_insertion_order(desc, rnd):
    order = list(range(len(desc[1])))
    rnd.shuffle(order)
    assert canonical_hash(realize(desc)) == canonical_hash(
        realize(desc, order=order)
    )


@settings(max_examples=60, deadline=None)
@given(circuits(), st.integers(0, 2**32))
def test_hash_invariant_under_renaming(desc, salt):
    renamed = canonical_hash(
        realize(desc, rename=lambda s: f"q{salt}_{s}_z")
    )
    assert canonical_hash(realize(desc)) == renamed


@settings(max_examples=60, deadline=None)
@given(circuits(), st.randoms(use_true_random=False), st.integers(0, 2**32))
def test_hash_invariant_under_order_and_rename_together(desc, rnd, salt):
    order = list(range(len(desc[1])))
    rnd.shuffle(order)
    both = realize(desc, order=order, rename=lambda s: f"r{salt}.{s}")
    assert canonical_hash(realize(desc)) == canonical_hash(both)


@settings(max_examples=60, deadline=None)
@given(circuits(), st.data())
def test_distinct_logic_never_collides(desc, data):
    """Flipping one gate's kind is a different circuit, never a collision."""
    n_in, gates, outs = desc
    gi = data.draw(st.integers(0, len(gates) - 1))
    kind, ins = gates[gi]
    # A kind with the same arity but a different function.
    pool = [
        k
        for k in _KINDS
        if k != kind and (_ARITY.get(k) or len(ins)) == len(ins)
    ]
    if not pool:
        return
    flipped = list(gates)
    flipped[gi] = (data.draw(st.sampled_from(pool)), ins)
    assert canonical_hash(realize(desc)) != canonical_hash(
        realize((n_in, tuple(flipped), outs))
    )


def test_commutative_pin_swap_keeps_hash():
    a = Netlist("a")
    a.add("nand", "g", [a.add_input("x"), a.add_input("y")], a.add_output("o"))
    b = Netlist("b")
    x, y = b.add_input("x"), b.add_input("y")
    b.add("nand", "g", [y, x], b.add_output("o"))
    assert canonical_hash(a) == canonical_hash(b)


def test_positional_kind_pin_swap_changes_hash():
    """table pins are positional: swapping them changes the function."""

    def tbl(order):
        nl = Netlist("t")
        x, y = nl.add_input("x"), nl.add_input("y")
        ins = [x, y] if order else [y, x]
        # An asymmetric function: o = x AND NOT y.
        nl.add("table", "g", ins, nl.add_output("o"), table=(0, 0, 1, 0))
        return nl

    assert canonical_hash(tbl(True)) != canonical_hash(tbl(False))


def test_params_and_delay_feed_the_hash():
    def const(value):
        nl = Netlist("c")
        nl.add("const", "g", [], nl.add_output("o"), value=value)
        return nl

    assert canonical_hash(const(0)) != canonical_hash(const(1))

    def delayed(d):
        nl = Netlist("d")
        nl.add("not", "g", [nl.add_input("x")], nl.add_output("o"), delay=d)
        return nl

    assert canonical_hash(delayed(1)) != canonical_hash(delayed(3))


def test_port_position_is_identity_not_name():
    """Swapping which *position* a port sits at is a different interface."""

    def ordered(swap):
        nl = Netlist("p")
        names = ["x", "y"] if not swap else ["y", "x"]
        for n in names:
            nl.add_input(n)
        # y = x, an asymmetric use of the two ports.
        nl.add("buf", "g", ["x"], nl.add_output("o"))
        return nl

    assert canonical_hash(ordered(False)) != canonical_hash(ordered(True))


def test_undeclared_free_nets_hash_by_name():
    """Documented caveat: only *declared* ports are spelling-free."""

    def free(name):
        nl = Netlist("f")
        nl.add("buf", "g", [name], nl.add_output("o"))
        return nl

    assert canonical_hash(free("a")) != canonical_hash(free("b"))


def test_cyclic_netlists_hash_deterministically():
    def ring(rename=lambda s: s):
        nl = Netlist("ring")
        nl.add("celement", rename("c1"), [rename("x"), rename("fb")], rename("m"))
        nl.add("not", rename("g"), [rename("m")], rename("fb"))
        nl.add_input(rename("x"))
        nl.add_output(rename("m"))
        return nl

    h = canonical_hash(ring())
    assert h == canonical_hash(ring())
    assert h == canonical_hash(ring(rename=lambda s: f"zz_{s}"))
    # Breaking the cycle is a different circuit.
    acyclic = Netlist("ring")
    acyclic.add("celement", "c1", ["x", "y"], "m")
    acyclic.add("not", "g", ["m"], "fb")
    acyclic.add_input("x")
    acyclic.add_output("m")
    assert h != canonical_hash(acyclic)


def test_corpus_is_collision_free_and_stable():
    designs = [
        ripple_carry_netlist(2),
        ripple_carry_netlist(4),
        ripple_carry_netlist(8),
        accumulator_step_netlist(4),
        array_multiplier_netlist(2),
        array_multiplier_netlist(3),
    ]
    hashes = [canonical_hash(nl) for nl in designs]
    assert len(set(hashes)) == len(hashes)
    # Stable across a rebuild of the same generators.
    rebuilt = [
        ripple_carry_netlist(2),
        ripple_carry_netlist(4),
        ripple_carry_netlist(8),
        accumulator_step_netlist(4),
        array_multiplier_netlist(2),
        array_multiplier_netlist(3),
    ]
    assert hashes == [canonical_hash(nl) for nl in rebuilt]


def test_compile_options_never_collide():
    """Every result-affecting knob splits the cache key."""
    base = CompileOptions()
    variants = [
        CompileOptions(seed=1),
        CompileOptions(anneal_steps=10),
        CompileOptions(max_attempts=3),
        CompileOptions(target_period=40),
        CompileOptions(shards=2),
        CompileOptions(max_side=12),
    ]
    keys = [base.key()] + [v.key() for v in variants]
    assert len(set(keys)) == len(keys)
    # and the key is pinned to the hash version, so bumping the hash
    # construction invalidates option keys too.
    assert CANONICAL_HASH_VERSION in base.key()


def test_hash_is_pure():
    nl = ripple_carry_netlist(4)
    random.seed(123)  # global RNG state must not leak into the digest
    h1 = canonical_hash(nl)
    random.seed(456)
    assert h1 == canonical_hash(nl)
