"""One closure family and one lattice quotient for rings and modules.

The module closures are the ring closures applied to a module, checked
against the classes they replaced (``map_oracle``); quotient rings and
module quotients share ``closures.QuotientModule``, whose lattice the third
isomorphism theorem builds its outer quotient on; and the robustness fixes
that ride along: the vectorised ring laws of a quotient model, the priced
relation check of a Z localization, and the prime walk of an integer
multiplicative set."""

import itertools
import time

import map_oracle as oracle
import pytest

from approxalg import closures, modules
from approxalg.cli import main
from approxalg.grammar import parse_ring
from approxalg.ideals import (
    ApproxIdeal,
    _ring_axioms_hold,
    is_approx_ideal,
    quotient_ring,
)
from approxalg.localization import mult_set
from approxalg.rings import (
    ResidueRing,
    TableRing,
    Z,
    enumerate_subgroups,
    is_prime,
    sort_key,
    subgroup_lattice,
)

# the module families of the finite-lattices workload, with their shift
# generators, and two more shapes with a generator of their own
FAMILIES = [([8], [(4,)]), ([12], [(6,)]), ([2, 4], [(0, 2)]),
            ([2, 2, 2], [(1, 1, 0)]), ([3, 3], [(1, 2)])]

TWINS = [
    (modules.GeneratedSubmoduleClosure, oracle.GeneratedSubmoduleClosure,
     closures.GeneratedIdealClosure),
    (modules.SubmoduleShiftClosure, oracle.SubmoduleShiftClosure,
     closures.IdealShiftClosure),
    (modules.ModuleSetShiftClosure, oracle.ModuleSetShiftClosure,
     closures.SetShiftClosure),
    (modules.ModuleUnionFixedClosure, oracle.ModuleUnionFixedClosure,
     closures.UnionFixedClosure),
]


def twin_pairs(mod, shift):
    """(twin, deleted class) instances of each closure on the module; the
    union variant fixes the shift generators."""
    out = []
    for twin, loop, _ in TWINS:
        args = () if twin is modules.GeneratedSubmoduleClosure else (shift,)
        out.append((twin(mod, *args), loop(mod, *args)))
    return out


@pytest.mark.parametrize("orders, shift", FAMILIES, ids=str)
def test_twins_match_the_deleted_classes(orders, shift):
    """eval_set on every subset, join, describe() and repr against the
    module closures as they were written before."""
    mod = modules.finite_module(Z, orders)
    elems = sorted(mod.elements(), key=sort_key)
    subsets = [frozenset(itertools.compress(elems, bits))
               for bits in itertools.product([0, 1], repeat=len(elems))]
    for twin, loop in twin_pairs(mod, shift):
        assert twin.module is twin.ring is mod
        assert (twin.name, twin.join, twin.describe(), repr(twin)) == \
            (loop.name, loop.join, loop.describe(), repr(loop))
        assert all(twin.eval_set(a) == loop.eval_set(a) for a in subsets)


def test_twins_keep_only_their_constructor_and_label():
    """A twin is a ``ModuleClosure`` and its ring closure, and defines none
    of the semantics itself."""
    for twin, _, ring_class in TWINS:
        assert issubclass(twin, modules.ModuleClosure)
        assert issubclass(twin, ring_class)
        assert not {"eval_set", "member", "join"} & set(vars(twin))


def test_quotient_module_is_one_class():
    """``modules`` re-exports the lattice quotient that ``ideals`` builds."""
    assert modules.QuotientModule is closures.QuotientModule


def test_quotient_is_a_lattice_structure():
    """M/N's own lattice: its elements are the representatives, its sums
    the classes of the sums, and an element of the carrier canonicalises to
    its class."""
    mod = modules.finite_module(Z, [2, 4])
    q = modules.module_quotient(mod, [(0, 0), (0, 2)],
                                modules.GeneratedSubmoduleClosure(mod))
    lat = subgroup_lattice(q)
    assert lat.elems == q.reps() == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert lat.scalars == mod.scalar_reps
    assert q.canon((1, 3)) == (1, 1)
    assert lat.values(lat.subgroup(lat.mask([(0, 3)]))) == \
        frozenset({(0, 0), (0, 1)})
    # a ring acts on its quotient by the product: (2) in Z/12 / (6)
    ring = ResidueRing(12)
    q = closures.QuotientModule(ring, ring.elements(), {0, 6}, [])
    lat = subgroup_lattice(q)
    assert lat.elems == q.reps() == [0, 1, 2, 3, 4, 5]
    assert lat.values(lat.span(lat.mask([8]))) == frozenset({0, 2, 4})


def test_iso_third_fails_when_the_outer_quotient_is_broken(monkeypatch):
    """The outer quotient (M/N)/(cl(K)/N) is built from M/N's own addition:
    an addition on representatives that swaps the classes of 1 and 2 on Z/8
    (a group law, so the cosets still tile) splits a class of the outer
    quotient across two classes of M/cl(K), and the theorem fails."""
    mod = modules.finite_module(Z, [8])
    cl = modules.GeneratedSubmoduleClosure(mod)
    assert modules.iso_third(mod, cl, [], [(4,)]).ok()

    def swapped(x):
        return {(1,): (2,), (2,): (1,)}.get(x, x)

    def swapped_add(self, a, b):
        return swapped(self.rep_of[self.mod.add(swapped(a), swapped(b))])

    monkeypatch.setattr(modules.QuotientModule, "add", swapped_add)
    v = modules.iso_third(mod, cl, [], [(4,)])
    assert not v.ok()
    assert [(x.name, x.passed, x.counterexample) for x in v.verdicts] == \
        [("map-well-defined", False, {"class-of": (1,)})]


# ---------------------------------------------------------------------------
# the ring laws of a quotient model


def table_ring(add, mul):
    """A 3-element TableRing on {0, 1, 2} from its tables."""
    return TableRing("T3", [0, 1, 2], add, mul, zero=0, one=1)


Z3_ADD = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
Z3_MUL = [[0, 0, 0], [0, 1, 2], [0, 2, 1]]

BROKEN = {
    # 2 * 2 = 2: units, commutativity and associativity hold; 2 (1 + 1) =
    # 2 * 2 = 2 but 2 * 1 + 2 * 1 = 1
    "distributive": (Z3_ADD, [[0, 0, 0], [0, 1, 2], [0, 2, 2]]),
    # 1 + 1 = 1 and 2 + 2 = 2: (1 + 1) + 2 = 0 but 1 + (1 + 2) = 1
    "additive-associative": ([[0, 1, 2], [1, 1, 0], [2, 0, 2]], Z3_MUL),
    # 1 + 2 = 1 but 2 + 1 = 0
    "additive-commutative": ([[0, 1, 2], [1, 2, 1], [2, 0, 1]], Z3_MUL),
    # 2 * 1 = 1: 1 is no unit
    "unit": (Z3_ADD, [[0, 0, 0], [0, 1, 2], [0, 1, 1]]),
}


@pytest.mark.parametrize("law", sorted(BROKEN))
def test_ring_laws_reject_a_broken_table_ring(law):
    ring = table_ring(*BROKEN[law])
    assert oracle.ring_axioms_hold(ring) is False
    assert _ring_axioms_hold(ring) is False


def test_ring_laws_match_the_loop_on_quotient_models():
    assert _ring_axioms_hold(table_ring(Z3_ADD, Z3_MUL))
    models = 0
    for spec in ["Zn:12", "Zn:18", "prod:[Zn:2,Zn:4]", "GF:2/x^2"]:
        ring = parse_ring(spec)
        cl = closures.GeneratedIdealClosure(ring)
        for sub in enumerate_subgroups(ring):
            if not is_approx_ideal(sub, cl)[0]:
                continue
            model = quotient_ring(ring, ApproxIdeal(sub, cl)).model
            assert _ring_axioms_hold(model) is True
            assert oracle.ring_axioms_hold(model) is True
            models += 1
    assert models > 10


def test_quotient_report_on_a_large_ring(capsys):
    """Z/200 by (0): 200 classes, all four verdicts passing, in bounded
    time (the triple loop took about 22 s)."""
    start = time.perf_counter()
    code = main(["quotient", "--ring", "Zn:200", "--closure", "gen",
                 "--ideal", "0"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == [
        "command: quotient", "classes: 200",
        "  [pass] congruence-classes-partition",
        "  [pass] addition-well-defined",
        "  [pass] multiplication-well-defined", "  [pass] ring-axioms"]
    assert elapsed < 10


# ---------------------------------------------------------------------------
# integer localizations


def test_z_relation_check_is_priced(capsys):
    """m = 250 with S = <2>: 50601 pairs, about 2.6e9 cells, are refused
    with exit 3 before any grid is built."""
    start = time.perf_counter()
    code = main(["localize", "--ring", "Z", "--closure", "shift:J=250",
                 "--mult-set", "2"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 3
    assert "50601 pairs" in err and str(closures.LIST_PAIR_CELL_LIMIT) in err
    assert elapsed < 5


def test_contains_multiple_of_matches_the_prime_loop():
    """Against the walk over every prime p <= |d| it replaced."""
    def loop(s, d):
        if d == 0:
            return False
        d = abs(d)
        return all(any(g % p == 0 for g in s.generators)
                   for p in range(2, d + 1) if is_prime(p) and d % p == 0)

    seen = set()
    for gens in ([2], [3], [6], [2, 5], [4, 9], [7, 11, 13], [30], [-2]):
        s = mult_set(Z, gens)
        got = [s.contains_multiple_of(d) for d in range(-300, 301)]
        assert got == [loop(s, d) for d in range(-300, 301)]
        seen.update(got)
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# replaying module counterexamples


@pytest.mark.parametrize("orders, shift", FAMILIES, ids=str)
def test_module_counterexamples_replay(orders, shift):
    """Every failing verdict ``check_axioms`` reports for a module closure
    replays: the scalars and their action come from the module's lattice,
    so a scalar r is not read as a module element."""
    mod = modules.finite_module(Z, orders)
    failed = 0
    for twin, _ in twin_pairs(mod, shift):
        for v in closures.check_axioms(twin).failed():
            assert closures.replay_counterexample(twin, v.name,
                                                  v.counterexample), v
            failed += 1
    assert failed > 0


def test_module_c4b_counterexample_replays():
    """The union-fixed closure of Z/2 x Z/4 fixing (1, 1) fails C4b at a
    scalar that is no module element."""
    mod = modules.finite_module(Z, [2, 4])
    cl = modules.ModuleUnionFixedClosure(mod, [(1, 1)])
    ce = closures.check_axioms(cl).verdicts["C4b"].counterexample
    assert ce is not None and not isinstance(ce["r"], tuple)
    assert closures.replay_counterexample(cl, "C4b", ce)


class ZeroOnly(modules.ModuleClosure):
    """cl(X) = {0}: every nonzero subgroup escapes it, so absorption fails."""

    name = "zero-only"

    def eval_set(self, values):
        return frozenset({self.module.zero})


@pytest.mark.parametrize("orders", [[4], [2, 4]], ids=str)
def test_module_absorption_counterexample(orders):
    """The exhaustive engine names the (r, s) of an absorption failure by
    the module's action, and the counterexample replays."""
    mod = modules.finite_module(Z, orders)
    cl = ZeroOnly(mod)
    ce = closures.check_axioms(cl).verdicts["absorption"].counterexample
    assert mod.act(ce["r"], ce["s"]) == ce["witness"] != mod.zero
    assert closures.replay_counterexample(cl, "absorption", ce)
