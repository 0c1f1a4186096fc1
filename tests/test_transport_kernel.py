"""The transport kernel against the element loops of ``ideal_oracle``: the
ideal and prime tests, the classical product, hom kernels, images,
preimages and pullbacks, extension and contraction along R -> S^-1 R and
the transferred closure's pair masks give the same verdicts and first
counterexamples as the loops they replaced.  One ring, its subgroups and
one closure per (ring, kind) are shared by the tests through module-scoped
fixtures."""

import itertools

import ideal_oracle as oracle
import pytest
from test_congruence_kernel import (
    KINDS,
    ORACLE_PAIRS,
    SPECS,
    closure,
    module_cases,
    s_generators,
)
from test_map_kernel import REDUCTIONS

from approxalg.closures import (
    IdealShiftClosure,
    SetShiftClosure,
    UnionFixedClosure,
    materialize,
)
from approxalg import modules
from approxalg.errors import PreconditionError
from approxalg.grammar import parse_ring
from approxalg.homs import ReductionHom, identity_hom, reduction_hom, table_hom
from approxalg.ideals import (
    _image_subgroup,
    _preimage_subgroup,
    _pullback_identity_verdict,
    _ring_axioms_hold,
    _zero_sandwich,
    is_approx_ideal,
    is_approx_prime,
)
from approxalg.localization import (
    _power_orbit_members,
    contract,
    extend,
    localize,
    mult_set,
)
from approxalg.rings import (
    FiniteSubgroup,
    ResidueRing,
    TableRing,
    Z,
    classical_ideals,
    enumerate_subgroups,
    ideal_classical_product,
    ideal_generated,
    subgroup_lattice,
    whole_subgroup,
)

RINGS = [f"Zn:{n}" for n in range(2, 17)] + [
    "prod:[Zn:2,Zn:2]", "prod:[Zn:2,Zn:4]", "prod:[Zn:3,Zn:3]",
    "prod:[Zn:2,Zn:8]", "prod:[Zn:4,Zn:4]", "prod:[Zn:2,Zn:2,Zn:2]",
    "prod:[Zn:2,Zn:2,Zn:2,Zn:2]", "GF:2/x^2+x+1", "GF:2/x^3+x+1",
    "GF:3/x^2+1", "GF:2/x^4+x+1", "Fun:p=2,n=2"]


@pytest.fixture(scope="module", params=RINGS)
def ring_case(request):
    ring = parse_ring(request.param)
    return ring, enumerate_subgroups(ring)


@pytest.fixture(scope="module", params=KINDS)
def closure_case(request, ring_case):
    ring, subs = ring_case
    return ring, subs, closure(ring, request.param)


def test_ideal_and_prime_tests_match_loops(closure_case):
    ring, subs, cl = closure_case
    for sub in subs:
        assert is_approx_ideal(sub, cl) == oracle.is_approx_ideal(sub, cl)
        if not sub.is_whole():
            assert is_approx_prime(sub, cl, check_ideal=False) == \
                oracle.is_approx_prime(sub, cl)
    assert _zero_sandwich(ring, cl) == oracle.zero_sandwich(ring, cl)


def test_power_orbits_match_loop(closure_case):
    ring, subs, cl = closure_case
    for sub in subs:
        clset = materialize(cl, sub.values)
        lat = subgroup_lattice(ring)
        assert lat.values(_power_orbit_members(ring, lat.mask(clset))) == \
            oracle.power_orbit_members(ring, clset)


def test_classical_products_match_loop(ring_case):
    ring, _ = ring_case
    ideals = classical_ideals(ring)
    for i, j in itertools.product(ideals, repeat=2):
        got, want = ideal_classical_product(i, j), \
            oracle.ideal_classical_product(i, j)
        assert (got.generators, got.canonical) == \
            (want.generators, want.canonical)


def test_corpus_fails_every_predicate():
    """A subgroup of Z/2 x Z/4 that is no ideal, an ideal that is no prime,
    a ring with nonzero a, b and aRb = 0, and a closure that fills the
    ring: each test's first counterexample is the loop's."""
    ring = parse_ring("prod:[Zn:2,Zn:4]")
    gen, setshift = closure(ring, "gen"), closure(ring, "setshift")
    diagonal = FiniteSubgroup(ring, {(0, 0), (1, 1), (0, 2), (1, 3)})
    assert is_approx_ideal(diagonal, setshift) == (False, {
        "reason": "absorption", "r": (0, 1), "s": (1, 1), "witness": (0, 1)})
    assert oracle.is_approx_ideal(diagonal, setshift) == \
        is_approx_ideal(diagonal, setshift)
    zero = FiniteSubgroup(ring, {(0, 0)})
    assert is_approx_prime(zero, gen) == (False, {
        "x": (0, 1), "y": (1, 0), "product": (0, 0)})
    assert oracle.is_approx_prime(zero, gen) == is_approx_prime(zero, gen)
    assert _zero_sandwich(ring, gen) == {"a": (0, 1), "b": (1, 0)}
    z4 = ResidueRing(4)
    union = UnionFixedClosure(z4, [1, 3])
    two = FiniteSubgroup(z4, {0, 2})
    assert is_approx_prime(two, union) == (False, {
        "reason": "closure-is-whole-ring", "x": 1, "y": 1}) == \
        oracle.is_approx_prime(two, union)


class ZeroClosure(modules.ModuleClosure):
    """Not extensive: cl(X) = {0}, so only {0} absorbs."""

    def eval_set(self, values):
        return frozenset({self.module.zero})


def test_submodule_tests_match_loop():
    cases = [case.values[:2] for case in module_cases()]
    mod = modules.finite_module(Z, [2, 4])
    cases.append((mod, ZeroClosure(mod)))
    verdicts = set()
    for mod, cl in cases:
        lat = subgroup_lattice(mod)
        for h in lat.subgroups():
            got = modules.is_approx_submodule(mod, lat.values(h), cl)
            assert got == oracle.is_approx_submodule(mod, lat.values(h), cl)
            verdicts.add(got[0])
    assert verdicts == {True, False}
    assert modules.is_approx_submodule(mod, [(0, 0), (0, 2)], cl) == \
        (False, {"r": 1, "x": (0, 2), "witness": (0, 2)})


def broken_rings():
    """Z/4 as a table ring, then with one law broken at a time."""
    def z4(add=lambda a, b: (a + b) % 4, mul=lambda a, b: a * b % 4):
        return TableRing("Z/4", range(4), *(
            [[op(a, b) for b in range(4)] for a in range(4)]
            for op in (add, mul)), 0, 1)
    yield z4()
    yield z4(add=lambda a, b: abs(a - b))
    yield z4(mul=lambda a, b: a * b * b % 4)
    yield z4(mul=lambda a, b: a * b % 4 if a != 3 else b)
    yield z4(mul=lambda a, b: 2 if a == b == 2 else a * b % 4)


def test_ring_axioms_catch_each_broken_law():
    got = [_ring_axioms_hold(ring) for ring in broken_rings()]
    assert got[0] and not any(got[1:])


# ---------------------------------------------------------------------------
# ring homs


class KernelOfZero(ReductionHom):
    """A reduction that reports {0} as its kernel: the pullback identity
    f^-1(f(A)) = A + Ker f then fails wherever Ker f is larger."""

    def kernel(self):
        return FiniteSubgroup(self.src, {self.src.zero})


def hom_cases():
    for n, k in REDUCTIONS:
        yield f"Zn:{n}->Zn:{k}", reduction_hom(ResidueRing(n), ResidueRing(k))
    for spec in ["Zn:6", "prod:[Zn:2,Zn:4]", "GF:2/x^3+x+1"]:
        yield f"id {spec}", identity_hom(parse_ring(spec))
    z2, z6 = ResidueRing(2), ResidueRing(6)
    pairs = parse_ring("prod:[Zn:2,Zn:2]")
    split = parse_ring("prod:[Zn:2,Zn:3]")
    yield "diagonal", table_hom(z2, pairs, {0: (0, 0), 1: (1, 1)})
    yield "crt", table_hom(z6, split, {x: (x % 2, x % 3) for x in range(6)})
    for spec in ["prod:[Zn:2,Zn:4]", "prod:[Zn:3,Zn:3]"]:
        ring = parse_ring(spec)
        factor = ResidueRing(ring.factors[1].n)
        yield f"{spec} second factor", table_hom(
            ring, factor, {x: x[1] for x in ring.elements()})
    for spec in ["GF:2/x^2+x+1", "GF:2/x^4+x+1"]:
        ring = parse_ring(spec)
        yield f"frobenius {spec}", table_hom(
            ring, ring, {x: ring.mul(x, x) for x in ring.elements()})
    yield "lying kernel", KernelOfZero(ResidueRing(8), ResidueRing(4))


HOMS = list(hom_cases())


@pytest.mark.parametrize("name, f", HOMS, ids=[name for name, _ in HOMS])
def test_hom_transport_matches_loops(name, f):
    assert f.kernel() == oracle.kernel(f) or name == "lying kernel"
    assert f.is_surjective() == oracle.is_surjective(f)
    for sub in enumerate_subgroups(f.dst):
        assert _preimage_subgroup(f, sub) == oracle.preimage_subgroup(f, sub)
    for sub in enumerate_subgroups(f.src):
        assert _image_subgroup(f, sub) == oracle.image_subgroup(f, sub)
    assert _pullback_identity_verdict(f).to_dict() == \
        oracle.pullback_identity_verdict(f).to_dict()


def test_hom_corpus_fails_each_check():
    names = {name: f for name, f in HOMS}
    assert not names["diagonal"].is_surjective()
    assert names["crt"].is_surjective()
    got = _pullback_identity_verdict(names["lying kernel"])
    assert got.counterexample == {"A": [0]}
    assert _pullback_identity_verdict(names["Zn:12->Zn:4"]).passed


class Doubling(ReductionHom):
    """Z -> Z/n by x -> 2x mod n: additive, but not the reduction, so the
    preimage of <f(d)> is not (d) + (n)."""

    def apply(self, v):
        return 2 * Z.canon(v) % self.dst.n


def test_pullback_identity_over_z_reads_the_hom():
    assert _pullback_identity_verdict(reduction_hom(Z, ResidueRing(12))).passed
    got = _pullback_identity_verdict(Doubling(Z, ResidueRing(6)))
    assert not got.passed and got.counterexample == {"A": "(0)"}


# ---------------------------------------------------------------------------
# localizations


def z_localizations():
    for m, gens in [(12, [5]), (12, [2]), (12, [3]), (30, [5]), (8, [3]),
                    (18, [2]), (6, [6]), (9, [2]), (20, [2, 5])]:
        shift = ideal_generated(Z, [m])
        for cl in (IdealShiftClosure(Z, shift), SetShiftClosure(Z, shift)):
            yield localize(Z, cl, mult_set(Z, gens))


def assert_masks_match(loc):
    model = subgroup_lattice(loc.model)
    assert model.elems == list(loc.model.elements())
    subsets = [s.values for s in enumerate_subgroups(loc.model)] + \
        [frozenset([e]) for e in model.elems]
    for a in subsets:
        assert loc._class_masks(model.mask(a)) == oracle.class_masks(loc, a)


def localizations_of(spec):
    ring = parse_ring(spec)
    for kind in KINDS:
        cl = closure(ring, kind)
        for g in s_generators(ring):
            mult = mult_set(ring, [g])
            if len(mult.saturation) * ring.cardinality() <= ORACLE_PAIRS:
                yield localize(ring, cl, mult)


@pytest.mark.parametrize("spec", SPECS)
def test_extension_contraction_and_masks_match_loops(spec):
    for loc in localizations_of(spec):
        if not loc.ok():
            with pytest.raises(PreconditionError, match="has no model"):
                extend(loc, whole_subgroup(loc.base))
            continue
        for p in enumerate_subgroups(loc.base):
            assert extend(loc, p)[0].values == oracle.extension_values(loc, p)
        for q in enumerate_subgroups(loc.model):
            assert contract(loc, q)[0].values == \
                oracle.contraction_values(loc, q)
        assert_masks_match(loc)


def test_integer_masks_match_loops():
    for loc in z_localizations():
        assert_masks_match(loc)


def test_localization_corpus_mixes_verdicts():
    """A class admitted by one representative and refused by another, in a
    localization whose own verdicts pass (Z/2 x Z/2 at S = <(1, 0)> under
    a union-fixed closure, at A = {(1, 0)/(1, 0)}), and an extension that
    reaches the whole model (Z/6 at S = <2>, P = (2))."""
    ring = parse_ring("prod:[Zn:2,Zn:2]")
    loc = localize(ring, closure(ring, "union-fixed"),
                   mult_set(ring, [(1, 0)]))
    assert loc.ok()
    a = ((1, 0), (1, 0))
    hits, misses = loc._class_masks(subgroup_lattice(loc.model).mask([a]))
    assert hits & misses == 1
    assert (hits, misses) == oracle.class_masks(loc, frozenset([a]))
    ring = ResidueRing(6)
    loc = localize(ring, closure(ring, "gen"), mult_set(ring, [2]))
    two = FiniteSubgroup(ring, {0, 2, 4})
    ext, verdicts = extend(loc, two)
    assert ext.is_whole() and not verdicts[0].passed
    assert ext.values == oracle.extension_values(loc, two)
    assert contract(loc, ext)[0].values == \
        oracle.contraction_values(loc, ext)
