"""The map kernel against the element loops of ``map_oracle``: compiled
maps and quotient maps give the same verdicts, messages, classes and
counterexamples as the loops they replaced, on corpora that hold failing
cases of every check."""

import itertools

import map_oracle as oracle
import numpy as np
import pytest
from localization_oracle import model_tables
from test_congruence_kernel import (
    KINDS,
    ORACLE_PAIRS,
    SPECS,
    closure,
    quotient_cases,
    s_generators,
)

from approxalg import modules
from approxalg.closures import (
    ClosureSpec,
    GeneratedIdealClosure,
    IdealShiftClosure,
    SetShiftClosure,
    UnionFixedClosure,
    closure_preimage_compatible,
    materialize,
)
from approxalg.errors import PreconditionError
from approxalg.grammar import parse_ring
from approxalg.homs import reduction_hom, verify_hom_table
from approxalg.ideals import ApproxIdeal, quotient_ring
from approxalg.localization import check_iota_functorial, localize, mult_set
from approxalg.rings import (
    ResidueRing,
    Z,
    ideal_closure_set,
    ideal_generated,
    is_additive_subgroup,
    sort_key,
    subgroup_lattice,
)


def dicts(verdicts):
    return [v.to_dict() for v in verdicts]


# ---------------------------------------------------------------------------
# preimage compatibility of the reductions Z/n -> Z/k

REDUCTIONS = [(4, 2), (6, 2), (6, 3), (8, 4), (9, 3), (12, 4), (12, 6),
              (18, 6), (24, 8), (30, 6), (16, 8), (10, 5), (20, 4)]


def ring_closures(ring):
    """gen, and shift, setshift and union-fixed at the generators 1, 2 and
    n // 2 (those that are distinct and nonzero)."""
    n = ring.n
    out = [GeneratedIdealClosure(ring)]
    for g in sorted({1 % n, 2 % n, n // 2} - {0}):
        ideal = ideal_generated(ring, [g])
        out += [IdealShiftClosure(ring, ideal), SetShiftClosure(ring, ideal),
                UnionFixedClosure(ring, [g])]
    return out


def test_reduction_corpus_size():
    cases = sum(len(ring_closures(ResidueRing(n))) *
                len(ring_closures(ResidueRing(k))) for n, k in REDUCTIONS)
    assert cases >= 940


@pytest.mark.parametrize("n, k", REDUCTIONS)
def test_preimage_matches_loop(n, k):
    f = reduction_hom(ResidueRing(n), ResidueRing(k))
    verdicts = set()
    for cl_src in ring_closures(f.src):
        for cl_dst in ring_closures(f.dst):
            got = closure_preimage_compatible(f, cl_src, cl_dst).to_dict()
            assert got == oracle.closure_preimage_compatible(
                f, cl_src, cl_dst).to_dict()
            verdicts.add(got["verdict"])
    assert verdicts == {"pass", "fail"}


# ---------------------------------------------------------------------------
# functoriality of the canonical map R -> S^-1 R


class ThirdIdealClosure(ClosureSpec):
    """Not monotone: the ideal of A while it holds at most a third of the
    ring, {0} beyond; it breaks both inclusions for some localizations."""

    name = "third-ideal"

    def eval_set(self, values):
        out = ideal_closure_set(self.ring, values)
        if 3 * len(out) <= self.ring.cardinality():
            return out
        return frozenset({self.ring.zero})


def iota_closures(ring):
    return [closure(ring, kind) for kind in KINDS] + [ThirdIdealClosure(ring)]


@pytest.mark.parametrize("spec", SPECS)
def test_iota_matches_loops(spec):
    ring = parse_ring(spec)
    for cl in iota_closures(ring):
        for g in s_generators(ring):
            mult = mult_set(ring, [g])
            if len(mult.saturation) * ring.cardinality() > ORACLE_PAIRS:
                continue
            loc = localize(ring, cl, mult)
            if not loc.ok():
                with pytest.raises(PreconditionError, match="has no model"):
                    check_iota_functorial(loc)
                continue
            assert dicts(check_iota_functorial(loc)) == \
                dicts(oracle.check_iota_functorial(loc))


def test_iota_corpus_fails_both_inclusions():
    ring = ResidueRing(6)
    loc = localize(ring, ThirdIdealClosure(ring), mult_set(ring, [3]))
    got = check_iota_functorial(loc)
    assert [v.counterexample for v in got] == [{"X": [0, 3]},
                                               {"B": [(0, 1)]}]
    assert dicts(got) == dicts(oracle.check_iota_functorial(loc))


# ---------------------------------------------------------------------------
# ring hom tables


def all_tables(src, dst):
    elems = sorted(src.elements(), key=sort_key)
    for vals in itertools.product(sorted(dst.elements(), key=sort_key),
                                  repeat=len(elems)):
        yield dict(zip(elems, vals))


@pytest.mark.parametrize("src, dst", [
    ("Zn:4", "Zn:2"), ("Zn:6", "Zn:3"), ("Zn:4", "Zn:4"), ("Zn:6", "Zn:2"),
    ("prod:[Zn:2,Zn:2]", "Zn:2"), ("Zn:2", "prod:[Zn:2,Zn:2]"),
    ("prod:[Zn:2,Zn:2]", "prod:[Zn:2,Zn:2]"), ("GF:2/x^2", "Zn:2"),
    ("GF:2/x^2+x", "prod:[Zn:2,Zn:2]"), ("Zn:3", "Zn:6")])
def test_hom_tables_match_loop(src, dst):
    """Every map table between two small rings: the first broken cell and
    its message."""
    src, dst = parse_ring(src), parse_ring(dst)
    messages = set()
    for table in all_tables(src, dst):
        got = verify_hom_table(src, dst, table)
        assert got == oracle.verify_hom_table(src, dst, table)
        messages.add(got and ("*" if "*" in got else "+" if "+" in got
                              else "1"))
    # unital failures, and failures at a sum or at a product
    assert {"1", "+"} <= messages


def test_hom_tables_of_larger_rings():
    """Reductions, and reductions with one value moved, on rings up to 24
    elements."""
    for n, k in [(12, 4), (24, 8), (24, 6), (18, 9), (20, 10)]:
        src, dst = ResidueRing(n), ResidueRing(k)
        for moved in range(n):
            table = {x: x % k for x in range(n)}
            table[moved] = (table[moved] + moved) % k
            assert verify_hom_table(src, dst, table) == \
                oracle.verify_hom_table(src, dst, table)


# ---------------------------------------------------------------------------
# module homs and the first theorem


def module_closures(mod):
    elems = sorted(mod.elements(), key=sort_key)
    mid = elems[len(elems) // 2]
    return [modules.GeneratedSubmoduleClosure(mod),
            modules.SubmoduleShiftClosure(mod, [mid]),
            modules.ModuleSetShiftClosure(mod, [mid])]


def iso_dict(fn, *args):
    try:
        v = fn(*args)
    except PreconditionError as exc:
        return str(exc)
    return v.name, v.left_size, v.right_size, dicts(v.verdicts)


@pytest.mark.parametrize("src, dst", [([4], [4]), ([2, 2], [2, 2]),
                                      ([3], [3]), ([4], [2]), ([2], [4]),
                                      ([2, 2], [4])])
def test_module_hom_tables_match_loop(src, dst):
    """Every map table: the approximate-hom check (rejections with the
    first broken cell), then the first theorem on the accepted ones."""
    src, dst = modules.finite_module(Z, src), modules.finite_module(Z, dst)
    gen_src, shift_src, _ = module_closures(src)
    gen_dst, shift_dst, setshift_dst = module_closures(dst)
    rejected = failing = 0
    for cl_src, cl_dst in [(gen_src, gen_dst), (gen_src, shift_dst),
                           (shift_src, setshift_dst)]:
        for table in all_tables(src, dst):
            want = oracle.approx_hom_violation(src, dst, cl_dst, table)
            try:
                f = modules.module_hom(src, dst, cl_src, cl_dst, table)
            except PreconditionError as exc:
                assert str(exc) == f"not an approximate homomorphism: {want}"
                rejected += 1
                continue
            assert want is None
            got = iso_dict(modules.iso_first, f)
            assert got == iso_dict(oracle.iso_first, f)
            failing += isinstance(got, tuple) and \
                any(v["verdict"] == "fail" for v in got[3])
    assert rejected
    # non-additive tables that gen admits break the descended map on Z/4
    assert failing or (src.orders, dst.orders) != ((4,), (4,))


ISO_ORDERS = [[n] for n in range(2, 25)] + [[2, 2], [2, 4], [4, 4],
                                            [2, 2, 2], [3, 3]]


class CoarseSpan(modules.ModuleClosure):
    """span(X) when it has at least three elements, {0} otherwise: N/(N
    meet cl(K)) then has more classes than (N + K)/K for some N and K."""

    name = "coarse"

    def eval_set(self, values):
        out = self.module.span(values)
        return out if len(out) >= 3 else frozenset({self.module.zero})


def iso_cases(mod):
    """Scales 0, 2 and the largest order minus one; (N, K) over the
    submodules generated by the second, middle and last element."""
    elems = sorted(mod.elements(), key=sort_key)
    scales = sorted({0, 2, max(mod.orders) - 1})
    gens = [[elems[1]], [elems[len(elems) // 2]], [elems[-1]]]
    for cl in module_closures(mod):
        for k in scales:
            yield "iso1", cl, k
        for n_g, k_g in itertools.product(gens, gens):
            yield "iso2", cl, (n_g, k_g)
            yield "iso3", cl, (n_g, k_g)


@pytest.mark.parametrize("orders", ISO_ORDERS, ids=str)
def test_iso_theorems_match_loops(orders):
    mod = modules.finite_module(Z, orders)
    for which, cl, arg in iso_cases(mod):
        if which == "iso1":
            f = modules.scaling_hom(mod, cl, arg)
            assert iso_dict(modules.iso_first, f) == \
                iso_dict(oracle.iso_first, f)
            continue
        fn = modules.iso_second if which == "iso2" else modules.iso_third
        ofn = oracle.iso_second if which == "iso2" else oracle.iso_third
        assert iso_dict(fn, mod, cl, *arg) == iso_dict(ofn, mod, cl, *arg)


@pytest.mark.parametrize("orders", [[12], [2, 4]], ids=str)
def test_second_and_third_under_a_coarse_closure(orders):
    mod = modules.finite_module(Z, orders)
    cl = CoarseSpan(mod)
    failed = []
    for n_g, k_g in itertools.product(mod.elements(), repeat=2):
        for fn, ofn in [(modules.iso_second, oracle.iso_second),
                        (modules.iso_third, oracle.iso_third)]:
            got = iso_dict(fn, mod, cl, [n_g], [k_g])
            assert got == iso_dict(ofn, mod, cl, [n_g], [k_g])
            if isinstance(got, tuple) and not all(
                    v["verdict"] == "pass" for v in got[3]):
                failed.append(got[0])
    assert "second-iso" in failed


# ---------------------------------------------------------------------------
# quotient maps


QUOTIENT_ORDERS = [[4], [6], [8], [12], [2, 2], [2, 4], [3, 3], [2, 2, 2]]


@pytest.mark.parametrize("orders", QUOTIENT_ORDERS, ids=str)
def test_quotient_module_matches_loop(orders):
    """Every carrier submodule against every additive subgroup as the
    relation set: carrier, classes in member order, rep_of in order, reps
    and the operations on representatives."""
    mod = modules.finite_module(Z, orders)
    lat = subgroup_lattice(mod)
    for carrier in mod.all_submodules():
        for h in lat.subgroups():
            clset = lat.values(h)
            got = modules.QuotientModule(mod, carrier, clset, [])
            want = oracle.QuotientModule(mod, carrier, clset, [])
            assert got.carrier == want.carrier
            assert [(r, list(m)) for r, m in got.classes] == \
                [(r, list(m)) for r, m in want.classes]
            assert list(got.rep_of.items()) == list(want.rep_of.items())
            assert got.reps() == want.reps()
            assert got.class_count() == want.class_count()
            reps = got.reps()
            assert [got.add(a, b) for a in reps for b in reps] == \
                [want.add(a, b) for a in reps for b in reps]
            assert [got.act(r, a) for r in mod.scalar_reps for a in reps] == \
                [want.act(r, a) for r in mod.scalar_reps for a in reps]
            assert got.labels.tolist() == [
                lat.index[want.rep_of[x]] if x in want.rep_of else -1
                for x in lat.elems]


@pytest.mark.parametrize("orders", QUOTIENT_ORDERS, ids=str)
def test_quotient_module_refuses_a_relation_set_off_the_subgroups(orders):
    """A relation set that is not an additive subgroup, which only the
    diagnostic union-fixed closure produces, gives no classes: the loop
    built overlapping ones."""
    mod = modules.finite_module(Z, orders)
    elems = sorted(mod.elements(), key=sort_key)
    clset = modules.ModuleUnionFixedClosure(
        mod, [elems[1], elems[-1]]).eval_set(frozenset({mod.zero}))
    assert not is_additive_subgroup(mod, clset)
    with pytest.raises(PreconditionError, match="not a subgroup"):
        modules.QuotientModule(mod, mod.elements(), clset, [])
    if orders == [4]:
        loop = oracle.QuotientModule(mod, mod.elements(), clset, [])
        members = [m for _, m in loop.classes]
        assert any(a & b for a, b in itertools.combinations(members, 2))


def test_theorems_refuse_union_fixed():
    """Each theorem reaches a quotient by a union-fixed relation set that is
    not a subgroup, where the loop went on with overlapping classes."""
    m4 = modules.finite_module(Z, [4])
    m22 = modules.finite_module(Z, [2, 2])
    f = modules.scaling_hom(m4, modules.ModuleUnionFixedClosure(m4, []), 2,
                            cl_dst=modules.ModuleUnionFixedClosure(m4, [(1,)]))
    cases = [
        (modules.iso_first, oracle.iso_first, (f,)),
        (modules.iso_second, oracle.iso_second,
         (m4, modules.ModuleUnionFixedClosure(m4, [(1,)]), [(2,)], [(2,)])),
        (modules.iso_third, oracle.iso_third,
         (m22, modules.ModuleUnionFixedClosure(m22, [(1, 0)]), [(0, 0)],
          [(0, 1)]))]
    for fn, loop, args in cases:
        assert isinstance(iso_dict(loop, *args), tuple)
        with pytest.raises(PreconditionError, match="not a subgroup"):
            fn(*args)


@pytest.mark.parametrize("ring, kind, sub", quotient_cases())
def test_quotient_ring_classes_match_loop(ring, kind, sub):
    """The classes, and the model's tables and names where the verdicts
    pass, are those of the class loop."""
    cl = closure(ring, kind)
    try:
        q = quotient_ring(ring, ApproxIdeal(sub, cl, check=False))
    except PreconditionError:
        return
    rep_of, classes = oracle.quotient_ring_classes(
        ring, materialize(cl, sub.values))
    assert [(r, list(m)) for r, m in q.classes] == \
        [(r, list(m)) for r, m in classes]
    if q.model is not None:
        assert model_tables(q.model) == \
            oracle.quotient_model_tables(ring, rep_of, classes)


def test_quotient_labels_tile_the_carrier():
    """The cosets a quotient map lists partition its carrier, each labelled
    by its least index."""
    mod = modules.finite_module(Z, [2, 4])
    lat = subgroup_lattice(mod)
    for c in lat.subgroups():
        for h in lat.subgroups():
            if h & c != h:
                continue
            labels, cosets = lat.cosets(h, c)
            assert sum(m for _, m in cosets) == c
            for i, m in cosets:
                members = [j for j in range(lat.n) if m >> j & 1]
                assert min(members) == i
                assert labels[members].tolist() == [i] * len(members)
            assert (labels[[j for j in range(lat.n) if not c >> j & 1]]
                    == -1).all()
            assert np.array_equal(labels >= 0, [bool(c >> j & 1)
                                                for j in range(lat.n)])
