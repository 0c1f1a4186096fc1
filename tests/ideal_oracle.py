"""The element loops the transport kernel is tested against.

These are the finite checks that quantify over a ring's products, a hom's
values or a localization's pairs as they were written before they became
reads of the subgroup lattice's index tables: the approximate ideal,
submodule and prime tests, the finite side of the prime-ring
characterization, the classical product of two ideals, the kernel, surjectivity, image, preimage
and pullback identity of a ring hom, extension and contraction along
R -> S^-1 R with the pair masks of the transferred closure, and the power
orbits of the radical.  Each takes what its replacement takes, with the
structures it read as arguments."""

import math

from approxalg.closures import materialize
from approxalg.errors import PreconditionError
from approxalg.reports import Verdict
from approxalg.rings import (
    FiniteSubgroup,
    IntegerRing,
    enumerate_subgroups,
    ideal_generated,
    is_additive_subgroup,
    sort_key,
)


def is_approx_ideal(s, cl):
    """The finite branch: (verdict, counterexample) for R*s inside cl(s)."""
    ring = cl.ring
    values = s.values if hasattr(s, "values") else frozenset(
        ring.canon(v) for v in s)
    if not is_additive_subgroup(ring, values):
        return False, {"reason": "not-a-subgroup",
                       "S": sorted(values, key=sort_key)}
    clset = materialize(cl, values)
    for r in sorted(ring.elements(), key=sort_key):
        for x in sorted(values, key=sort_key):
            p = ring.mul(r, x)
            if p not in clset:
                return False, {"reason": "absorption", "r": r, "s": x,
                               "witness": p}
    return True, None


def is_approx_submodule(mod, n_values, cl):
    """(verdict, counterexample): N a subgroup with R*N inside cl(N)."""
    n_values = frozenset(mod.canon(v) for v in n_values)
    if not is_additive_subgroup(mod, n_values):
        raise PreconditionError("N is not an additive subgroup")
    clset = cl.eval_set(n_values)
    for r in mod.scalar_reps:
        for x in sorted(n_values, key=sort_key):
            y = mod.act(r, x)
            if y not in clset:
                return False, {"r": r, "x": x, "witness": y}
    return True, None


def is_approx_prime(p, cl):
    """The finite branch of ``is_approx_prime(p, cl, check_ideal=False)``."""
    ring = cl.ring
    if p.is_whole():
        raise PreconditionError("improper: P is the whole ring")
    values = p.values
    clset = materialize(cl, values)
    if len(clset) >= ring.cardinality():
        # such P can never be approximately prime; witness (1, 1)
        return False, {"reason": "closure-is-whole-ring",
                       "x": ring.one, "y": ring.one}
    elems = sorted(ring.elements(), key=sort_key)
    for x in elems:
        if x in values:
            continue
        for y in elems:
            if y in values:
                continue
            if ring.mul(x, y) in clset:
                return False, {"x": x, "y": y, "product": ring.mul(x, y)}
    return True, None


def zero_sandwich(ring, cl):
    """The finite side two of ``check_thm_ring_prime``, as its ce2."""
    cl0 = materialize(cl, {ring.zero})
    elems = sorted(ring.elements(), key=sort_key)
    side2 = True
    ce2 = None
    for a in elems:
        if a == ring.zero:
            continue
        for b in elems:
            if b == ring.zero:
                continue
            if all(ring.mul(ring.mul(a, r), b) in cl0 for r in elems):
                side2 = False
                ce2 = {"a": a, "b": b}
                break
        if not side2:
            break
    return ce2


def ideal_classical_product(i, j):
    """The finite branch: the ideal generated by the sorted products."""
    ring = i.ring
    prods = {ring.mul(a, b)
             for a in i.canonical.values for b in j.canonical.values}
    return ideal_generated(ring, sorted(prods, key=sort_key))


def kernel(f):
    """``RingHom.kernel`` over a finite source."""
    ker = {v for v in f.src.elements() if f.apply(v) == f.dst.zero}
    return FiniteSubgroup(f.src, ker, check=False)


def is_surjective(f):
    """``RingHom.is_surjective`` over a finite source."""
    return f.image_values(f.src.elements()) == frozenset(f.dst.elements())


def preimage_subgroup(f, base):
    """The finite branch of ``ideals._preimage_subgroup``."""
    pre = {x for x in f.src.elements() if f.apply(x) in base.values}
    return FiniteSubgroup(f.src, pre, check=False)


def image_subgroup(f, base):
    """The finite branch of ``ideals._image_subgroup``."""
    img = {f.apply(x) for x in base.values}
    return FiniteSubgroup(f.dst, img, check=True)


def pullback_identity_verdict(f):
    """The finite branch of ``ideals._pullback_identity_verdict``."""
    for sub in enumerate_subgroups(f.src):
        img = {f.apply(x) for x in sub.values}
        lhs = {x for x in f.src.elements() if f.apply(x) in img}
        ker = f.kernel().values
        rhs = {f.src.add(a, k) for a in sub.values for k in ker}
        if lhs != rhs:
            return Verdict("pullback-identity", False,
                           {"A": sorted(sub.values, key=sort_key)})
    return Verdict("pullback-identity", True, mode="all subgroups")


def extension_values(loc, p_sub):
    """The classes of ``localization.extend`` over a finite base."""
    return frozenset(loc._pair_class[(a, s)] for a in p_sub.values
                     for s in loc.sat)


def contraction_values(loc, q_sub):
    """The base elements of ``localization.contract`` over a finite base."""
    return {x for x in loc.base.elements() if loc.iota(x) in q_sub.values}


def _pullback_closure(loc, a_values, s):
    """cl_R({x : x/s in A}) in membership-testable form."""
    if isinstance(loc.base, IntegerRing):
        m0 = loc.m0
        if m0 == 1:
            return 1  # the pullback spans everything
        residues = {(a * s) % m0 for a in a_values}
        g = m0
        for r in residues:
            g = math.gcd(g, r)
        if not residues:
            g = 0
        return loc.base_cl.z_principal_image(g)
    members = {x for x in loc.base.elements()
               if loc._pair_class[(x, s)] in a_values}
    return materialize(loc.base_cl, members)


def _exists_u_multiplying_into(loc, a, pullback_cl):
    if isinstance(loc.base, IntegerRing):
        g = pullback_cl
        return any((u * a) % g == 0 if g else (u * a) == 0
                   for u in loc.sat_residues_mod_m)
    return any(loc.base.mul(u, a) in pullback_cl for u in loc.sat)


def _pair_masks(loc, s, pullback_cl):
    """Two masks over the classes, by their position in the model: the
    classes with a representative (a, s) that lands in the pullback
    closure (u * a in it for some u in S), and those with one that does
    not."""
    hit = miss = 0
    for i, cls_value in enumerate(loc.model.elements()):
        for a, t in loc.class_pairs(cls_value):
            if t == s:
                if _exists_u_multiplying_into(loc, a, pullback_cl):
                    hit |= 1 << i
                else:
                    miss |= 1 << i
    return hit, miss


def class_masks(loc, values):
    """``_pair_masks`` joined over the denominators s, each with the
    pullback closure of A at s: a class in both masks has representatives
    on both sides."""
    hits = misses = 0
    for s in loc.denominators:
        hit, miss = _pair_masks(loc, s, _pullback_closure(loc, values, s))
        hits |= hit
        misses |= miss
    return hits, misses


def power_orbit_members(ring, clset):
    """The g of a finite ring with some positive power in ``clset``.  A
    power sequence in a finite ring is eventually periodic; each is walked
    until it repeats, which keeps the exponent bound honest per instance."""
    members = set()
    for g in ring.elements():
        seen, x = set(), g
        while x not in seen and x not in clset:
            seen.add(x)
            x = ring.mul(x, g)
        if x in clset:
            members.add(g)
    return members
