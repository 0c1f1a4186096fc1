"""Varieties, vanishing ideals, and the radical equality over function rings.

Everything runs on the finite rings of F_p-valued functions on F_p^n, where
varieties are enumerable by brute force: the evaluation-separation property
(vanishing on V(I) implies membership in the approximate radical) and the
pointwise primeness of the point ideals are machine-checked, and the
radical identity rad(I) = I(V(I)) is then verified ideal by ideal.
"""

from __future__ import annotations

import random

from . import polynomials as poly
from .closures import _vanishing_functions
from .errors import InvariantError, PreconditionError
from .ideals import is_approx_prime
from .localization import radical
from .reports import Verdict
from .rings import (
    FiniteSubgroup,
    FunctionRing,
    classical_ideals,
    ideal_from_subgroup,
    ideal_generated,
)


class Variety:
    """V(I): the common zero set, computed two ways that must agree."""

    def __init__(self, ring, ideal):
        self.ring = ring
        self.ideal = ideal
        by_generators = self._zeros(ideal.generators)
        by_members = self._zeros(ideal.canonical.values)
        if by_generators != by_members:
            raise InvariantError(
                "generator zeros disagree with member zeros; the ideal "
                "representation is inconsistent")
        self.points = by_generators

    def _zeros(self, functions):
        ring = self.ring
        return frozenset(ring.points[i] for i in range(ring.npoints)
                         if all(f[i] == 0 for f in functions))

    def sorted_points(self):
        return sorted(self.points)

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        return f"V = {self.sorted_points()}"


def variety(ring, ideal):
    """The variety of an ideal over a function ring."""
    if not isinstance(ring, FunctionRing):
        raise PreconditionError("varieties need a function ring")
    return Variety(ring, ideal)


def vanishing_ideal(ring, points):
    """I(W): every function vanishing on the given point set."""
    if not isinstance(ring, FunctionRing):
        raise PreconditionError("vanishing ideals need a function ring")
    pts = {tuple(p) for p in points}
    members = _vanishing_functions(
        ring, [i for i, a in enumerate(ring.points) if a in pts])
    sub = FiniteSubgroup(ring, members, check=False)
    out = ideal_from_subgroup(sub)
    if ideal_generated(ring, out.generators).canonical != sub:
        raise InvariantError("vanishing set is not an ideal")
    return out


def maximal_point_ideal(ring, a):
    """The point ideal generated by x_i - a_i, canonicalized."""
    a = tuple(a)
    return ideal_generated(ring, [
        ring.sub(ring.variable(i), ring.constant(a[i]))
        for i in range(ring.nvars)])


def rad_phi(ring, ideal, cl):
    """rad(I) = {g : some power of g lies in cl(I)}, as an ideal."""
    return radical(ring, cl, ideal.canonical)


def all_function_ring_ideals(ring):
    """Every classical ideal of the function ring (complete enumeration)."""
    return classical_ideals(ring)


def _ideal_sides(cl, ideals):
    """(I, rad(I), I(V(I))) for each ideal in turn, the last two as
    subgroups: the sides of both the separation hypothesis and the identity."""
    ring = cl.ring
    for ideal in ideals:
        v = variety(ring, ideal)
        yield (ideal, rad_phi(ring, ideal, cl).canonical,
               vanishing_ideal(ring, v.points).canonical)


def check_esep(cl, ideals):
    """Evaluation separation: f vanishing on V(I) lies in rad(I)."""
    ring = cl.ring
    ce = None
    for ideal, rad, vanishing in _ideal_sides(cl, ideals):
        if not vanishing <= rad:
            f = next(f for f in vanishing if not rad.contains(f))
            ce = {"ideal": [ring.format_element(g) for g in ideal.generators],
                  "f": ring.format_element(f)}
            break
    return Verdict("evaluation-separation", ce is None, ce,
                   mode=f"{len(ideals)} ideals")


def check_pp(cl):
    """Every point ideal is closed under cl and approximately prime."""
    ring = cl.ring
    ce = None
    for a in ring.points:
        sub = maximal_point_ideal(ring, a).canonical
        if cl.eval_mask(sub.mask) != sub.mask:
            ce = {"point": a, "issue": "not-closed"}
            break
        prime, pce = is_approx_prime(sub, cl, check_ideal=False)
        if not prime:
            ce = {"point": a, "issue": "not-prime", "witness": pce}
            break
    return Verdict("point-ideals-prime-and-closed", ce is None, ce,
                   mode=f"{len(ring.points)} points")


def check_ans(cl, ideals):
    """rad(I) = I(V(I)) for each ideal, after the two hypotheses hold; each
    ideal's sides are computed once, for both."""
    ring, sides = cl.ring, list(_ideal_sides(cl, ideals))
    esep = all(vanishing <= rad for _, rad, vanishing in sides)
    pp = check_pp(cl)
    if not (esep and pp.passed):
        raise PreconditionError(
            "hypothesis not established: "
            f"ESEP={esep}, PP={pp.passed}")
    ce = next(({"ideal": [ring.format_element(g) for g in ideal.generators],
                "radical-size": len(lhs), "vanishing-size": len(rhs)}
               for ideal, lhs, rhs in sides if lhs != rhs), None)
    return Verdict("radical-equals-vanishing-ideal", ce is None, ce,
                   mode=f"{len(ideals)} ideals")


# ---------------------------------------------------------------------------
# the balanced multiplicativity of tolerance closures


def check_tolerance_balanced(tol, cases):
    """r * cl_tau(I) lands in cl_{|r| tau}(r I) for every configured case.

    Each case is (gens, f, r) of integer polynomials with f already a
    member of cl_tau(<gens>); the scaled closure takes the pointwise
    tolerance |r(a)| * tau(a).
    """
    ce = None
    checked = 0
    for gens, f, r in cases:
        if not tol.member(f, gens):
            continue
        checked += 1
        scaled = tol.scaled(r)
        rf = poly.m_mul(r, f)
        rgens = [poly.m_mul(r, g) for g in gens]
        if not scaled.member(rf, rgens):
            ce = {"f": f, "r": r}
            break
    return Verdict("tolerance-balanced-rule", ce is None, ce,
                   mode=f"{checked} member cases"), checked


def search_esep_without_pp(ring, closures=None):
    """Hunt for a closure where separation holds but the radical identity
    fails for lack of pointwise primeness.

    Returns the findings: closures satisfying ESEP whose radical strictly
    exceeds the vanishing ideal on some ideal.  No specific counterexample
    is asserted beforehand; whatever the search turns up is reported.
    """
    from .closures import SetShiftClosure as RingSetShift
    if closures is None:
        point_ideal = vanishing_ideal(ring, [ring.points[0]])
        closures = [
            RingSetShift(ring, ideal_generated(ring, [ring.one])),
            RingSetShift(ring, ideal_generated(ring,
                                               list(point_ideal.generators))),
        ]
    ideals = all_function_ring_ideals(ring)
    findings = []
    for cl in closures:
        if check_pp(cl).passed:
            continue
        sides = list(_ideal_sides(cl, ideals))
        if not all(vanishing <= rad for _, rad, vanishing in sides):
            continue
        for ideal, lhs, rhs in sides:
            if not lhs <= rhs:
                findings.append({
                    "closure": cl.describe(),
                    "ideal": [ring.format_element(g)
                              for g in ideal.generators],
                    "radical-size": len(lhs),
                    "vanishing-size": len(rhs)})
                break
    return findings


def tolerance_case_grid(nvars=1, seed=11, count=160):
    """A deterministic grid of (gens, f, r) integer-polynomial cases."""
    rng = random.Random(seed)
    cases = []

    def rand_poly():
        out = {}
        for _ in range(rng.randint(1, 3)):
            exp = tuple(rng.randint(0, 2) for _ in range(nvars))
            coef = rng.randint(-3, 3)
            if coef:
                out[exp] = out.get(exp, 0) + coef
        return {e: c for e, c in out.items() if c}

    for _ in range(count):
        gens = [rand_poly() for _ in range(rng.randint(1, 2))]
        f = rand_poly()
        r = rand_poly()
        cases.append((gens, f, r))
    return cases