"""The approximate prime spectrum and its Zariski-style topology.

Closed sets are V(I) = {P : cl(I) inside cl(P)}; basic opens are their
complements D(f).  Finite rings are handled by exhaustively filtering the
additive subgroup lattice; the integers with a modular closure use the
closed form {(p) : p prime, p | m}, cross-checked against a bounded
definition-based enumeration.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

from . import rings
from .errors import InvariantError, PreconditionError, price
from .ideals import (
    ApproxIdeal,
    _carrier,
    _divisors,
    _z_shift_modulus,
    approx_product,
    is_approx_ideal,
    is_approx_prime,
    z_prime_walk,
)
from .reports import Verdict
from .rings import (
    ElementSet,
    IntegerRing,
    PrincipalSubgroup,
    enumerate_subgroups,
    factorize,
    sort_key,
    subgroup_generated,
    subgroup_lattice,
    whole_subgroup,
)

# the most cells ((unordered ideal pairs + basic opens) x |R|)
# ``topology_check`` may be priced at: (Z/2)^5 is 2.2M, (Z/2)^6 255M
TOPOLOGY_CELL_LIMIT = 1 << 23


class SpectrumReport:
    """The enumerated approximate primes plus how they were found; over Z
    with modulus m >= 1, ``factors`` keeps the ``rings.factorize`` pairs of
    m that gave them."""

    def __init__(self, ring, cl, primes, method, factors=None):
        self.ring = ring
        self.cl = cl
        self.primes = primes
        self.method = method
        self.factors = factors

    @cached_property
    def prime_closures(self):
        """cl(P) for each prime, in the order of ``primes``."""
        return [_closure_of(self, p) for p in self.primes]

    def labels(self):
        return [repr(p) for p in self.primes]

    def __len__(self):
        return len(self.primes)

    def __iter__(self):
        return iter(self.primes)

    def __repr__(self):
        return f"<spectrum of {self.ring} under {self.cl.describe()}: " \
               f"{self.labels()} ({self.method})>"


class ClosedSet:
    """V(I): the primes whose closures contain cl(I)."""

    def __init__(self, defining, members):
        self.defining = defining
        self.members = members

    def labels(self, ring):
        return [repr(p) for p in self.members]

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __eq__(self, other):
        return isinstance(other, ClosedSet) and \
            set(self.members) == set(other.members)

    def __repr__(self):
        return f"V({self.defining!r}) = {self.members!r}"


def format_prime(ring, p):
    """The label of a prime of ``ring``: its subgroup's repr."""
    return repr(p)


def spectrum(ring, cl, z_bound=None):
    """Enumerate the approximate primes of the ring under the closure.

    Finite rings filter every additive subgroup by: approximate ideal,
    proper, approximately prime.  Over the integers m is factored once, by
    ``rings.factorize``: its primes are the modular closed form, and its
    pairs give the divisor rows on which ``ideals.z_prime_walk`` re-derives
    them by the bounded candidate sweep over (d), d <= z_bound (default
    max(1000, m)), returned as the passing d in ascending order, with no
    array over every d.  The plain span closure gives the classically
    bounded enumeration {(0)} + the primes up to z_bound, by a sieve priced
    at z_bound + 1 cells under ``rings.Z_SWEEP_CELL_LIMIT``.  On the
    candidates the sweep reaches the closed form and the sweep must agree
    (InvariantError otherwise), and a z_bound below m's largest prime is
    refused with PreconditionError, as the sweep cannot reach it, and so is
    a negative z_bound.
    """
    if isinstance(ring, IntegerRing):
        if z_bound is not None and z_bound < 0:
            raise PreconditionError(f"the bound {z_bound} over Z is negative")
        m = _z_shift_modulus(cl)
        bound = z_bound if z_bound is not None else max(1000, m)
        if m == 0:
            price(f"the sieve of the primes up to {bound}", bound + 1,
                  rings.Z_SWEEP_CELL_LIMIT, "cells")
            sieve = bytearray([0, 0]) + bytearray([1]) * (bound - 1)
            for p in range(2, math.isqrt(bound) + 1):
                if sieve[p]:
                    sieve[p * p::p] = bytes(len(range(p * p, bound + 1, p)))
            primes = [PrincipalSubgroup(0)] + [
                PrincipalSubgroup(p) for p in itertools.compress(
                    range(bound + 1), sieve)]
            return SpectrumReport(ring, cl, primes, "bounded-enumeration")
        if m == 1:
            return SpectrumReport(ring, cl, [], "closed-form", factors=[])
        pairs = factorize(m)
        brute = [PrincipalSubgroup(d) for d in z_prime_walk(pairs, bound)]
        closed = [PrincipalSubgroup(p) for p, _ in pairs]
        inside = [p for p in closed if p.d <= bound]
        if inside != brute:
            raise InvariantError(
                f"closed form and bounded sweep disagree for m={m}: "
                f"{[p.d for p in inside]} vs {[p.d for p in brute]}")
        if inside != closed:
            raise PreconditionError(
                f"the bound {bound} is below the prime {closed[-1].d} of "
                f"m={m}: the sweep over (d), d <= {bound}, cannot confirm it")
        return SpectrumReport(ring, cl, closed, "closed-form+bounded-sweep",
                              factors=pairs)

    primes = [sub for sub in enumerate_subgroups(ring)
              if not sub.is_whole() and is_approx_ideal(sub, cl)[0]
              and is_approx_prime(sub, cl, check_ideal=False)[0]]
    return SpectrumReport(ring, cl, primes, "exhaustive")


def _closure_of(spec, defining):
    """cl(I) as a subgroup or set, for I an ideal, a subgroup, or a list of
    generators (over Z the subgroup they span, elsewhere the set itself)."""
    defining = _carrier(defining)
    if isinstance(spec.ring, IntegerRing):
        d = defining.d if isinstance(defining, PrincipalSubgroup) \
            else math.gcd(*defining)
        return PrincipalSubgroup(spec.cl.z_principal_image(d))
    lat = subgroup_lattice(spec.ring)
    return ElementSet.from_mask(spec.ring,
                                spec.cl.eval_mask(lat.mask(defining)))


def _primes_over(spec, cli):
    """The primes P of the spectrum with cli inside cl(P), in order."""
    return [p for p, clp in zip(spec.primes, spec.prime_closures)
            if cli <= clp]


def v_set(spec, defining):
    """V(I) = {P in the spectrum : cl(I) inside cl(P)}."""
    return ClosedSet(defining, _primes_over(spec, _closure_of(spec, defining)))


def d_set(spec, f_value):
    """D(f): the spectrum minus V(<f>)."""
    clf = _closure_of(spec, [f_value])
    return [p for p, clp in zip(spec.primes, spec.prime_closures)
            if not clf <= clp]


def closure_of_point(spec, p):
    """The topological closure of {P}, which equals V(P)."""
    if p not in spec.primes:
        raise PreconditionError("point is not in the spectrum")
    return v_set(spec, p)


def _ideal_pool(spec, z_ideal_bound):
    """The defining-ideal enumeration for topology checks."""
    ring = spec.ring
    if isinstance(ring, IntegerRing):
        return [PrincipalSubgroup(d) for d in range(z_ideal_bound + 1)]
    return [sub for sub in enumerate_subgroups(ring)
            if is_approx_ideal(sub, spec.cl)[0]]


def topology_check(spec, z_ideal_bound=120):
    """The closed-set laws and separation properties, each from scratch.

    Verifies: V(I+J) = V(I) and V(J) intersected, with I + J the sum of
    subgroups (not the classical ideal they generate), V(IJ) = V(I) union
    V(J) with IJ the approximate product, the T0 separation through basic
    opens, the T1 criterion computed both as inclusion-maximality and as
    singleton point closures, and quasi-compactness by exhibiting a finite
    subcover of the full basic-open cover.  The laws' walk over the p(p+1)/2
    pairs i <= j of the p ideals of the pool and the basic opens D(f) it
    builds, one closure each, are priced first, at (p(p+1)/2 + opens) x |R|
    cells (|R| = 1 over Z), and refused with ResourceLimitError past
    TOPOLOGY_CELL_LIMIT.

    Both laws are read in row-major order over the pairs i <= j only, with
    the first counterexample of the walk over all ordered pairs.  In a
    commutative ring I + J = J + I and IJ = JI, and each law's two sides
    are symmetric in (I, J); so if the ordered pair (i, j) fails, (j, i)
    fails too, and the first failing pair in row-major order has i <= j.
    The pairs i <= j are a subsequence of that order, so the walk meets it
    first among them.

    The union law closes one product per unordered pair of ideal spans
    (span(I) the ideal that I generates, over Z its generator d).  IJ is
    the closure of the ideal generated by {ab : a in I, b in J}, and that
    ideal depends on I and J only through span(I) and span(J): every
    element of span(I) is a sum of terms k r a (k an integer, r in R, a in
    I), and (sum k r a)(sum k' s b) = sum k k' (r s)(ab), so the products
    of span(I) and span(J) generate the same ideal as {ab}, whichever I and
    J have those spans.  V(IJ) is kept per span pair, the product itself
    is not.

    D(f) = {P : cl(<f>) not inside cl(P)} depends on f only through
    cl(<f>).  So each f of the pool is closed once, and each distinct
    closure value builds its open once, in the order it first occurs.  The
    T0 marks are taken over the distinct opens: two points agree on every
    D(f) iff they agree on every distinct one, since each D(f) is one of
    them, so the equality relation and the first (P, Q) counterexample are
    those of the per-f marks.  The subcover walks the pool in order and
    takes f only when D(f) meets the points still uncovered; a later f with
    the value of an earlier one never does, as the earlier open was taken
    or met none of them, so the subcover picks first occurrences alone.

    Over Z with modulus m >= 1 the pool is f = 0..max(m, 30), and cl(<f>)
    = gcd(f, m)Z takes the value m first at f = 0 and each divisor g < m of
    m first at f = g (gcd(f, m) = g needs g | f).  So the opens are built
    from f = 0 and the divisors g < m alone, in that order, and priced as
    such; the divisors come from the factorization of m the spectrum
    keeps, so m is not factored again.  T0, the subcover and the mode's
    count of max(m, 30) + 1 basic opens are those of the whole pool.  Under ``gen`` (m = 0) the pool is 0..30 and
    the primes of the spectrum past 30, each closed.

    T1 is computed as inclusion-maximality and as singleton point
    closures, and the two agree by construction, for every operator,
    axiomatic or not: every prime P of a spectrum is cl-closed.  Absorption
    gives P = 1 P inside cl(P).  And 1 is not in P, else R 1 inside cl(P)
    is the whole ring, which ``is_approx_prime`` rejects; so a z in cl(P)
    outside P would give z 1 = z in cl(P) with neither z nor 1 in P, and P
    would not be prime.  So V(P) = {Q : cl(P) inside cl(Q)} = {Q : Q
    contains P}, and {P} is closed iff no prime strictly contains P.
    """
    verdicts = []
    if isinstance(spec.ring, IntegerRing) and z_ideal_bound < 0:
        raise PreconditionError(
            f"the bound {z_ideal_bound} over Z is negative")
    pool = _ideal_pool(spec, z_ideal_bound)
    if isinstance(spec.ring, IntegerRing):
        m = _z_shift_modulus(spec.cl)
        if m:
            f_pool = [0, *_divisors(spec.factors)[:-1]]
        else:
            f_pool = [*range(31), *(p.d for p in spec.primes if p.d > 30)]
        f_count = max(m, 30) + 1 if m else len(f_pool)
        spans = [a.d for a in pool]
    else:
        f_pool = sorted(spec.ring.elements(), key=sort_key)
        f_count = len(f_pool)
        lat = subgroup_lattice(spec.ring)
        spans = [lat.span(a.mask) for a in pool]
    unordered = len(pool) * (len(pool) + 1) // 2
    price(f"the topology walk over ({unordered} unordered pairs of "
          f"{len(pool)} ideals + {len(f_pool)} basic opens) x |R|",
          (unordered + len(f_pool)) * (spec.ring.cardinality() or 1),
          TOPOLOGY_CELL_LIMIT, "cells")
    approx = [ApproxIdeal(a, spec.cl, check=False) for a in pool]
    # the pair loop meets few distinct I: cache V(I) by I's mask (or dZ)
    v_by_subgroup = {}

    def v_members(defining):
        defining = _carrier(defining)
        members = v_by_subgroup.get(defining)
        if members is None:
            members = v_by_subgroup[defining] = set(
                _primes_over(spec, _closure_of(spec, defining)))
        return members

    v_pool = [v_members(a) for a in pool]
    v_products = {}

    inter_ce = None
    union_ce = None
    for i, j in itertools.combinations_with_replacement(range(len(pool)), 2):
        if inter_ce is None and \
                v_members(pool[i] + pool[j]) != v_pool[i] & v_pool[j]:
            inter_ce = {"I": repr(pool[i]), "J": repr(pool[j])}
        if union_ce is None:
            key = (spans[i], spans[j]) if spans[i] <= spans[j] \
                else (spans[j], spans[i])
            v_prod = v_products.get(key)
            if v_prod is None:
                v_prod = v_products[key] = v_members(
                    approx_product(approx[i], approx[j]))
            if v_prod != v_pool[i] | v_pool[j]:
                union_ce = {"I": repr(pool[i]), "J": repr(pool[j]),
                            "V(IJ)": [repr(p) for p in spec.primes
                                      if p in v_prod]}
        if inter_ce is not None and union_ce is not None:
            break
    # for small pools also sweep three-member families of the sum law
    pairs_mode = inter_mode = f"{len(pool)} ideals, all pairs"
    if inter_ce is None and len(pool) <= 8:
        for fam in itertools.combinations(range(len(pool)), 3):
            summed = pool[fam[0]] + pool[fam[1]] + pool[fam[2]]
            if v_members(summed) != \
                    v_pool[fam[0]] & v_pool[fam[1]] & v_pool[fam[2]]:
                inter_ce = {"family": [repr(pool[k]) for k in fam]}
                break
        inter_mode += " and triples"
    verdicts.append(Verdict("intersection-law", inter_ce is None, inter_ce,
                            mode=inter_mode))
    verdicts.append(Verdict("union-law", union_ce is None, union_ce,
                            mode=pairs_mode))

    # boundary cases: V(0) is everything, V(R) is empty
    v_zero = v_set(spec, subgroup_generated(spec.ring, []))
    v_whole = v_set(spec, whole_subgroup(spec.ring))
    verdicts.append(Verdict(
        "V(0)-is-whole-space", len(v_zero) == len(spec.primes)))
    verdicts.append(Verdict("V(R)-is-empty", len(v_whole) == 0))

    # T0: no two points lie in exactly the same basic opens; one open per
    # distinct cl(<f>)
    primes = list(spec.primes)
    closures, f_index = {}, []
    for f in f_pool:
        f_index.append(closures.setdefault(_closure_of(spec, [f]),
                                           len(closures)))
    distinct = [{p for p, clp in zip(primes, spec.prime_closures)
                 if not clf <= clp} for clf in closures]
    opens = [distinct[k] for k in f_index]
    marks = [tuple(p in op for op in distinct) for p in primes]
    t0_ce = next(({"P": repr(p), "Q": repr(primes[j])}
                  for i, p in enumerate(primes)
                  for j in range(i + 1, len(primes)) if marks[i] == marks[j]),
                 None)
    verdicts.append(Verdict("T0", t0_ce is None, t0_ce,
                            mode=f"{f_count} basic opens"))

    # T1 computed two ways, which agree by construction (see above)
    incl_ce = next(({"P": repr(p), "Q": repr(q)}
                    for p in primes for q in primes if p < q), None)
    incl_max = incl_ce is None
    singletons = all(len(closure_of_point(spec, p)) == 1 for p in primes)
    verdicts.append(Verdict("T1-criterion-agreement", incl_max == singletons,
                            None if incl_max == singletons else
                            {"inclusion-maximal": incl_max,
                             "singleton-closures": singletons}))
    verdicts.append(Verdict("T1", incl_max, incl_ce,
                            details={"inclusion-maximal": incl_max,
                                     "singleton-closures": singletons}))

    # quasi-compactness: the full basic-open cover has a finite subcover
    cover = []
    remaining = set(primes)
    for f, op in zip(f_pool, opens):
        if not remaining:
            break
        if op & remaining:
            cover.append(f)
            remaining -= op
    verdicts.append(Verdict("quasi-compact", not remaining,
                            None if not remaining else
                            {"uncovered": len(remaining)},
                            details={"subcover-size": len(cover)}))

    # observational report (no equivalence asserted): whether the primes
    # are all cl-closed, always true as proved above, and whether every
    # proper cl-closed ideal in the pool sits under some prime
    primes_closed = all(clp == p for p, clp in zip(primes,
                                                   spec.prime_closures))
    under = all(any(a <= p for p in primes) for a in pool
                if not a.is_whole() and _closure_of(spec, a) == a)
    verdicts.append(Verdict(
        "closed-primes-report", True,
        details={"all-primes-cl-closed": primes_closed,
                 "closed-ideals-under-primes": under}))
    return verdicts
