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

import numpy as np

from .errors import InvariantError, PreconditionError, price
from .ideals import (
    ApproxIdeal,
    _carrier,
    _z_shift_modulus,
    approx_product,
    is_approx_ideal,
    is_approx_prime,
    z_prime_bruteforce_grid,
)
from .reports import Verdict
from .rings import (
    ElementSet,
    IntegerRing,
    PrincipalSubgroup,
    enumerate_subgroups,
    is_prime,
    prime_factors,
    sort_key,
    subgroup_generated,
    subgroup_lattice,
    whole_subgroup,
)

# the most cells ((ideal pairs + basic opens) x |R|) ``topology_check`` may
# be priced at: (Z/2)^5 is 4.5M (about 50 s on one core), (Z/2)^6 511M
TOPOLOGY_CELL_LIMIT = 1 << 23


class SpectrumReport:
    """The enumerated approximate primes plus how they were found."""

    def __init__(self, ring, cl, primes, method):
        self.ring = ring
        self.cl = cl
        self.primes = primes
        self.method = method

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
    proper, approximately prime.  Over the integers the modular closed form
    is used and re-derived by a bounded candidate sweep; the plain span
    closure gives the classically bounded enumeration {(0)} + small primes.
    The sweep re-derives the candidates (d), d <= z_bound: there the two
    must agree (InvariantError otherwise), and a z_bound below m's largest
    prime is refused with PreconditionError, as the sweep cannot reach it.
    """
    if isinstance(ring, IntegerRing):
        m = _z_shift_modulus(cl)
        bound = z_bound if z_bound is not None else max(1000, m)
        if m == 0:
            primes = [PrincipalSubgroup(0)] + [
                PrincipalSubgroup(p) for p in range(2, bound + 1) if is_prime(p)]
            return SpectrumReport(ring, cl, primes, "bounded-enumeration")
        if m == 1:
            return SpectrumReport(ring, cl, [], "closed-form")
        # the sweep first: it is priced, and refused, before m is factored
        swept = z_prime_bruteforce_grid(m, bound)
        brute = [PrincipalSubgroup(int(d)) for d in np.flatnonzero(swept)]
        closed = [PrincipalSubgroup(p) for p in prime_factors(m)]
        inside = [p for p in closed if p.d <= bound]
        if inside != brute:
            raise InvariantError(
                f"closed form and bounded sweep disagree for m={m}: "
                f"{[p.d for p in inside]} vs {[p.d for p in brute]}")
        if inside != closed:
            raise PreconditionError(
                f"the bound {bound} is below the prime {closed[-1].d} of "
                f"m={m}: the sweep over (d), d <= {bound}, cannot confirm it")
        return SpectrumReport(ring, cl, closed, "closed-form+bounded-sweep")

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
    subcover of the full basic-open cover.  The laws' walk over all pairs
    of the ideal pool and the basic opens D(f), one closure each, are
    priced first, at (pool^2 + opens) x |R| cells (|R| = 1 over Z), and
    refused with ResourceLimitError past TOPOLOGY_CELL_LIMIT.

    D(f) = {P : cl(<f>) not inside cl(P)} depends on f only through
    cl(<f>).  So each f of the pool is closed once, and each distinct
    closure value builds its open once.  The T0 marks are taken over the
    distinct opens: two points agree on every D(f) iff they agree on every
    distinct one, since each D(f) is one of them, so the equality relation
    and the first (P, Q) counterexample are those of the per-f marks.  The
    subcover walks the pool in order, so it picks the same f.
    """
    verdicts = []
    pool = _ideal_pool(spec, z_ideal_bound)
    if isinstance(spec.ring, IntegerRing):
        top = max(_z_shift_modulus(spec.cl), 30)
        f_pool = [*range(top + 1), *(p.d for p in spec.primes if p.d > top)]
    else:
        f_pool = sorted(spec.ring.elements(), key=sort_key)
    price(f"the topology walk over ({len(pool)}^2 ideal pairs + "
          f"{len(f_pool)} basic opens) x |R|",
          (len(pool) ** 2 + len(f_pool)) * (spec.ring.cardinality() or 1),
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

    inter_ce = None
    union_ce = None
    for i, j in itertools.product(range(len(pool)), repeat=2):
        if inter_ce is None and \
                v_members(pool[i] + pool[j]) != v_pool[i] & v_pool[j]:
            inter_ce = {"I": repr(pool[i]), "J": repr(pool[j])}
        if union_ce is None:
            prod = approx_product(approx[i], approx[j])
            if v_members(prod) != v_pool[i] | v_pool[j]:
                union_ce = {"I": repr(pool[i]), "J": repr(pool[j]),
                            "V(IJ)": v_set(spec, prod).labels(spec.ring)}
        if inter_ce is not None and union_ce is not None:
            break
    # for small pools also sweep three-member families of the sum law
    inter_mode = f"{len(pool)} ideals, all pairs"
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
                            mode=f"{len(pool)} ideals, all pairs"))

    # boundary cases: V(0) is everything, V(R) is empty
    v_zero = v_set(spec, subgroup_generated(spec.ring, []))
    v_whole = v_set(spec, whole_subgroup(spec.ring))
    verdicts.append(Verdict(
        "V(0)-is-whole-space", len(v_zero) == len(spec.primes)))
    verdicts.append(Verdict("V(R)-is-empty", len(v_whole) == 0))

    # T0: no two points lie in exactly the same basic opens; one open per
    # distinct cl(<f>)
    primes = list(spec.primes)
    distinct = {}
    opens = []
    for f in f_pool:
        clf = _closure_of(spec, [f])
        if clf not in distinct:
            distinct[clf] = {p for p, clp in zip(primes, spec.prime_closures)
                             if not clf <= clp}
        opens.append(distinct[clf])
    marks = [tuple(p in op for op in distinct.values()) for p in primes]
    t0_ce = next(({"P": repr(p), "Q": repr(primes[j])}
                  for i, p in enumerate(primes)
                  for j in range(i + 1, len(primes)) if marks[i] == marks[j]),
                 None)
    verdicts.append(Verdict("T0", t0_ce is None, t0_ce,
                            mode=f"{len(f_pool)} basic opens"))

    # T1 computed two independent ways
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
    # are all cl-closed, and whether every proper cl-closed ideal in the
    # pool sits under some prime
    primes_closed = all(clp == p for p, clp in zip(primes,
                                                   spec.prime_closures))
    under = all(any(a <= p for p in primes) for a in pool
                if not a.is_whole() and _closure_of(spec, a) == a)
    verdicts.append(Verdict(
        "closed-primes-report", True,
        details={"all-primes-cl-closed": primes_closed,
                 "closed-ideals-under-primes": under}))
    return verdicts
