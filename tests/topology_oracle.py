"""The topology checker the distinct-open T0 walk is tested against.

``topology_check`` is ``spectrum.topology_check`` as it was written before
it built one basic open per distinct closure value: one ``d_set`` per
element of the f pool, and the T0 marks over every one of those opens.
It reads the spectrum module's helpers, so only the basic-open walk
differs from the function it checks."""

import itertools

from approxalg.errors import ResourceLimitError
from approxalg.ideals import (
    ApproxIdeal,
    _carrier,
    _z_shift_modulus,
    approx_product,
)
from approxalg.reports import Verdict
from approxalg.rings import (
    IntegerRing,
    sort_key,
    subgroup_generated,
    whole_subgroup,
)
from approxalg.spectrum import (
    TOPOLOGY_CELL_LIMIT,
    _closure_of,
    _ideal_pool,
    _primes_over,
    closure_of_point,
    d_set,
    v_set,
)


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
    """
    verdicts = []
    pool = _ideal_pool(spec, z_ideal_bound)
    if isinstance(spec.ring, IntegerRing):
        top = max(_z_shift_modulus(spec.cl), 30)
        f_pool = [*range(top + 1), *(p.d for p in spec.primes if p.d > top)]
    else:
        f_pool = sorted(spec.ring.elements(), key=sort_key)
    cells = (len(pool) ** 2 + len(f_pool)) * (spec.ring.cardinality() or 1)
    if cells > TOPOLOGY_CELL_LIMIT:
        raise ResourceLimitError(
            f"topology priced at {cells} cells (({len(pool)}^2 ideal pairs "
            f"+ {len(f_pool)} basic opens) x |R|), past the limit "
            f"{TOPOLOGY_CELL_LIMIT}")
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

    # T0: no two points lie in exactly the same basic opens
    opens = {f: set(d_set(spec, f)) for f in f_pool}
    primes = list(spec.primes)
    marks = [tuple(p in op for op in opens.values()) for p in primes]
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
    for f in f_pool:
        if not remaining:
            break
        if opens[f] & remaining:
            cover.append(f)
            remaining -= opens[f]
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
