"""Approximate ideals and primes, quotient rings, and hom transfer.

An approximate ideal is an additive subgroup whose products with ring
elements land in its closure (absorption into cl(I), not into I itself).
Primality likewise tests products against the closure: xy in cl(P) forces
x in P or y in P.  On finite rings everything is decided exhaustively on
the subgroup lattice's index tables (products from ``act_table``, subgroups
carried along a hom as bool rows through its index map); on the integers
the modular closures admit closed forms which are cross-checked by
bounded brute force.
"""

from __future__ import annotations

import math

import numpy as np

from . import closures
from .closures import (
    GeneratedIdealClosure,
    IdealShiftClosure,
    QuotientModule,
    SetShiftClosure,
    closure_eval,
    closure_image_compatible,
    closure_preimage_compatible,
)
from .closures import _chunks, _first_unabsorbed, _first_violation, _hom_map
from .closures import _image_rows
from .errors import DomainMismatchError, PreconditionError, price
from .reports import Verdict
from .rings import (
    ElementSet,
    FiniteSubgroup,
    IdealRep,
    IntegerRing,
    PrincipalSubgroup,
    ResidueRing,
    TableRing,
    _bits,
    enumerate_subgroups,
    ideal_classical_product,
    ideal_from_subgroup,
    is_prime,
    subgroup_generated,
    subgroup_lattice,
    whole_subgroup,
)


def _z_shift_modulus(cl):
    """The shift modulus of a closure over Z (0 for the plain ideal span)."""
    if isinstance(cl, GeneratedIdealClosure):
        return 0
    if isinstance(cl, (IdealShiftClosure, SetShiftClosure)):
        return cl.shift_ideal.canonical.d
    raise PreconditionError(f"{cl.name} closure is unsupported over Z")


class ApproxIdeal:
    """An additive subgroup packaged with its closure operator."""

    def __init__(self, base, cl, check=True):
        self.base = base
        self.cl = cl
        self.ring = cl.ring
        if check:
            ok, ce = is_approx_ideal(base, cl)
            if not ok:
                raise PreconditionError(f"not an approximate ideal: {ce}")
        self.closure = closure_eval(cl, base)

    def is_proper(self):
        return not self.base.is_whole()

    def is_closed(self):
        """Whether cl(I) = I."""
        return _carrier(self.closure) == self.base

    def __eq__(self, other):
        return (isinstance(other, ApproxIdeal) and self.ring == other.ring
                and self.base == other.base)

    def __hash__(self):
        return hash((self.ring, self.base))

    def __repr__(self):
        return f"ApproxIdeal({self.base!r})"


def is_approx_ideal(s, cl):
    """(verdict, counterexample): s a subgroup with R*s inside cl(s)."""
    ring = cl.ring
    if isinstance(s, PrincipalSubgroup):
        # absorption over Z: r*(d) = (d), so the condition is d in cl((d))
        d = s.d
        g = cl.z_principal_image(d)
        if PrincipalSubgroup(g).contains(d):
            return True, None
        return False, {"reason": "absorption", "r": 1, "s": d, "witness": d}
    lat = subgroup_lattice(ring)
    mask = lat.mask(s)
    if not lat.is_subgroup(mask):
        return False, {"reason": "not-a-subgroup", "S": lat.listed(mask)}
    hit = _first_unabsorbed(ring, mask, cl.eval_mask(mask))
    if hit is None:
        return True, None
    r, x, p = hit
    return False, {"reason": "absorption", "r": r, "s": x, "witness": p}


def is_approx_prime(p, cl, check_ideal=True):
    """(verdict, counterexample) for: xy in cl(P) implies x in P or y in P.

    Preconditions (raised as errors, with the cause named): P must be an
    approximate ideal and a proper subset of the ring.  A closure equal to
    the whole ring yields verdict False with the witness pair (1, 1).
    """
    ring = cl.ring
    if check_ideal:
        ok, ce = is_approx_ideal(p, cl)
        if not ok:
            raise PreconditionError(f"not an approximate ideal: {ce}")

    if isinstance(p, PrincipalSubgroup):
        d = p.d
        if d == 1:
            raise PreconditionError("improper: P = (1) is the whole ring")
        m = _z_shift_modulus(cl)
        g = math.gcd(d, m)
        if g == 1:
            return False, {"reason": "closure-is-whole-ring", "x": 1, "y": 1}
        ok = d == 0 or is_prime(d) if m == 0 else is_prime(d) and m % d == 0
        if ok:
            return True, None
        return False, _z_prime_counterexample(d, g)

    if p.is_whole():
        raise PreconditionError("improper: P is the whole ring")
    lat = subgroup_lattice(ring)
    p_mask = lat.mask(p)
    cl_mask = cl.eval_mask(p_mask)
    if cl_mask.bit_count() >= lat.n:
        # such P can never be approximately prime; witness (1, 1)
        return False, {"reason": "closure-is-whole-ring",
                       "x": ring.one, "y": ring.one}
    # x y for x, y outside P in index order, from the act rows of such x
    p_row, cl_row = lat.rows([p_mask, cl_mask])
    out = np.flatnonzero(~p_row)
    step = max(1, closures.LIST_GRID // lat.n)
    for lo in range(0, len(out), step):
        prods = lat.act_table(out[lo:lo + step])[:, out]
        pos = _first_violation(cl_row[prods])
        if pos is not None:
            x, y = pos
            return False, {"x": lat.elems[out[lo + x]], "y": lat.elems[out[y]],
                           "product": lat.elems[prods[x, y]]}
    return True, None


def _z_prime_counterexample(d, g):
    """A concrete witness pair for a non-prime principal candidate over Z."""
    if d == 0:
        return {"x": g, "y": 1, "product": g}
    if g < d:
        return {"x": g, "y": g, "product": g * g}
    # g == d, d composite: split d = a*b
    for a in range(2, d):
        if d % a == 0:
            return {"x": a, "y": d // a, "product": d}
    return {"x": 1, "y": 1, "product": 1}


def z_prime_bruteforce(cl, d, bound=None):
    """Definition-based bounded check that (d) is approximately prime over Z.

    Scans x in [1, bound]; for each x not in (d) the witnesses y form the
    multiples of g / gcd(x, g), so the scan is exact over the quantified
    box [-bound, bound]^2 without iterating all pairs.
    """
    if d == 1:
        raise PreconditionError("improper: P = (1)")
    m = _z_shift_modulus(cl)
    g = math.gcd(d, m)
    if bound is None:
        bound = max(2 * m, 2 * d, 16)
    if g == 0:
        # cl(P) = (0): xy = 0 never holds for nonzero x, y
        return True, None
    for x in range(1, bound + 1):
        if d != 0 and x % d == 0:
            continue
        if d == 0 and x == 0:
            continue
        y0 = g // math.gcd(x, g)
        if y0 > bound:
            continue
        if d == 0 or y0 % d != 0:
            return False, {"x": x, "y": y0, "product": x * y0}
    return True, None


def z_prime_bruteforce_grid(m, d_max, bound=None):
    """Verdicts for all candidates (d), d = 0..d_max, by a bounded sweep.

    Same decision as ``z_prime_bruteforce`` for the modular closure with
    modulus m, over the box of rows d = 0..d_max and columns x = 1..bound.
    Cell (d, x) violates when x is not in (d), y0 = g / gcd(x, g) with
    g = gcd(d, m) is nonzero and at most bound, and y0 is not in (d); the
    verdict of (d) is that no cell of its row violates, except that (1),
    the whole ring, is never a candidate.

    The rows are taken in chunks of at most ``closures.PAIR_GRID``.  In a
    chunk the columns are walked in blocks that start at one column and
    double, each capped at PAIR_GRID cells (live rows x width), and each is
    evaluated only on the rows with no violation yet; a row leaves at the
    block holding its first violating cell.  This is exact: a row's
    verdict is the negated OR of its cells.  The blocks partition 1..bound,
    so a row that never leaves has had every cell evaluated, all false;
    a row leaves only once one of its cells is true, and then its OR is
    true whatever the cells it skips hold.  Row 1 is not walked, since its
    verdict is fixed without its cells.  So every verdict is the one the
    dense box gives, and no more than PAIR_GRID cells are held at once.

    The walk is priced before anything is allocated (``_z_sweep_cells``);
    beyond ``closures.Z_SWEEP_CELL_LIMIT`` cells it raises
    ResourceLimitError.  It computes in int64, so an m, d_max or bound
    beyond 2^63 - 1 raises PreconditionError before pricing.
    """
    if bound is None:
        bound = max(2 * m, 16)
    if max(abs(m), d_max, bound) > np.iinfo(np.int64).max:
        raise PreconditionError(
            f"candidate sweep for m={m} over d <= {d_max}, x <= {bound} "
            f"computes in int64: each must be at most 2^63 - 1")
    price(f"the candidate sweep for m={m} over d <= {d_max}, x <= {bound}",
          _z_sweep_cells(m, d_max, bound), closures.Z_SWEEP_CELL_LIMIT,
          "cells")
    grid = closures.PAIR_GRID
    verdict = np.ones(d_max + 1, dtype=bool)
    for lo in range(0, d_max + 1, grid):
        d = np.arange(lo, min(lo + grid, d_max + 1), dtype=np.int64)
        d = d[d != 1]
        g = np.gcd(d, m)
        x, width = 1, 1
        while x <= bound and len(d):
            width = min(width, bound - x + 1, max(1, grid // len(d)))
            hit = _z_sweep_block(d, g, x, x + width, bound)
            verdict[d[hit]] = False
            d, g = d[~hit], g[~hit]
            x += width
            width *= 2
    if d_max >= 1:
        verdict[1] = False
    return verdict


def _z_sweep_block(d, g, x0, x1, bound):
    """For each row d (with g = gcd(d, m)): whether a cell x in [x0, x1)
    violates, by the cell formula of ``z_prime_bruteforce_grid``."""
    dd = d[:, None]
    gg = g[:, None]
    xx = np.arange(x0, x1, dtype=np.int64)[None, :]
    d_safe = np.where(dd == 0, 1, dd)
    x_not_in_p = np.where(dd == 0, xx != 0, xx % d_safe != 0)
    y0 = gg // np.gcd(xx, np.where(gg == 0, 1, gg))
    y0_ok = (gg != 0) & (y0 <= bound)
    y_not_in_p = np.where(dd == 0, y0 != 0, y0 % d_safe != 0)
    return (x_not_in_p & y0_ok & y_not_in_p).any(axis=1)


def _z_sweep_cells(m, d_max, bound):
    """An upper bound on the cells ``z_prime_bruteforce_grid`` evaluates.

    Column x = 1 on every walked row, then on each row column 1 cannot rule
    out, the further columns up to the block holding its first violation.
    Block widths start at 1 and at most double, so no block is wider than
    the columns before it, and a row with a violation at column c leaves by
    column 2c - 1.  At x = 1, y0 = g, so column 1 rules out row d != 1
    exactly when g = gcd(d, m) is nonzero, g <= bound and (d) does not
    contain g.  It keeps every row when m = 0.  Otherwise it keeps:
    d = 0 when m > bound; the divisors d >= 2 of m (there g = d); and the
    rows with g > bound, each a multiple of its g, a divisor of m above
    bound with at most d_max // g - 1 such multiples besides itself.  A
    divisor d with least prime factor p < d violates at (d, p) when p and
    d / p are at most bound, so it is priced at 2p - 1 columns; every
    other kept row at all bound columns.  The divisors of m up to d_max
    come from trial division up to min(d_max, isqrt(m)), once column 1
    alone is within the limit.
    """
    if bound < 1:
        return 0
    rows = max(d_max, 1)  # every row but d = 1
    if m == 0:
        return rows * bound
    if rows > closures.Z_SWEEP_CELL_LIMIT:
        return rows
    divisors = set()
    for e in range(1, min(d_max, math.isqrt(m)) + 1):
        if m % e == 0:
            divisors.update(k for k in (e, m // e) if k <= d_max)
    cells = rows + int(m > bound) * (bound - 1)
    primes = []
    for e in sorted(divisors - {1}):
        p = next((q for q in primes if e % q == 0), None)
        if p is None:
            primes.append(e)
            cols = bound
        elif p <= bound and e // p <= bound:
            cols = min(2 * p - 1, bound)
        else:
            cols = bound
        cells += cols - 1
        if e > bound:
            cells += (d_max // e - 1) * (bound - 1)
    return cells


def approx_product(a, b):
    """AB = cl(<ab : a in A, b in B>), the closure of the spanned products."""
    if a.ring != b.ring:
        raise DomainMismatchError("approximate ideals over different rings")
    if a.cl is not b.cl and a.cl.describe() != b.cl.describe():
        raise DomainMismatchError("approximate ideals carry different closures")
    span = ideal_classical_product(ideal_from_subgroup(a.base),
                                   ideal_from_subgroup(b.base))
    return closure_eval(a.cl, span)


# ---------------------------------------------------------------------------
# quotient rings


class QuotientRing:
    """R / cl(I): congruence classes x ~ y iff x - y in cl(I).

    Finite rings carry explicit classes, the well-definedness verdicts and,
    when these pass, a ``TableRing`` model on the tables they read; over
    the integers, the modulus g of cl(I) and, for g > 0, the model Z/(g).
    """

    def __init__(self, ring, ideal, classes, model, modulus=None,
                 verdicts=None):
        self.ring = ring
        self.ideal = ideal
        self.classes = classes
        self.model = model
        self.modulus = modulus
        self.verdicts = verdicts or []

    def class_count(self):
        if self.classes is not None:
            return len(self.classes)
        return None if self.modulus == 0 else self.modulus

    def ok(self):
        return all(v.passed for v in self.verdicts)

    def __repr__(self):
        n = self.class_count()
        size = "infinitely many" if n is None else n
        return f"<quotient of {self.ring} with {size} classes>"


def quotient_ring(ring, ideal):
    """Build R/I for an approximate ideal, verifying well-definedness."""
    if not isinstance(ideal, ApproxIdeal):
        raise PreconditionError(
            f"quotient_ring needs an ApproxIdeal, not {type(ideal).__name__}")
    if ideal.ring != ring:
        raise DomainMismatchError("ideal lives in a different ring")
    ok, ce = is_approx_ideal(ideal.base, ideal.cl)
    if not ok:
        raise PreconditionError(f"absorption fails: {ce}")

    if isinstance(ring, IntegerRing):
        g = ideal.closure.canonical.d
        if g >= 2:
            model = ResidueRing(g)
        elif g == 1:
            model = TableRing("0-ring", [0], [[0]], [[0]], 0, 0)
        else:
            model = None  # Z itself; infinitely many classes
        return QuotientRing(ring, ideal, None, model, modulus=g)

    clset = _carrier(ideal.closure)
    if not isinstance(clset, FiniteSubgroup):
        raise PreconditionError(
            "cl(I) is not an additive subgroup; classes do not partition")

    # the classes are the cosets x + cl(I), on the ring's lattice
    q = QuotientModule(ring, whole_subgroup(ring), clset,
                       [Verdict("congruence-classes-partition", True)])
    q.check_operations()
    model = None
    if q.ok():
        # the tables check_operations read, as class numbers (narrowest type)
        lat, reps = subgroup_lattice(ring), q.reps()
        at = np.flatnonzero(q.labels == np.arange(lat.n))
        number = np.searchsorted(at, q.labels).astype(np.min_scalar_type(-lat.n))
        model = TableRing(
            f"{ring.spec_string()}/cl(I)", reps,
            number[lat.add_table[at[:, None], at]],
            number[lat.act_table(at)[:, at]], q.zero, q.rep_of[ring.one],
            [f"[{ring.format_element(v)}]" for v in reps])
        q.verdicts.append(Verdict("ring-axioms", _ring_axioms_hold(model)))
    return QuotientRing(ring, ideal, q.classes, model, verdicts=q.verdicts)


def _ring_axioms_hold(ring):
    """The commutative-ring laws over a finite ring, on index tables of its
    own operations (``add[a, b]`` is a + b, ``mul[a, b]`` is a b).  The
    ring's lattice has checked + to be an abelian group before its add
    table is read (``rings._Lattice``), and a refusal is False here.  Left
    are a product that names an element, its unit and commutativity,
    whole, then distributivity and associativity of the product with the
    middle slot b over the additive ``generators`` G only, n^2 cells each:

    * the b with a (b + c) = a b + a c for all a, c are closed under +:
      a ((b + b') + c) = a (b + (b' + c)) = a b + a (b' + c)
      = a b + (a b' + a c) = (a b + a b') + a c = a (b + b') + a c;
    * given distributivity, and the product commutative, the b with
      (a b) c = a (b c) for all a, c are closed under +:
      (a (b + b')) c = (a b + a b') c = (a b) c + (a b') c
      = a (b c) + a (b' c) = a (b c + b' c) = a ((b + b') c).

    Both sets hold G, so each holds every sum of generators, and that is
    every element: 0 = t g for a generator g of order t, and a ring with
    no generators is {0}."""
    lat = subgroup_lattice(ring)
    try:
        add = lat.add_table
    except PreconditionError:
        return False
    # the narrowest signed index type (-1: no element) keeps n^2 temps small
    dtype = np.min_scalar_type(-lat.n)
    add, mul = add.astype(dtype), lat.act_table().astype(dtype)
    every = np.arange(lat.n)
    if not ((mul >= 0).all() and (mul[:, lat.index[ring.one]] == every).all()
            and (mul == mul.T).all()):
        return False
    return all(
        (mul[:, add[g]] == add[mul[:, g, None], mul]).all()
        and (mul[mul[:, g]] == mul[:, mul[g]]).all() for g in lat.generators)


# ---------------------------------------------------------------------------
# the factorization property for closed primes


class FactorizationVerdict:
    """Hypotheses and conclusion of the closed-prime factorization check."""

    def __init__(self, hypotheses, conclusion_holds):
        self.hypotheses = hypotheses
        self.conclusion_holds = conclusion_holds

    @property
    def hypotheses_hold(self):
        return all(self.hypotheses.values())

    @property
    def theorem_respected(self):
        return (not self.hypotheses_hold) or self.conclusion_holds

    def __repr__(self):
        return (f"<factorization hyps={self.hypotheses} "
                f"conclusion={self.conclusion_holds}>")


def factorization_check(a, b, c):
    """Check: A = BC with A a cl-closed approximate prime forces B or C
    inside A.  All hypotheses are reported; a hypothesis-satisfying
    counterexample to the conclusion would falsify the theorem.
    """
    prime_ok, _ = is_approx_prime(a.base, a.cl, check_ideal=False) \
        if a.is_proper() else (False, None)
    product = approx_product(b, c)
    hyps = {
        "A-proper": a.is_proper(),
        "B-proper": b.is_proper(),
        "C-proper": c.is_proper(),
        "A-prime": prime_ok,
        "A-closed": a.is_closed(),
        "A-equals-BC": _carrier(product) == a.base,
    }
    conclusion = b.base <= a.base or c.base <= a.base
    return FactorizationVerdict(hyps, conclusion)


def _carrier(value):
    """The subgroup or plain set behind a ``closure_eval`` result."""
    return value.canonical if isinstance(value, IdealRep) else value


# ---------------------------------------------------------------------------
# approximate prime rings


def is_approx_prime_ring(ring, cl):
    """Whether (0) is an approximate prime ideal of the ring."""
    if isinstance(ring, IntegerRing):
        m = _z_shift_modulus(cl)
        if m == 0:
            return True, None
        return False, {"x": m, "y": 1, "product": m}
    zero_sub = FiniteSubgroup(ring, {ring.zero}, check=False)
    return is_approx_prime(zero_sub, cl, check_ideal=False)


def check_thm_ring_prime(ring, cl, z_bound=None):
    """Both sides of the prime-ring characterization, computed independently.

    Side one: (0) approximately prime.  Side two: for all nonzero a, b the
    set aRb is not contained in cl(0).  Returns the equivalence verdict.
    """
    side1, ce1 = is_approx_prime_ring(ring, cl)
    if isinstance(ring, IntegerRing):
        m = _z_shift_modulus(cl)
        bound = z_bound or max(2 * m, 12)
        side2 = True
        ce2 = None
        for a in range(1, bound + 1):
            for b in range(1, bound + 1):
                # aZb = abZ; contained in (m) iff m | ab (or ab = 0 for m = 0)
                ab = a * b
                contained = ab == 0 if m == 0 else ab % m == 0
                if contained:
                    side2 = False
                    ce2 = {"a": a, "b": b}
                    break
            if not side2:
                break
    else:
        ce2 = _zero_sandwich(ring, cl)
        side2 = ce2 is None
    agree = side1 == side2
    return Verdict("prime-ring-characterization", agree,
                   None if agree else {"prime-ring": side1, "condition": side2,
                                       "ce1": ce1, "ce2": ce2},
                   details={"prime-ring": side1, "condition": side2})


def _zero_sandwich(ring, cl):
    """The first nonzero (a, b) in index order with aRb inside cl(0), or
    None: each (a r) b read off the act table, rows a in chunks."""
    lat = subgroup_lattice(ring)
    act = lat.act_table()
    (cl0,) = lat.rows([cl.eval_mask(1 << lat.zero)])
    nonzero = np.flatnonzero(np.arange(lat.n) != lat.zero)
    for lo, hi in _chunks(len(nonzero), lat.n * len(nonzero)):
        a = nonzero[lo:hi]
        pos = _first_violation(cl0[act[act[a]][:, :, nonzero]].all(1))
        if pos is not None:
            return {"a": lat.elems[a[pos[0]]], "b": lat.elems[nonzero[pos[1]]]}
    return None


# ---------------------------------------------------------------------------
# transfer along ring homomorphisms


def preimage_transfer(f, j, cl_src, cl_dst):
    """Pull an approximate ideal back along f, with primeness when it holds.

    Requires machine-verified functoriality of f for the closure pair; the
    returned verdicts record the ideal and primeness checks on f^{-1}(J).
    """
    img = closure_image_compatible(f, cl_src, cl_dst)
    pre = closure_preimage_compatible(f, cl_src, cl_dst)
    if not (img.passed and pre.passed):
        raise PreconditionError(
            "functoriality unverified: "
            f"image={img.passed}, preimage={pre.passed}")

    pre_base = _preimage_subgroup(f, j.base)
    verdicts = []
    ok, ce = is_approx_ideal(pre_base, cl_src)
    verdicts.append(Verdict("preimage-is-approx-ideal", ok, ce))
    j_prime, _ = _prime_or_false(j.base, cl_dst)
    if j_prime:
        ok_p, ce_p = _prime_or_false(pre_base, cl_src)
        verdicts.append(Verdict("preimage-is-approx-prime", ok_p, ce_p))
    out = ApproxIdeal(pre_base, cl_src, check=False)
    return out, verdicts


def image_transfer(f, i, cl_src, cl_dst):
    """Push an approximate ideal forward along a surjection.

    Also verifies the pullback identity f^{-1}(f(A)) = A + Ker f on the
    tested subgroups; the primeness clause runs only when Ker f lies inside
    the ideal and f is preimage-compatible.
    """
    if not f.is_surjective():
        raise PreconditionError("image transfer needs a surjective hom")
    img = closure_image_compatible(f, cl_src, cl_dst)
    if not img.passed:
        raise PreconditionError("functoriality unverified: image compatibility")

    img_base = _image_subgroup(f, i.base)
    verdicts = []
    ok, ce = is_approx_ideal(img_base, cl_dst)
    verdicts.append(Verdict("image-is-approx-ideal", ok, ce))

    verdicts.append(_pullback_identity_verdict(f))

    kernel_inside = f.kernel() <= i.base
    i_prime, _ = _prime_or_false(i.base, cl_src)
    pre_ok = closure_preimage_compatible(f, cl_src, cl_dst).passed
    if kernel_inside and i_prime and pre_ok:
        ok_p, ce_p = _prime_or_false(img_base, cl_dst)
        verdicts.append(Verdict("image-is-approx-prime", ok_p, ce_p))
    else:
        verdicts.append(Verdict(
            "image-primeness-clause-skipped", True, details={
                "kernel-inside": kernel_inside, "ideal-prime": i_prime,
                "preimage-compatible": pre_ok}))
    out = ApproxIdeal(img_base, cl_dst, check=False)
    return out, verdicts


def _prime_or_false(base, cl):
    """is_approx_prime, but improper/non-ideal inputs yield False quietly."""
    try:
        return is_approx_prime(base, cl)
    except PreconditionError:
        return False, {"reason": "precondition"}


def _preimage_subgroup(f, base):
    if isinstance(f.src, IntegerRing):
        return PrincipalSubgroup(math.gcd(f.dst.n, *base.values))
    src, dst, img = _hom_map(f)
    (pre,) = dst.rows([dst.mask(base)])
    return FiniteSubgroup.from_mask(f.src, src.row_mask(pre[img]))


def _image_subgroup(f, base):
    if isinstance(base, PrincipalSubgroup):
        return subgroup_generated(f.dst, [f.apply(base.d)])
    src, dst, img = _hom_map(f)
    image = _image_rows(img, src.rows([src.mask(base)])[0], dst.n)
    # checked: an unchecked ApproxIdeal may hold a plain set
    return FiniteSubgroup(f.dst, ElementSet.from_mask(f.dst,
                                                      dst.row_mask(image)))


def _pullback_identity_verdict(f):
    """f^{-1}(f(A)) = A + Ker f over the tested subgroup domain.  Over Z,
    A = (d) for d <= 60: the left side is the gcd of the x in [0, 2n] that
    f sends into <f(d)>, the right (d) + (n).  On a finite ring both are
    bool rows, A + Ker f the union of A's translates by the kernel."""
    if isinstance(f.src, IntegerRing):
        n = f.dst.n
        window = range(2 * n + 1)
        values = [f.apply(x) for x in window]
        for d in range(61):
            target = closures._z_image_of_principal(f, d)
            lhs = math.gcd(*(x for x, v in zip(window, values) if v in target))
            if lhs != math.gcd(d, n):
                return Verdict("pullback-identity", False, {"A": f"({d})"})
        return Verdict("pullback-identity", True, mode="(d) for d <= 60")
    subs = enumerate_subgroups(f.src)
    src, dst, img = _hom_map(f)
    rows = src.rows([sub.mask for sub in subs])
    lhs = _image_rows(img, rows, dst.n)[:, img]
    rhs = rows[:, src.neg_add_table[_bits(f.kernel().mask)]].any(1)
    pos = _first_violation((lhs != rhs).any(1))
    if pos is not None:
        return Verdict("pullback-identity", False,
                       {"A": subs[pos[0]].sorted_values()})
    return Verdict("pullback-identity", True, mode="all subgroups")
