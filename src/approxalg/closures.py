"""Declarative closure operators on subsets of a ring, and their checkers.

Variants
--------
* ``gen``        -- cl(A) = <A>, the generated ideal.
* ``shift``      -- cl(A) = <A> + J for a fixed ideal J (the modular model).
* ``setshift``   -- cl(A) = A + J elementwise (no span taken).
* ``pointwise``  -- function rings only: cl(A) = all functions vanishing on
                    the common zero set of A.
* ``sample``     -- membership only: vanishing on V(A) intersected with each
                    sample set of a covering family.
* ``tol``        -- membership only, over integer-coefficient polynomials:
                    bounded evaluation at configured points of V(A).
* ``union-fixed`` -- diagnostic operator cl(A) = A | F; deliberately breaks
                    the compatibility axioms so checkers can be exercised.

``check_axioms`` verifies extensivity (C1), monotonicity (C2), idempotence
(C3), additive compatibility (C4a), balanced multiplicativity (C4b), and
subgroup absorption.  The additivity check sums 0-augmented operands: for
span-based operators the raw set-sum of 0-free sets falsifies C4a (e.g.
A = B = {2} in Z/12), while every use of the axiom in the verified theorems
applies it to subgroups; augmenting by 0 restores exactly that reading.

Exhaustive subset runs encode subsets of a finite ring as bitmasks inside
numpy arrays and tabulate the closure over every subset.  A closure that
declares a ``join`` (the span, shift, set-shift and union variants) is
evaluated n + 1 times, on the empty set and on each singleton, and the
table is filled by that join, one numpy pass per element
(``FiniteDomain.closure_vector``); any other closure is evaluated once per
subset.  The unary axioms are one sweep over that table; the pairwise
axioms C2 and C4a are decided by exact reductions of the all-pairs domain
(a superset meet for C2, and fiber-minimal subsets for C4a), proved in
``check_axioms_finite``.  Their counterexamples are the first violating
pair in row-major mask order; the C4a rows are walked in chunks that start
at one row and double, so an early counterexample costs one small chunk.
"""

from __future__ import annotations

import math
import random
import weakref
from fractions import Fraction

import numpy as np

from . import polynomials as poly
from .errors import (
    ClosureNotSetValuedError,
    DomainMismatchError,
    PreconditionError,
    ResourceLimitError,
)
from .reports import AxiomReport, Verdict
from .rings import (
    ElementSet,
    FiniteSubgroup,
    FunctionRing,
    IdealRep,
    IntegerRing,
    PrincipalSubgroup,
    ProductRing,
    Z,
    enumerate_subgroups,
    ideal_closure_set,
    is_additive_subgroup,
    sort_key,
)

EXHAUSTIVE_SUBSET_CAP = 1 << 16
DEFAULT_Z_GEN_BOUND = 1000
DEFAULT_Z_MULT_BOUND = 100
DEFAULT_SAMPLE_COUNT = 2000
# seed constant derived from the ASCII bytes of "A1GEBRA"
DEFAULT_SEED = int.from_bytes(b"A1GEBRA", "big")

POINT_GUARD = 4096
# pairs per chunk of the exhaustive engine's C4a grid
PAIR_GRID = 1 << 20


class IntPolyContext:
    """Stand-in domain for tolerance closures: Z[x1..xn] polynomials."""

    is_finite = False

    def __init__(self, nvars):
        self.nvars = nvars

    def spec_string(self):
        return f"ZPoly:n={self.nvars}"

    def __repr__(self):
        return self.spec_string()

    def __eq__(self, other):
        return isinstance(other, IntPolyContext) and self.nvars == other.nvars

    def __hash__(self):
        return hash(("IntPolyContext", self.nvars))


def _is_integer_lattice(ring):
    return isinstance(ring, ProductRing) and not ring.is_finite


class ClosureSpec:
    """Base class: a declarative closure operator over one ring.

    ``join`` names how cl(A | {x}) follows from cl(A) and cl({x}):
    ``"sum"`` (their set-sum), ``"union"`` (their union), or None when no
    such rule holds.  ``FiniteDomain.closure_vector`` builds its table from
    it, so a subclass that changes ``eval_set`` restates ``join``.
    """

    name = "?"
    set_valued = True
    join = None

    def __init__(self, ring):
        self.ring = ring

    # finite rings: frozenset -> frozenset
    def eval_set(self, values):
        raise PreconditionError(f"{self.name} closure has no set evaluation here")

    # integers: generator of cl(dZ)
    def z_principal_image(self, d):
        raise PreconditionError(f"{self.name} closure is unsupported over Z")

    def z_principal_image_vec(self, d_array):
        return np.array([self.z_principal_image(int(d)) for d in d_array])

    def member(self, x, values):
        """x in cl(A) for A given as an iterable of canonical values."""
        raise NotImplementedError

    def describe(self):
        return self.name

    def __repr__(self):
        return f"<closure {self.describe()} on {self.ring}>"


class GeneratedIdealClosure(ClosureSpec):
    """cl(A) = <A>: the classical ideal generated by A."""

    name = "gen"
    join = "sum"

    def eval_set(self, values):
        return ideal_closure_set(self.ring, values)

    def z_principal_image(self, d):
        return d

    def z_principal_image_vec(self, d_array):
        return np.asarray(d_array)

    def member(self, x, values):
        ring = self.ring
        if isinstance(ring, IntegerRing):
            g = 0
            for v in values:
                g = math.gcd(g, v)
            return PrincipalSubgroup(g).contains(x)
        if _is_integer_lattice(ring):
            return _lattice_ideal_member(ring, x, values, shift=0)
        return ring.canon(x) in self.eval_set(frozenset(values))


class IdealShiftClosure(ClosureSpec):
    """cl(A) = <A> + J; over integer lattices J is m*Z^k for a scalar m."""

    name = "shift"
    join = "sum"

    def __init__(self, ring, shift_ideal=None, shift_modulus=None):
        super().__init__(ring)
        if _is_integer_lattice(ring):
            if shift_modulus is None or shift_modulus < 1:
                raise PreconditionError(
                    "integer lattices take a scalar shift modulus m >= 1")
            self.shift_modulus = shift_modulus
            self.shift_ideal = None
        else:
            if shift_ideal is None or shift_ideal.ring != ring:
                raise DomainMismatchError("shift ideal must live in the same ring")
            self.shift_ideal = shift_ideal
            self.shift_modulus = None

    def describe(self):
        if self.shift_ideal is not None:
            return f"shift:J={self.shift_ideal!r}"
        return f"shift:J={self.shift_modulus}"

    def eval_set(self, values):
        span = ideal_closure_set(self.ring, values)
        j = self.shift_ideal.canonical.values
        return frozenset(self.ring.add(a, b) for a in span for b in j)

    def z_principal_image(self, d):
        return math.gcd(d, self.shift_ideal.canonical.d)

    def z_principal_image_vec(self, d_array):
        return np.gcd(np.asarray(d_array), self.shift_ideal.canonical.d)

    def member(self, x, values):
        ring = self.ring
        if isinstance(ring, IntegerRing):
            g = self.shift_ideal.canonical.d
            for v in values:
                g = math.gcd(g, v)
            return PrincipalSubgroup(g).contains(x)
        if _is_integer_lattice(ring):
            return _lattice_ideal_member(ring, x, values, self.shift_modulus)
        return ring.canon(x) in self.eval_set(frozenset(values))


class SetShiftClosure(ClosureSpec):
    """cl(A) = A + J elementwise; A is used as given, not spanned."""

    name = "setshift"
    join = "union"

    def __init__(self, ring, shift_ideal=None, shift_modulus=None):
        super().__init__(ring)
        if _is_integer_lattice(ring):
            if shift_modulus is None or shift_modulus < 1:
                raise PreconditionError(
                    "integer lattices take a scalar shift modulus m >= 1")
            self.shift_modulus = shift_modulus
            self.shift_ideal = None
        else:
            if shift_ideal is None or shift_ideal.ring != ring:
                raise DomainMismatchError("shift ideal must live in the same ring")
            self.shift_ideal = shift_ideal
            self.shift_modulus = None

    def describe(self):
        if self.shift_ideal is not None:
            return f"setshift:J={self.shift_ideal!r}"
        return f"setshift:J={self.shift_modulus}"

    def eval_set(self, values):
        j = self.shift_ideal.canonical.values
        return frozenset(self.ring.add(a, b) for a in values for b in j)

    def z_principal_image(self, d):
        # on a subgroup dZ the elementwise sum dZ + mZ is gcd(d, m)Z
        return math.gcd(d, self.shift_ideal.canonical.d)

    def z_principal_image_vec(self, d_array):
        return np.gcd(np.asarray(d_array), self.shift_ideal.canonical.d)

    def member(self, x, values, values_are_subgroup=False):
        ring = self.ring
        if isinstance(ring, IntegerRing):
            m = self.shift_ideal.canonical.d
            if values_are_subgroup:
                g = m
                for v in values:
                    g = math.gcd(g, v)
                return PrincipalSubgroup(g).contains(x)
            return any(PrincipalSubgroup(m).contains(x - v) for v in values)
        if _is_integer_lattice(ring):
            m = self.shift_modulus
            return any(all((xi - vi) % m == 0 for xi, vi in zip(x, v))
                       for v in values)
        return ring.canon(x) in self.eval_set(frozenset(values))


class PointwiseClosure(ClosureSpec):
    """Function rings: cl(A) = every function vanishing where all of A vanish."""

    name = "pointwise"

    def __init__(self, ring):
        if not isinstance(ring, FunctionRing):
            raise PreconditionError("pointwise closure needs a function ring")
        if ring.npoints > POINT_GUARD:
            raise ResourceLimitError(
                f"{ring.npoints} points exceed the guard {POINT_GUARD}")
        super().__init__(ring)

    def _vanishing_points(self, values):
        ring = self.ring
        idxs = range(ring.npoints)
        return tuple(i for i in idxs if all(v[i] == 0 for v in values))

    def eval_set(self, values):
        ring = self.ring
        vpos = set(self._vanishing_points(values))
        free = [i for i in range(ring.npoints) if i not in vpos]
        out = []
        import itertools
        for assign in itertools.product(range(ring.p), repeat=len(free)):
            tab = [0] * ring.npoints
            for pos, val in zip(free, assign):
                tab[pos] = val
            out.append(tuple(tab))
        return frozenset(out)

    def member(self, x, values):
        x = self.ring.canon(x)
        return all(x[i] == 0 for i in self._vanishing_points(values))


class SamplingClosure(ClosureSpec):
    """Membership-only: vanishing on V(A) within each covering sample set."""

    name = "sample"
    set_valued = False

    def __init__(self, ring, family):
        if not isinstance(ring, FunctionRing):
            raise PreconditionError("sampling closure needs a function ring")
        super().__init__(ring)
        pts = set(ring.points)
        family = tuple(frozenset(s) for s in family)
        if not family:
            raise PreconditionError("sampling family must be nonempty")
        for s in family:
            bad = [a for a in s if a not in pts]
            if bad:
                raise PreconditionError(f"sample point {bad[0]} outside the grid")
        covered = set().union(*family)
        if covered != pts:
            raise PreconditionError(
                "sampling family must cover the whole point grid")
        self.family = family

    def describe(self):
        sets = sorted(sorted(s) for s in self.family)
        return f"sample:{sets}"

    def member(self, x, values):
        ring = self.ring
        x = ring.canon(x)
        vanishing = [ring.points[i]
                     for i in range(ring.npoints)
                     if all(v[i] == 0 for v in values)]
        vset = set(vanishing)
        pt_index = {p: i for i, p in enumerate(ring.points)}
        for sigma in self.family:
            for a in sigma & vset:
                if x[pt_index[a]] != 0:
                    return False
        return True

    # internal: materialized set for axiom checking
    def eval_set_internal(self, values):
        return frozenset(v for v in self.ring.elements()
                         if self.member(v, values))


class ToleranceClosure(ClosureSpec):
    """Membership-only closure on integer polynomials.

    Configured as a list of integer points with per-point rational
    tolerances; f is in cl(A) when |f(a)| <= tau(a) at every configured
    point where all generators of A vanish.
    """

    name = "tol"
    set_valued = False

    def __init__(self, nvars, points, taus):
        super().__init__(IntPolyContext(nvars))
        points = tuple(tuple(p) for p in points)
        taus = tuple(Fraction(t) for t in taus)
        if len(points) != len(taus):
            raise PreconditionError("one tolerance per point required")
        for p in points:
            if len(p) != nvars:
                raise PreconditionError(f"point {p} is not {nvars}-dimensional")
        for t in taus:
            if t < 0:
                raise PreconditionError("tolerances must be nonnegative")
        self.points = points
        self.taus = taus

    def describe(self):
        items = ",".join(f"{{point:{p}, tau:{t}}}"
                         for p, t in zip(self.points, self.taus))
        return f"tol:[{items}]"

    def vanishing_points(self, gen_polys):
        """Configured points lying in V(<gens>), with their tolerances."""
        out = []
        for p, t in zip(self.points, self.taus):
            if all(poly.m_eval(g, p) == 0 for g in gen_polys):
                out.append((p, t))
        return out

    def member(self, f, gen_polys):
        for p, t in self.vanishing_points(gen_polys):
            if abs(poly.m_eval(f, p)) > t:
                return False
        return True

    def scaled(self, r_poly):
        """The closure with tolerances scaled pointwise by |r(a)|."""
        new_taus = [t * abs(poly.m_eval(r_poly, p))
                    for p, t in zip(self.points, self.taus)]
        return ToleranceClosure(self.ring.nvars, self.points, new_taus)


class UnionFixedClosure(ClosureSpec):
    """Diagnostic operator cl(A) = A | F (idempotent but incompatible)."""

    name = "union-fixed"
    join = "union"

    def __init__(self, ring, extra):
        super().__init__(ring)
        self.extra = frozenset(ring.canon(v) for v in extra)

    def describe(self):
        return f"union-fixed:{sorted(self.extra, key=sort_key)}"

    def eval_set(self, values):
        return frozenset(values) | self.extra

    def member(self, x, values):
        x = self.ring.canon(x)
        return x in self.extra or x in {self.ring.canon(v) for v in values}


def _lattice_ideal_member(ring, x, values, shift):
    """x in <values> + shift*Z^k over an integer lattice Z^k.

    Ideals of a product decompose componentwise, so the span is the product
    of the componentwise gcd ideals.
    """
    k = len(ring.factors)
    x = ring.canon(x)
    gens = [ring.canon(v) for v in values]
    for j in range(k):
        g = shift
        for v in gens:
            g = math.gcd(g, v[j])
        if not PrincipalSubgroup(g).contains(x[j]):
            return False
    return True


# ---------------------------------------------------------------------------
# evaluation and membership entry points


def _input_values(ring, a):
    """Normalize a subset argument to a frozenset of canonical values."""
    if isinstance(a, IdealRep):
        if isinstance(a.canonical, PrincipalSubgroup):
            return a.canonical
        return a.canonical.values
    if isinstance(a, PrincipalSubgroup):
        return a
    if isinstance(a, (FiniteSubgroup, ElementSet)):
        return a.values
    return frozenset(ring.canon(v) for v in a)


def closure_eval(cl, a):
    """cl(A) in canonical form; raises for membership-only variants."""
    if not cl.set_valued:
        raise ClosureNotSetValuedError(
            f"{cl.name} closure is membership-only; use closure_member")
    ring = cl.ring
    vals = _input_values(ring, a)
    if isinstance(vals, PrincipalSubgroup):
        g = cl.z_principal_image(vals.d)
        return IdealRep(Z, (g,), PrincipalSubgroup(g))
    if isinstance(ring, IntegerRing):
        gens = sorted(vals, key=sort_key)
        if isinstance(cl, SetShiftClosure):
            raise PreconditionError(
                "setshift over Z evaluates on subgroups only; lists are "
                "membership-only")
        g = 0
        for v in gens:
            g = math.gcd(g, v)
        g = cl.z_principal_image(g)
        return IdealRep(Z, (g,), PrincipalSubgroup(g))
    if not ring.is_finite:
        raise PreconditionError(f"closure evaluation unsupported over {ring}")
    out = cl.eval_set(frozenset(vals))
    gens = tuple(sorted(out, key=sort_key))
    if is_additive_subgroup(ring, out):
        sub = FiniteSubgroup(ring, out, check=False)
        if all(ring.mul(r, v) in out for r in ring.elements() for v in out):
            return IdealRep(ring, gens, sub)
        return sub
    return ElementSet(ring, out)


def closure_member(cl, x, a):
    """Decide x in cl(A); A may be a rep, generator list, or subgroup."""
    ring = cl.ring
    if isinstance(ring, IntPolyContext):
        gens = a if isinstance(a, (list, tuple)) else [a]
        return cl.member(x, gens)
    vals = _input_values(ring, a)
    if isinstance(vals, PrincipalSubgroup):
        if isinstance(cl, SetShiftClosure):
            return cl.member(x, [vals.d], values_are_subgroup=True)
        g = cl.z_principal_image(vals.d)
        return PrincipalSubgroup(g).contains(Z.canon(x))
    if isinstance(ring, IntegerRing):
        return cl.member(Z.canon(x), sorted(vals, key=sort_key))
    if _is_integer_lattice(ring):
        return cl.member(ring.canon(x), sorted(vals, key=sort_key))
    return cl.member(ring.canon(x), frozenset(vals))


def materialize(cl, a):
    """The closure as an explicit set, for finite rings.

    Set-valued variants evaluate directly; sampling materializes through
    membership.  Tolerance closures have no finite carrier and raise.
    """
    ring = cl.ring
    if isinstance(ring, IntPolyContext):
        raise ClosureNotSetValuedError("tolerance closures have no finite carrier")
    vals = frozenset(_input_values(ring, a))
    if cl.set_valued:
        return cl.eval_set(vals)
    return cl.eval_set_internal(vals)


# ---------------------------------------------------------------------------
# the exhaustive bitmask engine


class FiniteDomain:
    """Bitmask tables for subsets of a finite commutative structure.

    ``elems`` is the canonical element list; subsets are int32 masks (so
    mask arrays index other tables directly).  Scalars are the ring
    elements themselves for ring closures, or the distinct action values
    for module closures.
    """

    def __init__(self, elems, add, neg, scalars, scalar_mul, zero):
        self.elems = list(elems)
        self.n = len(self.elems)
        if self.n > 16:
            raise ResourceLimitError(f"{self.n} elements exceed the mask width")
        self.index = {v: i for i, v in enumerate(self.elems)}
        self.nmasks = 1 << self.n
        self.zero_bit = np.int32(1 << self.index[zero])
        masks = np.arange(self.nmasks, dtype=np.int32)
        self.masks = masks

        def transport(perm):
            acc = np.zeros(self.nmasks, dtype=np.int32)
            for j, target in enumerate(perm):
                bitj = ((masks >> j) & 1).astype(np.int32)
                acc |= bitj << target
            return acc

        self.shift_tables = []
        for i, e in enumerate(self.elems):
            perm = [self.index[add(x, e)] for x in self.elems]
            self.shift_tables.append(transport(perm))
        self.neg_table = transport([self.index[neg(x)] for x in self.elems])
        self.scalars = list(scalars)
        self.scale_tables = {}
        for r in self.scalars:
            perm = [self.index[scalar_mul(r, x)] for x in self.elems]
            self.scale_tables[r] = transport(perm)

    def mask_of(self, values):
        m = 0
        for v in values:
            m |= 1 << self.index[v]
        return m

    def set_of(self, mask):
        return frozenset(self.elems[i] for i in range(self.n)
                         if (int(mask) >> i) & 1)

    def sorted_set(self, mask):
        return sorted(self.set_of(mask), key=sort_key)

    def setsum_vec(self, a_masks, b_masks):
        """Elementwise set-sum of two equally shaped mask arrays."""
        a_masks = np.asarray(a_masks, dtype=np.int32)
        b_masks = np.asarray(b_masks, dtype=np.int32)
        out = np.zeros(np.broadcast(a_masks, b_masks).shape, dtype=np.int32)
        for i in range(self.n):
            has = ((b_masks >> i) & 1) != 0
            out |= np.where(has, self.shift_tables[i][a_masks], 0)
        return out

    def subgroup_mask_flags(self):
        """Boolean vector: which masks are additive subgroups."""
        masks = self.masks
        has_zero = (masks & self.zero_bit) != 0
        negm = self.neg_table[masks]
        closed = self.setsum_vec(masks, negm) == masks
        return has_zero & closed

    def closure_vector(self, cl):
        """cl as a mask -> mask table.

        A closure without a ``join`` is evaluated once per subset, which is
        the definition of the table.  One with a join is evaluated n + 1
        times: on the empty set and on each singleton {x_i}.  The masks
        below 2^i are the subsets of {x_0, ..., x_(i-1)}, so block
        [2^i, 2^(i+1)) is block [0, 2^i) with x_i added, and one numpy pass
        over that block fills it:

        * ``"sum"``: cl(A | {x}) = cl(A) + cl({x}).  For the span, <S> is
          the least set holding S and 0 that is closed under +, - and
          scalar multiples.  <A> + <x> is closed under all three (sums
          regroup, -(a + b) = -a - b, r(a + b) = ra + rb) and holds A, x
          and 0, since each summand holds 0; so <A | {x}> lies inside it.
          Conversely <A | {x}> holds <A> and <x> and is closed under +, so
          it holds their sum.  For a shift cl(S) = <S> + J with J a
          subgroup, J + J = J, so (<A> + J) + (<x> + J) = <A | {x}> + J.
          The module span and submodule shift are the same argument.
        * ``"union"``: cl(A | {x}) = cl(A) | cl({x}).  Both A + J (taken
          elementwise) and A | F are unions over the elements of A of a
          set that depends on that element alone (a + J, or {a} | F), and
          a union over A | {x} splits into the one over A and the one
          over {x}.
        """
        clv = np.zeros(self.nmasks, dtype=np.int32)
        if cl.join is None:
            for m in range(self.nmasks):
                clv[m] = self.mask_of(cl.eval_set(self.set_of(m)))
            return clv
        clv[0] = self.mask_of(cl.eval_set(frozenset()))
        for i, x in enumerate(self.elems):
            single = np.int32(self.mask_of(cl.eval_set(frozenset((x,)))))
            low, high = clv[:1 << i], clv[1 << i:2 << i]
            if cl.join == "sum":
                high[:] = self.setsum_vec(low, single)
            else:
                np.bitwise_or(low, single, out=high)
        return clv

    def pair_setsum_aug(self, a_masks, b_masks):
        """Table of 0-augmented set-sums (A | 0) + (B | 0): rows A, columns B."""
        a_aug = np.asarray(a_masks, dtype=np.int32) | self.zero_bit
        b_aug = np.asarray(b_masks, dtype=np.int32) | self.zero_bit
        return self.setsum_vec(a_aug[:, None], b_aug[None, :])


def _first_violation(viol):
    """Row-major first True position, or None."""
    idx = np.argwhere(viol)
    if idx.size == 0:
        return None
    return tuple(int(x) for x in idx[0])


def _lowest_bit_elem(dom, mask):
    mask = int(mask)
    for i in range(dom.n):
        if (mask >> i) & 1:
            return dom.elems[i]
    return None


def check_axioms_finite(cl, dom, report):
    """All six verdicts over every subset of the domain (vectorized).

    The closure table comes from ``FiniteDomain.closure_vector``: n + 1
    evaluations of a closure that declares a join, 2^n otherwise.  C1, C3,
    C4b and absorption are one sweep each over that table.
    Each pairwise axiom reports the first violating pair (A, B) in
    row-major mask order, the order of a sweep over all 4^n pairs; two
    exact reductions replace that sweep.

    C2 (A inside B implies cl(A) inside cl(B)) holds at A iff cl(A) lies in
    meet(A), the intersection of cl(B) over all supersets B of A.  The meet
    table is a superset transform, n passes over 2^n masks.  The first A
    with cl(A) not inside meet(A) is the first row holding a violation, and
    its first violating superset B completes the row-major first pair.

    C4a (cl(A) + cl(B) inside cl((A | 0) + (B | 0))) is quantified over the
    fiber-minimal subsets when C2 holds: those A with cl(A - {a}) != cl(A)
    for every a in A.  Under C2 these are exactly the subsets with no
    proper subset of the same closure: if A' is a proper subset of A with
    cl(A') = cl(A) and a is in A - A', then cl(A') <= cl(A - {a}) <= cl(A)
    forces cl(A - {a}) = cl(A).  Proof that the first violation is kept:
    let (A, B) be the row-major first violation over all pairs and suppose
    A' is a proper subset of A with cl(A') = cl(A).  Then (A', B) has the
    same left side, and by C2 its right side is no larger, since
    (A' | 0) + (B | 0) lies in (A | 0) + (B | 0); so (A', B) violates too,
    in an earlier row (A' < A as masks).  The same argument within row A
    applies to B.  So both members of the first violation are minimal, it
    is the first violation among minimal pairs, and none exists among them
    when none exists at all.  When C2 fails the argument does not apply,
    and the domain is every subset.  Rows are walked in order, in chunks
    that start at one row and double up to about PAIR_GRID pairs, stopping
    at the first chunk with a violation: a violation in an early row (the
    union operators fail at the empty pair) costs one small chunk, not a
    full grid.
    """
    clv = dom.closure_vector(cl)
    masks = dom.masks
    midx = masks

    # C1: A subset of cl(A)
    viol = (masks & ~clv) != 0
    pos = _first_violation(viol)
    if pos is None:
        report.record("C1", True)
    else:
        (m,) = pos
        report.record("C1", False, {
            "A": dom.sorted_set(m),
            "witness": _lowest_bit_elem(dom, masks[m] & ~clv[m])})

    # C3: cl(cl(A)) == cl(A)
    viol = clv[clv] != clv
    pos = _first_violation(viol)
    if pos is None:
        report.record("C3", True)
    else:
        (m,) = pos
        report.record("C3", False, {
            "A": dom.sorted_set(m),
            "clA": dom.sorted_set(clv[m]),
            "cl_clA": dom.sorted_set(clv[int(clv[m])])})

    # C4b: r * cl(A) subset of cl(rA), for every scalar r
    c4b_done = False
    for r in dom.scalars:
        tab = dom.scale_tables[r]
        lhs = tab[clv]
        rhs = clv[tab[midx]]
        viol = (lhs & ~rhs) != 0
        pos = _first_violation(viol)
        if pos is not None:
            (m,) = pos
            report.record("C4b", False, {
                "A": dom.sorted_set(m), "r": r,
                "witness": _lowest_bit_elem(dom, lhs[m] & ~rhs[m])})
            c4b_done = True
            break
    if not c4b_done:
        report.record("C4b", True)

    # absorption over additive subgroups: R*A subset of cl(A)
    sg = dom.subgroup_mask_flags()
    ra = np.zeros(dom.nmasks, dtype=np.int32)
    for r in dom.scalars:
        ra |= dom.scale_tables[r][midx]
    viol = sg & ((ra & ~clv) != 0)
    pos = _first_violation(viol)
    if pos is None:
        report.record("absorption", True)
    else:
        (m,) = pos
        bad = ra[m] & ~clv[m]
        witness = _lowest_bit_elem(dom, bad)
        r_found, s_found = None, None
        aset = dom.set_of(masks[m])
        # recover a concrete (r, s) pair for the witness
        for r in dom.scalars:
            for s in sorted(aset, key=sort_key):
                if cl.ring.mul(r, s) == witness:
                    r_found, s_found = r, s
                    break
            if r_found is not None:
                break
        report.record("absorption", False, {
            "A": dom.sorted_set(m), "r": r_found, "s": s_found,
            "witness": witness})

    # C2: cl(A) inside cl(B) for every B containing A.  meet[A] is the AND
    # of cl(B) over all supersets B of A, one pass per element bit.
    meet = clv.copy()
    for i in range(dom.n):
        view = meet.reshape(-1, 2, 1 << i)
        view[:, 0, :] &= view[:, 1, :]
    pos = _first_violation((clv & ~meet) != 0)
    c2_ce = None
    if pos is not None:
        (a,) = pos
        sup = masks[(masks & a) == a]
        (j,) = _first_violation((clv[a] & ~clv[sup]) != 0)
        c2_ce = {"A": dom.sorted_set(a), "B": dom.sorted_set(sup[j]),
                 "witness": _lowest_bit_elem(dom, clv[a] & ~clv[sup[j]])}

    # C4a: cl(A) + cl(B) inside cl((A | 0) + (B | 0)), over the fiber-minimal
    # subsets when C2 holds and over all subsets when it fails.
    if c2_ce is None:
        redundant = np.zeros(dom.nmasks, dtype=bool)
        for i in range(dom.n):
            bit = 1 << i
            redundant |= ((masks & bit) != 0) & (clv[masks ^ bit] == clv)
        pool = masks[~redundant]
    else:
        pool = masks
    c4a_ce = None
    cl_pool = clv[pool]
    max_rows = max(1, PAIR_GRID // len(pool))
    start, rows = 0, 1
    while start < len(pool):
        a_row = pool[start:start + rows]
        lhs = dom.setsum_vec(cl_pool[start:start + rows, None], cl_pool[None, :])
        rhs = clv[dom.pair_setsum_aug(a_row, pool)]
        pos = _first_violation((lhs & ~rhs) != 0)
        if pos is not None:
            i, j = pos
            c4a_ce = {"A": dom.sorted_set(a_row[i]),
                      "B": dom.sorted_set(pool[j]),
                      "witness": _lowest_bit_elem(dom, lhs[i, j] & ~rhs[i, j])}
            break
        start += rows
        rows = min(2 * rows, max_rows)

    report.record("C2", c2_ce is None, c2_ce)
    report.record("C4a", c4a_ce is None, c4a_ce)
    return report


# Weakly keyed: a quotient or localization model is keyed by identity, and
# a strong key would keep it, and the construction its operations close
# over, alive for the life of the process.
_DOMAIN_CACHE = weakref.WeakKeyDictionary()


def ring_domain(ring):
    dom = _DOMAIN_CACHE.get(ring)
    if dom is None:
        elems = sorted(ring.elements(), key=sort_key)
        dom = FiniteDomain(elems=elems, add=ring.add, neg=ring.neg,
                           scalars=elems, scalar_mul=ring.mul, zero=ring.zero)
        _DOMAIN_CACHE[ring] = dom
    return dom


def _eval_for_checks(cl):
    """Set evaluator used by checkers (materializes sampling closures)."""
    if cl.set_valued:
        return cl.eval_set
    if isinstance(cl, SamplingClosure):
        return cl.eval_set_internal
    raise PreconditionError(
        f"{cl.name} closure cannot be materialized for axiom checking")


def _check_axioms_sets(cl, subsets, scalars, report):
    """Pure-python check over an explicit list of subsets."""
    ring = cl.ring
    ev = _eval_for_checks(cl)
    memo = {}

    def clo(s):
        if s not in memo:
            memo[s] = ev(s)
        return memo[s]

    def setsum(a, b):
        return frozenset(ring.add(x, y) for x in a for y in b)

    zero = ring.zero
    c1 = c2 = c3 = c4a = c4b = absorb = None
    for a in subsets:
        ca = clo(a)
        if c1 is None and not a <= ca:
            wit = sorted(a - ca, key=sort_key)[0]
            c1 = {"A": sorted(a, key=sort_key), "witness": wit}
        if c3 is None:
            cca = clo(frozenset(ca))
            if cca != ca:
                c3 = {"A": sorted(a, key=sort_key),
                      "clA": sorted(ca, key=sort_key),
                      "cl_clA": sorted(cca, key=sort_key)}
        if c4b is None:
            for r in scalars:
                lhs = frozenset(ring.mul(r, x) for x in ca)
                rhs = clo(frozenset(ring.mul(r, x) for x in a))
                if not lhs <= rhs:
                    wit = sorted(lhs - rhs, key=sort_key)[0]
                    c4b = {"A": sorted(a, key=sort_key), "r": r, "witness": wit}
                    break
        if absorb is None and a and is_additive_subgroup(ring, a):
            for r in scalars:
                prods = frozenset(ring.mul(r, x) for x in a)
                if not prods <= ca:
                    wit = sorted(prods - ca, key=sort_key)[0]
                    absorb = {"A": sorted(a, key=sort_key), "r": r,
                              "witness": wit}
                    break
    for a in subsets:
        if c2 is not None and c4a is not None:
            break
        ca = clo(a)
        for b in subsets:
            if c2 is None and a <= b and not ca <= clo(b):
                wit = sorted(ca - clo(b), key=sort_key)[0]
                c2 = {"A": sorted(a, key=sort_key),
                      "B": sorted(b, key=sort_key), "witness": wit}
            if c4a is None:
                aa = a | {zero}
                bb = b | {zero}
                lhs = setsum(ca, clo(b))
                rhs = clo(setsum(aa, bb))
                if not lhs <= rhs:
                    wit = sorted(lhs - rhs, key=sort_key)[0]
                    c4a = {"A": sorted(a, key=sort_key),
                           "B": sorted(b, key=sort_key), "witness": wit}
            if c2 is not None and c4a is not None:
                break

    report.record("C1", c1 is None, c1)
    report.record("C2", c2 is None, c2)
    report.record("C3", c3 is None, c3)
    report.record("C4a", c4a is None, c4a)
    report.record("C4b", c4b is None, c4b)
    report.record("absorption", absorb is None, absorb)
    return report


def _check_axioms_z(cl, report, gen_bound, mult_bound):
    """Bounded verification over principal subgroups of the integers."""
    d = np.arange(gen_bound + 1, dtype=np.int64)
    g = cl.z_principal_image_vec(d).astype(np.int64)

    def contained(a, b):
        # (a) subset of (b)
        b_safe = np.where(b == 0, 1, b)
        return np.where(b == 0, a == 0, a % b_safe == 0)

    # C1: (d) subset of (g)
    viol = ~contained(d, g)
    pos = _first_violation(viol)
    report.record("C1", pos is None,
                  None if pos is None else {"A": f"({int(d[pos[0]])})"})

    # C3
    gg = cl.z_principal_image_vec(g).astype(np.int64)
    viol = gg != g
    pos = _first_violation(viol)
    report.record("C3", pos is None,
                  None if pos is None else {"A": f"({int(d[pos[0]])})"})

    # C2 over containment pairs (d1) subset of (d2)
    inc = contained(d[:, None], d[None, :])
    bad = ~contained(g[:, None], g[None, :])
    pos = _first_violation(inc & bad)
    report.record("C2", pos is None,
                  None if pos is None else {
                      "A": f"({int(d[pos[0]])})", "B": f"({int(d[pos[1]])})"})

    # C4a: cl(d1) + cl(d2) subset of cl((d1) + (d2))
    lhs = np.gcd(g[:, None], g[None, :])
    rhs_gen = cl.z_principal_image_vec(np.gcd(d[:, None], d[None, :])).astype(np.int64)
    pos = _first_violation(~contained(lhs, rhs_gen))
    report.record("C4a", pos is None,
                  None if pos is None else {
                      "A": f"({int(d[pos[0]])})", "B": f"({int(d[pos[1]])})"})

    # C4b: r*cl(d) subset of cl(r d), r in [-mult_bound, mult_bound]
    r = np.arange(-mult_bound, mult_bound + 1, dtype=np.int64)
    lhs = np.abs(r)[:, None] * g[None, :]
    rhs_gen = cl.z_principal_image_vec(
        np.abs(r)[:, None] * d[None, :]).astype(np.int64)
    pos = _first_violation(~contained(lhs, rhs_gen))
    report.record("C4b", pos is None,
                  None if pos is None else {
                      "r": int(r[pos[0]]), "A": f"({int(d[pos[1]])})"})

    # absorption: Z * (d) = (d) subset of cl((d))
    pos = _first_violation(~contained(d, g))
    report.record("absorption", pos is None,
                  None if pos is None else {"A": f"({int(d[pos[0]])})"})
    return report


def check_axioms(cl, mode="auto", seed=DEFAULT_SEED, count=DEFAULT_SAMPLE_COUNT,
                 subset_cap=EXHAUSTIVE_SUBSET_CAP, gen_bound=DEFAULT_Z_GEN_BOUND,
                 mult_bound=DEFAULT_Z_MULT_BOUND, guard=64):
    """Verify C1-C4a, C4b, and subgroup absorption for a closure operator.

    Modes: ``exhaustive`` (all subsets of a finite ring, within the subset
    cap), ``subgroups`` (all additive subgroups), ``ideals`` (the classical
    ideal lattice), ``sampled`` (seeded random subsets), ``bounded``
    (principal subgroups of Z up to gen_bound).  ``auto`` picks exhaustive
    when feasible, otherwise subgroups for finite rings and bounded for Z.
    """
    ring = cl.ring
    if isinstance(ring, IntPolyContext):
        raise PreconditionError(
            "tolerance closures are membership-only; use the balanced-rule "
            "checks instead of check_axioms")
    if isinstance(ring, IntegerRing):
        report = AxiomReport(mode="bounded",
                             domain=f"(d) for d <= {gen_bound}, |r| <= {mult_bound}")
        return _check_axioms_z(cl, report, gen_bound, mult_bound)
    if _is_integer_lattice(ring):
        raise PreconditionError(
            "axiom checking over integer lattices is not supported; "
            "model the instance in a residue product ring")

    card = ring.cardinality()
    if mode == "auto":
        feasible = (1 << card) <= subset_cap if cl.set_valued \
            else card <= 12
        mode = "exhaustive" if feasible else "subgroups"

    if mode == "exhaustive":
        if (1 << card) > subset_cap:
            raise ResourceLimitError(
                f"2^{card} subsets exceed the exhaustive cap {subset_cap}")
        report = AxiomReport(mode="exhaustive", domain=f"all subsets of {ring}")
        if cl.set_valued:
            dom = ring_domain(ring)
            return check_axioms_finite(cl, dom, report)
        # membership-only closures go through the plain set loops, which
        # are quadratic in the subset count
        if card > 12:
            raise ResourceLimitError(
                f"exhaustive mode for a membership-only closure needs at "
                f"most 12 elements, got {card}; use subgroups/ideals/sampled")
        elems = sorted(ring.elements(), key=sort_key)
        subsets = []
        import itertools
        for r_ in range(len(elems) + 1):
            subsets.extend(frozenset(c) for c in itertools.combinations(elems, r_))
        return _check_axioms_sets(cl, subsets, elems, report)

    if mode == "subgroups":
        subs = [s.values for s in enumerate_subgroups(ring, guard)]
        report = AxiomReport(mode="subgroups",
                             domain=f"{len(subs)} additive subgroups of {ring}")
        return _check_axioms_sets(cl, subs, sorted(ring.elements(), key=sort_key),
                                  report)

    if mode == "ideals":
        from .rings import classical_ideals
        ideals = [i.canonical.values for i in classical_ideals(ring, guard)]
        report = AxiomReport(mode="ideals",
                             domain=f"{len(ideals)} classical ideals of {ring}")
        return _check_axioms_sets(cl, ideals, sorted(ring.elements(), key=sort_key),
                                  report)

    if mode == "sampled":
        rng = random.Random(seed)
        elems = sorted(ring.elements(), key=sort_key)
        subsets = []
        for _ in range(count):
            size = rng.randint(0, len(elems))
            subsets.append(frozenset(rng.sample(elems, size)))
        subsets.extend(s.values for s in enumerate_subgroups(ring, guard))
        report = AxiomReport(mode="sampled", seed=seed, count=count,
                             domain=f"{len(subsets)} sampled subsets of {ring}")
        return _check_axioms_sets(cl, subsets, elems, report)

    raise PreconditionError(f"unknown axiom-check mode {mode!r}")


def replay_counterexample(cl, axiom, ce):
    """Re-evaluate a recorded counterexample; True when it still violates.

    Covers the finite-ring checkers; bounded integer reports carry their
    principal-subgroup witnesses as display strings instead.
    """
    ring = cl.ring
    ev = _eval_for_checks(cl)

    def as_set(key):
        return frozenset(ring.canon(v) for v in ce[key])

    def setsum(a, b):
        return frozenset(ring.add(x, y) for x in a for y in b)

    if axiom == "C1":
        a = as_set("A")
        return not a <= ev(a)
    if axiom == "C2":
        a, b = as_set("A"), as_set("B")
        return a <= b and not ev(a) <= ev(b)
    if axiom == "C3":
        a = as_set("A")
        return ev(frozenset(ev(a))) != ev(a)
    if axiom == "C4a":
        a, b = as_set("A"), as_set("B")
        zero = ring.zero
        lhs = setsum(ev(a), ev(b))
        rhs = ev(setsum(a | {zero}, b | {zero}))
        return not lhs <= rhs
    if axiom == "C4b":
        a = as_set("A")
        r = ring.canon(ce["r"])
        lhs = frozenset(ring.mul(r, x) for x in ev(a))
        rhs = ev(frozenset(ring.mul(r, x) for x in a))
        return not lhs <= rhs
    if axiom == "absorption":
        a = as_set("A")
        prods = frozenset(ring.mul(r, x) for r in ring.elements() for x in a)
        return not prods <= ev(a)
    raise PreconditionError(f"unknown axiom {axiom!r}")


# ---------------------------------------------------------------------------
# functoriality of ring homs with respect to a pair of closures


def _subsets_for(ring, subset_cap, guard):
    """Nonempty subsets: the degenerate empty corner separates set-shift
    from span closures (cl of the empty set is empty versus {0}) and would
    dominate every compatibility verdict, contrary to the worked models."""
    import itertools
    elems = sorted(ring.elements(), key=sort_key)
    if (1 << len(elems)) <= subset_cap:
        out = []
        for r in range(1, len(elems) + 1):
            out.extend(frozenset(c) for c in itertools.combinations(elems, r))
        return out, f"nonempty subsets of {ring}"
    subs = [s.values for s in enumerate_subgroups(ring, guard)]
    return subs, f"additive subgroups of {ring}"


def closure_image_compatible(f, cl_src, cl_dst, subset_cap=1 << 12,
                             gen_bound=200, window=8, guard=64):
    """Check f(cl(A)) subset of cl(f(A)) over a stated domain of subsets A."""
    _require_closure_rings(f, cl_src, cl_dst)
    if isinstance(f.src, IntegerRing):
        # principal subgroups and small generator windows
        for d in range(gen_bound + 1):
            g = cl_src.z_principal_image(d)
            lhs = _z_image_of_principal(f, g)
            rhs = materialize(cl_dst, _z_image_of_principal(f, d))
            if not lhs <= rhs:
                wit = sorted(lhs - rhs, key=sort_key)[0]
                return Verdict("image-compatible", False,
                               {"A": f"({d})", "witness": wit},
                               mode="bounded")
        import itertools
        base = list(range(0, window + 1))
        for size in range(0, 3):
            for combo in itertools.combinations(base, size):
                gens = list(combo)
                lhs_gen = 0
                for v in gens:
                    lhs_gen = math.gcd(lhs_gen, v)
                g = cl_src.z_principal_image(lhs_gen)
                lhs = _z_image_of_principal(f, g)
                rhs = materialize(cl_dst,
                                  frozenset(f.apply(v) for v in gens))
                if not lhs <= rhs:
                    wit = sorted(lhs - rhs, key=sort_key)[0]
                    return Verdict("image-compatible", False,
                                   {"A": list(gens), "witness": wit},
                                   mode="bounded")
        return Verdict("image-compatible", True, mode="bounded")

    subsets, domain = _subsets_for(f.src, subset_cap, guard)
    for a in subsets:
        lhs = f.image_values(materialize(cl_src, a))
        rhs = materialize(cl_dst, f.image_values(a))
        if not lhs <= rhs:
            wit = sorted(lhs - rhs, key=sort_key)[0]
            return Verdict("image-compatible", False,
                           {"A": sorted(a, key=sort_key), "witness": wit},
                           mode=domain)
    return Verdict("image-compatible", True, mode=domain)


def closure_preimage_compatible(f, cl_src, cl_dst, subset_cap=1 << 12,
                                guard=64):
    """Check f^{-1}(cl(B)) subset of cl(f^{-1}(B)) over codomain subsets B."""
    _require_closure_rings(f, cl_src, cl_dst)
    subsets, domain = _subsets_for(f.dst, subset_cap, guard)
    if isinstance(f.src, IntegerRing):
        n = f.dst.n
        for b in subsets:
            u_set = materialize(cl_dst, b)
            ok = all(_z_preimage_member(cl_src, f, b, u) and
                     _z_preimage_member(cl_src, f, b, u + n)
                     for u in u_set)
            if not ok:
                bad = sorted(u for u in u_set
                             if not (_z_preimage_member(cl_src, f, b, u) and
                                     _z_preimage_member(cl_src, f, b, u + n)))
                return Verdict("preimage-compatible", False,
                               {"B": sorted(b, key=sort_key), "witness": bad[0]},
                               mode=domain)
        return Verdict("preimage-compatible", True, mode=domain)

    src_elems = sorted(f.src.elements(), key=sort_key)
    for b in subsets:
        target = materialize(cl_dst, b)
        pre_t = frozenset(x for x in src_elems if f.apply(x) in target)
        pre_b = frozenset(x for x in src_elems if f.apply(x) in b)
        rhs = materialize(cl_src, pre_b)
        if not pre_t <= rhs:
            wit = sorted(pre_t - rhs, key=sort_key)[0]
            return Verdict("preimage-compatible", False,
                           {"B": sorted(b, key=sort_key), "witness": wit},
                           mode=domain)
    return Verdict("preimage-compatible", True, mode=domain)


def _require_closure_rings(f, cl_src, cl_dst):
    if cl_src.ring != f.src or cl_dst.ring != f.dst:
        raise DomainMismatchError("closures must match the hom's rings")


def _z_image_of_principal(f, d):
    """f(dZ) as an explicit subset of the finite codomain."""
    n = f.dst.n
    out = set()
    x = 0
    for _ in range(n + 1):
        out.add(x % n)
        x += d
        if d == 0:
            break
    return frozenset(out)


def _z_preimage_member(cl_src, f, b_set, x):
    """x in cl_R(f^{-1}(B)) for f: Z -> Z/n and a span- or set-shift closure."""
    n = f.dst.n
    lifts = sorted(b_set)
    if isinstance(cl_src, SetShiftClosure):
        m = cl_src.shift_ideal.canonical.d
        gmod = math.gcd(n, m)
        if not lifts:
            return False
        if gmod == 0:
            return x in b_set
        return (x % gmod) in {b % gmod for b in b_set}
    if not lifts:
        span = 0
    else:
        span = n
        for b in lifts:
            span = math.gcd(span, b)
    g = cl_src.z_principal_image(span)
    return PrincipalSubgroup(g).contains(x)
