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

On a finite ring or module a closure is one map, ``eval_mask``, from the
mask of A over ``rings.subgroup_lattice`` to that of cl(A).  Exhaustive
runs hold those masks in numpy arrays and tabulate it over every subset.
A closure that declares a ``join`` (the span, shift, set-shift and union
variants) is evaluated n + 1 times, on the empty set and on each
singleton, and the table is filled by that join, one numpy pass per
element (``FiniteDomain.closure_vector``); any other closure, a
membership-only one included, is evaluated once per subset.  The unary
axioms are one sweep over that table; the pairwise axioms C2 and C4a are
decided by exact reductions of the all-pairs domain (a superset meet for
C2, and fiber-minimal subsets for C4a), proved in
``check_axioms_finite``.  Their counterexamples are the first violating
pair in row-major mask order, walked by ``_first_break`` like the other
chunked counterexample searches of the package.

Every other finite domain is an explicit list of subsets: the subgroups,
the classical ideals, seeded samples (plus every subgroup), and sampled
module checks.  The list engine (``_check_axioms_list``) turns each
member into a bool row over the element order of
``rings.subgroup_lattice``, computes the closure once per distinct row
(``_ClosureRows``: from the generator rows by the join where that saves
evaluations, else by ``eval_mask``), and decides each axiom with a few
numpy calls over those rows: scalar multiples come from the kernel's
action rows and set-sums from its "add e_i" rows.  C1, C3, C4b and
absorption report the first member that violates (C4b and absorption
with the first scalar for that member); C2 and C4a report the first
violating pair in row-major list order, walked by ``_first_break`` and
priced up front (``LIST_PAIR_CELL_LIMIT``).  It builds no table over all
2^n subsets.
"""

from __future__ import annotations

import itertools
import math
import random
import weakref
from fractions import Fraction

import numpy as np

from . import polynomials as poly
from .errors import (
    ClosureNotSetValuedError,
    DomainMismatchError,
    NotEnumerableError,
    PowerOfTwo,
    PreconditionError,
    price,
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
    _bits,
    _first_violation,
    _mask,
    additive_closure,
    enumerate_subgroups,
    ideal_from_subgroup,
    sort_key,
    subgroup_lattice,
)

EXHAUSTIVE_SUBSET_CAP = 1 << 16
# the most elements for which auto mode checks a closure with no join on
# every subset, and the map checks walk every nonempty subset
EXHAUSTIVE_ELEMENTS = 12
DEFAULT_Z_GEN_BOUND = 1000
DEFAULT_Z_MULT_BOUND = 100
DEFAULT_SAMPLE_COUNT = 2000
# seed constant derived from the ASCII bytes of "A1GEBRA"
DEFAULT_SEED = int.from_bytes(b"A1GEBRA", "big")

# cells per chunk of every row walk (``_chunks``; a join's matrices in
# ``_ClosureRows`` are float32 over at most this many), and the most cells
# (pairs times elements) the list engine's pair walk may be priced at
LIST_GRID = 1 << 18
LIST_PAIR_CELL_LIMIT = 1 << 28


class IntPolyContext:
    """Stand-in domain for tolerance closures: Z[x1..xn] polynomials."""

    is_finite = False

    def __init__(self, nvars):
        self.nvars = nvars

    def elements(self):
        raise NotEnumerableError(f"{self} is not enumerable")

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

    On a finite ring or module the closure is ``eval_mask``, from the mask
    of A over ``rings.subgroup_lattice`` to the mask of cl(A).  A subclass
    defines it or ``eval_set`` (canonical values to a frozenset), and the
    base derives the other; defining neither raises PreconditionError.

    ``join`` names how cl(A | {x}) follows from cl(A) and cl({x}):
    ``"sum"`` (their set-sum), ``"union"`` (their union), or None when no
    such rule holds.  Both engines build their values from it: the
    exhaustive engine's table (``FiniteDomain.closure_vector``) and the
    list engine's rows (``_ClosureRows``) come from the n + 1 generator
    values cl({}) and cl({x_i}).  They read it through ``declared_join``,
    which honours it only where it is declared by the class that defines
    the evaluation or by a subclass of it: a subclass that changes
    ``eval_mask`` or ``eval_set`` and keeps an inherited ``join`` is
    evaluated subset by subset.
    """

    name = "?"
    set_valued = True
    join = None

    def __init__(self, ring):
        self.ring = ring

    def eval_mask(self, mask):
        """The mask of cl(A), for A the mask ``mask`` of a finite ring."""
        if type(self).eval_set is ClosureSpec.eval_set:
            raise PreconditionError(
                f"{self.name} closure has no set evaluation here")
        lat = subgroup_lattice(self.ring)
        values = self.eval_set(lat.values(mask))
        return lat.mask(values)

    def eval_set(self, values):
        """cl(A) as a frozenset, for A a set of canonical values of a
        finite ring; membership-only closures refuse it."""
        if not self.set_valued or \
                type(self).eval_mask is ClosureSpec.eval_mask:
            raise PreconditionError(
                f"{self.name} closure has no set evaluation here")
        lat = subgroup_lattice(self.ring)
        return lat.values(self.eval_mask(lat.mask(values)))

    def eval_rows(self, rows):
        """cl of each row of a 2-D bool array of subsets, over the element
        order of ``rings.subgroup_lattice``, as rows of the same shape: the
        batch both engines evaluate a closure with no join by.  By default,
        ``eval_mask`` of each row."""
        lat = subgroup_lattice(self.ring)
        out = np.zeros(rows.shape, dtype=bool)
        for row, value in zip(rows, out):
            value[_bits(self.eval_mask(lat.row_mask(row)))] = True
        return out

    # integers: generator of cl(dZ)
    def z_principal_image(self, d):
        raise PreconditionError(f"{self.name} closure is unsupported over Z")

    def z_principal_image_vec(self, d_array):
        return np.array([self.z_principal_image(int(d)) for d in d_array])

    def member(self, x, values):
        """x in cl(A) for A given as an iterable of canonical values; by
        default, the bit of x in ``eval_mask``."""
        lat = subgroup_lattice(self.ring)
        return bool(self.eval_mask(lat.mask(values))
                    >> lat.index[self.ring.canon(x)] & 1)

    def describe(self):
        return self.name

    def __repr__(self):
        return f"<closure {self.describe()} on {self.ring}>"


def declared_join(cl):
    """The join the engines may build cl from: ``cl.join`` when the class
    that declares it is the class that defines cl's evaluation (the first
    ``eval_mask`` or ``eval_set`` in the method resolution order) or a
    subclass of it, and None otherwise."""
    mro = type(cl).__mro__
    evaluates = next(i for i, k in enumerate(mro)
                     if "eval_mask" in vars(k) or "eval_set" in vars(k))
    declares = next(i for i, k in enumerate(mro) if "join" in vars(k))
    return cl.join if declares <= evaluates else None


class GeneratedIdealClosure(ClosureSpec):
    """cl(A) = <A>: the classical ideal generated by A."""

    name = "gen"
    join = "sum"

    def eval_mask(self, mask):
        return subgroup_lattice(self.ring).span(mask)

    def z_principal_image(self, d):
        return d

    def z_principal_image_vec(self, d_array):
        return np.asarray(d_array)

    def member(self, x, values):
        if _is_integer_lattice(self.ring):
            return _lattice_ideal_member(self.ring, x, values, shift=0)
        return super().member(x, values)


class _ShiftClosure(ClosureSpec):
    """The part ``shift`` and ``setshift`` share: the shift J, an ideal of
    the ring or, over integer lattices, m*Z^k for a scalar modulus m; on a
    subgroup dZ of the integers either closure is gcd(d, m)Z."""

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
            return f"{self.name}:J={self.shift_ideal!r}"
        return f"{self.name}:J={self.shift_modulus}"

    def z_principal_image(self, d):
        return math.gcd(d, self.shift_ideal.canonical.d)

    def z_principal_image_vec(self, d_array):
        return np.gcd(np.asarray(d_array), self.shift_ideal.canonical.d)


class IdealShiftClosure(_ShiftClosure):
    """cl(A) = <A> + J; over integer lattices J is m*Z^k for a scalar m."""

    name = "shift"
    join = "sum"

    def eval_mask(self, mask):
        # <A> + J = <A | J>, as J is an ideal
        return subgroup_lattice(self.ring).span(
            mask | self.shift_ideal.canonical.mask)

    def member(self, x, values):
        if _is_integer_lattice(self.ring):
            return _lattice_ideal_member(self.ring, x, values,
                                         self.shift_modulus)
        return super().member(x, values)


class SetShiftClosure(_ShiftClosure):
    """cl(A) = A + J elementwise; A is used as given, not spanned."""

    name = "setshift"
    join = "union"

    def eval_mask(self, mask):
        return subgroup_lattice(self.ring).setsum(
            mask, self.shift_ideal.canonical.mask)

    def member(self, x, values):
        ring = self.ring
        if isinstance(ring, IntegerRing):
            m = self.shift_ideal.canonical.d
            return any(PrincipalSubgroup(m).contains(x - v) for v in values)
        if _is_integer_lattice(ring):
            m = self.shift_modulus
            return any(all((xi - vi) % m == 0 for xi, vi in zip(x, v))
                       for v in values)
        return super().member(x, values)


class PointwiseClosure(ClosureSpec):
    """Function rings: cl(A) = every function vanishing where all of A vanish."""

    name = "pointwise"

    def __init__(self, ring):
        if not isinstance(ring, FunctionRing):
            raise PreconditionError("pointwise closure needs a function ring")
        super().__init__(ring)

    def _vanishing_points(self, values):
        return tuple(i for i in range(self.ring.npoints)
                     if all(v[i] == 0 for v in values))

    def eval_mask(self, mask):
        lat = subgroup_lattice(self.ring)
        zeros = self._vanishing_points(lat.listed(mask))
        return lat.mask(_vanishing_functions(self.ring, zeros))

    def member(self, x, values):
        x = self.ring.canon(x)
        return all(x[i] == 0 for i in self._vanishing_points(values))


def _vanishing_functions(ring, zeros):
    """Every function of a function ring that vanishes at the point indices
    ``zeros``, in ``itertools.product`` order of its values elsewhere."""
    free = sorted(set(range(ring.npoints)) - set(zeros))
    out = []
    for assign in itertools.product(range(ring.p), repeat=len(free)):
        tab = [0] * ring.npoints
        for pos, val in zip(free, assign):
            tab[pos] = val
        out.append(tuple(tab))
    return frozenset(out)


class SamplingClosure(PointwiseClosure):
    """Membership-only: vanishing on V(A) within each covering sample set.
    As the family covers the grid, that is vanishing on V(A), the pointwise
    closure; ``set_valued`` is False, so ``eval_set`` and ``closure_eval``
    still refuse it."""

    name = "sample"
    set_valued = False

    def __init__(self, ring, family):
        super().__init__(ring)
        pts = set(ring.points)
        family = tuple(frozenset(s) for s in family)
        if not family:
            raise PreconditionError("sampling family must be nonempty")
        bad = next((a for s in family for a in s if a not in pts), None)
        if bad is not None:
            raise PreconditionError(f"sample point {bad} outside the grid")
        if set().union(*family) != pts:
            raise PreconditionError(
                "sampling family must cover the whole point grid")
        self.family = family

    def describe(self):
        sets = sorted(sorted(s) for s in self.family)
        return f"sample:{sets}"


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
        return [(p, t) for p, t in zip(self.points, self.taus)
                if all(poly.m_eval(g, p) == 0 for g in gen_polys)]

    def member(self, f, gen_polys):
        return all(abs(poly.m_eval(f, p)) <= t
                   for p, t in self.vanishing_points(gen_polys))

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

    def eval_mask(self, mask):
        return mask | subgroup_lattice(self.ring).mask(self.extra)


def _lattice_ideal_member(ring, x, values, shift):
    """x in <values> + shift*Z^k over an integer lattice Z^k.

    Ideals of a product decompose componentwise, so the span is the product
    of the componentwise gcd ideals.
    """
    k = len(ring.factors)
    x = ring.canon(x)
    gens = [ring.canon(v) for v in values]
    return all(PrincipalSubgroup(math.gcd(shift, *(v[j] for v in gens)))
               .contains(x[j]) for j in range(k))


# ---------------------------------------------------------------------------
# evaluation and membership entry points


def _input_values(ring, a):
    """Normalize a subset argument: a subgroup of Z or a subset of a finite
    ring as it is, anything else to a frozenset of canonical values."""
    if isinstance(a, IdealRep):
        a = a.canonical
    if isinstance(a, (PrincipalSubgroup, ElementSet)):
        return a
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
        if isinstance(cl, SetShiftClosure):
            raise PreconditionError(
                "setshift over Z evaluates on subgroups only; lists are "
                "membership-only")
        g = cl.z_principal_image(math.gcd(0, *vals))
        return IdealRep(Z, (g,), PrincipalSubgroup(g))
    if not ring.is_finite:
        raise PreconditionError(f"closure evaluation unsupported over {ring}")
    lat = subgroup_lattice(ring)
    out = cl.eval_mask(lat.mask(vals))
    if not lat.is_subgroup(out):
        return ElementSet.from_mask(ring, out)
    sub = FiniteSubgroup.from_mask(ring, out)
    return ideal_from_subgroup(sub) if lat.span(out) == out else sub


def closure_member(cl, x, a):
    """Decide x in cl(A); A may be a rep, generator list, or subgroup.  Over
    Z a span closure (join "sum") decides a list by the subgroup it spans;
    a set-shift keeps it unspanned."""
    ring = cl.ring
    if isinstance(ring, IntPolyContext):
        gens = a if isinstance(a, (list, tuple)) else [a]
        return cl.member(x, gens)
    vals = _input_values(ring, a)
    if isinstance(ring, IntegerRing) and declared_join(cl) == "sum" and \
            not isinstance(vals, PrincipalSubgroup):
        vals = PrincipalSubgroup(math.gcd(0, *vals))
    if isinstance(vals, PrincipalSubgroup):
        g = cl.z_principal_image(vals.d)
        return PrincipalSubgroup(g).contains(Z.canon(x))
    if ring.is_finite:
        return cl.member(ring.canon(x), frozenset(vals))
    return cl.member(ring.canon(x), sorted(vals, key=sort_key))


def materialize(cl, a):
    """The closure as an explicit set, for finite rings: ``eval_mask`` read
    as values, which sampling closures give through membership.  Tolerance
    closures have no finite carrier and raise.
    """
    ring = cl.ring
    if isinstance(ring, IntPolyContext):
        raise ClosureNotSetValuedError("tolerance closures have no finite carrier")
    lat = subgroup_lattice(ring)
    return lat.values(cl.eval_mask(lat.mask(_input_values(ring, a))))


# ---------------------------------------------------------------------------
# the exhaustive bitmask engine


class FiniteDomain:
    """Bitmask tables for subsets of a finite ring or module.

    The subsets are the masks of the structure's ``rings.subgroup_lattice``
    (``lat``), held as int32 (so mask arrays index other tables directly),
    and the add and scalar maps come from it.  Scalars are the ring elements
    themselves for ring closures, or ``scalar_reps`` for module closures.
    """

    def __init__(self, lattice):
        self.lat = lattice
        self.n = lattice.n
        price(f"the mask tables of {self.n} elements", PowerOfTwo(self.n),
              EXHAUSTIVE_SUBSET_CAP, "masks")
        self.nmasks = 1 << self.n
        self.zero_bit = np.int32(1 << lattice.zero)
        masks = np.arange(self.nmasks, dtype=np.int32)
        self.masks = masks

        def transport(perm):
            acc = np.zeros(self.nmasks, dtype=np.int32)
            for j, target in enumerate(perm):
                bitj = ((masks >> j) & 1).astype(np.int32)
                acc |= bitj << target
            return acc

        rows = [lattice.add_row(i) for i in range(self.n)]
        self.shift_tables = [transport(row) for row in rows]
        # -e_j is the e_i with e_j + e_i = 0.  No check reads this table;
        # perfbench/spans.py counts it in the domain's table bytes.
        self.neg_table = transport([row.index(lattice.zero) for row in rows])
        self.scalars = lattice.scalars
        self.scale_tables = {r: transport(lattice.act_row(r))
                             for r in self.scalars}
        self.subgroup_masks = lattice.subgroups()

    def setsum_vec(self, a_masks, b_masks):
        """Elementwise set-sum of two equally shaped mask arrays."""
        a_masks = np.asarray(a_masks, dtype=np.int32)
        b_masks = np.asarray(b_masks, dtype=np.int32)
        out = np.zeros(np.broadcast(a_masks, b_masks).shape, dtype=np.int32)
        for i in range(self.n):
            has = ((b_masks >> i) & 1) != 0
            out |= np.where(has, self.shift_tables[i][a_masks], 0)
        return out

    def closure_vector(self, cl):
        """cl as a mask -> mask table.

        A closure without a ``join`` (as ``declared_join`` reads it) is
        evaluated on every subset, in mask order, by one ``eval_rows`` call
        over their rows, which is the definition of the table.
        One with a join is evaluated n + 1 times: on the empty set and on
        each singleton {x_i}.  The masks below 2^i are the subsets of
        {x_0, ..., x_(i-1)}, so block [2^i, 2^(i+1)) is block [0, 2^i) with
        x_i added, and one numpy pass over that block fills it:

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
        join = declared_join(cl)
        if join is None:
            bits = np.int32(1) << np.arange(self.n, dtype=np.int32)
            rows = cl.eval_rows(self.masks[:, None] & bits != 0)
            return (rows * bits).sum(axis=1, dtype=np.int32)
        clv = np.zeros(self.nmasks, dtype=np.int32)
        clv[0] = cl.eval_mask(0)
        for i in range(self.n):
            single = np.int32(cl.eval_mask(1 << i))
            low, high = clv[:1 << i], clv[1 << i:2 << i]
            if join == "sum":
                high[:] = self.setsum_vec(low, single)
            else:
                np.bitwise_or(low, single, out=high)
        return clv

    def pair_setsum_aug(self, a_masks, b_masks):
        """Table of 0-augmented set-sums (A | 0) + (B | 0): rows A, columns B."""
        a_aug = np.asarray(a_masks, dtype=np.int32) | self.zero_bit
        b_aug = np.asarray(b_masks, dtype=np.int32) | self.zero_bit
        return self.setsum_vec(a_aug[:, None], b_aug[None, :])


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
    and the domain is every subset.  The rows are walked by
    ``_first_break``, so a violation in an early row (the union operators
    fail at the empty pair) costs one small chunk, not a full grid.
    """
    clv = dom.closure_vector(cl)
    masks = dom.masks
    midx = masks
    lat = dom.lat
    listed = lat.listed

    def least(mask):
        mask = int(mask)
        return lat.elems[(mask & -mask).bit_length() - 1]

    # C1: A subset of cl(A)
    viol = (masks & ~clv) != 0
    pos = _first_violation(viol)
    if pos is None:
        report.record("C1", True)
    else:
        (m,) = pos
        report.record("C1", False, {
            "A": listed(m), "witness": least(masks[m] & ~clv[m])})

    # C3: cl(cl(A)) == cl(A)
    viol = clv[clv] != clv
    pos = _first_violation(viol)
    if pos is None:
        report.record("C3", True)
    else:
        (m,) = pos
        report.record("C3", False, {
            "A": listed(m), "clA": listed(clv[m]),
            "cl_clA": listed(clv[clv[m]])})

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
                "A": listed(m), "r": r, "witness": least(lhs[m] & ~rhs[m])})
            c4b_done = True
            break
    if not c4b_done:
        report.record("C4b", True)

    # absorption over additive subgroups: R*A subset of cl(A)
    sg = np.zeros(dom.nmasks, dtype=bool)
    sg[dom.subgroup_masks] = True
    ra = np.zeros(dom.nmasks, dtype=np.int32)
    for r in dom.scalars:
        ra |= dom.scale_tables[r][midx]
    viol = sg & ((ra & ~clv) != 0)
    pos = _first_violation(viol)
    if pos is None:
        report.record("absorption", True)
    else:
        (m,) = pos
        witness = least(ra[m] & ~clv[m])
        r_found, s_found = None, None
        # recover a concrete (r, s) pair for the witness: r s, or r acting
        act = lat._act()
        for r in dom.scalars:
            for s in listed(m):
                if act(r, s) == witness:
                    r_found, s_found = r, s
                    break
            if r_found is not None:
                break
        report.record("absorption", False, {
            "A": listed(m), "r": r_found, "s": s_found, "witness": witness})

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
        c2_ce = {"A": listed(a), "B": listed(sup[j]),
                 "witness": least(clv[a] & ~clv[sup[j]])}

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
    cl_pool = clv[pool]

    def c4a_bad(a):
        lhs = dom.setsum_vec(clv[a][:, None], cl_pool[None, :])
        return (lhs & ~clv[dom.pair_setsum_aug(a, pool)]) != 0

    c4a_ce = None
    (hit,) = _first_break(pool, len(pool), c4a_bad)
    if hit is not None:
        a, b, z = hit[0], int(pool[hit[1]]), int(dom.zero_bit)
        gap = lat.setsum(int(clv[a]), int(clv[b])) \
            & ~int(clv[lat.setsum(a | z, b | z)])
        c4a_ce = {"A": listed(a), "B": listed(b), "witness": least(gap)}

    report.record("C2", c2_ce is None, c2_ce)
    report.record("C4a", c4a_ce is None, c4a_ce)
    return report


# Weakly keyed: a quotient or localization model is keyed by identity, and
# a strong key would keep it, and the construction its operations close
# over, alive for the life of the process.
_DOMAIN_CACHE = weakref.WeakKeyDictionary()


def ring_domain(ring):
    """The cached bitmask tables of a finite ring or module."""
    dom = _DOMAIN_CACHE.get(ring)
    if dom is None:
        dom = _DOMAIN_CACHE[ring] = FiniteDomain(subgroup_lattice(ring))
    return dom


# ---------------------------------------------------------------------------
# the list engine: the axioms over an explicit list of subsets


def _first_label_break(labels, table, rows):
    """The first (x, c), row-major over ``rows``, with labels[T[x, c]] !=
    labels[T[labels[x], c]] (an operation that depends on the class
    representative), or None; ``table(x)`` gives the rows T[x], taken as
    rows of len(labels) cells to size the chunks."""
    return _first_break(rows, len(labels), lambda x:
                        labels[table(x)] != labels[table(labels[x])])[0]


def _index_map(src, dst, fn):
    """fn as an index array between two lattices: entry i is the index in
    ``dst`` of fn(e_i), e_i the i-th element of ``src``.  Subsets travel
    along it as bool rows: f(A) by ``_image_rows``, f^-1(B) as ``B[img]``."""
    return np.array([dst.index[fn(x)] for x in src.elems], dtype=np.intp)


def _hom_map(f):
    """A finite hom's two lattices and its index map between them."""
    src, dst = subgroup_lattice(f.src), subgroup_lattice(f.dst)
    return src, dst, _index_map(src, dst, f.apply)


def _image_rows(img, rows, n):
    """f(A) for bool rows A over img's source, as rows over its n targets:
    each set column c of a row sets column img[c]."""
    out = np.zeros(rows.shape[:-1] + (n,), dtype=bool)
    *at, cols = np.nonzero(rows)
    out[(*at, img[cols])] = True
    return out


class QuotientModule:
    """Classes of a carrier subgroup of a ring or module under x ~ y iff
    x - y in cl(N), a subgroup H: the cosets x + (H meet carrier) on the
    structure's lattice.  ``labels`` maps each carrier index to its class's
    least member, and every other index to -1.  The quotient is itself a
    structure ``subgroup_lattice`` reads, whose elements are the
    representatives; ``canon`` takes a carrier element to its class, and
    ``add``, ``act`` (a module's) and ``mul`` (a ring's) work on them.
    The classes of a subgroup by a subgroup form a group, so the lattice
    reads its addition unchecked."""

    def __init__(self, mod, carrier, clset, verdicts):
        lat = subgroup_lattice(mod)
        h, c = lat.mask(clset), lat.mask(carrier)
        if not lat.is_subgroup(h):
            raise PreconditionError("cl(N) is not a subgroup; classes undefined")
        self.mod = mod
        self.carrier = [lat.elems[j] for j in _bits(c)]
        self.labels, cosets = lat.cosets(h & c, c)
        self.classes = [(lat.elems[i], lat.values(coset)) for i, coset in cosets]
        self.rep_of = {lat.elems[j]: lat.elems[i]
                       for i, coset in cosets for j in _bits(coset)}
        self.verdicts = verdicts
        self.zero = self.rep_of[mod.zero]
        if hasattr(mod, "scalar_reps"):
            self.scalar_reps = mod.scalar_reps

    def class_count(self):
        return len(self.classes)

    def reps(self):
        return [rep for rep, _ in self.classes]

    def elements(self):
        return self.reps()

    def canon(self, x):
        x = self.mod.canon(x)
        if x not in self.rep_of:
            raise DomainMismatchError(f"{x!r} is not in the carrier")
        return self.rep_of[x]

    def member_rows(self):
        """The carrier's indices class by class, each in its member order."""
        index = subgroup_lattice(self.mod).index
        return np.array([index[x] for _, members in self.classes
                         for x in members], dtype=np.intp)

    def add(self, a, b):
        return self.rep_of[self.mod.add(a, b)]

    def act(self, r, a):
        return self.rep_of[self.mod.act(r, a)]

    def mul(self, a, b):
        return self.rep_of[self.mod.mul(a, b)]

    def check_operations(self):
        """Record whether addition and the action (a ring's product x y)
        ignore the representative, varying one slot at a time (H is a
        subgroup, so the relation is transitive): the first break of each
        over ``member_rows`` names x, its representative x2 and y or r."""
        lat, rows = subgroup_lattice(self.mod), self.member_rows()
        if hasattr(self.mod, "scalar_reps"):
            act = ("action", "r", lat.act_table().T.__getitem__)
        else:
            act = ("multiplication", "y", lat.act_table)
        for name, key, table, operands in [
                ("addition", "y", lat.add_table.__getitem__, lat.elems),
                (*act, lat.scalars)]:
            hit = _first_label_break(self.labels, table, rows)
            ce = None
            if hit is not None:
                x = lat.elems[hit[0]]
                ce = {"x": x, "x2": self.rep_of[x], key: operands[hit[1]]}
            self.verdicts.append(Verdict(f"{name}-well-defined", ce is None,
                                         ce))

    def ok(self):
        return all(v.passed for v in self.verdicts)


def _first_hom_break(src, dst, img, allowed=None):
    """The first cell where the index map ``img`` breaks the hom laws, as
    (x, "+" or "*", operand), or None.  Cells run over x in
    ``src.elements()`` order, then for a module over f(x + y) for each y,
    then f(r x) for each scalar r; for a ring over f(x + y), f(x y) for each
    y.  A cell holds when equal to (or in ``allowed`` of) the operation on
    the images."""
    s, d = subgroup_lattice(src), subgroup_lattice(dst)
    order = np.array([s.index[x] for x in src.elements()], dtype=np.intp)
    if hasattr(src, "scalar_reps"):
        scalars, act_s = s.scalars, s.act_table()
        act_d = np.array([d.act_row(r) for r in scalars], dtype=np.intp)
        cols = np.arange(len(order) + len(scalars))
    else:
        # a ring acts on itself by each y, interleaved with the sums
        scalars = [s.elems[y] for y in order]
        act_s, act_d = s.act_table(order), d.act_table(img[order])
        cols = np.arange(2 * len(order)).reshape(2, -1).T.ravel()
    operands = [("+", s.elems[y]) for y in order] + [("*", r) for r in scalars]

    def bad(x):
        got = np.hstack([s.add_table[x][:, order], act_s[:, x].T])
        want = np.hstack([d.add_table[img[x]][:, img[order]],
                          act_d[:, img[x]].T])
        got, want = img[got[:, cols]], want[:, cols]
        return got != want if allowed is None else ~allowed[want, got]

    (hit,) = _first_break(order, len(cols), bad)
    return None if hit is None else (s.elems[hit[0]], *operands[cols[hit[1]]])


def _price_list(rows, n):
    """Refuse a pair walk over ``rows`` listed subsets of n elements when
    its rows^2 * n cells exceed LIST_PAIR_CELL_LIMIT, before any subset is
    drawn or any closure evaluated."""
    price(f"the list engine's walk over {rows}^2 pairs of {n}-element "
          f"subsets", rows * rows * n, LIST_PAIR_CELL_LIMIT, "cells")


def _sampled_masks(n, count, seed):
    """``count`` seeded random subsets of n elements as masks: a size drawn
    uniformly from 0..n, then that many distinct element indices."""
    rng = random.Random(seed)
    return [_mask(rng.sample(range(n), rng.randint(0, n)))
            for _ in range(count)]


def _row_keys(rows):
    """One sortable key per row of a 2-D bool array: the row read as a
    binary number (one BLAS product, exact in float64) for at most 53
    elements, else its packed bytes."""
    n = rows.shape[1]
    if n <= 53:
        return (rows @ 2.0 ** np.arange(n)).astype(np.int64)
    packed = np.packbits(rows, axis=1, bitorder="little")
    width = -(-packed.shape[1] // 8) * 8
    words = np.zeros((len(rows), width), dtype=np.uint8)
    words[:, :packed.shape[1]] = packed
    return words.view(np.dtype((np.void, width))).ravel()


class _ClosureRows:
    """cl on bool rows over the lattice's element order, each distinct row
    computed once.  Known rows are a sorted key array with the table row of
    each, so a batch is looked up by one ``searchsorted`` and only its new
    rows are computed.

    A closure without a join (as ``declared_join`` reads it) is evaluated
    on its new rows by one ``eval_rows`` call.  One with a join is built as
    the exhaustive engine builds its table (``FiniteDomain.closure_vector``),
    from the generator rows cl({}) and cl({e_i}), each evaluated at most
    once and only for the elements e_i that occur in new rows:

    * ``"union"``: cl(A) = cl({}) | the union of cl({e_i}) over e_i in A,
      one float32 product A @ G against the generator rows G.
    * ``"sum"``: fold in element order.  Every row starts at cl({}), and
      for each element e_i the rows holding it are replaced by U + cl({e_i})
      (``U @ M_i > 0`` with M_i[j, k] = [e_k - e_j in cl({e_i})]).  After
      the elements of A before e_i a row is cl of those elements, so this
      step gives cl(B | {e_i}) = cl(B) + cl({e_i}), the declared rule.  The
      first step is the rule at B = {}, so no subgroup argument is needed.

    The join pays only when it evaluates fewer rows than it fills: a call
    is built by it when its new rows outnumber the generator rows it would
    still have to evaluate, and otherwise by ``eval_rows``.  Either way a
    call hands ``eval_rows`` at most as many rows as it has new rows.
    (A list of a few subgroups of Z/53 has a handful of new rows, and 54
    generator rows.)  The join's float32 matrices, G (n^2 cells) or the n
    matrices M_i (n^3 cells), are built once, and only where they fit in
    LIST_GRID cells (1 MiB; for a sum, n <= 64); a larger structure is
    evaluated by ``eval_rows``, as the sum's matrices would take 64 MiB on
    Z/256 and 512 MiB on Z/512.
    """

    def __init__(self, cl, lat):
        n = lat.n
        self.cl = cl
        self.lat = lat
        self.keys = _row_keys(np.zeros((0, n), dtype=bool))
        self.slots = np.zeros(0, dtype=np.intp)
        self.table = np.zeros((16, n), dtype=bool)
        self.rule = declared_join(cl)
        self.shape = {"union": (n, n), "sum": (n, n, n)}.get(self.rule)
        if self.shape is None or math.prod(self.shape) > LIST_GRID:
            self.rule = None
        # generator 0 is cl({}), kept as ``empty``, and generator 1 + i is
        # cl({e_i}), kept in the join's matrices, once ``known``
        self.empty = self.mats = None
        self.known = np.zeros(n + 1, dtype=bool)

    def __call__(self, rows):
        flat = rows.reshape(-1, self.lat.n)
        keys, inverse = np.unique(_row_keys(flat), return_inverse=True)
        inverse = inverse.ravel()
        slots = self._find(keys)
        new = slots < 0
        if new.any():
            # a representative row of each key: rows with one key are equal
            first = np.empty(len(keys), dtype=np.intp)
            first[inverse] = np.arange(len(flat))
            fresh = flat[first[new]]
            joined = self._generators(fresh)
            if joined is None:
                values = self.cl.eval_rows(fresh)
            else:
                if joined:
                    # generator rows just evaluated may be among the new
                    slots = self._find(keys)
                    new = slots < 0
                    fresh = flat[first[new]]
                values = self._joined(fresh)
            slots[new] = self._add(keys[new], values)
        return self.table[slots[inverse]].reshape(rows.shape)

    def _find(self, keys):
        """The table slot of each key, or -1 for a key not yet known."""
        pos = np.searchsorted(self.keys, keys)
        hit = pos < len(self.keys)
        hit[hit] = self.keys[pos[hit]] == keys[hit]
        slots = np.full(len(keys), -1, dtype=np.intp)
        slots[hit] = self.slots[pos[hit]]
        return slots

    def _add(self, keys, values):
        """Store the rows ``values`` under new ``keys``; their slots."""
        start = len(self.keys)
        slots = start + np.arange(len(keys))
        if start + len(keys) > len(self.table):
            grown = np.zeros((max(start + len(keys), 2 * len(self.table)),
                              self.lat.n), dtype=bool)
            grown[:start] = self.table[:start]
            self.table = grown
        self.table[slots] = values
        # no new key is known: merge the sorted new keys in at their
        # searchsorted positions
        order = np.argsort(keys)
        at = np.searchsorted(self.keys, keys[order]) + np.arange(len(keys))
        old = np.ones(start + len(keys), dtype=bool)
        old[at] = False
        merged = np.empty(len(old), dtype=self.keys.dtype)
        merged[at], merged[old] = keys[order], self.keys
        self.keys = merged
        merged = np.empty(len(old), dtype=np.intp)
        merged[at], merged[old] = slots[order], self.slots
        self.slots = merged
        return slots

    def _generators(self, rows):
        """None when the new ``rows`` are to be evaluated one by one.
        Otherwise the generator rows they need are made known, read from
        the table or evaluated into it, and the answer is whether any was
        evaluated."""
        if self.rule is None:
            return None
        wanted = ~self.known
        wanted[1:] &= rows.any(0)
        need = np.flatnonzero(wanted)
        if len(rows) <= len(need) - len(self.keys):
            # the table holds at most len(self.keys) of the needed rows
            return None
        if not len(need):
            return False
        units = np.zeros((len(need), self.lat.n), dtype=bool)
        units[need > 0, need[need > 0] - 1] = True
        keys = _row_keys(units)
        slots = self._find(keys)
        missing = slots < 0
        evaluated = np.count_nonzero(missing)
        if len(rows) <= evaluated:
            return None
        if evaluated:
            slots[missing] = self._add(keys[missing],
                                       self.cl.eval_rows(units[missing]))
        if self.mats is None:
            self.mats = np.zeros(self.shape, dtype=np.float32)
        self.known[need] = True
        values = self.table[slots]
        if need[0] == 0:
            self.empty, values, need = values[0], values[1:], need[1:]
        if self.rule == "sum":
            values = values[:, self.lat.neg_add_table]
        self.mats[need - 1] = values
        return evaluated > 0

    def _joined(self, rows):
        """cl of each row from the generator rows, by the join."""
        if self.rule == "union":
            return self.empty | (rows.astype(np.float32) @ self.mats > 0)
        out = np.tile(self.empty, (len(rows), 1))
        for i in np.flatnonzero(rows.any(0)):
            has = rows[:, i]
            out[has] = out[has].astype(np.float32) @ self.mats[i] > 0
        return out


def _chunks(total, row_cells):
    """Row ranges [lo, hi) over ``total`` rows: one row, then doubling, up to
    LIST_GRID cells a chunk."""
    cap = max(1, LIST_GRID // max(1, row_cells))
    lo, rows = 0, 1
    while lo < total:
        yield lo, min(total, lo + rows)
        lo += rows
        rows = min(2 * rows, cap)


def _first_break(rows, row_cells, *bads):
    """A list of each predicate's row-major first true cell, as (row,
    *columns), or None.  ``bad(x)`` maps a slice x of the index array
    ``rows`` to a bool array with axis 0 along x; the rows go in
    ``_chunks`` of ``row_cells`` cells a row, and a predicate is not
    evaluated after its first hit.  The hit is that of the dense array,
    whatever the chunk sizes: the chunks are consecutive row ranges, so
    every cell of an earlier chunk precedes every cell of a later one in
    row-major order, and the cells of the chunks before the first with a
    true cell are all false.  An early hit costs one small chunk."""
    hits = [None] * len(bads)
    for lo, hi in _chunks(len(rows), row_cells):
        x = rows[lo:hi]
        for k, bad in enumerate(bads):
            if hits[k] is None and (pos := _first_violation(bad(x))):
                hits[k] = (int(x[pos[0]]), *pos[1:])
        if None not in hits:
            break
    return hits


def _spread(x, lat):
    """[a, j, k]: whether e_k is in x_a + e_j."""
    return x[:, lat.neg_add_table].astype(np.float32)


def _pair_sums(x, yf, lat):
    """[j, i, k]: whether e_k is in the set-sum x_i + y_j, for y given as
    float32 rows."""
    r, n = x.shape
    q = _spread(x, lat).transpose(1, 0, 2).reshape(n, r * n)
    return (yf @ q > 0).reshape(len(yf), r, n)


def _self_sums(x, lat):
    """[a, k]: whether e_k is in x_a + x_a."""
    sums = x.astype(np.float32)[:, None, :] @ _spread(x, lat)
    return sums[:, 0, :] > 0


def _acted(x, lat):
    """[a, t, k]: whether e_k is in r_t * x_a."""
    r, n = x.shape
    act = lat.act_table()
    ns = len(act)
    out = np.zeros(r * ns * n, dtype=bool)
    a, j = np.nonzero(x)
    out[((a[:, None] * ns + np.arange(ns)) * n + act[:, j].T).ravel()] = True
    return out.reshape(r, ns, n)


def _check_axioms_list(cl, struct, masks, report, paired=None):
    """The six verdicts over an explicit list of subsets of ``struct``.

    Each subset is a mask over ``rings.subgroup_lattice(struct)``, read as
    a bool row over its element order, which is ``sort_key`` order, so the
    least element of a difference is its first set column.  C1, C3, C4b and
    absorption report the first list member that violates, C4b and
    absorption with the first scalar of the lattice for that member;
    absorption is tested on the members that are additive subgroups
    (0 in A and A + A inside A).  C2 and C4a report the first violating
    pair (A_i, A_j) in row-major list order over the first ``paired``
    members (all of them by default); equal members are separate rows.
    Pair rows are walked by ``_first_break`` once priced (``_price_list``);
    the unary walk is its own ``_chunks`` loop, as C4b and absorption
    share one ``_acted(x)`` a chunk.
    """
    lat = subgroup_lattice(struct)
    n, elems, scalars = lat.n, lat.elems, lat.scalars
    npair = len(masks) if paired is None else min(paired, len(masks))
    _price_list(npair, n)
    clo = _ClosureRows(cl, lat)
    a = lat.rows(masks)
    c = clo(a)

    def listed(row):
        return [elems[j] for j in np.flatnonzero(row)]

    def least(row):
        return elems[int(np.argmax(row))]

    bad = a & ~c
    pos = _first_violation(bad.any(1))
    c1 = None if pos is None else {"A": listed(a[pos[0]]),
                                   "witness": least(bad[pos[0]])}
    cc = clo(c)
    pos = _first_violation((cc != c).any(1))
    c3 = None if pos is None else {"A": listed(a[pos[0]]),
                                   "clA": listed(c[pos[0]]),
                                   "cl_clA": listed(cc[pos[0]])}

    c4b = absorb = None
    for lo, hi in _chunks(len(a), (len(scalars) + n) * n):
        x, cx = a[lo:hi], c[lo:hi]
        rx = _acted(x, lat)
        if c4b is None:
            bad = _acted(cx, lat) & ~clo(rx)
            pos = _first_violation(bad.any(2))
            if pos is not None:
                i, t = pos
                c4b = {"A": listed(x[i]), "r": scalars[t],
                       "witness": least(bad[i, t])}
        if absorb is None:
            sub = x[:, lat.zero] & ~(_self_sums(x, lat) & ~x).any(1)
            bad = sub[:, None, None] & rx & ~cx[:, None, :]
            pos = _first_violation(bad.any(2))
            if pos is not None:
                i, t = pos
                absorb = {"A": listed(x[i]), "r": scalars[t],
                          "witness": least(bad[i, t])}
        if c4b is not None and absorb is not None:
            break

    x, cx = a[:npair], c[:npair]
    aug = x.copy()
    aug[:, lat.zero] = True
    xf, cxf, augf = (v.astype(np.float32) for v in (x, cx, aug))
    x_out, cx_out = ((~v).T.astype(np.float32) for v in (x, cx))

    def c2_bad(i):
        # A_i inside A_j, and cl(A_i) not inside cl(A_j)
        return (xf[i] @ x_out == 0) & (cxf[i] @ cx_out > 0)

    def c4a_bad(i):
        # [i, j, k]: e_k in cl(A_i) + cl(A_j), outside cl(A_i|0 + A_j|0)
        bad = _pair_sums(cx[i], cxf, lat) & ~clo(_pair_sums(aug[i], augf, lat))
        return bad.transpose(1, 0, 2)

    c2, c4a = _first_break(np.arange(npair), (npair + n) * n, c2_bad, c4a_bad)
    if c2 is not None:
        i, j = c2
        c2 = {"A": listed(x[i]), "B": listed(x[j]),
              "witness": least(cx[i] & ~cx[j])}
    if c4a is not None:
        i, j, k = c4a
        c4a = {"A": listed(x[i]), "B": listed(x[j]), "witness": elems[k]}

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
                 gen_bound=DEFAULT_Z_GEN_BOUND,
                 mult_bound=DEFAULT_Z_MULT_BOUND):
    """Verify C1-C4a, C4b, and subgroup absorption for a closure operator.

    Modes: ``exhaustive`` (all subsets of a finite ring or module, at most
    EXHAUSTIVE_SUBSET_CAP), ``subgroups`` (all additive subgroups, as
    priced by ``rings.enumerate_subgroups``), ``ideals`` (the classical
    ideal lattice), ``sampled`` (seeded random subsets), ``bounded`` (the
    only mode over Z: principal subgroups up to gen_bound, scalars up to
    mult_bound, both refused when negative).  ``auto`` picks
    exhaustive when the 2^n subsets are within the cap and, for a closure
    with no ``declared_join`` (2^n evaluations, not n + 1), n is at most
    EXHAUSTIVE_ELEMENTS; otherwise subgroups.  Any other mode is refused.

    Exhaustive runs use the bitmask tables (``check_axioms_finite``); the
    other finite modes go through the list engine over the stated list, in
    its order: subgroups and ideals by size and then by elements, a sample
    as drawn and then every subgroup.  A unary axiom reports the first
    member that violates it (for C4b and absorption, with the first scalar
    in ``sort_key`` order); C2 and C4a report the first violating pair
    (A, B) in row-major list order; a witness is the least element of the
    difference.  A walk over more than LIST_PAIR_CELL_LIMIT cells (list
    length squared times the ring size) raises ResourceLimitError before
    any subset is drawn.
    """
    if mode not in ("auto", "exhaustive", "subgroups", "ideals", "sampled",
                    "bounded"):
        raise PreconditionError(f"unknown axiom-check mode {mode!r}")
    ring = cl.ring
    if isinstance(ring, IntPolyContext):
        raise PreconditionError(
            "tolerance closures are membership-only; use the balanced-rule "
            "checks instead of check_axioms")
    if isinstance(ring, IntegerRing):
        if min(gen_bound, mult_bound) < 0:
            raise PreconditionError(f"the bounds {gen_bound}, {mult_bound} "
                                    f"over Z must not be negative")
        report = AxiomReport(mode="bounded",
                             domain=f"(d) for d <= {gen_bound}, |r| <= {mult_bound}")
        return _check_axioms_z(cl, report, gen_bound, mult_bound)
    if _is_integer_lattice(ring):
        raise PreconditionError(
            "axiom checking over integer lattices is not supported; "
            "model the instance in a residue product ring")

    card = ring.cardinality()
    subsets = PowerOfTwo(card)
    if mode == "auto":
        feasible = not subsets > EXHAUSTIVE_SUBSET_CAP and (
            declared_join(cl) is not None or card <= EXHAUSTIVE_ELEMENTS)
        mode = "exhaustive" if feasible else "subgroups"

    if mode == "exhaustive":
        price(f"exhaustive mode over the 2^{card} subsets of {ring}",
              subsets, EXHAUSTIVE_SUBSET_CAP, "subsets")
        report = AxiomReport(mode="exhaustive", domain=f"all subsets of {ring}")
        return check_axioms_finite(cl, ring_domain(ring), report)
    if mode == "subgroups":
        masks = [s.mask for s in enumerate_subgroups(ring)]
        report = AxiomReport(mode="subgroups",
                             domain=f"{len(masks)} additive subgroups of {ring}")
    elif mode == "ideals":
        from .rings import classical_ideals
        masks = [i.canonical.mask for i in classical_ideals(ring)]
        report = AxiomReport(mode="ideals",
                             domain=f"{len(masks)} classical ideals of {ring}")
    elif mode == "sampled":
        subs = [s.mask for s in enumerate_subgroups(ring)]
        _price_list(count + len(subs), card)
        masks = _sampled_masks(card, count, seed) + subs
        report = AxiomReport(mode="sampled", seed=seed, count=count,
                             domain=f"{len(masks)} sampled subsets of {ring}")
    else:
        raise PreconditionError(
            f"bounded mode is for Z only, and {ring} is finite: use "
            f"exhaustive, subgroups, ideals or sampled")
    return _check_axioms_list(cl, ring, masks, report)


def replay_counterexample(cl, axiom, ce):
    """Re-evaluate a recorded counterexample; True when it still violates.

    Covers the checkers of finite rings and modules, whose scalars act by
    the ring's product or the module's action; bounded integer reports
    carry their principal-subgroup witnesses as display strings instead.
    """
    ring = cl.ring
    lat = subgroup_lattice(ring)
    ev, zero = cl.eval_mask, 1 << lat.zero
    if axiom not in AxiomReport.AXIOMS:
        raise PreconditionError(f"unknown axiom {axiom!r}")
    a = lat.mask(ce["A"])

    def acted(r, mask):
        row = lat.act_row(r)
        return _mask({row[j] for j in _bits(mask)})

    if axiom == "C1":
        return bool(a & ~ev(a))
    if axiom == "C2":
        b = lat.mask(ce["B"])
        return not a & ~b and bool(ev(a) & ~ev(b))
    if axiom == "C3":
        return ev(ev(a)) != ev(a)
    if axiom == "C4a":
        b = lat.mask(ce["B"])
        rhs = ev(lat.setsum(a | zero, b | zero))
        return bool(lat.setsum(ev(a), ev(b)) & ~rhs)
    if axiom == "C4b":
        r = ce["r"] if lat._module else ring.canon(ce["r"])
        return bool(acted(r, ev(a)) & ~ev(acted(r, a)))
    prods = 0
    for r in lat.scalars:
        prods |= acted(r, a)
    return bool(prods & ~ev(a))


# ---------------------------------------------------------------------------
# functoriality of ring homs with respect to a pair of closures


def _subsets_for(ring):
    """Nonempty subsets, as masks, of a ring of at most EXHAUSTIVE_ELEMENTS
    elements, and the additive subgroups of a larger one: the degenerate
    empty corner separates set-shift from span closures (cl of the empty
    set is empty versus {0}) and would dominate every compatibility
    verdict, contrary to the worked models."""
    n = ring.cardinality()
    if n > EXHAUSTIVE_ELEMENTS:
        subs = [s.mask for s in enumerate_subgroups(ring)]
        return subs, f"additive subgroups of {ring}"
    # by size, then in ``itertools.combinations`` order
    masks = [_mask(c) for r in range(1, n + 1)
             for c in itertools.combinations(range(n), r)]
    return masks, f"nonempty subsets of {ring}"


def closure_image_compatible(f, cl_src, cl_dst):
    """Check f(cl(A)) subset of cl(f(A)) over a stated domain of subsets A."""
    _require_closure_rings(f, cl_src, cl_dst)
    if isinstance(f.src, IntegerRing):
        # principal subgroups (d) for d <= 200, then at most two generators
        # from 0..8: A, the generator of the subgroup A spans, and f(A)
        candidates = itertools.chain(
            ((f"({d})", d, _z_image_of_principal(f, d)) for d in range(201)),
            ((list(gens), math.gcd(*gens), frozenset(map(f.apply, gens)))
             for size in range(3)
             for gens in itertools.combinations(range(9), size)))
        for a, d, image in candidates:
            lhs = _z_image_of_principal(f, cl_src.z_principal_image(d))
            rhs = materialize(cl_dst, image)
            if not lhs <= rhs:
                return Verdict("image-compatible", False,
                               {"A": a, "witness": min(lhs - rhs, key=sort_key)},
                               mode="bounded")
        return Verdict("image-compatible", True, mode="bounded")

    subsets, domain = _subsets_for(f.src)
    src, dst, img = _hom_map(f)
    rows = src.rows(subsets)
    bad = _first_image_violation(dst, img, rows,
                                 _ClosureRows(cl_src, src)(rows), cl_dst)
    if bad is not None:
        return Verdict("image-compatible", False,
                       {"A": src.listed(subsets[bad[0]]),
                        "witness": bad[1]}, mode=domain)
    return Verdict("image-compatible", True, mode=domain)


def _first_unabsorbed(struct, x_mask, cl_mask):
    """The first (r, x, r x), r a scalar and x in the mask ``x_mask`` in
    index order, with r x outside ``cl_mask``, read off the act table (for
    a ring, the rows of x only, in fixed steps of LIST_GRID cells, one on
    small rings, where ``_first_break`` would add calls); or None."""
    lat = subgroup_lattice(struct)
    (cl_row,) = lat.rows([cl_mask])
    xs = np.array(_bits(x_mask), dtype=np.intp)
    if lat._module:
        bad = ~cl_row[lat.act_table()[:, xs]]
    else:
        # a ring is commutative: r x is row x of its act table at column r
        step = max(1, LIST_GRID // lat.n)
        bad = np.concatenate([~cl_row[lat.act_table(xs[lo:lo + step])]
                              for lo in range(0, len(xs), step)]).T
    pos = _first_violation(bad)
    if pos is None:
        return None
    r, x = pos
    return (lat.scalars[r], lat.elems[xs[x]],
            lat.elems[lat.act_table([r])[0, xs[x]]])


def _first_image_violation(dst, img, rows, cl_rows, cl_dst):
    """The position of the first A with f(cl(A)) outside cl'(f(A)), and the
    least element of the difference, or None: A and cl(A) are bool rows
    over the source lattice, ``img`` is f from it to the target lattice
    ``dst``, and cl' is computed once per distinct row of f(A)."""
    bad = _image_rows(img, cl_rows, dst.n) & \
        ~_ClosureRows(cl_dst, dst)(_image_rows(img, rows, dst.n))
    pos = _first_violation(bad.any(1))
    if pos is None:
        return None
    return pos[0], dst.elems[int(np.argmax(bad[pos[0]]))]


def _first_preimage_violation(src, dst, img, rows, cl_src, cl_dst):
    """The position of the first B (bool rows over ``dst``) with
    f^-1(cl'(B)) outside cl(f^-1(B)), and the least element of the
    difference, or None; walked by ``_first_break``, so an early failure
    evaluates the closures on one small chunk."""
    cl_s, cl_d = _ClosureRows(cl_src, src), _ClosureRows(cl_dst, dst)
    (hit,) = _first_break(np.arange(len(rows)), dst.n, lambda k:
                          cl_d(rows[k])[:, img] & ~cl_s(rows[k][:, img]))
    return None if hit is None else (hit[0], src.elems[hit[1]])


def closure_preimage_compatible(f, cl_src, cl_dst):
    """Check f^{-1}(cl(B)) subset of cl(f^{-1}(B)) over codomain subsets B."""
    _require_closure_rings(f, cl_src, cl_dst)
    subsets, domain = _subsets_for(f.dst)
    dst = subgroup_lattice(f.dst)
    if isinstance(f.src, IntegerRing):
        n, bad = f.dst.n, None
        for k, m in enumerate(subsets):
            b = dst.values(m)
            wit = [u for u in dst.listed(cl_dst.eval_mask(m))
                   if not (_z_preimage_member(cl_src, f, b, u) and
                           _z_preimage_member(cl_src, f, b, u + n))]
            if wit:
                bad = k, wit[0]
                break
    else:
        src, dst, img = _hom_map(f)
        bad = _first_preimage_violation(
            src, dst, img, dst.rows(subsets), cl_src, cl_dst)
    if bad is not None:
        return Verdict("preimage-compatible", False,
                       {"B": dst.listed(subsets[bad[0]]),
                        "witness": bad[1]}, mode=domain)
    return Verdict("preimage-compatible", True, mode=domain)


def _require_closure_rings(f, cl_src, cl_dst):
    if cl_src.ring != f.src or cl_dst.ring != f.dst:
        raise DomainMismatchError("closures must match the hom's rings")


def _z_image_of_principal(f, d):
    """f(dZ) = <f(d)> as an explicit subset of the finite codomain."""
    return additive_closure(f.dst, [f.apply(d)])


def _z_preimage_member(cl_src, f, b_set, x):
    """x in cl_R(f^{-1}(B)) for f: Z -> Z/n and a span- or set-shift closure."""
    n = f.dst.n
    if isinstance(cl_src, SetShiftClosure):
        m = cl_src.shift_ideal.canonical.d
        gmod = math.gcd(n, m)
        if not b_set:
            return False
        if gmod == 0:
            return x in b_set
        return (x % gmod) in {b % gmod for b in b_set}
    span = math.gcd(n, *b_set) if b_set else 0
    return PrincipalSubgroup(cl_src.z_principal_image(span)).contains(x)
