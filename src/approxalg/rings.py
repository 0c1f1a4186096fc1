"""Effective commutative rings with unity, and their subgroups and ideals.

Every ring works on canonical element values (plain ints and tuples), so
structural equality of values is element equality.  The supported rings:

* ``IntegerRing`` -- arbitrary-precision integers.
* ``ResidueRing(n)`` -- Z/n, residues in [0, n).
* ``ProductRing(factors)`` -- componentwise product; factors all finite, or
  all copies of Z (the integer-lattice case supports arithmetic and modular
  closure membership only).
* ``PolyQuotient(p, modulus)`` -- F_p[x]/(modulus), coefficient tuples.
* ``FunctionRing(p, nvars)`` -- all functions F_p^nvars -> F_p, stored as
  value tables over the lexicographic point grid (x_i^p = x_i holds, so the
  table is a faithful canonical form).
* ``TableRing`` -- an explicit finite ring, elements with add and product
  tables of indices into them: the finite quotient and localization models.

Additive subgroups are ``FiniteSubgroup`` (finite rings and modules) or
``PrincipalSubgroup(d)`` (d*Z inside the integers).  Both, and the plain
``ElementSet``, answer one protocol: ``contains``, ``<=`` and ``<``
(inclusion), ``&`` (intersection), ``==`` and ``hash``, ``is_whole()`` and
``repr``, so code above this module need not ask which kind it holds.
One kernel, ``subgroup_lattice``, answers every subgroup, span and lattice
question for finite rings, their quotient and localization models, and
finite modules, where a subset is an int mask over the element order; code
above this module reads a subset's ``mask`` (or its bool row, ``rows``) and
finite sums and products off the index tables (``add_table``,
``act_table``), as the ideal, prime and transport tests do.
Finitely generated ideals carry their generators plus a canonical subgroup
form with decidable membership.
"""

from __future__ import annotations

import itertools
import math
import weakref
from functools import cached_property

import numpy as np

from . import polynomials as poly
from .errors import (
    DomainMismatchError,
    NotEnumerableError,
    PreconditionError,
    figure,
    price,
)

# the most work, in elements, ``_Lattice.subgroups`` may do: (Z/2)^6, the
# worst abelian group of order <= 64, takes 489,562; (Z/2)^7 takes more
SUBGROUP_WORK_LIMIT = 1 << 20


def is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n):
    """The distinct primes dividing n != 0, ascending, by trial division up
    to the square root of what is left of n."""
    n = abs(n)
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# ring descriptors


class Ring:
    """Arithmetic on canonical values plus descriptor metadata."""

    is_finite = False

    def cardinality(self):
        return None

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    zero = None
    one = None

    def canon(self, v):
        """Canonicalize a raw value, raising if it does not belong here."""
        raise NotImplementedError

    def elements(self):
        """All elements in canonical order (finite rings only)."""
        raise NotEnumerableError(f"{self} is not enumerable")

    def spec_string(self):
        raise NotImplementedError

    def format_element(self, v):
        return str(v)

    def __repr__(self):
        return self.spec_string()

    def __eq__(self, other):
        return self is other or (isinstance(other, Ring) and
                                 self.spec_string() == other.spec_string())

    def __hash__(self):
        return hash(self.spec_string())


class IntegerRing(Ring):
    is_finite = False
    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def canon(self, v):
        if isinstance(v, bool) or not isinstance(v, int):
            raise DomainMismatchError(f"{v!r} is not an integer")
        return v

    def spec_string(self):
        return "Z"


Z = IntegerRing()


class ResidueRing(Ring):
    is_finite = True

    def __init__(self, n):
        if n < 2:
            raise PreconditionError("ResidueRing requires n >= 2")
        self.n = n
        self.zero = 0
        self.one = 1 % n

    def cardinality(self):
        return self.n

    def add(self, a, b):
        return (a + b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def canon(self, v):
        if isinstance(v, bool) or not isinstance(v, int):
            raise DomainMismatchError(f"{v!r} is not an integer")
        return v % self.n

    def elements(self):
        return iter(range(self.n))

    def spec_string(self):
        return f"Zn:{self.n}"


class ProductRing(Ring):
    """Componentwise product.  All factors finite, or all equal to Z."""

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise PreconditionError("ProductRing needs at least one factor")
        finite = [f.is_finite for f in factors]
        if all(finite):
            self.is_finite = True
        elif all(isinstance(f, IntegerRing) for f in factors):
            # integer lattice Z^k: arithmetic and modular membership only
            self.is_finite = False
        else:
            raise PreconditionError(
                "ProductRing factors must be all finite or all Z")
        self.factors = factors
        self.zero = tuple(f.zero for f in factors)
        self.one = tuple(f.one for f in factors)
        self._spec = f"prod:[{','.join(f.spec_string() for f in factors)}]"

    def cardinality(self):
        if not self.is_finite:
            return None
        out = 1
        for f in self.factors:
            out *= f.cardinality()
        return out

    def add(self, a, b):
        return tuple(f.add(x, y) for f, x, y in zip(self.factors, a, b))

    def neg(self, a):
        return tuple(f.neg(x) for f, x in zip(self.factors, a))

    def mul(self, a, b):
        return tuple(f.mul(x, y) for f, x, y in zip(self.factors, a, b))

    def canon(self, v):
        if not isinstance(v, tuple) or len(v) != len(self.factors):
            raise DomainMismatchError(f"{v!r} is not a {len(self.factors)}-tuple")
        return tuple(f.canon(x) for f, x in zip(self.factors, v))

    def elements(self):
        if not self.is_finite:
            raise NotEnumerableError(f"{self} is not enumerable")
        return itertools.product(*[list(f.elements()) for f in self.factors])

    def spec_string(self):
        return self._spec

    def format_element(self, v):
        return "(" + ",".join(f.format_element(x)
                              for f, x in zip(self.factors, v)) + ")"


class PolyQuotient(Ring):
    """F_p[x] / (modulus), for a monic modulus of degree >= 1."""

    is_finite = True

    def __init__(self, p, modulus):
        if not is_prime(p):
            raise PreconditionError(f"{p} is not prime")
        modulus = poly.uni_trim(c % p for c in modulus)
        if len(modulus) < 2:
            raise PreconditionError("modulus must have degree >= 1")
        if modulus[-1] != 1:
            raise PreconditionError("modulus must be monic")
        self.p = p
        self.modulus = modulus
        self.deg = len(modulus) - 1
        self.zero = ()
        self.one = (1,)
        self._spec = f"GF:{p}/{poly.uni_to_str(modulus)}"

    def cardinality(self):
        return self.p ** self.deg

    def add(self, a, b):
        return poly.uni_add(self.p, a, b)

    def neg(self, a):
        return poly.uni_neg(self.p, a)

    def mul(self, a, b):
        return poly.uni_rem(self.p, poly.uni_mul(self.p, a, b), self.modulus)

    def canon(self, v):
        if not isinstance(v, tuple):
            raise DomainMismatchError(f"{v!r} is not a coefficient tuple")
        return poly.uni_rem(self.p, poly.uni_trim(c % self.p for c in v),
                            self.modulus)

    def elements(self):
        for coeffs in itertools.product(range(self.p), repeat=self.deg):
            yield poly.uni_trim(coeffs)

    def spec_string(self):
        return self._spec

    def format_element(self, v):
        return poly.uni_to_str(v)


class FunctionRing(Ring):
    """All functions F_p^nvars -> F_p with pointwise operations.

    Canonical value: the tuple of values over the lexicographic point grid.
    """

    is_finite = True

    def __init__(self, p, nvars):
        if not is_prime(p):
            raise PreconditionError(f"{p} is not prime")
        if nvars < 1:
            raise PreconditionError("nvars must be >= 1")
        self.p = p
        self.nvars = nvars
        # the grid F_p^nvars, lexicographic
        self.points = tuple(itertools.product(range(p), repeat=nvars))
        self.npoints = len(self.points)
        self.zero = (0,) * self.npoints
        self.one = (1,) * self.npoints

    def cardinality(self):
        return self.p ** self.npoints

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        return tuple((x * y) % self.p for x, y in zip(a, b))

    def canon(self, v):
        if not isinstance(v, tuple) or len(v) != self.npoints:
            raise DomainMismatchError(f"{v!r} is not a {self.npoints}-entry table")
        return tuple(x % self.p for x in v)

    def elements(self):
        return itertools.product(range(self.p), repeat=self.npoints)

    def variable(self, i):
        """The coordinate function x_{i+1}."""
        return tuple(a[i] for a in self.points)

    def constant(self, c):
        return (c % self.p,) * self.npoints

    def from_mpoly(self, f):
        """Value table of a sparse multivariate polynomial."""
        return tuple(poly.m_eval(f, a, self.p) for a in self.points)

    def to_mpoly(self, v):
        """Reduced polynomial form of a value table (x_i^p = x_i)."""
        return poly.interpolate_fn_table(self.p, self.nvars, self.points, v)

    def spec_string(self):
        return f"Fun:p={self.p},n={self.nvars}"

    def format_element(self, v):
        names = [f"x{i+1}" for i in range(self.nvars)]
        return poly.m_to_str(self.to_mpoly(v), names)


class TableRing(Ring):
    """Finite ring given by its elements and its operation tables.

    ``add`` and ``mul`` are n x n tables of indices into ``elems`` (entry
    [i][j] is the index of e_i + e_j, of e_i e_j); negation is read off the
    add table, and ``names`` are the elements' display strings.  Plain
    data, so it pickles; not part of the ring grammar.  Nothing makes its
    ``add`` a group law, so its subgroup lattice checks the add table once,
    before it reads a row, and refuses one that is not an abelian group's
    with ``PreconditionError`` (``_Lattice``).
    """

    is_finite = True

    # Compared by identity: every quotient of one ring by any ideal, and
    # every localization of one ring, shares a label, not a table.
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, label, elems, add, mul, zero, one, names=None):
        self._label = label
        self._elems = tuple(elems)
        self._index = {v: i for i, v in enumerate(self._elems)}
        self.sums, self.products = np.asarray(add), np.asarray(mul)
        self.zero, self.one, self._names = zero, one, names

    def cardinality(self):
        return len(self._elems)

    def add(self, a, b):
        return self._elems[self.sums[self._index[a], self._index[b]]]

    def neg(self, a):  # the first b in element order with a + b = 0
        row = self.sums[self._index[a]].tolist()
        return self._elems[row.index(self._index[self.zero])]

    def mul(self, a, b):
        return self._elems[self.products[self._index[a], self._index[b]]]

    def canon(self, v):
        if v not in self._index:
            raise DomainMismatchError(f"{v!r} is not an element of {self._label}")
        return v

    def elements(self):
        return iter(self._elems)

    def spec_string(self):
        return self._label

    def format_element(self, v):
        return str(v) if self._names is None else self._names[self._index[v]]


def price_group_check(name, n):
    """Refuse an n-element ring whose group check would read its n^2
    add-table cells, past SUBGROUP_WORK_LIMIT, before they are built."""
    price(f"the group check of {name} over its {n} x {n} add table", n * n,
          SUBGROUP_WORK_LIMIT, "cells")


# ---------------------------------------------------------------------------
# elements and the arithmetic interface


class RingElem:
    """A canonical value tagged with its ring."""

    __slots__ = ("ring", "value")

    def __init__(self, ring, value):
        self.ring = ring
        self.value = ring.canon(value)

    def _check(self, other):
        if not isinstance(other, RingElem) or other.ring != self.ring:
            raise DomainMismatchError(
                f"operands from different rings: {self.ring} vs "
                f"{getattr(other, 'ring', type(other))}")

    def __add__(self, other):
        self._check(other)
        return RingElem(self.ring, self.ring.add(self.value, other.value))

    def __neg__(self):
        return RingElem(self.ring, self.ring.neg(self.value))

    def __sub__(self, other):
        self._check(other)
        return RingElem(self.ring, self.ring.sub(self.value, other.value))

    def __mul__(self, other):
        self._check(other)
        return RingElem(self.ring, self.ring.mul(self.value, other.value))

    def __eq__(self, other):
        return (isinstance(other, RingElem) and other.ring == self.ring
                and other.value == self.value)

    def __hash__(self):
        return hash((self.ring, self.value))

    def __repr__(self):
        return f"{self.ring.format_element(self.value)} in {self.ring}"


class ElemOps:
    """The arithmetic interface of a ring: add, neg, mul, zero, one, eq."""

    def __init__(self, ring):
        self.ring = ring
        self.zero = RingElem(ring, ring.zero)
        self.one = RingElem(ring, ring.one)

    def elem(self, value):
        return RingElem(self.ring, value)

    def _values(self, a, b):
        for x in (a, b):
            if x.ring != self.ring:
                raise DomainMismatchError(
                    f"operand from {x.ring}, expected {self.ring}")
        return a.value, b.value

    def add(self, a, b):
        x, y = self._values(a, b)
        return RingElem(self.ring, self.ring.add(x, y))

    def neg(self, a):
        if a.ring != self.ring:
            raise DomainMismatchError(f"operand from {a.ring}, expected {self.ring}")
        return RingElem(self.ring, self.ring.neg(a.value))

    def mul(self, a, b):
        x, y = self._values(a, b)
        return RingElem(self.ring, self.ring.mul(x, y))

    def eq(self, a, b):
        x, y = self._values(a, b)
        return x == y


def elem_ops(ring):
    """Arithmetic interface over canonical forms; operations are total."""
    return ElemOps(ring)


def enumerate_elements(ring):
    """Each element exactly once, in deterministic canonical order."""
    if not ring.is_finite:
        raise NotEnumerableError(f"{ring} is not enumerable")
    return ring.elements()


# ---------------------------------------------------------------------------
# the subgroup lattice of a finite ring or module, in index space


def _bits(mask):
    """Indices of the set bits of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _mask(indices):
    """The mask of distinct indices."""
    return sum(1 << i for i in indices)


def _first_violation(viol):
    """Row-major first True position, or None."""
    if not viol.any():
        return None
    return tuple(int(x) for x in np.argwhere(viol)[0])


class _Lattice:
    """A finite abelian group with a scalar action, in index space.

    Elements are numbered in ``sort_key`` order and a subset is an int mask
    of any width.  A ring acts on itself by ``mul``, a module (a structure
    with ``scalar_reps``) by ``act``.  The rows "add e_i" and the orbits
    R*e_i are built on first use, so a large ring pays only for the rows a
    call touches, and the act table likewise.  Structures are held weakly:
    the lattice is cached under the first in a weak dictionary, serves every
    equal one asked for, and keeps working for its callers while one lives.

    The group is checked at the door: the built-in rings, the modules and
    their quotients are groups by their arithmetic, but a ``TableRing``
    (user tables, quotient and localization models) has its add table
    checked once, before any add row is read (``_check_group``), so every
    walk below may take a group for granted.  Its add rows and act table
    are read off its tables (``_in_order``), not through its operations.
    """

    _DIGITS = bytes.maketrans(b"01", b"\0\1")  # binary digits as 0/1 bytes

    def __init__(self, struct):
        self._refs = [weakref.ref(struct)]
        self.elems = sorted(struct.elements(), key=sort_key)
        self.index = {v: i for i, v in enumerate(self.elems)}
        self.n = len(self.elems)
        self.zero = self.index[struct.zero]
        self._module = hasattr(struct, "scalar_reps")
        self.scalars = list(struct.scalar_reps) if self._module else self.elems
        self._rows = [None] * self.n
        self._checked = not isinstance(struct, TableRing)
        self._orbits = [None] * self.n
        self._subgroups = None

    def _struct(self):
        """A live structure among those the lattice has served (a strong
        reference would pin the lattice's own key in the weak cache)."""
        for struct in (ref() for ref in self._refs):
            if struct is not None:
                return struct
        raise PreconditionError("every structure this subgroup lattice "
                                "served has been collected")

    @cached_property
    def add_table(self):
        """Row i is the permutation "add e_i": j -> index of e_j + e_i."""
        return np.array([self.add_row(i) for i in range(self.n)],
                        dtype=np.intp)

    @cached_property
    def neg_add_table(self):
        """``neg_add_table[i, k]`` is the index of e_k - e_i: each row of
        ``add_table`` is a permutation, and this row its inverse."""
        return np.argsort(self.add_table, axis=1)

    @cached_property
    def _act_store(self):
        """The act table and its rows still to build (none for a TableRing)."""
        if isinstance(struct := self._struct(), TableRing):
            return self._in_order(struct.products), set()
        return (np.empty((len(self.scalars), self.n), dtype=np.intp),
                set(range(len(self.scalars))))

    def act_table(self, rows=None):
        """act[t, j], the index of r_t e_j for the t-th scalar (a ring's e_t),
        for every t or the scalar indices ``rows``.  A row is built on first
        use, so a call pays only for the products it reads."""
        table, missing = self._act_store
        if missing:
            todo = missing if rows is None else missing.intersection(rows)
            for t in todo:
                table[t] = self.act_row(self.scalars[t])
            missing -= todo
        return table if rows is None else table[rows]

    def _act(self):
        struct = self._struct()
        return struct.act if self._module else struct.mul

    def mask(self, values):
        """An ``ElementSet``'s own mask, or one read off values, where a
        non-element raises DomainMismatchError from ``canon``.  A set of an
        equal structure numbers its elements in the same ``sort_key``
        order; one of another structure raises DomainMismatchError."""
        if isinstance(values, ElementSet):
            if values.lat is not self and values.ring != self._struct():
                raise DomainMismatchError(f"{values!r} is not a subset of "
                                          f"{self._struct()}")
            return values.mask
        canon, index = self._struct().canon, self.index
        return _mask({index[canon(v)] for v in values})

    def values(self, mask):
        return frozenset(self.listed(mask))

    def listed(self, mask):
        """The elements of a mask, in ``sort_key`` order: its binary digits,
        lowest first, as 0/1 bytes selecting from the element list."""
        return list(itertools.compress(
            self.elems, bin(mask)[:1:-1].encode().translate(self._DIGITS)))

    def rows(self, masks):
        """Masks as the rows of a bool array over the element order."""
        width = (self.n + 7) // 8
        packed = np.frombuffer(b"".join(m.to_bytes(width, "little")
                                        for m in masks), dtype=np.uint8)
        rows = np.unpackbits(packed.reshape(-1, width), axis=1,
                             bitorder="little").astype(bool)
        if rows[:, self.n:].any():
            raise DomainMismatchError("a mask has bits beyond the elements")
        return rows[:, :self.n]

    def row_mask(self, row):
        """The mask of one bool row over the element order."""
        return int.from_bytes(np.packbits(row, bitorder="little").tobytes(),
                              "little")

    def add_row(self, i):
        """The permutation "add e_i": j -> index of e_j + e_i."""
        if self._rows[i] is None:
            if not self._checked:
                self._check_group()
                return self._rows[i]
            add, index, e = self._struct().add, self.index, self.elems[i]
            self._rows[i] = [index[add(x, e)] for x in self.elems]
        return self._rows[i]

    def _check_group(self):
        """Read a ``TableRing``'s add table in ``sort_key`` order and check
        that it is an abelian group's, keeping its rows if so; else raise
        PreconditionError naming the law and a cell.  Priced at its n^2
        cells against SUBGROUP_WORK_LIMIT.  In order: every row is a
        permutation (so every coset walk returns to H), 0 is neutral, the
        table is symmetric, and (x + g) + y = x + (g + y) for each g of
        ``generators``.  That last is Light's test (Clifford and Preston,
        The Algebraic Theory of Semigroups I, 1.2): the g for which it holds
        for all x, y hold 0 and are closed under +, as
        (x + (g + h)) + y = ((x + g) + h) + y = (x + g) + (h + y)
        = x + (g + (h + y)) = x + ((g + h) + y); and every element is a
        sum of generators, since the walk that finds them reaches each
        element as h + g with h reached and g a generator."""
        struct, n = self._struct(), self.n
        price_group_check(struct, n)
        elems, every = self.elems, np.arange(n)
        table = self._in_order(struct.sums).T

        def refuse(law, cell):
            self._rows = [None] * n
            raise PreconditionError(f"{struct} is not an abelian group "
                                    f"under +: {law} fails, {cell}")

        if (row := _first_violation((np.sort(table, axis=1) != every).any(1))):
            (g,) = row
            sums, e = table[g].tolist(), elems[g]
            x = next(j for j, k in enumerate(sums) if k < 0 or k in sums[:j])
            refuse("cancellation", f"{elems[x]!r} + {e!r} is not an element"
                   if sums[x] < 0 else f"{elems[sums.index(sums[x])]!r} + "
                   f"{e!r} = {elems[x]!r} + {e!r}")
        if (cell := _first_violation(table[self.zero] != every)):
            (x,) = cell
            refuse("neutral zero", f"{elems[x]!r} + {elems[self.zero]!r} = "
                   f"{elems[table[self.zero, x]]!r}")
        if (cell := _first_violation(table != table.T)):
            a, b = (elems[k] for k in cell)
            refuse("commutativity", f"{a!r} + {b!r} != {b!r} + {a!r}")
        self._rows = table.tolist()
        for g in self.generators:
            # cell [x, y]: (x + g) + y against x + (g + y)
            sums = table[g]
            if (cell := _first_violation(table[sums] != table[:, sums])):
                x, y, e = (elems[k] for k in (*cell, g))
                refuse("associativity",
                       f"({x!r} + {e!r}) + {y!r} != {x!r} + ({e!r} + {y!r})")
        self._checked = True

    def _in_order(self, cells):
        """A ``TableRing`` table in ``sort_key`` order, by one permutation:
        [i, j] indexes the entry for (e_i, e_j) here, -1 if it is none."""
        order = np.array([self._struct()._index[x] for x in self.elems])
        index = np.full(self.n + 1, -1, dtype=np.intp)
        index[order] = np.arange(self.n)
        return index[np.clip(cells[order[:, None], order], -1, self.n)]

    def act_row(self, r):
        """The map "act by r": j -> index of r * e_j."""
        act = self._act()
        return [self.index[act(r, x)] for x in self.elems]

    def translate(self, mask, i):
        """S + e_i."""
        row = self.add_row(i)
        return _mask(row[j] for j in _bits(mask))

    def setsum(self, a, b):
        """A + B elementwise: the union of the translates of the larger set
        by each element of the smaller (the group is abelian)."""
        if a.bit_count() < b.bit_count():
            a, b = b, a
        bits, out = _bits(a), 0
        for j in _bits(b):
            row = self.add_row(j)
            out |= _mask(row[i] for i in bits)
        return out

    def _cosets(self, h, g):
        """The cosets H + kg of a subgroup H, k = 1, 2, ..., while kg is
        outside H, at |H| translated elements each: with H they tile H + <g>
        once each, as H + kg = H + jg iff (k - j)g is in H."""
        row, coset, k = self.add_row(g), h, g
        while not h >> k & 1:
            yield (coset := _mask(row[j] for j in _bits(coset)))
            k = row[k]

    def _grow(self, mask):
        """The coset walk from H = {0} to the subgroup the mask generates:
        for each g of the mask outside H, least first, the cosets of H in
        H + <g> past H (``_cosets``), as (g, coset), H growing by each."""
        h = 1 << self.zero
        while rest := mask & ~h:
            g = (rest & -rest).bit_length() - 1
            for coset in self._cosets(h, g):
                h |= coset
                yield g, coset

    def subgroup(self, mask):
        """The subgroup the mask generates: {0} and the walk's disjoint
        cosets, so their sum is their union."""
        return (1 << self.zero) + sum(c for _, c in self._grow(mask))

    @cached_property
    def generators(self):
        """Indices whose sums reach every element: the g that the walk
        generating the whole group joins (at most log2 n of them)."""
        return list(dict.fromkeys(g for g, _ in self._grow((1 << self.n) - 1)))

    def span(self, mask):
        """The submodule (for a ring, the ideal) generated by S: the
        subgroup generated by S | R*S.  It is closed under the action, as
        r * sum k_i (r_i s_i) = sum k_i (r r_i) s_i and 1 is a scalar; and
        every submodule holding S holds R*S, and so this subgroup."""
        spread = mask
        for i in _bits(mask):
            if self._orbits[i] is None:
                act, x = self._act(), self.elems[i]
                self._orbits[i] = _mask({self.index[act(r, x)]
                                         for r in self.scalars})
            spread |= self._orbits[i]
        return self.subgroup(spread)

    def is_subgroup(self, mask):
        """0 in S and S closed under +: the walk ``_grow`` stays in S, read
        coset by coset up to the first that leaves it (the cosets kept are
        disjoint inside S, so fewer than 2|S| elements are translated)."""
        return bool(mask >> self.zero & 1) and \
            not any(c & ~mask for _, c in self._grow(mask))

    def cosets(self, h, carrier):
        """The quotient map of a carrier subgroup by a subgroup H inside it
        (masks): the cosets e_i + H tiling the carrier, each H translated to
        the least index i not yet covered, which is its least member.
        Returns the labels (carrier index to its coset's i, -1 elsewhere)
        and the (i, coset)."""
        labels = np.full(self.n, -1, dtype=np.intp)
        cosets = []
        while carrier:
            i = (carrier & -carrier).bit_length() - 1
            coset = self.translate(h, i)
            labels[_bits(coset)] = i
            cosets.append((i, coset))
            carrier &= ~coset
        return labels, cosets

    def subgroups(self):
        """Every subgroup, as masks by size and then by their elements: the
        list of the first walk that completed, so a structure is walked
        once (a refused walk keeps nothing).  Callers must not mutate it."""
        if self._subgroups is None:
            self._subgroups = self._walk_subgroups()
        return self._subgroups

    def _walk_subgroups(self):
        """A worklist from {0} grows each subgroup H found to H + <g>
        (``_cosets``), once per coset g + H outside H (g + h gives the same
        H + <g>).  It reaches every subgroup K: from {0}, H + <g> for any g
        in K outside H is a larger subgroup inside K, until H is K.  Its
        price, in elements, is |H + <g>| a join (|H| per coset of H in it)
        and n per subgroup kept; each join is handed the cosets that
        SUBGROUP_WORK_LIMIT still admits, and the walk raises
        ResourceLimitError at the one that would pass it.
        """
        seen = {1 << self.zero}
        frontier = list(seen)
        work = 0
        while frontier:
            h = frontier.pop()
            size = h.bit_count()
            rest = ((1 << self.n) - 1) & ~h
            while rest:
                most = max(0, (SUBGROUP_WORK_LIMIT - work) // size)
                grown, first, g = h, 0, (rest & -rest).bit_length() - 1
                for k, coset in enumerate(self._cosets(h, g), 1):
                    if k >= most:  # H + <g> holds more than most cosets
                        price(f"subgroup enumeration of {self._struct()}",
                              work + (most + 1) * size, SUBGROUP_WORK_LIMIT,
                              "elements so far")
                    first, grown = first or coset, grown | coset
                work += grown.bit_count()
                rest &= ~first
                if grown not in seen:
                    work += self.n
                    seen.add(grown)
                    frontier.append(grown)
        return sorted(seen, key=lambda m: (m.bit_count(), _bits(m)))


# Weakly keyed: a quotient or localization model is keyed by identity, and
# a strong key would keep it alive for the life of the process.
_LATTICES = weakref.WeakKeyDictionary()


def subgroup_lattice(struct):
    """The subgroup-lattice kernel of a finite ring or module, cached."""
    lat = _LATTICES.get(struct)
    if lat is None:
        lat = _LATTICES[struct] = _Lattice(struct)
    elif all(ref() is not struct for ref in lat._refs):
        lat._refs = [r for r in lat._refs if r() is not None] + \
            [weakref.ref(struct)]
    return lat


def additive_closure(struct, values):
    """The additive subgroup generated by ``values``, as a frozenset."""
    lat = subgroup_lattice(struct)
    return lat.values(lat.subgroup(lat.mask(values)))


def ideal_closure_set(ring, gens):
    """The ideal generated by ``gens`` in a finite ring (for a module, the
    submodule), as a frozenset."""
    lat = subgroup_lattice(ring)
    return lat.values(lat.span(lat.mask(gens)))


# ---------------------------------------------------------------------------
# subsets, subgroups, ideals


def sort_key(value):
    """Total order on canonical values (ints and nested tuples)."""
    if isinstance(value, tuple):
        return (1, len(value), tuple(sort_key(v) for v in value))
    return (0, 0, value)


class ElementSet:
    """A plain subset of a finite ring or module: an int ``mask`` over its
    ``subgroup_lattice``, with ``values`` read off it on first use."""

    def __init__(self, ring, values):
        self.ring, self.lat = ring, subgroup_lattice(ring)
        self.mask = self.lat.mask(values)

    @classmethod
    def from_mask(cls, ring, mask):
        """The subset of ``ring`` with this mask, taken as given."""
        out = cls.__new__(cls)
        out.ring, out.lat, out.mask = ring, subgroup_lattice(ring), mask
        return out

    @cached_property
    def values(self):
        return self.lat.values(self.mask)

    def __reduce__(self):
        return type(self).from_mask, (self.ring, self.mask)

    def contains(self, v):
        return bool(self.mask >> self.lat.index[self.ring.canon(v)] & 1)

    def is_whole(self):
        return self.mask == (1 << self.lat.n) - 1

    def __le__(self, other):
        _same_ring(self, other)
        return not self.mask & ~other.mask

    def __lt__(self, other):
        return self <= other and self.mask != other.mask

    def __and__(self, other):
        _same_ring(self, other)
        cls = type(self) if type(other) is type(self) else ElementSet
        return cls.from_mask(self.ring, self.mask & other.mask)

    def sorted_values(self):
        return self.lat.listed(self.mask)

    def __len__(self):
        return self.mask.bit_count()

    def __iter__(self):
        return iter(self.sorted_values())

    def __eq__(self, other):
        return (isinstance(other, ElementSet) and self.mask == other.mask
                and (self.ring is other.ring or self.ring == other.ring))

    def __hash__(self):
        return hash(self.mask)

    def __repr__(self):
        inner = ",".join(self.ring.format_element(v) for v in self.sorted_values())
        return "{" + inner + "}"


class FiniteSubgroup(ElementSet):
    """An additive subgroup of a finite ring or module; closedness is checked."""

    def __init__(self, ring, values, check=True):
        super().__init__(ring, values)
        if check and not self.lat.is_subgroup(self.mask):
            raise PreconditionError(f"{self!r} is not an additive subgroup")

    def elements(self):
        return self.sorted_values()

    def __add__(self, other):
        """H + K, the subgroup generated by H | K."""
        if not isinstance(other, FiniteSubgroup):
            return NotImplemented
        _same_ring(self, other)
        return FiniteSubgroup.from_mask(
            self.ring, self.lat.subgroup(self.mask | other.mask))


class PrincipalSubgroup:
    """d*Z inside the integers, d >= 0 the unique nonnegative generator.

    dZ lies inside eZ iff e divides d, so (0) lies inside every subgroup;
    dZ & eZ is lcm(d, e)Z and dZ + eZ is gcd(d, e)Z.
    """

    __slots__ = ("d",)
    ring = Z

    def __init__(self, d):
        if d < 0:
            raise PreconditionError("generator must be nonnegative")
        self.d = d

    def contains(self, v):
        v = Z.canon(v)
        if self.d == 0:
            return v == 0
        return v % self.d == 0

    def is_whole(self):
        return self.d == 1

    def __le__(self, other):
        return self.d % other.d == 0 if other.d else self.d == 0

    def __lt__(self, other):
        return self.d != other.d and self <= other

    def __and__(self, other):
        return PrincipalSubgroup(math.lcm(self.d, other.d))

    def __add__(self, other):
        if not isinstance(other, PrincipalSubgroup):
            return NotImplemented
        return PrincipalSubgroup(math.gcd(self.d, other.d))

    def __eq__(self, other):
        return isinstance(other, PrincipalSubgroup) and self.d == other.d

    def __hash__(self):
        return hash(("PrincipalSubgroup", self.d))

    def __repr__(self):
        return f"({self.d})"


def is_additive_subgroup(ring, values):
    """0 in S and S + S = S, over a finite ring or module.  Z and Z^k are
    torsion-free, so their one finite subgroup is {0}."""
    if not ring.is_finite:
        return {ring.canon(v) for v in values} == {ring.zero}
    lat = subgroup_lattice(ring)
    return lat.is_subgroup(lat.mask(values))


class IdealRep:
    """A finitely generated ideal: generators plus canonical subgroup form.

    Membership is decided through the canonical form; two ideals over the
    same ring are equal iff their canonical forms are.
    """

    def __init__(self, ring, generators, canonical):
        self.ring = ring
        self.generators = tuple(generators)
        self.canonical = canonical

    def contains(self, v):
        return self.canonical.contains(v)

    def __eq__(self, other):
        return (isinstance(other, IdealRep) and self.ring == other.ring
                and self.canonical == other.canonical)

    def __hash__(self):
        return hash((self.ring, self.canonical))

    def __repr__(self):
        return repr(self.canonical)


def ideal_generated(ring, gens):
    """The ideal generated by the values in ``gens`` (empty list: zero ideal)."""
    gens = [ring.canon(g) for g in gens]
    if isinstance(ring, IntegerRing):
        return IdealRep(ring, gens, PrincipalSubgroup(math.gcd(*gens)))
    lat = subgroup_lattice(ring)
    return IdealRep(ring, gens,
                    FiniteSubgroup.from_mask(ring, lat.span(lat.mask(gens))))


def ideal_from_subgroup(sub):
    """Wrap an existing canonical subgroup as an ideal representation."""
    if isinstance(sub, PrincipalSubgroup):
        return IdealRep(Z, (sub.d,), sub)
    return IdealRep(sub.ring, tuple(sub.sorted_values()), sub)


def ideal_sum(i, j):
    """Canonical representation of I + J."""
    _same_ring(i, j)
    return ideal_generated(i.ring, list(i.generators) + list(j.generators))


def ideal_classical_product(i, j):
    """The classical product ideal generated by pairwise element products."""
    _same_ring(i, j)
    ring = i.ring
    if isinstance(ring, IntegerRing):
        return ideal_generated(ring, [i.canonical.d * j.canonical.d])
    lat = subgroup_lattice(ring)
    left, right = (_bits(k.canonical.mask) for k in (i, j))
    prods = sorted(set(lat.act_table(left)[:, right].ravel().tolist()))
    return IdealRep(ring, [lat.elems[k] for k in prods],
                    FiniteSubgroup.from_mask(ring, lat.span(_mask(prods))))


def _same_ring(i, j):
    if i.ring is not j.ring and i.ring != j.ring:
        raise DomainMismatchError(f"operands over {i.ring} and {j.ring}")


def subgroup_generated(ring, gens):
    """Additive subgroup generated by the given values."""
    gens = [ring.canon(g) for g in gens]
    if isinstance(ring, IntegerRing):
        return PrincipalSubgroup(math.gcd(*gens))
    lat = subgroup_lattice(ring)
    return FiniteSubgroup.from_mask(ring, lat.subgroup(lat.mask(gens)))


def whole_subgroup(ring):
    """The ring itself as an additive subgroup."""
    if isinstance(ring, IntegerRing):
        return PrincipalSubgroup(1)
    return FiniteSubgroup.from_mask(ring, (1 << subgroup_lattice(ring).n) - 1)


def enumerate_subgroups(ring):
    """All additive subgroups of a finite ring or module, each exactly once,
    by size and then by their elements, priced by ``_Lattice.subgroups``.
    Its walk on n elements costs at least 2(n - 1) sqrt(n): from {0}, ord(g)
    for each g != 0; then n or more for each proper cyclic C, shared by its
    phi(|C|) <= ord(g) generators g, as ord(g) + n / ord(g) >= 2 sqrt(n)
    (and n >= 2 sqrt(n) for C = R, n >= 4).  Past the limit that refuses a
    large ring before its lattice (an element list) is built."""
    if not ring.is_finite:
        raise NotEnumerableError(f"{ring} is not enumerable")
    n = ring.cardinality()
    price(f"subgroup enumeration of {ring}, at least 2(n - 1) sqrt(n) for "
          f"n = {figure(n)},", 2 * (n - 1) * math.isqrt(n),
          SUBGROUP_WORK_LIMIT, "elements")
    lat = subgroup_lattice(ring)
    return [FiniteSubgroup.from_mask(ring, m) for m in lat.subgroups()]


def classical_ideals(ring):
    """All classical (multiplication-absorbing) ideals of a finite ring: the
    subgroups that are their own span."""
    return [ideal_from_subgroup(sub) for sub in enumerate_subgroups(ring)
            if sub.lat.span(sub.mask) == sub.mask]
