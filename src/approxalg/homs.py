"""Ring homomorphisms between supported rings.

A hom is either a verified finite map table, the canonical reduction
Z -> Z/n (or Z/n -> Z/k for k | n), or an identity.  A table hom between
finite rings is verified at construction: unital, then additive and
multiplicative at every pair, on the two lattices' index tables; kernels
and surjectivity read the hom's index map (``closures._hom_map``).
"""

from __future__ import annotations

from .closures import _first_hom_break, _hom_map, _index_map
from .errors import PreconditionError
from .rings import (
    FiniteSubgroup,
    IntegerRing,
    PrincipalSubgroup,
    ResidueRing,
    subgroup_lattice,
)


class RingHom:
    """Base: a unital ring homomorphism f: src -> dst."""

    def __init__(self, src, dst):
        self.src = src
        self.dst = dst

    def apply(self, v):
        raise NotImplementedError

    def image_values(self, values):
        return frozenset(self.apply(v) for v in values)

    def is_surjective(self):
        if not self.dst.is_finite:
            raise PreconditionError("surjectivity test needs a finite codomain")
        if self.src.is_finite:
            _, dst, img = _hom_map(self)
            return len(set(img.tolist())) == dst.n
        raise NotImplementedError

    def kernel(self):
        """Ker f as a subgroup representation of the source."""
        if self.src.is_finite:
            src, dst, img = _hom_map(self)
            return FiniteSubgroup.from_mask(self.src,
                                            src.row_mask(img == dst.zero))
        raise NotImplementedError

    def describe(self):
        return f"{self.src} -> {self.dst}"


class IdentityHom(RingHom):
    def __init__(self, ring):
        super().__init__(ring, ring)

    def apply(self, v):
        return self.src.canon(v)

    def is_surjective(self):
        return True

    def kernel(self):
        return PrincipalSubgroup(0) if isinstance(self.src, IntegerRing) \
            else super().kernel()


class ReductionHom(RingHom):
    """Z -> Z/n, or Z/n -> Z/k with k | n (x -> x mod k)."""

    def __init__(self, src, dst):
        if not isinstance(dst, ResidueRing):
            raise PreconditionError("reduction target must be a residue ring")
        if isinstance(src, ResidueRing):
            if src.n % dst.n != 0:
                raise PreconditionError(
                    f"no reduction Z/{src.n} -> Z/{dst.n}: {dst.n} does not divide {src.n}")
        elif not isinstance(src, IntegerRing):
            raise PreconditionError("reduction source must be Z or a residue ring")
        super().__init__(src, dst)

    def apply(self, v):
        return self.src.canon(v) % self.dst.n

    def is_surjective(self):
        return True

    def kernel(self):
        return PrincipalSubgroup(self.dst.n) \
            if isinstance(self.src, IntegerRing) else super().kernel()


class TableHom(RingHom):
    """Finite hom given by an explicit value map, verified at construction."""

    def __init__(self, src, dst, mapping):
        if not src.is_finite:
            raise PreconditionError("table homs need a finite source")
        if not dst.is_finite:
            raise PreconditionError("table homs need a finite codomain")
        super().__init__(src, dst)
        self.mapping = {src.canon(k): dst.canon(v) for k, v in mapping.items()}
        missing = [v for v in src.elements() if v not in self.mapping]
        if missing:
            raise PreconditionError(f"map table missing {len(missing)} elements")
        problem = verify_hom_table(src, dst, self.mapping)
        if problem is not None:
            raise PreconditionError(f"not a ring homomorphism: {problem}")

    def apply(self, v):
        return self.mapping[self.src.canon(v)]


def verify_hom_table(src, dst, mapping):
    """None if the table is a unital ring hom, else a description of why not:
    the first cell, in ``src.elements()`` order, of f(x + y) = f(x) + f(y)
    and f(x * y) = f(x) * f(y), decided on the two lattices' index tables."""
    if mapping[src.one] != dst.one:
        return f"f(1) = {mapping[src.one]!r} != 1"
    s, d = subgroup_lattice(src), subgroup_lattice(dst)
    hit = _first_hom_break(src, dst, _index_map(s, d, mapping.__getitem__))
    if hit is None:
        return None
    x, law, y = hit
    return f"f({x!r}{law}{y!r}) != f({x!r}){law}f({y!r})"


def identity_hom(ring):
    return IdentityHom(ring)


def reduction_hom(src, dst):
    return ReductionHom(src, dst)


def table_hom(src, dst, mapping):
    return TableHom(src, dst, mapping)

