"""The subgroup protocol held against explicit member sets.

Every operation of the protocol (``<=``, ``<``, ``&``, ``==``,
``is_whole``) is recomputed from the members themselves: for dZ, the
multiples of d in a window [-N, N] with N at least every lcm that occurs
(so inclusion and intersection inside the window are the true ones); for
finite subgroups, the elements each one contains, as frozensets.
"""

import itertools
import math

import pytest

from approxalg import (
    DomainMismatchError,
    ElementSet,
    FiniteSubgroup,
    PrincipalSubgroup,
    ProductRing,
    ResidueRing,
    Z,
    enumerate_subgroups,
)
from approxalg.rings import whole_subgroup

D_MAX = 24
WINDOW = max(math.lcm(d, e) for d in range(D_MAX + 1)
             for e in range(D_MAX + 1))
WINDOW_ELEMS = frozenset(range(-WINDOW, WINDOW + 1))


def window_members(sub):
    return frozenset(x for x in WINDOW_ELEMS if sub.contains(x))


def members(sub):
    return frozenset(x for x in sub.ring.elements() if sub.contains(x))


def check_pair(a, b, ma, mb, whole):
    assert (a <= b) == (ma <= mb), (a, b)
    assert (a < b) == (ma < mb), (a, b)
    assert (a == b) == (ma == mb), (a, b)
    assert (hash(a) == hash(b)) or ma != mb, (a, b)
    assert a.is_whole() == (ma == whole), a


class TestPrincipal:
    SUBS = [PrincipalSubgroup(d) for d in range(D_MAX + 1)]
    MEMBERS = {sub: window_members(sub) for sub in SUBS}

    def test_members_are_the_multiples(self):
        for sub in self.SUBS:
            want = {x for x in WINDOW_ELEMS
                    if (x == 0 if sub.d == 0 else x % sub.d == 0)}
            assert window_members(sub) == want

    def test_order_equality_and_whole(self):
        for a, b in itertools.product(self.SUBS, repeat=2):
            check_pair(a, b, self.MEMBERS[a], self.MEMBERS[b], WINDOW_ELEMS)

    def test_intersection(self):
        for a, b in itertools.product(self.SUBS, repeat=2):
            meet = a & b
            assert isinstance(meet, PrincipalSubgroup)
            assert window_members(meet) == self.MEMBERS[a] & self.MEMBERS[b]

    def test_zero_lies_inside_everything(self):
        zero = PrincipalSubgroup(0)
        assert all(zero <= sub for sub in self.SUBS)
        assert all(zero < sub for sub in self.SUBS[1:])
        assert whole_subgroup(Z) == PrincipalSubgroup(1)


@pytest.mark.parametrize("ring", [
    ResidueRing(12),
    ProductRing([ResidueRing(2), ResidueRing(4)]),
], ids=["Zn:12", "prod:[Zn:2,Zn:4]"])
class TestFinite:
    def test_order_equality_and_whole(self, ring):
        subs = enumerate_subgroups(ring)
        whole = frozenset(ring.elements())
        for a, b in itertools.product(subs, repeat=2):
            check_pair(a, b, members(a), members(b), whole)

    def test_intersection_is_a_subgroup(self, ring):
        subs = enumerate_subgroups(ring)
        for a, b in itertools.product(subs, repeat=2):
            meet = a & b
            assert isinstance(meet, FiniteSubgroup)
            assert members(meet) == members(a) & members(b)
            assert meet in subs

    def test_plain_sets_follow_the_same_protocol(self, ring):
        elems = sorted(ring.elements())
        sets = [ElementSet(ring, elems[i::k]) for k in (1, 2, 3)
                for i in range(k)] + enumerate_subgroups(ring)
        whole = frozenset(elems)
        for a, b in itertools.product(sets, repeat=2):
            check_pair(a, b, members(a), members(b), whole)
            assert members(a & b) == members(a) & members(b)

    def test_whole_subgroup(self, ring):
        whole = whole_subgroup(ring)
        assert whole.is_whole()
        assert whole == enumerate_subgroups(ring)[-1]


def test_operands_over_different_rings_are_refused():
    a = enumerate_subgroups(ResidueRing(12))[1]
    b = enumerate_subgroups(ResidueRing(6))[1]
    for op in (lambda: a <= b, lambda: a < b, lambda: a & b):
        with pytest.raises(DomainMismatchError):
            op()
