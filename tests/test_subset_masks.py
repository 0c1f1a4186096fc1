"""The mask-based ``ElementSet`` and ``FiniteSubgroup`` against the
frozenset classes they replaced (``lattice_oracle``).

On every ring of at most 16 elements (``small_rings``) and two modules,
every pair among the subgroups and 50 seeded subsets is compared
operation by operation: inclusion, strict inclusion, intersection, sum
(of subgroups, with the class and elements of each result), equality and
the classes a dict forms from hash and equality; and each set alone by
membership, wholeness, size, iteration order, repr and a pickle round
trip.
"""

import pickle
import random

import lattice_oracle as oracle
import pytest
from lattice_oracle import small_rings

from approxalg import modules
from approxalg.closures import GeneratedIdealClosure
from approxalg.errors import DomainMismatchError, PreconditionError
from approxalg.grammar import parse_ring
from approxalg.homs import identity_hom
from approxalg.ideals import _image_subgroup, _preimage_subgroup, is_approx_ideal
from approxalg.localization import contract, extend, localize, mult_set
from approxalg.rings import (
    ElementSet,
    FiniteSubgroup,
    ResidueRing,
    Z,
    enumerate_subgroups,
    sort_key,
    subgroup_lattice,
)

STRUCTURES = small_rings() + [modules.finite_module(Z, [2, 4]),
                              modules.finite_module(Z, [2, 2, 2])]


def described(x):
    """What a set shows of itself: its class name and elements in order."""
    return type(x).__name__, list(x)


def equality_classes(items):
    """Each item's first equal item, found through a dict (hash, then
    equality)."""
    first = {}
    return [first.setdefault(x, k) for k, x in enumerate(items)]


def pairs_of(struct, seed=7, count=50):
    """(new, old) for every subgroup and ``count`` seeded plain subsets."""
    elems = sorted(struct.elements(), key=sort_key)
    rng = random.Random(seed)
    out = [(sub, oracle.FiniteSubgroup(struct, sub.values))
           for sub in enumerate_subgroups(struct)]
    for _ in range(count):
        values = rng.sample(elems, rng.randint(0, len(elems)))
        out.append((ElementSet(struct, values),
                    oracle.ElementSet(struct, values)))
    return out


@pytest.mark.parametrize("struct", STRUCTURES, ids=repr)
def test_masks_match_the_value_sets(struct):
    sets = pairs_of(struct)
    elems = list(struct.elements())
    for new, old in sets:
        assert described(new) == described(old)
        if hasattr(struct, "format_element"):  # a module formats none
            assert repr(new) == repr(old)
        assert described(pickle.loads(pickle.dumps(new))) == described(new)
        assert (new.is_whole(), len(new)) == (old.is_whole(), len(old))
        assert new.values == old.values
        assert [new.contains(x) for x in elems] == \
            [old.contains(x) for x in elems]
    for new_a, old_a in sets:
        for new_b, old_b in sets:
            assert (new_a <= new_b, new_a < new_b, new_a == new_b) == \
                (old_a <= old_b, old_a < old_b, old_a == old_b)
            assert described(new_a & new_b) == described(old_a & old_b)
            if isinstance(new_a, FiniteSubgroup) and \
                    isinstance(new_b, FiniteSubgroup):
                assert described(new_a + new_b) == described(old_a + old_b)
    assert equality_classes([new for new, _ in sets]) == \
        equality_classes([old for _, old in sets])


def test_structures_cover_the_named_shapes():
    names = {repr(s) for s in STRUCTURES}
    assert {"mod:Z:[2x4]", "mod:Z:[2x2x2]", "Zn:16"} <= names
    assert all(s.cardinality() <= 16 for s in STRUCTURES)


def test_a_subset_of_another_ring_is_refused():
    """A kernel reads a subset's mask only on the lattice of its ring or
    of an equal one, and refuses a subset of another ring.  Read as raw
    bits, {0, 3} in Z/6 would be {(0,0), (1,0)} in Z/2 x Z/3, an ideal."""
    z6, prod = parse_ring("Zn:6"), parse_ring("prod:[Zn:2,Zn:3]")
    sub = FiniteSubgroup(z6, [0, 3])
    gen, f = GeneratedIdealClosure(prod), identity_hom(prod)
    loc = localize(prod, gen, mult_set(prod, [(1, 1)]))
    for call in [lambda: is_approx_ideal(sub, gen),
                 lambda: _image_subgroup(f, sub),
                 lambda: _preimage_subgroup(f, sub),
                 lambda: extend(loc, sub), lambda: contract(loc, sub),
                 lambda: loc.mult.meets(sub),
                 lambda: subgroup_lattice(z6).rows([1 << 6])]:
        with pytest.raises(DomainMismatchError):
            call()


def test_a_subset_the_other_canon_accepts_is_refused():
    """``ResidueRing.canon`` reduces any int, so re-encoding {0, 2} of Z/4
    through Z/6 would read it as {0, 2} of Z/6, not a subgroup.  A subset
    of an equal ring keeps its mask."""
    sub = FiniteSubgroup(parse_ring("Zn:4"), [0, 2])
    with pytest.raises(DomainMismatchError):
        is_approx_ideal(sub, GeneratedIdealClosure(parse_ring("Zn:6")))
    assert is_approx_ideal(sub, GeneratedIdealClosure(ResidueRing(4))) == \
        (True, None)


def test_the_image_of_a_non_subgroup_is_checked():
    """An image is a ``FiniteSubgroup`` only when it is closed: the image
    of the plain set {1} under the identity is refused."""
    z6 = parse_ring("Zn:6")
    with pytest.raises(PreconditionError, match="not an additive subgroup"):
        _image_subgroup(identity_hom(z6), ElementSet(z6, [1]))
