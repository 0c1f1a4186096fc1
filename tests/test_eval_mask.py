"""``ClosureSpec.eval_mask`` against the set evaluations it replaced
(``lattice_oracle.SET_EVALUATIONS``, the former ``eval_set`` bodies of
gen, shift, setshift and union-fixed, and of the sampling closure's
``eval_set_internal``): every subset of each ring of at most 10 elements
of ``small_rings``, 200 sampled subsets of each larger one, every subset
of five modules under the four module twins, and every subset of one
function ring and 200 of another under a sampling closure.

Also the base class's derivation: a closure that defines only
``eval_set`` gets the same masks and verdicts, one that defines neither
raises PreconditionError, and membership-only closures still refuse
``eval_set`` and ``closure_eval``.
"""

import lattice_oracle as oracle
import pytest
from lattice_oracle import small_rings

from approxalg import modules
from approxalg.closures import (
    ClosureSpec,
    GeneratedIdealClosure,
    IdealShiftClosure,
    SamplingClosure,
    SetShiftClosure,
    UnionFixedClosure,
    _sampled_masks,
    check_axioms,
    closure_eval,
    materialize,
)
from approxalg.errors import ClosureNotSetValuedError, PreconditionError
from approxalg.grammar import parse_ring
from approxalg.rings import (
    ResidueRing,
    Z,
    classical_ideals,
    ideal_generated,
    subgroup_lattice,
)

RINGS = small_rings()


def ring_closures(ring):
    """gen; shift and setshift by the middle classical ideal in size order;
    union-fixed by the second and the last element."""
    lat = subgroup_lattice(ring)
    ideals = classical_ideals(ring)
    j = ideals[len(ideals) // 2]
    return [GeneratedIdealClosure(ring), IdealShiftClosure(ring, j),
            SetShiftClosure(ring, j),
            UnionFixedClosure(ring, [lat.elems[1], lat.elems[-1]])]


def assert_matches(cl, masks):
    lat = subgroup_lattice(cl.ring)
    old = oracle.SET_EVALUATIONS[cl.name]
    for m in masks:
        assert lat.values(cl.eval_mask(m)) == old(cl, lat.values(m)), \
            (cl, lat.listed(m))


@pytest.mark.parametrize("ring", [r for r in RINGS if r.cardinality() <= 10],
                         ids=repr)
def test_every_subset_of_a_small_ring(ring):
    for cl in ring_closures(ring):
        assert_matches(cl, range(1 << ring.cardinality()))


@pytest.mark.parametrize("ring", [r for r in RINGS if r.cardinality() > 10],
                         ids=repr)
def test_sampled_subsets_of_a_larger_ring(ring):
    n = ring.cardinality()
    for cl in ring_closures(ring):
        assert_matches(cl, _sampled_masks(n, 200, seed=n))


# module orders -> (generator of the shift N0, union-fixed extra)
MODULES = {(8,): ((4,), (1,)), (12,): ((6,), (1,)), (2, 4): ((0, 2), (0, 1)),
           (2, 2, 2): ((0, 0, 1), (1, 1, 1)), (3, 3): ((0, 1), (1, 2))}


@pytest.mark.parametrize("orders", MODULES, ids=str)
def test_every_subset_under_the_module_twins(orders):
    mod = modules.finite_module(Z, list(orders))
    shift, extra = MODULES[orders]
    twins = [modules.GeneratedSubmoduleClosure(mod),
             modules.SubmoduleShiftClosure(mod, [shift]),
             modules.ModuleSetShiftClosure(mod, [shift]),
             modules.ModuleUnionFixedClosure(mod, [extra])]
    for cl in twins:
        assert_matches(cl, range(1 << mod.cardinality()))


@pytest.mark.parametrize("spec, family", [
    ("Fun:p=2,n=1", [{(0,)}, {(1,)}]),
    ("Fun:p=2,n=2", [{(0, 0), (1, 0)}, {(0, 1), (1, 1)}])])
def test_sampling_closure_masks_match_its_membership(spec, family):
    ring = parse_ring(spec)
    cl, n = SamplingClosure(ring, family), ring.cardinality()
    assert_matches(cl, range(1 << n) if n <= 10 else _sampled_masks(n, 200, n))
    lat = subgroup_lattice(ring)
    assert materialize(cl, lat.elems[:2]) == \
        oracle.sample_eval_set_internal(cl, frozenset(lat.elems[:2]))
    with pytest.raises(PreconditionError):
        cl.eval_set(frozenset())
    with pytest.raises(ClosureNotSetValuedError):
        closure_eval(cl, [])


class SetOnlyShift(ClosureSpec):
    """The shift closure, defined by its former set evaluation alone."""

    name = "shift"
    join = "sum"

    def __init__(self, ring, shift_ideal):
        super().__init__(ring)
        self.shift_ideal = shift_ideal

    eval_set = oracle.shift_eval_set


@pytest.mark.parametrize("struct, shift", [
    (ResidueRing(12), [4]), (modules.finite_module(Z, [2, 4]), [(0, 2)])],
    ids=repr)
def test_a_closure_with_only_eval_set_gets_the_same_masks(struct, shift):
    j = ideal_generated(struct, shift)
    derived, own = SetOnlyShift(struct, j), IdealShiftClosure(struct, j)
    for m in range(1 << struct.cardinality()):
        assert derived.eval_mask(m) == own.eval_mask(m)
    for mode in ("exhaustive", "subgroups"):
        assert check_axioms(derived, mode=mode).to_dict() == \
            check_axioms(own, mode=mode).to_dict()


class Bare(ClosureSpec):
    """A closure that defines neither evaluation."""

    name = "bare"


def test_a_closure_with_neither_evaluation_is_refused():
    cl = Bare(ResidueRing(4))
    for call in (lambda: cl.eval_mask(1), lambda: cl.eval_set(frozenset()),
                 lambda: cl.member(0, [0]), lambda: materialize(cl, [0]),
                 lambda: closure_eval(cl, [0]),
                 lambda: check_axioms(cl, mode="exhaustive"),
                 lambda: check_axioms(cl, mode="subgroups")):
        with pytest.raises(PreconditionError):
            call()
