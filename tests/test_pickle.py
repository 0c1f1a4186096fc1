"""Values are plain data: every structure of ``small_rings`` with its
subgroups, quotient rings and localizations over a finite ring and over
Z (also after a transferred check has filled their memos by
``eval_rows``), and a module quotient survive a pickle round trip, and
each copy shows the same masks, labels, class count and verdicts as the
original."""

import pickle

import pytest
from lattice_oracle import small_rings

from approxalg import modules
from approxalg.closures import GeneratedIdealClosure
from approxalg.grammar import parse_closure, parse_ring
from approxalg.ideals import ApproxIdeal, QuotientRing, quotient_ring
from approxalg.localization import (
    LocalizedRing,
    check_rep_independence,
    check_transfer_axioms,
    localize,
    mult_set,
)
from approxalg.rings import (
    Z,
    enumerate_subgroups,
    subgroup_generated,
    subgroup_lattice,
)


def shown_ring(ring):
    """A finite ring's name, elements, tables and subgroup masks."""
    if ring is None:
        return None
    lat = subgroup_lattice(ring)
    return (ring.spec_string(), list(ring.elements()),
            [ring.format_element(x) for x in ring.elements()],
            lat.add_table.tolist(), lat.act_table().tolist(),
            [sub.mask for sub in enumerate_subgroups(ring)])


def shown(value):
    """What a value shows of itself, by kind."""
    if isinstance(value, QuotientRing):
        return (value.class_count(), value.classes, value.modulus,
                [v.to_dict() for v in value.verdicts], shown_ring(value.model))
    if isinstance(value, LocalizedRing):
        return (value.class_count(), value._pair_labels.tolist(),
                [v.to_dict() for v in value.verdicts], shown_ring(value.model),
                [value.transferred.eval_mask(sub.mask)
                 for sub in enumerate_subgroups(value.model)],
                check_rep_independence(value).to_dict())
    if isinstance(value, modules.QuotientModule):
        return (value.labels.tolist(), value.class_count(), value.classes,
                [v.to_dict() for v in value.verdicts])
    ring, subs = value  # a ring and its subgroups, pickled together
    assert all(sub.ring is ring for sub in subs)
    return shown_ring(ring), [(sub.mask, repr(sub)) for sub in subs]


def z_localization(s, m0):
    loc = localize(Z, parse_closure(Z, "shift:J=12"), mult_set(Z, [s]))
    assert loc.m0 == m0
    return loc


def finite_localization():
    ring = parse_ring("Zn:12")
    return localize(ring, GeneratedIdealClosure(ring), mult_set(ring, [2]))


def evaluated(loc):
    """The localization after a sampled transfer check, which evaluates
    its closure by ``eval_rows``, has filled its memo (the masks per
    pullback over Z, the base closure's rows over a finite base)."""
    check_transfer_axioms(loc, mode="sampled", count=50)
    memo = loc._masks if loc.base is Z else loc._base_rows.keys
    assert len(memo)
    return loc


def module_quotient():
    mod = modules.finite_module(Z, [2, 4])
    return modules.module_quotient(mod, [(0, 0), (0, 2)],
                                   modules.SubmoduleShiftClosure(mod, [(1, 0)]))


def finite_quotient():
    ring = parse_ring("prod:[Zn:2,Zn:4]")
    return quotient_ring(ring, ApproxIdeal(
        subgroup_generated(ring, [(0, 2)]), GeneratedIdealClosure(ring)))


VALUES = {
    "finite-quotient": finite_quotient,
    "Z-quotient": lambda: quotient_ring(Z, ApproxIdeal(
        subgroup_generated(Z, [4]), parse_closure(Z, "shift:J=6"))),
    "finite-localization": finite_localization,
    "Z-localization-m0=3": lambda: z_localization(2, 3),
    "Z-localization-m0=1": lambda: z_localization(6, 1),
    "finite-localization-evaluated": lambda: evaluated(finite_localization()),
    "Z-localization-evaluated": lambda: evaluated(z_localization(2, 3)),
    "module-quotient": module_quotient,
}


def values():
    for k, ring in enumerate(small_rings()):
        yield pytest.param(lambda ring=ring: (ring, enumerate_subgroups(ring)),
                           id=f"{k}-{ring.spec_string()}")
    for name, make in VALUES.items():
        yield pytest.param(make, id=name)


@pytest.mark.parametrize("make", values())
def test_a_pickled_copy_shows_the_same(make):
    value = make()
    copy = pickle.loads(pickle.dumps(value))
    assert shown(copy) == shown(value)
