"""The transferred closure by the batch (``TransferredClosure.eval_rows``)
against its per-row ``eval_mask`` and the per-denominator formula it
replaced (``localization_oracle.transferred_masks``), and every verdict
that reads it against the same verdict on that formula.

Localizations: Z under shift:J=m and setshift:J=m, m <= 90, at S = <2>,
<3>, <5>, <6> and <7> (900 of them); and Z/12, Z/18, Z/20, Z/24 and
Z/2 x Z/4 under the four kinds of ``test_congruence_kernel`` at its S
generators.  A model of at most 10 classes is checked on every subset,
a larger one on its subgroups, its singletons and 20 seeded subsets.  The
verdicts are compared on the 110 localizations of Z with m <= 11 and on
every finite one whose own verdicts pass."""

import copy
import random

import pytest
from localization_oracle import (
    LoopTransferredClosure,
    loop_rep_independence,
    transferred_masks,
)
from test_congruence_kernel import KINDS, closure, s_generators

from approxalg import localization
from approxalg.closures import ClosureSpec, check_axioms
from approxalg.errors import ApproxAlgError
from approxalg.grammar import parse_closure, parse_ring
from approxalg.localization import (
    LocalizedRing,
    TransferredClosure,
    check_ext_contr_bijection,
    check_iota_functorial,
    check_rep_independence,
    check_transfer_axioms,
    localize,
    mult_set,
)
from approxalg.rings import Z, _mask, enumerate_subgroups, subgroup_lattice

Z_GENERATORS = [2, 3, 5, 6, 7]
FINITE_BASES = ["Zn:12", "Zn:18", "Zn:20", "Zn:24", "prod:[Zn:2,Zn:4]"]
MODES = ["auto", "exhaustive", "subgroups", "ideals", "sampled", "bounded"]


def z_localizations(m):
    for s in Z_GENERATORS:
        for kind in ("shift", "setshift"):
            yield localize(Z, parse_closure(Z, f"{kind}:J={m}"),
                           mult_set(Z, [s]))


def finite_localizations(spec):
    ring = parse_ring(spec)
    for kind in KINDS:
        for g in s_generators(ring):
            loc = localize(ring, closure(ring, kind), mult_set(ring, [g]))
            if loc.ok():
                yield loc


def masks_of(loc):
    lat = subgroup_lattice(loc.model)
    if lat.n <= 10:
        return list(range(1 << lat.n))
    rng = random.Random(lat.n)
    return sorted({sub.mask for sub in enumerate_subgroups(loc.model)} |
                  {1 << i for i in range(lat.n)} |
                  {_mask(rng.sample(range(lat.n), rng.randint(0, lat.n)))
                   for _ in range(20)} | {0})


def assert_rows_match(loc):
    lat = subgroup_lattice(loc.model)
    masks = masks_of(loc)
    by_rows = loc.transferred.eval_rows(lat.rows(masks))
    oracle = [transferred_masks(loc, a) for a in masks]
    assert [lat.row_mask(row) for row in by_rows] == \
        [loc.transferred.eval_mask(a) for a in masks] == \
        [hits for hits, _ in oracle]
    assert [loc._class_masks(a) for a in masks] == oracle


@pytest.mark.parametrize("m", range(1, 91))
def test_z_rows_match_the_formula(m):
    """The relation check of a localization of Z is its own test's
    (``test_congruence_kernel``); over these 900 it takes about 100 s on
    one core, so it is skipped here, and the closure is evaluated on the
    classes mod m0 alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LocalizedRing, "_verify_z_relation", lambda self: None)
        locs = list(z_localizations(m))
    for loc in locs:
        assert_rows_match(loc)


@pytest.mark.parametrize("spec", FINITE_BASES)
def test_finite_rows_match_the_formula(spec):
    for loc in finite_localizations(spec):
        assert_rows_match(loc)


def outcome(call):
    """A verdict's dict, or the refusal's kind and message."""
    try:
        out = call()
    except ApproxAlgError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out, tuple):  # the bijection verdict and its pairs
        verdict, matched = out
        return verdict.to_dict(), [(repr(p), repr(e)) for p, e in matched]
    if isinstance(out, list):
        return [v.to_dict() for v in out]
    return out.to_dict()


def assert_same_verdicts(loc):
    twin = copy.copy(loc)
    twin.transferred = LoopTransferredClosure(twin)
    for mode in MODES:
        kwargs = {"count": 100, "seed": 5} if mode == "sampled" else {}
        assert outcome(lambda: check_transfer_axioms(loc, mode, **kwargs)) \
            == outcome(lambda: check_axioms(twin.transferred, mode, **kwargs))
    assert check_rep_independence(loc).to_dict() == \
        loop_rep_independence(loc).to_dict()
    for check in (check_iota_functorial, check_ext_contr_bijection):
        assert outcome(lambda: check(loc)) == outcome(lambda: check(twin))


@pytest.mark.parametrize("m", range(1, 12))
def test_z_verdicts_match_the_formula(m):
    for loc in z_localizations(m):
        assert_same_verdicts(loc)


@pytest.mark.parametrize("spec", FINITE_BASES)
def test_finite_verdicts_match_the_formula(spec):
    for loc in finite_localizations(spec):
        assert_same_verdicts(loc)


def test_sampled_transfer_check_evaluates_no_row_alone(monkeypatch):
    """The list engine hands the transferred closure its rows by the batch:
    a sampled check on Z at m = 30, S = <2> makes no ``eval_mask`` call."""
    calls = []
    one_by_one = TransferredClosure.eval_mask
    monkeypatch.setattr(TransferredClosure, "eval_mask",
                        lambda self, mask: calls.append(mask)
                        or one_by_one(self, mask))
    loc = localization.localize(Z, parse_closure(Z, "shift:J=30"),
                                mult_set(Z, [2]))
    report = check_transfer_axioms(loc, mode="sampled", count=100)
    assert report.to_dict()["domain"].startswith("10")
    assert calls == []


class ConstantClosure(TransferredClosure):
    """A broken transferred closure: the same classes for every subset,
    one subset at a time."""

    eval_rows = ClosureSpec.eval_rows

    def __init__(self, localized, mask):
        super().__init__(localized)
        self.mask = mask

    def eval_mask(self, mask):
        return self.mask


def test_z_iota_counterexamples_are_the_first_d_and_subgroup():
    """Over Z the image check closes iota((d)), d <= 120, in one batch and
    the preimage check the model's subgroups: a closure giving {0} first
    fails the image at d = 1 (cl((1)) is every class), and one giving
    every class fails the preimage at B = {0} (its lifts span (12))."""
    loc = localize(Z, parse_closure(Z, "shift:J=12"), mult_set(Z, [5]))
    assert loc.m0 == 12
    twin = copy.copy(loc)
    twin.transferred = ConstantClosure(twin, 1)
    image, pre = check_iota_functorial(twin)
    assert image.counterexample == {"X": "(1)"} and pre.passed
    twin.transferred = ConstantClosure(twin, (1 << 12) - 1)
    image, pre = check_iota_functorial(twin)
    assert image.passed and pre.counterexample == {"B": [0]}
