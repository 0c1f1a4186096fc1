"""The congruence kernel against the plain pair loops of
``localization_oracle``: localizations, quotient rings and module quotients
give the same classes, model tables, verdicts and counterexamples."""

import tracemalloc

import numpy as np
import pytest
from localization_oracle import (
    LoopLocalization,
    model_tables,
    module_breaks_loop,
    quotient_breaks_loop,
    rep_independence_loop,
    z_relation_loop,
)

from approxalg import localization, modules
from approxalg.closures import (
    GeneratedIdealClosure,
    IdealShiftClosure,
    SetShiftClosure,
    UnionFixedClosure,
    _first_label_break,
)
from approxalg.errors import PreconditionError, ResourceLimitError
from approxalg.grammar import parse_ring
from approxalg.ideals import ApproxIdeal, quotient_ring
from approxalg.localization import (
    check_rep_independence,
    check_transfer_axioms,
    localize,
    mult_set,
)
from approxalg.rings import (
    FiniteSubgroup,
    ResidueRing,
    Z,
    enumerate_subgroups,
    ideal_generated,
    sort_key,
)

SPECS = [f"Zn:{n}" for n in range(2, 31)] + [
    "prod:[Zn:2,Zn:2]", "prod:[Zn:2,Zn:3]", "prod:[Zn:2,Zn:4]"]
KINDS = ["gen", "shift", "setshift", "union-fixed"]
# the oracle relates every pair of pairs in Python, so localizations with
# more pairs than this (large unit groups in S) are left to the guard test
ORACLE_PAIRS = 400


def closure(ring, kind):
    """gen, shift and setshift by the ideal of the third element, and
    union-fixed by the second."""
    elems = sorted(ring.elements(), key=sort_key)
    ideal = ideal_generated(ring, [elems[min(2, len(elems) - 1)]])
    return {"gen": lambda: GeneratedIdealClosure(ring),
            "shift": lambda: IdealShiftClosure(ring, ideal),
            "setshift": lambda: SetShiftClosure(ring, ideal),
            "union-fixed": lambda: UnionFixedClosure(ring, elems[1:2])}[kind]()


def s_generators(ring):
    """Up to six generators of S: 0, 1, the second and third elements, the
    middle one and the last."""
    elems = sorted(ring.elements(), key=sort_key)
    n = len(elems)
    return sorted({elems[i] for i in (0, 1, 2 % n, 3 % n, n // 2, n - 1)},
                  key=sort_key)


def assert_same(loc, oracle):
    """The same pairs, classes, verdicts and, where the verdicts pass,
    model tables; a localization whose verdicts fail has no model."""
    assert loc.pairs == oracle.pairs
    assert list(loc._class_members.items()) == \
        list(oracle._class_members.items())
    assert loc._pair_class == oracle._pair_class
    assert [v.to_dict() for v in loc.verdicts] == \
        [v.to_dict() for v in oracle.verdicts]
    if loc.ok():
        assert model_tables(loc.model) == model_tables(oracle.model)
    else:
        assert loc.model is None and loc.transferred is None


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("spec", SPECS)
def test_localization_matches_loops(spec, kind):
    ring = parse_ring(spec)
    cl = closure(ring, kind)
    for g in s_generators(ring):
        mult = mult_set(ring, [g])
        if len(mult.saturation) * ring.cardinality() > ORACLE_PAIRS:
            continue
        assert_same(localize(ring, cl, mult), LoopLocalization(ring, cl, mult))


@pytest.mark.parametrize("spec, g, failed, ce", [
    # a relation that is not transitive, and a sum that depends on the
    # representative
    ("Zn:4", 1, ["equivalence-relation", "operations-well-defined"],
     [{"pair1": (1, 1), "pair2": (0, 1), "related": True},
      {"pair": (3, 1), "rep": (0, 1), "other": (1, 1), "op": "add"}]),
    ("Zn:6", 2, ["equivalence-relation"],
     [{"pair1": (0, 1), "pair2": (1, 1), "related": False}]),
    # a product that depends on the representative
    ("Zn:12", 7, ["equivalence-relation", "operations-well-defined"],
     [{"pair1": (0, 1), "pair2": (1, 1), "related": False},
      {"pair": (1, 1), "rep": (0, 1), "other": (3, 1), "op": "mul"}]),
])
def test_failing_localizations(spec, g, failed, ce):
    ring = parse_ring(spec)
    cl = closure(ring, "union-fixed")
    loc = localize(ring, cl, mult_set(ring, [g]))
    assert_same(loc, LoopLocalization(ring, cl, mult_set(ring, [g])))
    bad = [v for v in loc.verdicts if not v.passed]
    assert [v.name for v in bad] == failed
    assert [v.counterexample for v in bad] == ce


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("spec", ["Zn:4", "Zn:6", "Zn:8", "Zn:9", "Zn:12",
                                  "prod:[Zn:2,Zn:2]", "prod:[Zn:2,Zn:3]"])
def test_rep_independence_matches_definition(spec, kind):
    ring = parse_ring(spec)
    cl = closure(ring, kind)
    for g in s_generators(ring):
        mult = mult_set(ring, [g])
        loc = localize(ring, cl, mult)
        if not loc.ok():
            with pytest.raises(PreconditionError, match="has no model"):
                check_rep_independence(loc)
            continue
        oracle = LoopLocalization(ring, cl, mult)
        elems = sorted(loc.model.elements(), key=sort_key)
        tested = ([s.values for s in enumerate_subgroups(loc.model)]
                  + [frozenset([e]) for e in elems])[:512]
        got = check_rep_independence(loc)
        assert got.counterexample == rep_independence_loop(oracle, tested)
        assert got.passed == (got.counterexample is None)


def test_transfer_axioms_leave_the_localization_alone():
    """Evaluating the transferred closure records nothing on the
    localization: its attributes, apart from the memo of pair masks, are
    the same objects with the same values, and a later representative
    check reads the same."""
    ring = parse_ring("prod:[Zn:2,Zn:2]")
    loc = localize(ring, closure(ring, "union-fixed"),
                   mult_set(ring, [(1, 0)]))
    assert loc.ok()
    before = dict(vars(loc))
    snapshot = {k: repr(v) for k, v in before.items() if k != "_masks"}
    first = check_rep_independence(loc).to_dict()
    check_transfer_axioms(loc)
    after = vars(loc)
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value
        if key != "_masks":
            assert repr(value) == snapshot[key]
    assert check_rep_independence(loc).to_dict() == first


def test_guard_case_stays_small():
    """4096 pairs, the most the guard admits: the relation is one bool
    grid, its chunks priced in cells."""
    ring = ResidueRing(128)
    tracemalloc.start()
    try:
        loc = localize(ring, GeneratedIdealClosure(ring), mult_set(ring, [3]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(loc.pairs) == 4096
    assert loc.class_count() == 128 and loc.ok()
    assert peak <= 64 << 20


def test_guard_refuses_more_pairs():
    ring = ResidueRing(128)
    with pytest.raises(ResourceLimitError,
                       match=r"\|R\| \|S\| = 128 x 66, priced at 8448 "
                             r"representative pairs, past the limit 4096"):
        localize(ring, GeneratedIdealClosure(ring), mult_set(ring, [3, 2]))


def quotient_cases():
    for spec in ["Zn:4", "Zn:6", "Zn:8", "Zn:12", "prod:[Zn:2,Zn:2]",
                 "prod:[Zn:2,Zn:4]", "GF:2/x^2"]:
        ring = parse_ring(spec)
        for kind in KINDS:
            for sub in enumerate_subgroups(ring):
                yield pytest.param(ring, kind, sub,
                                   id=f"{spec}-{kind}-{len(sub.values)}"
                                      f"-{min(sub.values, key=sort_key)}"
                                      f"-{max(sub.values, key=sort_key)}")


@pytest.mark.parametrize("ring, kind, sub", quotient_cases())
def test_quotient_counterexamples_match_loop(ring, kind, sub):
    try:
        q = quotient_ring(ring, ApproxIdeal(sub, closure(ring, kind),
                                            check=False))
    except PreconditionError:
        return
    add_ce, mul_ce = quotient_breaks_loop(q)
    names = [v.name for v in q.verdicts]
    got = {v.name: v.counterexample for v in q.verdicts}
    assert names[1:3] == ["addition-well-defined",
                          "multiplication-well-defined"]
    assert (got["addition-well-defined"], got["multiplication-well-defined"]) \
        == (add_ce, mul_ce)


def test_known_failing_quotient():
    ring = parse_ring("prod:[Zn:2,Zn:2]")
    cl = UnionFixedClosure(ring, [(1, 1)])
    q = quotient_ring(ring, ApproxIdeal(FiniteSubgroup(ring, {(0, 0)}), cl))
    verdicts = {v.name: v for v in q.verdicts}
    assert verdicts["addition-well-defined"].passed
    mul = verdicts["multiplication-well-defined"]
    assert not mul.passed
    assert mul.counterexample == {"x": (1, 1), "x2": (0, 0), "y": (0, 1)}
    assert (None, mul.counterexample) == quotient_breaks_loop(q)


def module_cases():
    for orders in ([8], [12], [2, 4], [2, 2], [3, 3], [9]):
        mod = modules.finite_module(Z, orders)
        elems = sorted(mod.elements(), key=sort_key)
        closures = [modules.GeneratedSubmoduleClosure(mod),
                    modules.SubmoduleShiftClosure(mod, [elems[2]]),
                    modules.ModuleSetShiftClosure(mod, [elems[2]]),
                    modules.ModuleUnionFixedClosure(mod, [elems[1]])]
        for k, cl in enumerate(closures):
            for sub in mod.all_submodules():
                yield pytest.param(mod, cl, sub,
                                   id=f"{orders}-{k}-{sorted(sub)[-1]}"
                                      f"-{len(sub)}")


@pytest.mark.parametrize("mod, cl, sub", module_cases())
def test_module_quotient_counterexamples_match_loop(mod, cl, sub):
    try:
        q = modules.module_quotient(mod, sub, cl)
    except PreconditionError:
        return
    got = {v.name: v.counterexample for v in q.verdicts}
    assert (got["addition-well-defined"], got["action-well-defined"]) == \
        module_breaks_loop(mod, q)


def test_first_label_break_matches_loop():
    """On random class maps, with rows in a shuffled order: the first cell
    in row-major order where labels[table[x, c]] differs from
    labels[table[labels[x], c]], against a plain loop; the identity map
    (every element its own class) breaks nowhere."""
    rng = np.random.default_rng(5)
    for n, width in [(1, 1), (6, 3), (17, 5), (40, 40), (300, 7)]:
        for trial in range(4):
            reps = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
            labels = reps[rng.integers(0, len(reps), n)]
            labels[reps] = reps
            if trial == 0:
                labels = np.arange(n)
            table = rng.integers(0, n, (n, width))
            rows = rng.permutation(n)
            want = next(((int(x), c) for x in rows for c in range(width)
                         if labels[table[x, c]] !=
                         labels[table[labels[x], c]]), None)
            assert _first_label_break(labels, table.__getitem__, rows) \
                == want
            if trial == 0:
                assert want is None


# ---------------------------------------------------------------------------
# the relation check of a localization of Z


def z_localizations(moduli):
    for m in moduli:
        for g in (2, 3, 5, 6):
            shift = IdealShiftClosure(Z, ideal_generated(Z, [m]))
            yield localize(Z, shift, mult_set(Z, [g]))


def assert_relation_matches_loop(loc, residue_cap=None):
    m, residues = loc.modulus, loc.sat_residues_mod_m
    assert loc._absorbed.tolist() == [
        any((u * z) % m == 0 for u in residues) for z in range(m)]
    if residue_cap is None or len(residues) <= residue_cap:
        assert loc.verdicts[0].to_dict() == z_relation_loop(loc).to_dict()
        return True
    return False


def test_z_relation_matches_the_residue_loop():
    """The absorbed-residue lookup against one grid comparison per residue
    of S.  The loop walks every pair of a passing check, at a cost growing
    with the cube of the residue count (150 s over all m <= 60, 13-24 s
    alone for m = 53 and 59 under S = 2), so for 30 < m <= 60 the verdict
    is compared where S has at most 16 residues mod m (79 of the 120
    localizations, 48 and 60 among them), the absorbed array everywhere."""
    for loc in z_localizations(range(1, 31)):
        assert_relation_matches_loop(loc)
    compared = {(loc.modulus, loc.mult.generators[0])
                for loc in z_localizations(range(31, 61))
                if assert_relation_matches_loop(loc, residue_cap=16)}
    assert len(compared) == 79 and {(48, 6), (60, 6)} <= compared


def test_z_relation_counterexamples_match_the_residue_loop(monkeypatch):
    """A class map that ignores the denominator breaks the check wherever
    some s in S is not 1 mod m0: the first counterexample is the loop's,
    for every m <= 60."""
    monkeypatch.setattr(localization.LocalizedRing, "to_class_z",
                        lambda self, a, s: a % self.m0 if self.m0 > 1 else 0)
    failed = 0
    for loc in z_localizations(range(1, 61)):
        assert_relation_matches_loop(loc)
        failed += not loc.verdicts[0].passed
    assert failed > 150
