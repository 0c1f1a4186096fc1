"""The vectorized subset engine and the plain set-loop checker must agree.

Both paths quantify the same axioms over the same domains, so for small
rings their verdicts (and pass/fail pattern) have to match on passing and
on deliberately broken operators alike.  The engine's reduced C2 and C4a
domains are also held against a naive sweep over all subset pairs, which
must give the same report, counterexamples included.
"""

import itertools

import pytest

from approxalg import (
    GeneratedIdealClosure,
    IdealShiftClosure,
    ProductRing,
    ResidueRing,
    SetShiftClosure,
    UnionFixedClosure,
    ideal_generated,
)
from approxalg import closures, modules
from approxalg.closures import (
    ClosureSpec,
    _check_axioms_sets,
    check_axioms,
    check_axioms_finite,
)
from approxalg.localization import check_transfer_axioms, localize, mult_set
from approxalg.reports import AxiomReport
from approxalg.rings import sort_key


def pure_python_report(cl):
    ring = cl.ring
    elems = sorted(ring.elements(), key=sort_key)
    subsets = []
    for r in range(len(elems) + 1):
        subsets.extend(frozenset(c) for c in itertools.combinations(elems, r))
    report = AxiomReport(mode="exhaustive")
    return _check_axioms_sets(cl, subsets, elems, report)


def closures_under_test():
    z6 = ResidueRing(6)
    z8 = ResidueRing(8)
    klein = ProductRing([ResidueRing(2), ResidueRing(2)])
    return [
        GeneratedIdealClosure(z6),
        IdealShiftClosure(z6, ideal_generated(z6, [2])),
        SetShiftClosure(z6, ideal_generated(z6, [3])),
        UnionFixedClosure(z6, [1]),
        UnionFixedClosure(z8, [2]),
        IdealShiftClosure(klein, ideal_generated(klein, [(1, 0)])),
        SetShiftClosure(klein, ideal_generated(klein, [(0, 1)])),
        UnionFixedClosure(klein, [(1, 1)]),
    ]


@pytest.mark.parametrize("cl", closures_under_test(),
                         ids=lambda c: f"{c.ring}-{c.name}")
def test_vectorized_and_loop_checkers_agree(cl):
    fast = check_axioms(cl, mode="exhaustive")
    slow = pure_python_report(cl)
    for axiom in AxiomReport.AXIOMS:
        assert fast.verdicts[axiom].passed == slow.verdicts[axiom].passed, \
            (axiom, fast.verdicts[axiom].to_dict(), slow.verdicts[axiom].to_dict())


class TopSwitch(ClosureSpec):
    """Extensive, not monotone: cl(A) = A | {extra} unless A holds the
    largest element, so every C2 violation involves that element."""

    name = "top-switch"

    def __init__(self, ring, extra):
        super().__init__(ring)
        self.extra = extra
        self.top = max(ring.elements(), key=sort_key)

    def eval_set(self, values):
        values = frozenset(values)
        return values if self.top in values else values | {self.extra}


class SmallSetsFill(ClosureSpec):
    """Extensive, not monotone: cl(A) is the whole ring when |A| <= 1.  On
    Z/6 the first C4a violation, (empty set, {1}), has a right member that
    shares its closure with a proper subset."""

    name = "small-sets-fill"

    def eval_set(self, values):
        values = frozenset(values)
        return frozenset(self.ring.elements()) if len(values) <= 1 else values


class Doubling(ClosureSpec):
    """Monotone, not additive: cl(A) = A | {a + a : a in A}."""

    name = "doubling"

    def eval_set(self, values):
        return frozenset(values) | {self.ring.add(a, a) for a in values}


def all_pairs_check(cl, dom, report):
    """check_axioms_finite with C2 and C4a decided by a naive sweep over
    every pair (A, B) of subsets, row-major in mask order, reporting the
    first violation of each."""
    check_axioms_finite(cl, dom, report)
    struct = cl.module if isinstance(cl, modules.ModuleClosure) else cl.ring
    elems = dom.elems
    n = len(elems)
    index = {v: i for i, v in enumerate(elems)}

    def mask(values):
        return sum(1 << index[v] for v in set(values))

    def members(m):
        return [i for i in range(n) if (m >> i) & 1]

    def listed(m):
        return [elems[i] for i in members(m)]

    cl_of = [mask(cl.eval_set(frozenset(listed(m)))) for m in range(1 << n)]
    plus = [[mask(struct.add(elems[i], e) for i in members(m)) for e in elems]
            for m in range(1 << n)]

    def setsum(a, b):
        out = 0
        for j in members(b):
            out |= plus[a][j]
        return out

    def lowest(m):
        return elems[(m & -m).bit_length() - 1]

    zbit = 1 << index[struct.zero]
    c2 = c4a = None
    for a in range(1 << n):
        for b in range(1 << n):
            if c2 is None and a & ~b == 0 and cl_of[a] & ~cl_of[b]:
                c2 = {"A": listed(a), "B": listed(b),
                      "witness": lowest(cl_of[a] & ~cl_of[b])}
            if c4a is None:
                lhs = setsum(cl_of[a], cl_of[b])
                bad = lhs & ~cl_of[setsum(a | zbit, b | zbit)]
                if bad:
                    c4a = {"A": listed(a), "B": listed(b), "witness": lowest(bad)}
            if c2 is not None and c4a is not None:
                break
        if c2 is not None and c4a is not None:
            break
    report.record("C2", c2 is None, c2)
    report.record("C4a", c4a is None, c4a)
    return report


def oracle_cases():
    z6 = ResidueRing(6)
    z8 = ResidueRing(8)
    m2x4 = modules.finite_module(ResidueRing(8), [2, 4])
    cases = [(f"{c.ring}-{c.name}", lambda c=c: check_axioms(c, mode="exhaustive"))
             for c in closures_under_test()]
    z3z3 = ProductRing([ResidueRing(3), ResidueRing(3)])
    for cl in (TopSwitch(z6, 3), TopSwitch(z8, 4), SmallSetsFill(z6),
               Doubling(z8), Doubling(z3z3)):
        cases.append((f"{cl.ring}-{cl.name}",
                      lambda cl=cl: check_axioms(cl, mode="exhaustive")))
    shift_cl = modules.SubmoduleShiftClosure(m2x4, [(0, 2)])
    cases.append(("module-shift", lambda: modules.check_cm_axioms(
        m2x4, shift_cl, mode="exhaustive")))
    loc = localize(z8, IdealShiftClosure(z8, ideal_generated(z8, [4])),
                   mult_set(z8, [3]))
    cases.append(("transferred", lambda: check_transfer_axioms(
        loc, mode="exhaustive")))
    return cases


@pytest.mark.parametrize("run", [pytest.param(run, id=name)
                                 for name, run in oracle_cases()])
def test_reduced_pairwise_domains_match_all_pairs(run, monkeypatch):
    reduced = run().to_dict()
    monkeypatch.setattr(closures, "check_axioms_finite", all_pairs_check)
    monkeypatch.setattr(modules, "check_axioms_finite", all_pairs_check)
    assert reduced == run().to_dict()
