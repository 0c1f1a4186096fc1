"""The vectorized subset engine and the plain set-loop checker must agree.

Both paths quantify the same axioms over the same domains, so for small
rings their verdicts (and pass/fail pattern) have to match on passing and
on deliberately broken operators alike.  The engine's reduced C2 and C4a
domains are also held against a naive sweep over all subset pairs, which
must give the same report, counterexamples included, also when the C4a
rows are walked in many small chunks.  A closure table built by a declared
join must equal the table of one evaluation per subset, and must cost at
most n + 1 evaluations.  So must the list engine's rows
(``closures._ClosureRows``), which are evaluated one by one where the join
would not save evaluations; and a join counts only where the class that
defines the evaluation declares it.
"""

import itertools

import numpy as np
import pytest
from axiom_oracle import (
    Doubling,
    ImpliedElement,
    SmallSetsFill,
    TopSwitch,
    check_axioms_sets,
)

from approxalg import (
    GeneratedIdealClosure,
    IdealShiftClosure,
    ProductRing,
    ResidueRing,
    SetShiftClosure,
    UnionFixedClosure,
    Z,
    ideal_generated,
)
from approxalg import closures, modules
from approxalg.closures import (
    check_axioms,
    check_axioms_finite,
    ring_domain,
)
from approxalg.grammar import parse_closure, parse_element, parse_ring
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
    return check_axioms_sets(cl, subsets, elems, report)


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


def all_pairs_check(cl, dom, report):
    """check_axioms_finite with C2 and C4a decided by a naive sweep over
    every pair (A, B) of subsets, row-major in mask order, reporting the
    first violation of each."""
    check_axioms_finite(cl, dom, report)
    struct = cl.module if isinstance(cl, modules.ModuleClosure) else cl.ring
    elems = dom.lat.elems
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


def chunk_cases():
    """Union and non-monotone operators, which fail in the first row, and
    passing closures, which walk every chunk, the last one cut short."""
    z4 = ResidueRing(4)
    z6 = ResidueRing(6)
    z8 = ResidueRing(8)
    klein = ProductRing([ResidueRing(2), ResidueRing(2)])
    z3z3 = ProductRing([ResidueRing(3), ResidueRing(3)])
    return [
        UnionFixedClosure(z4, [2]),
        UnionFixedClosure(z6, [1]),
        UnionFixedClosure(z8, [2]),
        UnionFixedClosure(klein, [(1, 1)]),
        TopSwitch(z4, 2),
        TopSwitch(z6, 3),
        TopSwitch(z8, 4),
        SmallSetsFill(z4),
        SmallSetsFill(z6),
        Doubling(z8),
        Doubling(z3z3),
        GeneratedIdealClosure(z6),
        SetShiftClosure(klein, ideal_generated(klein, [(0, 1)])),
    ]


@pytest.mark.parametrize("cl", chunk_cases(),
                         ids=lambda c: f"{c.ring}-{c.name}")
def test_doubling_chunks_match_all_pairs(cl, monkeypatch):
    monkeypatch.setattr(closures, "PAIR_GRID", 64)
    reduced = check_axioms(cl, mode="exhaustive").to_dict()
    monkeypatch.setattr(closures, "check_axioms_finite", all_pairs_check)
    assert reduced == check_axioms(cl, mode="exhaustive").to_dict()


@pytest.mark.parametrize("spec", ["Zn:4", "Zn:5", "prod:[Zn:2,Zn:2]"])
def test_doubling_chunks_implied_elements(spec, monkeypatch):
    """Every implied-element operator with a premise of one or two nonzero
    elements.  Pools of 16 or fewer rows take chunks of 1, 2, 4, 4, ...
    rows under PAIR_GRID = 64, and the first C4a violations of this family
    lie in every chunk, the fourth and the last included, with C2 holding
    or failing."""
    monkeypatch.setattr(closures, "PAIR_GRID", 64)
    ring = parse_ring(spec)
    nonzero = [e for e in sorted(ring.elements(), key=sort_key)
               if e != ring.zero]
    operators = []
    for k in (1, 2):
        for premise in itertools.combinations(nonzero, k):
            rest = [e for e in nonzero if e not in premise]
            operators += [ImpliedElement(ring, premise, implied, unless)
                          for implied, unless in
                          itertools.product(rest, [None] + rest)]
    reduced = [check_axioms(cl, mode="exhaustive").to_dict()
               for cl in operators]
    monkeypatch.setattr(closures, "check_axioms_finite", all_pairs_check)
    for cl, report in zip(operators, reduced):
        assert check_axioms(cl, mode="exhaustive").to_dict() == report, \
            (cl.premise, cl.implied, cl.unless)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


# ring spec -> (generators of J for shift:J= and setshift:J=, union-fixed
# extras): every ideal (d) of Z/n for n <= 7, and for the 8-12 element rings
# the parameters the exhaustive benchmark lists
JOIN_RINGS = {f"Zn:{n}": ([str(d) for d in _divisors(n)], ["1"])
              for n in range(2, 8)}
JOIN_RINGS.update({
    "Zn:8": (["2", "4", "6"], ["1", "3", "6"]),
    "Zn:9": (["3", "6"], ["1", "4", "6"]),
    "Zn:10": (["2"], ["1"]),
    "Zn:11": ([], ["1"]),
    "Zn:12": (["2"], ["1"]),
    "prod:[Zn:2,Zn:4]": (["(0,1)", "(0,2)", "(1,0)", "(1,2)"],
                         ["(0,1)", "(1,0)", "(1,3)"]),
    "prod:[Zn:2,Zn:5]": (["(0,1)"], ["(0,1)"]),
    "prod:[Zn:3,Zn:3]": (["(0,1)", "(1,0)", "(2,0)"],
                         ["(0,1)", "(1,1)", "(2,2)"]),
    "prod:[Zn:2,Zn:2,Zn:2]": (["(0,0,1)", "(0,1,1)", "(1,0,0)", "(1,1,0)"],
                              ["(0,0,1)", "(1,1,0)", "(1,1,1)"]),
    "GF:2/x^3+x+1": ([], ["1", "x", "x^2+x"]),
    "GF:3/x^2+1": ([], ["1", "x", "2*x+1"]),
})

# module orders -> (generators of N0, union-fixed extras), scalars Z
JOIN_MODULES = {
    (8,): ([(4,), (2,)], [(1,), (4,)]),
    (12,): ([(6,)], [(1,)]),
    (2, 4): ([(0, 2), (1, 0), (1, 1)], [(0, 1), (1, 2)]),
    (2, 2, 2): ([(0, 0, 1), (1, 1, 0)], [(1, 1, 1)]),
    (3, 3): ([(0, 1), (1, 1)], [(1, 2)]),
}


def _ring_join_case(spec, kind, param):
    ring = parse_ring(spec)
    if kind == "gen":
        cl = parse_closure(ring, "gen")
    elif kind == "union":
        cl = UnionFixedClosure(ring, [parse_element(ring, param)])
    else:
        cl = parse_closure(ring, f"{kind}:J={param}")
    return cl, ring_domain(ring), lambda: check_axioms(cl, mode="exhaustive")


def _module_join_case(orders, kind, param):
    mod = modules.finite_module(Z, list(orders))
    if kind == "gen":
        cl = modules.GeneratedSubmoduleClosure(mod)
    elif kind == "union":
        cl = modules.ModuleUnionFixedClosure(mod, [param])
    elif kind == "shift":
        cl = modules.SubmoduleShiftClosure(mod, [param])
    else:
        cl = modules.ModuleSetShiftClosure(mod, [param])
    return cl, modules.module_domain(mod), \
        lambda: modules.check_cm_axioms(mod, cl, mode="exhaustive")


def join_cases():
    cases = []
    for spec, (gens, extras) in JOIN_RINGS.items():
        params = [("gen", None)] + [(k, g) for k in ("shift", "setshift")
                                    for g in gens]
        params += [("union", e) for e in extras]
        cases += [pytest.param(_ring_join_case, spec, kind, param,
                               id=f"{spec}-{kind}-{param}")
                  for kind, param in params]
    for orders, (gens, extras) in JOIN_MODULES.items():
        params = [("gen", None)] + [(k, g) for k in ("shift", "setshift")
                                    for g in gens]
        params += [("union", e) for e in extras]
        cases += [pytest.param(_module_join_case, orders, kind, param,
                               id=f"module{list(orders)}-{kind}-{param}")
                  for kind, param in params]
    return cases


@pytest.mark.parametrize("make, structure, kind, param", join_cases())
def test_join_table_matches_per_subset_table(make, structure, kind, param):
    cl, dom, _ = make(structure, kind, param)
    assert cl.join in ("sum", "union")
    lat = dom.lat
    per_subset = np.array([lat.mask(cl.eval_set(lat.values(m)))
                           for m in range(dom.nmasks)], dtype=np.int32)
    np.testing.assert_array_equal(dom.closure_vector(cl), per_subset)


def _counted(cl, monkeypatch):
    """The masks ``cl.eval_mask`` is called on from now on."""
    calls = []
    evaluate = cl.eval_mask

    def counted(mask):
        calls.append(mask)
        return evaluate(mask)

    monkeypatch.setattr(cl, "eval_mask", counted)
    return calls


@pytest.mark.parametrize("make, structure, kind, param", join_cases())
def test_declared_join_evaluates_n_plus_one_times(make, structure, kind, param,
                                                  monkeypatch):
    cl, dom, run = make(structure, kind, param)
    calls = _counted(cl, monkeypatch)
    run()
    assert len(calls) <= dom.n + 1


@pytest.mark.parametrize("make, structure, kind, param", join_cases())
def test_join_built_rows_match_per_row_evaluation(make, structure, kind,
                                                  param, monkeypatch):
    """One ``_ClosureRows`` over four calls: seeded random rows with the
    empty row and duplicates, known rows mixed with new ones (as a 3-D
    array), two new rows, and the generator rows themselves.  Every row
    equals ``eval_mask`` on it, and no row, generators included, is
    evaluated twice."""
    cl, dom, _ = make(structure, kind, param)
    lat, n = dom.lat, dom.n
    expected = [lat.rows([cl.eval_mask(m)])[0] for m in range(dom.nmasks)]
    rng = np.random.default_rng(n)
    first = rng.random((4 * (n + 1), n)) < 0.3
    first[0] = False
    first = np.vstack([first, first[:5]])
    mixed = np.vstack([first[rng.integers(0, len(first), 6)],
                       rng.random((6, n)) < 0.6])
    rng.shuffle(mixed)
    calls = _counted(cl, monkeypatch)
    clo = closures._ClosureRows(cl, lat)
    for rows in [first, mixed.reshape(2, 6, n), rng.random((2, n)) < 0.5,
                 np.eye(n + 1, n, -1, dtype=bool)]:
        flat = rows.reshape(-1, n)
        want = np.array([expected[lat.row_mask(row)] for row in flat])
        np.testing.assert_array_equal(clo(rows), want.reshape(rows.shape))
        if rows is first:
            distinct = len({lat.row_mask(row) for row in first})
            assert len(calls) <= min(distinct, n + 1)
    assert len(calls) == len(set(calls))


class ZeroAdjoined(GeneratedIdealClosure):
    """cl(A) = A | {0}: changes the span's evaluation and keeps its
    inherited join, which does not hold for it (cl({1, 2}) is {0, 1, 2},
    not {0, 1} + {0, 2})."""

    name = "zero-adjoined"

    def eval_mask(self, mask):
        return mask | 1 << closures.subgroup_lattice(self.ring).zero


@pytest.mark.parametrize("n", [6, 8, 12])
def test_an_inherited_join_is_not_honoured(n, monkeypatch):
    """A subclass that redefines the evaluation but not ``join`` gets the
    oracle's verdicts: exhaustive against every subset, and sampled (report
    for report) against the same sampled list."""
    cl = ZeroAdjoined(ResidueRing(n))
    assert closures.declared_join(cl) is None
    if n <= 8:
        exhaustive = check_axioms(cl, mode="exhaustive")
        oracle = pure_python_report(cl)
        assert [v.passed for v in exhaustive.verdicts.values()] == \
            [oracle.verdicts[a].passed for a in exhaustive.verdicts]
    sampled = check_axioms(cl, mode="sampled", seed=n, count=40).to_dict()

    def oracle_list(cl, struct, masks, report, paired=None):
        lat = closures.subgroup_lattice(struct)
        return check_axioms_sets(cl, [lat.values(m) for m in masks],
                                 lat.elems, report)

    monkeypatch.setattr(closures, "_check_axioms_list", oracle_list)
    assert sampled == check_axioms(cl, mode="sampled", seed=n,
                                   count=40).to_dict()


def test_a_restated_join_is_honoured():
    """A join declared by the class that defines the evaluation, or by a
    subclass of it, stands; one inherited from above that class does not."""

    class Restated(ZeroAdjoined):
        join = "union"

    ring = ResidueRing(6)
    assert closures.declared_join(Restated(ring)) == "union"
    assert closures.declared_join(GeneratedIdealClosure(ring)) == "sum"
    assert closures.declared_join(
        modules.GeneratedSubmoduleClosure(modules.finite_module(Z, [6]))) \
        == "sum"
    assert closures.declared_join(ZeroAdjoined(ring)) is None


@pytest.mark.parametrize("spec, closure", [
    ("Zn:12", "gen"), ("Zn:12", "shift:J=2"), ("Zn:12", "setshift:J=2"),
    ("Zn:60", "gen"), ("Fun:p=3,n=1", "gen")])
def test_sampled_join_closure_evaluates_its_generators_only(spec, closure,
                                                           monkeypatch):
    """The default sampled run of a join closure evaluates it on at most
    the n + 1 generator rows (2969 rows were evaluated on Zn:12 under gen
    when each distinct row was)."""
    ring = parse_ring(spec)
    cl = parse_closure(ring, closure)
    calls = _counted(cl, monkeypatch)
    check_axioms(cl, mode="sampled")
    assert len(calls) <= ring.cardinality() + 1


@pytest.mark.parametrize("spec, shift", [
    ("Zn:12", "2"), ("Zn:41", "2"), ("Zn:53", "2"), ("Zn:60", "2"),
    ("prod:[Zn:2,Zn:2,Zn:2,Zn:2]", "(0,0,0,1)")])
def test_subgroup_lists_evaluate_no_more_rows_than_one_by_one(spec, shift,
                                                              monkeypatch):
    """On a list of subgroups, which has few rows and many generators, the
    join is used only where it saves evaluations: no more ``eval_mask``
    calls, and the same report, as with the join hidden."""
    ring = parse_ring(spec)
    for closure in ("gen", f"shift:J={shift}", f"setshift:J={shift}"):
        cl = parse_closure(ring, closure)
        calls = _counted(cl, monkeypatch)
        joined = check_axioms(cl, mode="subgroups").to_dict()
        used = len(calls)
        with monkeypatch.context() as patch:
            patch.setattr(closures, "declared_join", lambda cl: None)
            del calls[:]
            assert check_axioms(cl, mode="subgroups").to_dict() == joined
        assert used <= len(calls)


def test_join_matrices_past_list_grid_evaluate_row_by_row(monkeypatch):
    """A join's matrices must fit in LIST_GRID cells: with the grid below
    a sum's n^3 cells on Z/12 its rows are evaluated one by one, while a
    union's n^2 cells still fit and its rows are built by the join."""
    monkeypatch.setattr(closures, "LIST_GRID", 12 ** 3 - 1)
    ring = ResidueRing(12)
    lat = closures.subgroup_lattice(ring)
    rows = np.random.default_rng(12).random((40, 12)) < 0.5
    distinct = len({lat.row_mask(row) for row in rows})
    for cl, evaluations in [
            (GeneratedIdealClosure(ring), distinct),
            (UnionFixedClosure(ring, [1]), 13)]:
        want = lat.rows([cl.eval_mask(lat.row_mask(row)) for row in rows])
        calls = _counted(cl, monkeypatch)
        np.testing.assert_array_equal(
            closures._ClosureRows(cl, lat)(rows), want)
        assert len(calls) == evaluations
