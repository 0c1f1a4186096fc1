"""The list engine (``closures._check_axioms_list``) against the plain
set-loop checkers of ``axiom_oracle``.

Every mode that quantifies over a list of subsets (``subgroups``,
``ideals``, ``sampled``, and ``exhaustive`` for membership-only closures)
and sampled ``check_cm_axioms`` must give the oracle's report, byte for
byte: the same first member, pair and scalar, and the same witnesses.  The
oracle runs on the very list ``check_axioms`` builds, with the scalars the
engine replaced (every ring element in ``sort_key`` order).
"""

import tracemalloc

import pytest
from axiom_oracle import (
    Doubling,
    ImpliedElement,
    SmallSetsFill,
    SubmoduleMark,
    TopSwitch,
    check_axioms_sets,
    image_compatible_loop,
    module_image_compatible_loop,
    sampled_cm,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from lattice_oracle import small_rings

from approxalg import (
    FunctionRing,
    GeneratedIdealClosure,
    IdealShiftClosure,
    PointwiseClosure,
    PreconditionError,
    ResidueRing,
    ResourceLimitError,
    SamplingClosure,
    SetShiftClosure,
    UnionFixedClosure,
    Z,
    ideal_generated,
)
from approxalg import closures, homs, modules
from approxalg.closures import check_axioms, closure_image_compatible
from approxalg.grammar import parse_ring
from approxalg.localization import check_transfer_axioms, localize, mult_set
from approxalg.rings import enumerate_subgroups, sort_key, subgroup_lattice


def _oracle(cl, struct, masks, report, paired=None):
    """The oracle on the list the engine is given, read as value sets."""
    assert paired is None
    scalars = sorted(struct.elements(), key=sort_key)
    subsets = [subgroup_lattice(struct).values(m) for m in masks]
    return check_axioms_sets(cl, subsets, scalars, report)


def assert_matches_oracle(run, monkeypatch):
    """``run()`` gives the same report through the engine and the oracle."""
    engine = run().to_dict()
    with monkeypatch.context() as patch:
        patch.setattr(closures, "_check_axioms_list", _oracle)
        assert engine == run().to_dict()


def ring_closures(ring):
    """gen, shift and setshift by the ideal of the third element, and
    union-fixed by the second."""
    elems = sorted(ring.elements(), key=sort_key)
    ideal = ideal_generated(ring, [elems[min(2, len(elems) - 1)]])
    return [GeneratedIdealClosure(ring), IdealShiftClosure(ring, ideal),
            SetShiftClosure(ring, ideal), UnionFixedClosure(ring, elems[1:2])]


def listed_cases(ring):
    """(closure, mode, kwargs) for every closure and listed mode.  The
    oracle's pair loop costs |list|^2 set-sums, so on rings with many
    subgroups only union-fixed, which fails C4a early, runs the subgroup
    and sampled lists."""
    many = len(enumerate_subgroups(ring)) > 40
    for cl in ring_closures(ring):
        for mode, kwargs in [("subgroups", {}), ("ideals", {}),
                             ("sampled", {"seed": 11, "count": 25})]:
            if not many or mode == "ideals" or cl.name == "union-fixed":
                yield cl, mode, kwargs


LARGER = ["Zn:24", "Zn:36", "Zn:60", "prod:[Zn:2,Zn:2,Zn:2,Zn:2,Zn:2]"]


@pytest.mark.parametrize("ring", small_rings() + [parse_ring(s) for s in LARGER],
                         ids=str)
def test_listed_modes_match_oracle(ring, monkeypatch):
    for cl, mode, kwargs in listed_cases(ring):
        assert_matches_oracle(
            lambda: check_axioms(cl, mode=mode, **kwargs),
            monkeypatch)


@pytest.mark.parametrize("make", [
    lambda: TopSwitch(ResidueRing(6), 3),
    lambda: TopSwitch(ResidueRing(12), 5),
    lambda: SmallSetsFill(ResidueRing(6)),
    lambda: SmallSetsFill(ResidueRing(10)),
    lambda: Doubling(ResidueRing(8)),
    lambda: Doubling(parse_ring("prod:[Zn:3,Zn:3]")),
    lambda: UnionFixedClosure(ResidueRing(12), [5, 7]),
], ids=lambda make: f"{make().ring}-{make().name}")
def test_non_monotone_operators_match_oracle(make, monkeypatch):
    cl = make()
    for mode, kwargs in [("subgroups", {}), ("ideals", {}),
                         ("sampled", {"seed": 3, "count": 40})]:
        assert_matches_oracle(lambda: check_axioms(cl, mode=mode, **kwargs),
                              monkeypatch)


@pytest.mark.parametrize("grid", [1, 2048, 8192])
def test_small_chunks_match_oracle(grid, monkeypatch):
    """Chunks capped at one row, and at a few rows (3 and 14 pair rows,
    7 and 28 members), cut the pair and scalar walks; the first
    violations stay those of the oracle."""
    monkeypatch.setattr(closures, "LIST_GRID", grid)
    z12 = ResidueRing(12)
    for cl in [TopSwitch(z12, 5), SmallSetsFill(ResidueRing(10)),
               Doubling(ResidueRing(8)), UnionFixedClosure(z12, [5, 7])] \
            + ring_closures(z12):
        assert_matches_oracle(
            lambda: check_axioms(cl, mode="sampled", seed=grid, count=30),
            monkeypatch)


@pytest.mark.parametrize("spec", ["Zn:6", "Zn:8", "prod:[Zn:2,Zn:4]"])
def test_implied_elements_match_oracle(spec, monkeypatch):
    """One Horn rule, monotone or not: first violations fall in every row
    of the list, so in chunks of several rows too."""
    ring = parse_ring(spec)
    nonzero = [e for e in sorted(ring.elements(), key=sort_key)
               if e != ring.zero]
    for k, premise in enumerate(zip(nonzero, nonzero[1:])):
        for implied in nonzero[:3]:
            unless = nonzero[k % len(nonzero)]
            for cl in (ImpliedElement(ring, premise, implied),
                       ImpliedElement(ring, premise, implied, unless)):
                assert_matches_oracle(
                    lambda: check_axioms(cl, mode="sampled", seed=k, count=40),
                    monkeypatch)


# the benchmark's localizations: of Z under shift:J=m at S = <s>, and of
# Z/n under gen at S = <s>
Z_LOCALIZATIONS = [(12, 2), (18, 2), (20, 5), (30, 2)]
FINITE_LOCALIZATIONS = [(12, 3), (18, 2), (20, 2), (24, 3)]


def _localization(kind, n, s):
    if kind == "Z":
        ring = Z
        cl = IdealShiftClosure(Z, ideal_generated(Z, [n]))
    else:
        ring = ResidueRing(n)
        cl = GeneratedIdealClosure(ring)
    return localize(ring, cl, mult_set(ring, [s]))


@pytest.mark.parametrize("kind, n, s",
                         [("Z", n, s) for n, s in Z_LOCALIZATIONS]
                         + [("Zn", n, s) for n, s in FINITE_LOCALIZATIONS])
def test_transferred_closures_match_oracle(kind, n, s, monkeypatch):
    loc = _localization(kind, n, s)
    for mode, kwargs in [("subgroups", {}), ("ideals", {}),
                         ("sampled", {"seed": n, "count": 40})]:
        assert_matches_oracle(
            lambda: check_transfer_axioms(loc, mode=mode, **kwargs),
            monkeypatch)


@pytest.mark.parametrize("nvars", [1, 2])
def test_pointwise_closure_matches_oracle(nvars, monkeypatch):
    cl = PointwiseClosure(FunctionRing(2, nvars))
    for mode, kwargs in [("subgroups", {}), ("ideals", {}),
                         ("sampled", {"seed": 2, "count": 30})]:
        assert_matches_oracle(lambda: check_axioms(cl, mode=mode, **kwargs),
                              monkeypatch)


def test_sampling_closure_exhaustive_matches_oracle(monkeypatch):
    ring = FunctionRing(2, 1)
    cl = SamplingClosure(ring, [ring.points[:1], ring.points])
    run = lambda: check_axioms(cl, mode="exhaustive")  # noqa: E731
    assert run().domain == f"all subsets of {ring}"
    assert_matches_oracle(run, monkeypatch)


def _image_cases():
    z6, z12, z24 = ResidueRing(6), ResidueRing(12), ResidueRing(24)
    reductions = [homs.reduction_hom(z12, ResidueRing(k)) for k in (4, 6)]
    reductions.append(homs.reduction_hom(z24, ResidueRing(8)))
    cases = []
    for f in reductions + [homs.identity_hom(z6)]:
        src, dst = ring_closures(f.src), ring_closures(f.dst)
        cases += [(f, a, b) for a in src for b in dst]
    fun = FunctionRing(2, 1)
    sample = SamplingClosure(fun, [fun.points[:1], fun.points])
    cases.append((homs.identity_hom(fun), sample, PointwiseClosure(fun)))
    cases.append((homs.identity_hom(fun), PointwiseClosure(fun), sample))
    return cases


def test_image_compatibility_matches_loop():
    failed = 0
    for f, cl_src, cl_dst in _image_cases():
        got = closure_image_compatible(f, cl_src, cl_dst)
        masks, domain = closures._subsets_for(f.src)
        subsets = list(map(subgroup_lattice(f.src).values, masks))
        want = image_compatible_loop(f, cl_src, cl_dst, subsets, domain)
        assert got.to_dict() == want.to_dict(), (f, cl_src, cl_dst)
        failed += not got.passed
    assert failed >= 20


def test_module_image_compatibility_matches_loop():
    """Scaling maps between the four module closures, including target
    closures that make the map compatible only on some subsets."""
    failed = 0
    for orders, shift, extra in [([8], (4,), (1,)), ([12], (6,), (1,)),
                                 ([2, 4], (0, 2), (1, 2))]:
        mod = modules.finite_module(Z, orders)
        cls = module_closures(mod, shift, extra)
        for k in (0, 1, 2, 3):
            for cl_src in cls:
                for cl_dst in cls:
                    try:
                        f = modules.scaling_hom(mod, cl_src, k, cl_dst)
                    except PreconditionError:
                        continue
                    for seed in (0, 3):
                        got = f.image_compatible(sample=60, seed=seed)
                        want = module_image_compatible_loop(f, 60, seed)
                        assert got.to_dict() == want.to_dict()
                        failed += not got.passed
    assert failed >= 10


def _cm_view(inner):
    """The CM report ``check_cm_axioms`` builds from an inner report."""
    report = modules.CMAxiomReport(inner.mode, seed=inner.seed,
                                   count=inner.count, domain=inner.domain)
    for out_name, in_name in {"CM1": "C1", "CM2": "C2", "CM3": "C3"}.items():
        v = inner.verdicts[in_name]
        report.record(out_name, v.passed, v.counterexample)
    a, b = inner.verdicts["C4a"], inner.verdicts["C4b"]
    report.record("CM4", a.passed and b.passed,
                  a.counterexample if not a.passed else b.counterexample)
    v = inner.verdicts["absorption"]
    report.record("absorption", v.passed, v.counterexample)
    return report


def module_closures(mod, shift, extra):
    return [modules.GeneratedSubmoduleClosure(mod),
            modules.SubmoduleShiftClosure(mod, [shift]),
            modules.ModuleSetShiftClosure(mod, [shift]),
            modules.ModuleUnionFixedClosure(mod, [extra])]


@pytest.mark.parametrize("orders, shift, extra", [
    ([8], (4,), (1,)), ([12], (6,), (1,)), ([2, 4], (0, 2), (1, 2))])
def test_sampled_cm_matches_oracle(orders, shift, extra):
    mod = modules.finite_module(Z, orders)
    for seed, cl in enumerate(module_closures(mod, shift, extra)):
        got = modules.check_cm_axioms(mod, cl, mode="sampled", seed=seed,
                                      count=81)
        assert got.to_dict() == \
            _cm_view(sampled_cm(mod, cl, seed, 81)).to_dict()


@pytest.mark.parametrize("orders", [[9], [12], [16]])
def test_sampled_cm_pairs_only_the_prefix(orders):
    """A closure that misbehaves on proper nonzero submodules only, which
    come after the first SAMPLED_PAIR_SUBSETS members: the pair walk must
    not see them (CM4 then reports the C4b failure the unary walk finds),
    and a shorter list pairs them all."""
    mod = modules.finite_module(Z, orders)
    cl = SubmoduleMark(mod, (1,))
    got = modules.check_cm_axioms(mod, cl, mode="sampled", seed=1, count=90)
    assert got.to_dict() == _cm_view(sampled_cm(mod, cl, 1, 90)).to_dict()
    assert list(got.verdicts["CM4"].counterexample) == ["A", "r"]
    everything = modules.check_cm_axioms(mod, cl, mode="sampled", seed=1,
                                         count=40)
    assert list(everything.verdicts["CM4"].counterexample) == ["A", "B"]


def test_sampled_cm_counterexamples_keep_their_keys():
    mod = modules.finite_module(Z, [12])
    cl = modules.ModuleUnionFixedClosure(mod, [(1,)])
    rep = modules.check_cm_axioms(mod, cl, mode="sampled", seed=0, count=90)
    assert [v.name for v in rep.failed()] == ["CM4"]
    assert list(rep.verdicts["CM4"].counterexample) == ["A", "B"]


RING_SPECS = [f"Zn:{n}" for n in range(2, 13)] + [
    "prod:[Zn:2,Zn:2]", "prod:[Zn:2,Zn:4]", "prod:[Zn:3,Zn:3]",
    "GF:2/x^3+x+1"]


@settings(max_examples=30, deadline=None)
@given(spec=st.sampled_from(RING_SPECS), kind=st.integers(0, 3),
       mode=st.sampled_from(["subgroups", "ideals", "sampled"]),
       seed=st.integers(0, 1 << 20), count=st.integers(0, 30))
def test_engine_matches_oracle_property(spec, kind, mode, seed, count):
    cl = ring_closures(parse_ring(spec))[kind]
    kwargs = {"seed": seed, "count": count} if mode == "sampled" else {}
    engine = check_axioms(cl, mode=mode, **kwargs).to_dict()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(closures, "_check_axioms_list", _oracle)
        assert engine == check_axioms(cl, mode=mode, **kwargs).to_dict()


def _peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_large_ring_subgroups_stay_small():
    """210 elements, 16 subgroups: chunks are priced in cells, and no table
    has 2^n or n^3 entries."""
    cl = GeneratedIdealClosure(ResidueRing(210))
    reports = []
    peak = _peak(lambda: reports.append(
        check_axioms(cl, mode="subgroups")))
    assert reports[0].all_pass()
    assert reports[0].domain == "16 additive subgroups of Zn:210"
    assert peak < 64 << 20


def test_sampled_walk_is_priced_before_sampling():
    cl = GeneratedIdealClosure(ResidueRing(12))

    def run():
        with pytest.raises(ResourceLimitError, match="priced at"):
            check_axioms(cl, mode="sampled", count=10**6)

    assert _peak(run) < 16 << 20


def test_limit_admits_the_default_runs():
    """The CLI's default sampled run on every ring of at most 16 elements,
    and the membership-only exhaustive mode at 12 elements."""
    for ring in small_rings():
        rows = closures.DEFAULT_SAMPLE_COUNT + len(enumerate_subgroups(ring))
        closures._price_list(rows, ring.cardinality())
    closures._price_list(1 << 12, 12)
    with pytest.raises(ResourceLimitError):
        closures._price_list(1 << 13, 12)
