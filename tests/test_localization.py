import pytest

from approxalg import (
    GeneratedIdealClosure,
    IdealShiftClosure,
    PreconditionError,
    ResidueRing,
    Z,
    ideal_generated,
    subgroup_generated,
)
from approxalg import closures
from approxalg.closures import _DOMAIN_CACHE
from approxalg.ideals import ApproxIdeal
from approxalg.localization import (
    check_ext_contr_bijection,
    check_iota_functorial,
    check_rad_eq_nil,
    check_rep_independence,
    check_transfer_axioms,
    contract,
    extend,
    localize,
    mult_set,
    prime_radical,
    radical,
    z_radical_bruteforce,
)
from approxalg.rings import PrincipalSubgroup
from approxalg.spectrum import spectrum

Z12 = ResidueRing(12)


def shift(ring, gens):
    return IdealShiftClosure(ring, ideal_generated(ring, gens))


@pytest.fixture(scope="module")
def loc30():
    return localize(Z, shift(Z, [30]), mult_set(Z, [2]))


class TestLocalize:
    def test_classes_mod_30_at_two(self, loc30):
        # powers of 2 absorb the 2-part of 30; classes collapse mod 15
        assert loc30.class_count() == 15
        assert loc30.ok()

    def test_trivial_mult_set_gives_quotient_by_cl_zero(self):
        loc = localize(Z, shift(Z, [30]), mult_set(Z, [1]))
        assert loc.class_count() == 30

    def test_unit_mult_set_on_finite_ring(self):
        loc = localize(Z12, GeneratedIdealClosure(Z12), mult_set(Z12, [5]))
        assert loc.class_count() == 12
        assert loc.ok()

    def test_equivalence_and_well_definedness_verdicts(self, loc30):
        names = [v.name for v in loc30.verdicts]
        assert "equivalence-matches-class-map" in names
        assert "operations-well-defined" in names

    def test_finite_equivalence_relation_checked(self):
        loc = localize(Z12, GeneratedIdealClosure(Z12), mult_set(Z12, [3]))
        names = [v.name for v in loc.verdicts]
        assert "equivalence-relation" in names
        assert loc.ok()

    def test_plain_integer_closure_unsupported(self):
        with pytest.raises(PreconditionError):
            localize(Z, GeneratedIdealClosure(Z), mult_set(Z, [2]))


class TestTransferredClosure:
    def test_zero_closure_is_zero(self, loc30):
        assert loc30.transferred.eval_set(frozenset([0])) == frozenset([0])

    def test_subgroup_closure_matches_span(self, loc30):
        assert loc30.transferred.eval_set(frozenset([3])) == \
            frozenset([0, 3, 6, 9, 12])

    def test_axiom_suite(self, loc30):
        rep = check_transfer_axioms(loc30)
        assert rep.all_pass(), rep.to_text()
        sampled = check_transfer_axioms(loc30, mode="sampled", count=120)
        assert sampled.all_pass(), sampled.to_text()

    def test_axiom_suite_exhaustive_on_small_instance(self):
        loc = localize(Z12, GeneratedIdealClosure(Z12), mult_set(Z12, [5]))
        rep = check_transfer_axioms(loc)
        assert rep.mode == "exhaustive"
        assert rep.all_pass(), rep.to_text()

    def test_localizations_sharing_a_label_keep_their_own_tables(self):
        # S^-1(Zn:12) labels every localization of Z/12; the second check
        # must not reuse the bitmask tables built for the first
        gen = GeneratedIdealClosure(Z12)
        first = localize(Z12, gen, mult_set(Z12, [7]))
        second = localize(Z12, gen, mult_set(Z12, [5]))
        assert first.model.spec_string() == second.model.spec_string()
        assert first.model != second.model
        check_transfer_axioms(first)
        after_first = check_transfer_axioms(second)
        _DOMAIN_CACHE.clear()
        fresh = check_transfer_axioms(second)
        assert after_first.to_dict() == fresh.to_dict()
        assert fresh.all_pass(), fresh.to_text()

    def test_representative_independence(self, loc30):
        assert check_rep_independence(loc30).passed


class TestIotaFunctoriality:
    def test_integer_instance(self, loc30):
        for verdict in check_iota_functorial(loc30):
            assert verdict.passed, verdict.to_dict()

    def test_finite_instance(self):
        loc = localize(Z12, GeneratedIdealClosure(Z12), mult_set(Z12, [5]))
        for verdict in check_iota_functorial(loc):
            assert verdict.passed, verdict.to_dict()


class TestExtensionContraction:
    def test_extension_of_avoiding_prime(self, loc30):
        ext, verdicts = extend(loc30, PrincipalSubgroup(3))
        assert sorted(ext.values) == [0, 3, 6, 9, 12]
        assert all(v.passed for v in verdicts)
        back, _ = contract(loc30, ext)
        assert back.d == 3

    def test_extension_meeting_s_reports_improper(self, loc30):
        ext, verdicts = extend(loc30, PrincipalSubgroup(2))
        assert len(ext.values) == loc30.class_count()
        assert not verdicts[0].passed

    def test_contraction_of_zero_with_trivial_mult_set(self):
        loc = localize(Z, shift(Z, [30]), mult_set(Z, [1]))
        zero = subgroup_generated(loc.model, [])
        back, _ = contract(loc, zero)
        assert back.d == 30  # the closure kernel of iota

    def test_bijection_mod_30(self, loc30):
        verdict, matched = check_ext_contr_bijection(loc30)
        assert verdict.passed, verdict.to_dict()
        assert verdict.details["avoiding"] == ["(3)", "(5)"]
        assert len(matched) == 2

    def test_bijection_with_units_only(self):
        loc = localize(Z12, GeneratedIdealClosure(Z12), mult_set(Z12, [5]))
        verdict, matched = check_ext_contr_bijection(loc)
        assert verdict.passed
        assert len(matched) == 2  # the full classical spectrum of Z/12

    def test_bijection_z12_at_three(self):
        loc = localize(Z12, GeneratedIdealClosure(Z12), mult_set(Z12, [3]))
        verdict, matched = check_ext_contr_bijection(loc)
        assert verdict.passed, verdict.to_dict()
        assert verdict.details["avoiding"] == ["{0,2,4,6,8,10}"]
        assert len(matched) == 1


class TestRadicals:
    def test_modular_radical_of_zero(self):
        cl = shift(Z, [12])
        rad = radical(Z, cl, ApproxIdeal(PrincipalSubgroup(0), cl))
        assert rad.canonical.d == 6

    def test_bruteforce_matches_closed_form(self):
        cl = shift(Z, [12])
        swept = z_radical_bruteforce(cl, 0, bound=60)
        assert swept == [x for x in range(61) if x % 6 == 0]

    def test_prime_radical_is_intersection(self):
        sp = spectrum(Z, shift(Z, [12]))
        assert prime_radical(sp).d == 6

    def test_field_has_trivial_radical(self):
        z5 = ResidueRing(5)
        assert check_rad_eq_nil(z5, GeneratedIdealClosure(z5)).passed

    @pytest.mark.parametrize("n", [4, 8, 12, 18, 36, 60])
    def test_classical_residue_rings(self, n):
        ring = ResidueRing(n)
        assert check_rad_eq_nil(ring, GeneratedIdealClosure(ring)).passed

    @pytest.mark.parametrize("m", [2, 12, 30, 72, 120])
    def test_modular_integers(self, m):
        assert check_rad_eq_nil(Z, shift(Z, [m])).passed

    def test_localized_instance(self, loc30):
        assert check_rad_eq_nil(loc30.model, loc30.transferred).passed

    def test_exponent_bound_soundness(self):
        # orbit detection agrees with a direct scan of exponents up to |R|
        ring = ResidueRing(36)
        cl = GeneratedIdealClosure(ring)
        ideal = ApproxIdeal(subgroup_generated(ring, []), cl, check=False)
        rad = radical(ring, cl, ideal)
        direct = set()
        for g in ring.elements():
            x = g
            for _ in range(ring.cardinality()):
                if x == 0:
                    direct.add(g)
                    break
                x = ring.mul(x, g)
        assert frozenset(rad.canonical.values) == frozenset(direct)


def _z_relation_loop(loc):
    """The two verdicts of ``_verify_z_relation`` by plain pair loops."""
    m = loc.modulus
    s_lifts = loc._sat_lifts()
    pairs = [(a, s) for a in range(-m, m + 1) for s in s_lifts]

    def related(a, s, b, t):
        return any((u * (a * t - b * s)) % m == 0
                   for u in loc.sat_residues_mod_m)

    ce = None
    for (a, s) in pairs:
        for (b, t) in pairs:
            rel = related(a, s, b, t)
            if rel != (loc.to_class_z(a, s) == loc.to_class_z(b, t)):
                ce = {"pair1": (a, s), "pair2": (b, t), "related": rel}
                break
        if ce:
            break
    add_ce = None
    small = [p for p in pairs if abs(p[0]) <= 12]
    for (a, s) in small:
        for (b, t) in small:
            lhs = loc.to_class_z(a * t + b * s, s * t)
            if lhs != loc.model.add(loc.to_class_z(a, s), loc.to_class_z(b, t)):
                add_ce = {"pair1": (a, s), "pair2": (b, t)}
                break
            lhs = loc.to_class_z(a * b, s * t)
            if lhs != loc.model.mul(loc.to_class_z(a, s), loc.to_class_z(b, t)):
                add_ce = {"pair1": (a, s), "pair2": (b, t), "op": "mul"}
                break
        if add_ce:
            break
    return [ce, add_ce]


@pytest.mark.parametrize("m, s", [(12, 2), (18, 2), (20, 5), (30, 2),
                                  (9, 3), (14, 7), (15, 2), (1, 2)])
@pytest.mark.parametrize("fault", [None, "class", "add", "mul"])
@pytest.mark.parametrize("grid", [closures.LIST_GRID, 64])
def test_z_relation_grids_match_pair_loops(m, s, fault, grid, monkeypatch):
    """The numpy sweeps of the integer relation against plain loops, on
    the true class map and model and on deliberately broken ones, whose
    first violations the two must locate alike, in doubling row chunks
    or in chunks of one row."""
    monkeypatch.setattr(closures, "LIST_GRID", grid)
    loc = localize(Z, shift(Z, [m]), mult_set(Z, [s]))
    true_class, m0 = loc.to_class_z, loc.m0
    if fault == "class":
        monkeypatch.setattr(loc, "to_class_z", lambda a, t: (
            true_class(a, t) + (a == 5 and t > 1)) % max(m0, 2))
        if m0 == 1:
            # the one-element model has no class 1: every sum and product
            # of classes is its one class 0
            for op in ("add", "mul"):
                monkeypatch.setattr(loc.model, op, lambda x, y: 0)
    elif fault is not None:
        op = getattr(loc.model, fault)
        monkeypatch.setattr(loc.model, fault, lambda x, y: (
            op(x, y) + (x == y == 1 % m0)) % m0)
    loc.verdicts.clear()
    loc._verify_z_relation()
    got = [v.counterexample for v in loc.verdicts]
    want = _z_relation_loop(loc)
    if fault == "class":
        # the grid takes the class of a sum by the class formula, which a
        # broken map no longer follows: both see the fault, at other pairs
        assert got[0] == want[0]
        if m0 > 2:
            assert got[0] is not None
            assert got[1] is not None and want[1] is not None
    else:
        assert got == want
        assert fault is None or m0 == 1 or got[1] is not None
