from fractions import Fraction

import pytest

from approxalg import (
    FunctionRing,
    PointwiseClosure,
    PreconditionError,
    SamplingClosure,
    SetShiftClosure,
    ToleranceClosure,
    ideal_generated,
)
from approxalg.nullstellensatz import (
    all_function_ring_ideals,
    check_ans,
    check_esep,
    check_pp,
    check_tolerance_balanced,
    maximal_point_ideal,
    rad_phi,
    tolerance_case_grid,
    vanishing_ideal,
    variety,
)

FR22 = FunctionRing(2, 2)
FR21 = FunctionRing(2, 1)


def x1x2():
    return FR22.from_mpoly({(1, 1): 1})


class TestVariety:
    def test_product_of_coordinates(self):
        ideal = ideal_generated(FR22, [x1x2()])
        v = variety(FR22, ideal)
        assert v.sorted_points() == [(0, 0), (0, 1), (1, 0)]

    def test_empty_point_set_gives_whole_ring(self):
        ideal = vanishing_ideal(FR22, [])
        assert len(ideal.canonical.values) == 16

    def test_full_grid_gives_zero_ideal(self):
        ideal = vanishing_ideal(FR22, FR22.points)
        assert set(ideal.canonical.values) == {FR22.zero}

    def test_galois_connection(self):
        ideals = all_function_ring_ideals(FR22)
        point_sets = [frozenset(), frozenset({(0, 0)}),
                      frozenset({(0, 0), (1, 1)}), frozenset(FR22.points)]
        for ideal in ideals:
            v = variety(FR22, ideal)
            for w in point_sets:
                left = w <= v.points
                vanish = vanishing_ideal(FR22, w)
                right = frozenset(ideal.canonical.values) <= \
                    frozenset(vanish.canonical.values)
                assert left == right, (sorted(w), ideal.generators)

    def test_double_variety_is_stable(self):
        for ideal in all_function_ring_ideals(FR22):
            v = variety(FR22, ideal)
            again = variety(FR22, vanishing_ideal(FR22, v.points))
            assert again.points == v.points


class TestRadPhi:
    def test_pointwise_radical_equals_vanishing_ideal(self):
        pw = PointwiseClosure(FR22)
        ideal = ideal_generated(FR22, [x1x2()])
        rad = rad_phi(FR22, ideal, pw)
        van = vanishing_ideal(FR22, variety(FR22, ideal).points)
        assert frozenset(rad.canonical.values) == \
            frozenset(van.canonical.values)

    def test_whole_ring_is_fixed(self):
        pw = PointwiseClosure(FR22)
        ideal = ideal_generated(FR22, [FR22.one])
        assert len(rad_phi(FR22, ideal, pw).canonical.values) == 16

    def test_radical_contains_closure_with_exponent_one(self):
        pw = PointwiseClosure(FR22)
        from approxalg.closures import materialize
        for ideal in all_function_ring_ideals(FR22):
            cl = materialize(pw, frozenset(ideal.canonical.values))
            rad = frozenset(rad_phi(FR22, ideal, pw).canonical.values)
            assert cl <= rad


class TestESEPandPP:
    def test_pointwise_esep_and_pp(self):
        pw = PointwiseClosure(FR22)
        ideals = all_function_ring_ideals(FR22)
        assert check_esep(pw, ideals).passed
        assert check_pp(pw).passed

    def test_sampling_esep(self):
        samp = SamplingClosure(FR22, [{(0, 0), (0, 1)}, {(1, 0), (1, 1)}])
        assert check_esep(samp, all_function_ring_ideals(FR22)).passed

    def test_pp_fails_for_total_shift(self):
        whole = SetShiftClosure(FR22, ideal_generated(FR22, [FR22.one]))
        verdict = check_pp(whole)
        assert not verdict.passed
        assert verdict.counterexample["issue"] == "not-closed"

    def test_point_ideal_shape(self):
        m = maximal_point_ideal(FR22, (1, 0))
        # functions vanishing at (1, 0): half the ring
        assert len(m.canonical.values) == 8


class TestANS:
    def test_every_ideal_of_two_point_ring(self):
        pw = PointwiseClosure(FR21)
        assert check_ans(pw, all_function_ring_ideals(FR21)).passed

    def test_family_over_four_point_ring(self):
        pw = PointwiseClosure(FR22)
        ideals = all_function_ring_ideals(FR22)
        assert len(ideals) >= 10
        assert check_ans(pw, ideals).passed

    def test_unverified_hypotheses_raise(self):
        whole = SetShiftClosure(FR22, ideal_generated(FR22, [FR22.one]))
        with pytest.raises(PreconditionError):
            check_ans(whole, all_function_ring_ideals(FR22))


@pytest.mark.parametrize("ring", [FR21, FR22], ids=str)
def test_ans_verdicts_pinned(ring, monkeypatch):
    """check_ans under pointwise and the two set shifts that
    ``search_esep_without_pp`` tries: the verdict or the refusal, with one
    variety per ideal."""
    from approxalg import nullstellensatz
    point = vanishing_ideal(ring, [ring.points[0]])
    closures = [PointwiseClosure(ring),
                SetShiftClosure(ring, ideal_generated(ring, [ring.one])),
                SetShiftClosure(ring, ideal_generated(
                    ring, list(point.generators)))]
    ideals = all_function_ring_ideals(ring)
    calls = []
    monkeypatch.setattr(nullstellensatz, "variety",
                        lambda *a: calls.append(a) or variety(*a))
    got = check_ans(closures[0], ideals).to_dict()
    assert got == {"axiom": "radical-equals-vanishing-ideal",
                   "verdict": "pass", "counterexample": None,
                   "mode": f"{len(ideals)} ideals", "seed": None,
                   "details": None}
    assert len(calls) == len(ideals)
    for cl in closures[1:]:
        with pytest.raises(PreconditionError, match=r"^hypothesis not "
                           r"established: ESEP=True, PP=False$"):
            check_ans(cl, ideals)


class TestReverseInclusionSearch:
    def test_search_finds_esep_without_pp_failures(self):
        from approxalg.nullstellensatz import search_esep_without_pp
        findings = search_esep_without_pp(FR21)
        assert findings
        for finding in findings:
            assert finding["radical-size"] > finding["vanishing-size"]


class TestToleranceBalancedRule:
    def test_grid_passes(self):
        tol = ToleranceClosure(
            1, [(0,), (1,), (2,)], [Fraction(1, 2), Fraction(2), Fraction(0)])
        verdict, checked = check_tolerance_balanced(
            tol, tolerance_case_grid(nvars=1, seed=11, count=400))
        assert verdict.passed
        assert checked >= 100

    def test_two_variable_grid(self):
        tol = ToleranceClosure(2, [(0, 0), (1, 1)], [Fraction(1), Fraction(3)])
        verdict, checked = check_tolerance_balanced(
            tol, tolerance_case_grid(nvars=2, seed=5, count=300))
        assert verdict.passed
        assert checked >= 50

    def test_scaled_tolerances_multiply_pointwise(self):
        tol = ToleranceClosure(1, [(2,)], [Fraction(3)])
        r = {(1,): 2}  # r(x) = 2x, |r(2)| = 4
        scaled = tol.scaled(r)
        assert scaled.taus == (Fraction(12),)


@pytest.mark.parametrize("ring", [FR21, FR22, FunctionRing(3, 1)], ids=str)
def test_rad_phi_matches_power_membership(ring):
    """rad(I) from one evaluation of cl(I) equals the definition read
    through ``closure_member``, power by power until the orbit repeats; and
    the vanishing ideal of a point set is the pointwise closure of any
    function with exactly those zeros."""
    from approxalg.closures import closure_member
    from approxalg.rings import sort_key
    half = set(ring.points[:len(ring.points) // 2])
    closures = [PointwiseClosure(ring),
                SamplingClosure(ring, [half, set(ring.points) - half]),
                SetShiftClosure(ring, ideal_generated(ring, [ring.variable(0)]))]
    for cl in closures:
        for ideal in all_function_ring_ideals(ring):
            gens = list(ideal.canonical.values)
            want = set()
            for g in ring.elements():
                seen, x = [], g
                while x not in seen:
                    seen.append(x)
                    if closure_member(cl, x, gens):
                        want.add(g)
                        break
                    x = ring.mul(x, g)
            assert set(rad_phi(ring, ideal, cl).canonical.values) == want
    for k in range(len(ring.points) + 1):
        zeros = ring.points[:k]
        f = tuple(0 if a in zeros else 1 for a in ring.points)
        assert frozenset(vanishing_ideal(ring, zeros).canonical.values) == \
            PointwiseClosure(ring).eval_set(frozenset({f}))
        assert vanishing_ideal(ring, zeros).generators == tuple(sorted(
            PointwiseClosure(ring).eval_set(frozenset({f})), key=sort_key))
