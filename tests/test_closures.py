import math
import random

import pytest

from approxalg import (
    ClosureNotSetValuedError,
    GeneratedIdealClosure,
    IdealShiftClosure,
    PointwiseClosure,
    PreconditionError,
    ProductRing,
    ResidueRing,
    ResourceLimitError,
    SamplingClosure,
    SetShiftClosure,
    ToleranceClosure,
    UnionFixedClosure,
    Z,
    check_axioms,
    closure_eval,
    closure_image_compatible,
    closure_member,
    closure_preimage_compatible,
    ideal_generated,
    replay_counterexample,
)
from approxalg.errors import DomainMismatchError
from approxalg.homs import identity_hom, reduction_hom, table_hom
from approxalg.rings import FunctionRing, PrincipalSubgroup

Z12 = ResidueRing(12)
Z2Z2 = ProductRing([ResidueRing(2), ResidueRing(2)])


def shift(ring, gens):
    return IdealShiftClosure(ring, ideal_generated(ring, gens))


def setshift(ring, gens):
    return SetShiftClosure(ring, ideal_generated(ring, gens))


class TestClosureEval:
    def test_modular_gcd_pattern(self):
        cl = shift(Z, [6])
        out = closure_eval(cl, ideal_generated(Z, [4]))
        assert out.canonical.d == 2

    def test_setshift_coset(self):
        gf = __import__("approxalg").PolyQuotient(2, (0, 0, 0, 0, 0, 1))
        j = ideal_generated(gf, [(0, 1)])  # <x>
        cl = SetShiftClosure(gf, j)
        c = (1, 0, 0, 1, 1)  # x^4 + x^3 + 1
        out = closure_eval(cl, [c])
        expected = {gf.add(c, v) for v in j.canonical.values}
        assert out.values == frozenset(expected)

    def test_zero_set_generates_zero_ideal(self):
        cl = GeneratedIdealClosure(Z12)
        out = closure_eval(cl, [0])
        assert sorted(out.canonical.values) == [0]

    def test_membership_only_variants_refuse_eval(self):
        fr = FunctionRing(2, 1)
        samp = SamplingClosure(fr, [set(fr.points)])
        with pytest.raises(ClosureNotSetValuedError):
            closure_eval(samp, [fr.zero])
        tol = ToleranceClosure(1, [(0,)], [0])
        with pytest.raises(ClosureNotSetValuedError):
            closure_eval(tol, [{}])

    def test_modular_eval_matches_gcd_for_many_generators(self):
        cl = shift(Z, [30])
        for d in range(0, 200):
            out = closure_eval(cl, PrincipalSubgroup(d))
            assert out.canonical.d == math.gcd(d, 30)


class TestClosureMember:
    def test_gray_pixel(self):
        lattice = ProductRing([Z, Z, Z])
        cl = IdealShiftClosure(lattice, shift_modulus=5)
        assert closure_member(cl, (130, 135, 125), [(1, 1, 1)])

    def test_modular_non_member(self):
        cl = shift(Z, [6])
        assert not closure_member(cl, 5, [4])
        assert closure_member(cl, 4, [4])

    def test_extensivity_on_inputs(self):
        cl = setshift(Z12, [6])
        for x in [0, 3, 7]:
            assert closure_member(cl, x, [x, 5])

    def test_dimension_check(self):
        lattice = ProductRing([Z, Z])
        cl = IdealShiftClosure(lattice, shift_modulus=5)
        with pytest.raises(DomainMismatchError):
            closure_member(cl, (1, 2, 3), [(1, 1)])

    @pytest.mark.parametrize("m", [0, 1, 2, 6, 12, 30, 97])
    def test_setshift_on_a_subgroup_of_z_is_gcd(self, m):
        # (d) + mZ = gcd(d, m)Z: a subgroup of Z needs no setshift branch
        cl = setshift(Z, [m])
        for d in range(40):
            dz = PrincipalSubgroup(d)
            g = PrincipalSubgroup(math.gcd(d, m))
            for x in range(-60, 61):
                assert closure_member(cl, x, dz) == g.contains(x), (d, x)


class TestCheckAxioms:
    def test_modular_shift_all_pass_exhaustively(self):
        rep = check_axioms(shift(Z12, [4]), mode="exhaustive")
        assert rep.all_pass(), rep.to_text()
        assert rep.mode == "exhaustive"

    def test_generated_ideal_passes(self):
        rep = check_axioms(GeneratedIdealClosure(Z12), mode="exhaustive")
        assert rep.all_pass(), rep.to_text()

    def test_broken_union_operator_fails_with_replayable_witness(self):
        broken = UnionFixedClosure(Z12, [1])
        rep = check_axioms(broken, mode="exhaustive")
        assert not (rep.verdicts["C4a"].passed and rep.verdicts["C3"].passed)
        for verdict in rep.failed():
            assert verdict.counterexample is not None
            assert replay_counterexample(broken, verdict.name,
                                         verdict.counterexample)

    def test_subgroups_and_sampled_modes(self):
        cl = setshift(Z12, [6])
        rep = check_axioms(cl, mode="subgroups")
        assert rep.all_pass() and rep.mode == "subgroups"
        rep2 = check_axioms(cl, mode="sampled", seed=7, count=150)
        assert rep2.all_pass() and rep2.seed == 7

    def test_sampled_mode_is_deterministic(self):
        broken = UnionFixedClosure(Z12, [1])
        a = check_axioms(broken, mode="sampled", seed=3, count=60)
        b = check_axioms(broken, mode="sampled", seed=3, count=60)
        fails_a = [(v.name, str(v.counterexample)) for v in a.failed()]
        fails_b = [(v.name, str(v.counterexample)) for v in b.failed()]
        assert fails_a == fails_b

    def test_exhaustive_cap_raises(self):
        big = ResidueRing(40)
        with pytest.raises(ResourceLimitError):
            check_axioms(shift(big, [4]), mode="exhaustive")

    def test_integer_bounded_mode(self):
        rep = check_axioms(shift(Z, [30]), gen_bound=200, mult_bound=40)
        assert rep.all_pass(), rep.to_text()
        assert rep.mode == "bounded"

    def test_integer_lattice_unsupported(self):
        lattice = ProductRing([Z, Z])
        cl = IdealShiftClosure(lattice, shift_modulus=5)
        with pytest.raises(PreconditionError):
            check_axioms(cl)

    def test_tolerance_unsupported(self):
        tol = ToleranceClosure(1, [(0,)], [1])
        with pytest.raises(PreconditionError):
            check_axioms(tol)

    def test_pointwise_passes_on_ideal_lattice(self):
        fr = FunctionRing(2, 2)
        rep = check_axioms(PointwiseClosure(fr), mode="ideals")
        assert rep.all_pass(), rep.to_text()


class TestSetShiftIdempotence:
    def test_adding_the_ideal_twice_is_stable(self):
        cl = setshift(Z12, [6])
        rng = random.Random(5)
        elems = list(Z12.elements())
        j = ideal_generated(Z12, [6]).canonical.values
        for _ in range(40):
            a = frozenset(rng.sample(elems, rng.randint(0, 12)))
            once = frozenset(Z12.add(x, y) for x in a for y in j)
            twice = frozenset(Z12.add(x, y) for x in once for y in j)
            assert once == twice
            assert cl.eval_set(a) == once


class TestSampling:
    def test_family_must_cover(self):
        fr = FunctionRing(2, 2)
        with pytest.raises(PreconditionError):
            SamplingClosure(fr, [{(0, 0)}])

    def test_membership(self):
        fr = FunctionRing(2, 2)
        samp = SamplingClosure(fr, [{(0, 0), (0, 1)}, {(1, 0), (1, 1)}])
        x1x2 = fr.from_mpoly({(1, 1): 1})
        # anything vanishing on V(<x1*x2>) is a member
        v_points = [p for i, p in enumerate(fr.points) if x1x2[i] == 0]
        f = tuple(0 if p in v_points else 1 for p in fr.points)
        assert closure_member(samp, f, [x1x2])


class TestHomCompatibility:
    def test_reduction_with_modular_closures(self):
        f = reduction_hom(Z, Z12)
        cl_src = shift(Z, [12])
        cl_dst = shift(Z12, [0])
        assert closure_image_compatible(f, cl_src, cl_dst).passed
        assert closure_preimage_compatible(f, cl_src, cl_dst).passed

    def test_identity_hom(self):
        f = identity_hom(Z12)
        cl = GeneratedIdealClosure(Z12)
        assert closure_image_compatible(f, cl, cl).passed
        assert closure_preimage_compatible(f, cl, cl).passed

    def test_total_codomain_closure_is_image_compatible(self):
        z4, z2 = ResidueRing(4), ResidueRing(2)
        f = reduction_hom(z4, z2)
        cl_src = GeneratedIdealClosure(z4)
        cl_dst = SetShiftClosure(z2, ideal_generated(z2, [1]))
        assert closure_image_compatible(f, cl_src, cl_dst).passed

    def test_non_hom_rejected(self):
        z4, z2 = ResidueRing(4), ResidueRing(2)
        with pytest.raises(PreconditionError):
            table_hom(z4, z2, {x: 0 for x in z4.elements()})

    def test_incompatible_pair_found(self):
        # pushing forward along Z/4 -> Z/2 with a shifted source closure but
        # the bare span downstairs must fail: cl({2}) = R upstairs maps onto
        # all of Z/2, while f({2}) = {0} only spans {0}
        z4, z2 = ResidueRing(4), ResidueRing(2)
        f = reduction_hom(z4, z2)
        cl_src = shift(z4, [1])
        cl_dst = GeneratedIdealClosure(z2)
        verdict = closure_image_compatible(f, cl_src, cl_dst)
        assert not verdict.passed
        assert verdict.counterexample is not None


class TestToleranceBasics:
    def test_membership_scales_with_tolerance(self):
        from fractions import Fraction
        tol = ToleranceClosure(1, [(0,), (2,)], [Fraction(1, 2), Fraction(3)])
        # generators vanishing at both points: g = x*(x-2) -> x^2 - 2x
        g = {(2,): 1, (1,): -2}
        inside = {(0,): 0}           # |0| <= tau everywhere
        assert tol.member(inside, [g])
        border = {(1,): 1}           # evaluates to 0 and 2 at the two points
        assert tol.member(border, [g])
        outside = {(0,): 4}
        assert not tol.member(outside, [g])

    def test_negative_tolerance_rejected(self):
        with pytest.raises(PreconditionError):
            ToleranceClosure(1, [(0,)], [-1])
