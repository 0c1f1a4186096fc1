import gc
import itertools
import time
import tracemalloc
import weakref

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from approxalg import (
    GeneratedIdealClosure,
    IdealShiftClosure,
    PreconditionError,
    ProductRing,
    ResidueRing,
    ResourceLimitError,
    SetShiftClosure,
    UnionFixedClosure,
    Z,
    enumerate_subgroups,
    ideal_generated,
    subgroup_generated,
)
from approxalg import ideals, rings
from approxalg.closures import _DOMAIN_CACHE, check_axioms
from approxalg.homs import identity_hom, reduction_hom
from approxalg.ideals import (
    ApproxIdeal,
    approx_product,
    check_thm_ring_prime,
    factorization_check,
    image_transfer,
    is_approx_ideal,
    is_approx_prime,
    is_approx_prime_ring,
    preimage_transfer,
    quotient_ring,
    z_prime_bruteforce,
    z_prime_bruteforce_grid,
    z_prime_walk,
)
from approxalg.rings import ElementSet, PrincipalSubgroup, factorize
from approxalg.spectrum import spectrum

Z12 = ResidueRing(12)


def shift(ring, gens):
    return IdealShiftClosure(ring, ideal_generated(ring, gens))


class TestIsApproxIdeal:
    def test_classical_ideal_is_approximate(self):
        ok, ce = is_approx_ideal(subgroup_generated(Z12, [3]),
                                 GeneratedIdealClosure(Z12))
        assert ok and ce is None

    def test_non_subgroup_rejected(self):
        bad = ElementSet(Z12, [0, 1])
        ok, ce = is_approx_ideal(bad, GeneratedIdealClosure(Z12))
        assert not ok and ce["reason"] == "not-a-subgroup"

    def test_gray_diagonal_in_residue_model(self):
        # the Z/5^3 model of the gray-pixel setup; the shift ideal collapses
        # to zero, so the closure of the diagonal is its full ideal span
        ring = ProductRing([ResidueRing(5)] * 3)
        diag = subgroup_generated(ring, [(1, 1, 1)])
        j = ideal_generated(ring, [(5, 5, 5)])  # the zero ideal mod 5
        cl = IdealShiftClosure(ring, j)

        # independent oracle: close the diagonal into an ideal by fixpoint
        span = set(diag.values)
        changed = True
        while changed:
            new = {ring.mul(r, s) for r in ring.elements() for s in span}
            new |= {ring.add(a, b) for a in span for b in span}
            new |= {ring.neg(a) for a in span}
            changed = not new <= span
            span |= new
        expected = all(ring.mul(r, s) in span
                       for r in ring.elements() for s in diag.values)

        ok, _ = is_approx_ideal(diag, cl)
        assert ok == expected
        assert ok  # the ideal span of the diagonal is everything

    def test_setshift_diagonal_not_absorbed(self):
        # with the elementwise shift by the zero ideal the diagonal keeps
        # its own closure, and componentwise scalars escape it
        ring = ProductRing([ResidueRing(5)] * 3)
        diag = subgroup_generated(ring, [(1, 1, 1)])
        cl = SetShiftClosure(ring, ideal_generated(ring, []))
        ok, ce = is_approx_ideal(diag, cl)
        assert not ok
        assert ce["reason"] == "absorption"


class TestIsApproxPrime:
    def test_example_divisor_of_modulus(self):
        ok, _ = is_approx_prime(PrincipalSubgroup(3), shift(Z, [12]))
        assert ok

    def test_example_non_divisor(self):
        ok, ce = is_approx_prime(PrincipalSubgroup(5), shift(Z, [12]))
        assert not ok
        assert ce == {"reason": "closure-is-whole-ring", "x": 1, "y": 1}

    def test_example_composite_divisor(self):
        ok, ce = is_approx_prime(PrincipalSubgroup(4), shift(Z, [12]))
        assert not ok
        # 2*2 = 4 lies in cl(P) = (4) but 2 is outside (4)
        assert ce["product"] % 4 == 0

    def test_improper_input_raises(self):
        with pytest.raises(PreconditionError):
            is_approx_prime(PrincipalSubgroup(1), shift(Z, [12]))
        whole = subgroup_generated(Z12, [1])
        with pytest.raises(PreconditionError):
            is_approx_prime(whole, GeneratedIdealClosure(Z12))

    def test_finite_ring_primes(self):
        gen = GeneratedIdealClosure(Z12)
        ok, _ = is_approx_prime(subgroup_generated(Z12, [2]), gen)
        assert ok
        ok, _ = is_approx_prime(subgroup_generated(Z12, [4]), gen)
        assert not ok

    def test_closed_form_agrees_with_bruteforce(self):
        for m in [2, 6, 12, 30, 60]:
            cl = shift(Z, [m])
            for d in list(range(0, 40)) + [97, 120]:
                if d == 1:
                    continue
                closed, _ = is_approx_prime(PrincipalSubgroup(d), cl)
                brute, _ = z_prime_bruteforce(cl, d, bound=2 * m)
                assert closed == brute, (m, d)

    def test_vectorized_sweep_matches_definition(self):
        for m in range(2, 61):
            swept = z_prime_bruteforce_grid(m, 200)
            expected = np.array([d > 1 and sympy.isprime(d) and m % d == 0
                                 for d in range(201)])
            assert (swept == expected).all(), m


class TestApproxProduct:
    def test_modular_product(self):
        cl = shift(Z, [12])
        a = ApproxIdeal(PrincipalSubgroup(2), cl)
        b = ApproxIdeal(PrincipalSubgroup(3), cl)
        assert approx_product(a, b).canonical.d == 6

    def test_zero_ideal_factor(self):
        cl = shift(Z, [12])
        zero = ApproxIdeal(PrincipalSubgroup(0), cl)
        b = ApproxIdeal(PrincipalSubgroup(3), cl)
        assert approx_product(zero, b).canonical.d == 12  # cl(0) = (12)

    def test_classical_square_in_z12(self):
        gen = GeneratedIdealClosure(Z12)
        a = ApproxIdeal(subgroup_generated(Z12, [2]), gen)
        assert sorted(approx_product(a, a).canonical.values) == [0, 4, 8]


class TestQuotientRing:
    def test_integer_quotient_classes(self):
        cl = shift(Z, [6])
        q = quotient_ring(Z, ApproxIdeal(PrincipalSubgroup(4), cl))
        assert q.class_count() == 2

    def test_z12_by_three(self):
        gen = GeneratedIdealClosure(Z12)
        q = quotient_ring(Z12, ApproxIdeal(subgroup_generated(Z12, [3]), gen))
        assert q.class_count() == 3
        assert q.ok()

    def test_quotients_sharing_a_label_keep_their_own_tables(self):
        # Zn:12/cl(I) labels every quotient of Z/12; checking gen on Z/12/(6)
        # first must not hand its tables to the check on Z/12/(3)
        gen = GeneratedIdealClosure(Z12)
        q6, q3 = (quotient_ring(Z12, ApproxIdeal(subgroup_generated(Z12, [d]),
                                                 gen)).model
                  for d in (6, 3))
        assert q6.spec_string() == q3.spec_string()
        assert q6 != q3
        check_axioms(GeneratedIdealClosure(q6), mode="exhaustive")
        after_q6 = check_axioms(GeneratedIdealClosure(q3), mode="exhaustive")
        _DOMAIN_CACHE.clear()
        fresh = check_axioms(GeneratedIdealClosure(q3), mode="exhaustive")
        assert after_q6.to_dict() == fresh.to_dict()
        assert fresh.all_pass(), fresh.to_text()

    def test_domain_cache_does_not_keep_a_checked_quotient_alive(self):
        gen = GeneratedIdealClosure(Z12)
        model = quotient_ring(
            Z12, ApproxIdeal(subgroup_generated(Z12, [4]), gen)).model
        check_axioms(GeneratedIdealClosure(model), mode="exhaustive")
        ref = weakref.ref(model)
        del model
        gc.collect()
        assert ref() is None

    def test_zero_ideal_with_shift_closure(self):
        cl = shift(Z12, [6])
        q = quotient_ring(Z12, ApproxIdeal(subgroup_generated(Z12, []), cl))
        assert q.class_count() == 6
        assert q.ok()

    def test_representative_independence_recorded(self):
        cl = shift(Z12, [4])
        q = quotient_ring(Z12, ApproxIdeal(subgroup_generated(Z12, [2]), cl))
        names = [v.name for v in q.verdicts]
        assert "addition-well-defined" in names
        assert "multiplication-well-defined" in names
        assert q.ok()

    def test_ideal_rep_rejected_with_the_expected_type_named(self):
        with pytest.raises(PreconditionError, match="ApproxIdeal"):
            quotient_ring(Z12, ideal_generated(Z12, [6]))


class TestClosedness:
    def test_closure_that_is_not_a_subgroup(self):
        # cl((6)) = {0,5,6} is a plain set, not a subgroup, so (6) is not closed
        cl = UnionFixedClosure(Z12, [5])
        ideal = ApproxIdeal(subgroup_generated(Z12, [6]), cl)
        assert not ideal.is_closed()

    def test_closed_and_unclosed_ideals(self):
        cl = shift(Z12, [4])
        assert ApproxIdeal(subgroup_generated(Z12, [2]), cl).is_closed()
        assert not ApproxIdeal(subgroup_generated(Z12, [6]), cl).is_closed()
        clz = shift(Z, [30])
        assert ApproxIdeal(PrincipalSubgroup(3), clz).is_closed()
        assert not ApproxIdeal(PrincipalSubgroup(9), clz).is_closed()


class TestFactorization:
    def test_instance_with_closed_prime(self):
        cl = shift(Z, [30])
        a = ApproxIdeal(PrincipalSubgroup(3), cl)
        b = ApproxIdeal(PrincipalSubgroup(3), cl)
        c = ApproxIdeal(PrincipalSubgroup(7), cl)
        verdict = factorization_check(a, b, c)
        assert verdict.hypotheses_hold
        assert verdict.conclusion_holds

    def test_improper_factor_rejected(self):
        cl = shift(Z, [30])
        a = ApproxIdeal(PrincipalSubgroup(3), cl)
        b = ApproxIdeal(PrincipalSubgroup(3), cl)
        c = ApproxIdeal(PrincipalSubgroup(1), cl)
        verdict = factorization_check(a, b, c)
        assert not verdict.hypotheses["C-proper"]
        assert verdict.theorem_respected

    def test_zero_factor_lies_inside_every_ideal(self):
        # A = (5) = (0)(2) under shift:J=5; (0) is inside (5)
        cl = shift(Z, [5])
        a = ApproxIdeal(PrincipalSubgroup(5), cl)
        b = ApproxIdeal(PrincipalSubgroup(0), cl)
        c = ApproxIdeal(PrincipalSubgroup(2), cl)
        verdict = factorization_check(a, b, c)
        assert verdict.hypotheses_hold
        assert verdict.conclusion_holds
        assert verdict.theorem_respected

    def test_exhaustive_scan_over_z12_triples(self):
        cl = shift(Z12, [6])
        ideals = []
        for sub in enumerate_subgroups(Z12):
            ok, _ = is_approx_ideal(sub, cl)
            if ok:
                ideals.append(ApproxIdeal(sub, cl, check=False))
        for a, b, c in itertools.product(ideals, repeat=3):
            verdict = factorization_check(a, b, c)
            assert verdict.theorem_respected, (a, b, c)


class TestPrimeRing:
    def test_z6_is_not_prime_and_equivalence_holds(self):
        z6 = ResidueRing(6)
        verdict = check_thm_ring_prime(z6, GeneratedIdealClosure(z6))
        assert verdict.passed
        assert verdict.details["prime-ring"] is False

    def test_z5_is_prime(self):
        z5 = ResidueRing(5)
        verdict = check_thm_ring_prime(z5, GeneratedIdealClosure(z5))
        assert verdict.passed
        assert verdict.details["prime-ring"] is True

    def test_integers_with_trivial_shift(self):
        ok, _ = is_approx_prime_ring(Z, shift(Z, [0]))
        assert ok
        assert check_thm_ring_prime(Z, shift(Z, [0])).passed

    @pytest.mark.parametrize("m", [1, 6, 7])
    @pytest.mark.parametrize("z_bound", [None, "m", "2m"])
    def test_integer_box_reaching_the_witness_decides(self, m, z_bound):
        """The default box, and any box from m up, holds the first witness
        (1, m) of cl(0) = (m): the condition fails, as (0) is no prime."""
        bound = {None: None, "m": m, "2m": 2 * m}[z_bound]
        verdict = check_thm_ring_prime(Z, shift(Z, [m]), z_bound=bound)
        assert verdict.passed
        assert verdict.details == {"prime-ring": False, "condition": False}

    @pytest.mark.parametrize("m, z_bound", [(7, 5), (7, 6), (6, 0), (1, 0)])
    def test_integer_box_below_m_is_refused(self, m, z_bound):
        """A box a, b <= z_bound < m cannot reach (1, m), so read as given
        it would report the condition as holding, a false fail (shift:J=7
        at 5 and 6); 0 is such a box, not the default one."""
        with pytest.raises(PreconditionError,
                           match=rf"the bound {z_bound} is below m={m}: .* "
                                 rf"first witness \(1, {m}\)"):
            check_thm_ring_prime(Z, shift(Z, [m]), z_bound=z_bound)

    @pytest.mark.parametrize("m", [0, 7])
    def test_integer_negative_box_is_refused(self, m):
        with pytest.raises(PreconditionError,
                           match="the bound -1 over Z is negative"):
            check_thm_ring_prime(Z, shift(Z, [m]), z_bound=-1)

    @pytest.mark.parametrize("m, z_bound, cells", [
        (0, 10**5, 10**10), (100_000_007, None, 100_000_007)])
    def test_integer_box_is_priced_before_its_walk(self, m, z_bound, cells):
        """The box walk stops at (1, m) after m cells for m >= 1, and at m
        = 0 never stops: bound^2 cells.  Either is refused past the limit
        before the walk starts."""
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError,
                           match=rf"priced at {cells} cells, past the limit "
                                 rf"{rings.Z_SWEEP_CELL_LIMIT}"):
            check_thm_ring_prime(Z, shift(Z, [m]), z_bound=z_bound)
        assert time.perf_counter() - start < 1

    def test_integer_empty_box_decides_cl0_zero(self):
        """At m = 0 no product of nonzero integers is 0, so the empty box
        (z_bound 0) decides the condition as holding, as (0) is prime."""
        verdict = check_thm_ring_prime(Z, shift(Z, [0]), z_bound=0)
        assert verdict.passed
        assert verdict.details == {"prime-ring": True, "condition": True}

    def test_equivalence_across_finite_suite(self):
        for ring in [ResidueRing(4), ResidueRing(6), ResidueRing(7), Z12]:
            for cl in [GeneratedIdealClosure(ring), shift(ring, [ring.canon(2)])]:
                assert check_thm_ring_prime(ring, cl).passed


class TestHomTransfer:
    def test_preimage_of_prime(self):
        f = reduction_hom(Z, Z12)
        cl_src = shift(Z, [12])
        cl_dst = GeneratedIdealClosure(Z12)
        j = ApproxIdeal(subgroup_generated(Z12, [3]), cl_dst)
        pre, verdicts = preimage_transfer(f, j, cl_src, cl_dst)
        assert pre.base.d == 3
        assert all(v.passed for v in verdicts)
        names = [v.name for v in verdicts]
        assert "preimage-is-approx-prime" in names

    def test_preimage_of_zero_is_kernel_not_prime(self):
        f = reduction_hom(Z, Z12)
        cl_src = shift(Z, [12])
        cl_dst = GeneratedIdealClosure(Z12)
        j = ApproxIdeal(subgroup_generated(Z12, []), cl_dst)
        pre, verdicts = preimage_transfer(f, j, cl_src, cl_dst)
        assert pre.base.d == 12
        # (12) = 3*4 is not approximately prime, but the zero ideal of Z/12
        # is not prime either, so no primeness claim is made
        assert all(v.passed for v in verdicts)

    def test_identity_transfer(self):
        f = identity_hom(Z12)
        cl = GeneratedIdealClosure(Z12)
        j = ApproxIdeal(subgroup_generated(Z12, [3]), cl)
        pre, _ = preimage_transfer(f, j, cl, cl)
        assert pre.base.values == j.base.values

    def test_image_of_prime_with_kernel_inside(self):
        f = reduction_hom(Z, Z12)
        cl_src = shift(Z, [12])
        cl_dst = GeneratedIdealClosure(Z12)
        i = ApproxIdeal(PrincipalSubgroup(3), cl_src)
        img, verdicts = image_transfer(f, i, cl_src, cl_dst)
        assert sorted(img.base.values) == [0, 3, 6, 9]
        assert all(v.passed for v in verdicts)
        assert "image-is-approx-prime" in [v.name for v in verdicts]

    def test_image_primeness_clause_skipped_when_kernel_outside(self):
        f = reduction_hom(Z, Z12)
        cl_src = shift(Z, [12])
        cl_dst = GeneratedIdealClosure(Z12)
        i = ApproxIdeal(PrincipalSubgroup(5), cl_src)
        img, verdicts = image_transfer(f, i, cl_src, cl_dst)
        names = [v.name for v in verdicts]
        assert "image-primeness-clause-skipped" in names
        assert all(v.passed for v in verdicts)

    def test_pullback_identity_reported(self):
        f = reduction_hom(Z, Z12)
        cl_src = shift(Z, [12])
        cl_dst = GeneratedIdealClosure(Z12)
        i = ApproxIdeal(PrincipalSubgroup(3), cl_src)
        _, verdicts = image_transfer(f, i, cl_src, cl_dst)
        pullback = [v for v in verdicts if v.name == "pullback-identity"]
        assert pullback and pullback[0].passed


# ---------------------------------------------------------------------------
# the early-exit candidate sweep against the dense box

# the moduli of the integer-spectrum benchmark workload
BENCH_MODULI = [2, 3, 6, 9, 15, 24, 39, 61, 97, 153, 242, 383, 605, 956,
                1511, 2387, 3000]


def dense_grid(m, d_max, bound=None):
    """The sweep's cell formula over the whole (d_max + 1) x bound box, every
    cell evaluated; rows are taken 128 at a time only to bound memory."""
    if bound is None:
        bound = max(2 * m, 16)
    xx = np.arange(1, bound + 1, dtype=np.int64)[None, :]
    violation = np.zeros(d_max + 1, dtype=bool)
    for lo in range(0, d_max + 1, 128):
        d = np.arange(lo, min(lo + 128, d_max + 1), dtype=np.int64)
        dd = d[:, None]
        gg = np.gcd(d, m)[:, None]
        d_safe = np.where(dd == 0, 1, dd)
        x_not_in_p = np.where(dd == 0, xx != 0, xx % d_safe != 0)
        y0 = gg // np.gcd(xx, np.where(gg == 0, 1, gg))
        y0_ok = (gg != 0) & (y0 <= bound)
        y_not_in_p = np.where(dd == 0, y0 != 0, y0 % d_safe != 0)
        violation[lo:lo + len(d)] = \
            (x_not_in_p & y0_ok & y_not_in_p).any(axis=1)
    verdict = ~violation | (np.gcd(np.arange(d_max + 1), m) == 0)
    if d_max >= 1:
        verdict[1] = False
    return verdict


def record_cells(monkeypatch):
    """Log (d, x) for every cell the walk evaluates."""
    log = []
    cell = ideals._z_cell_violates

    def spy(d, g, x, bound):
        log.append((d, x))
        return cell(d, g, x, bound)

    monkeypatch.setattr(ideals, "_z_cell_violates", spy)
    return log


class TestCandidateSweep:
    def test_small_moduli_every_window(self):
        # rows do not depend on d_max, so one box of m + 3 rows serves the
        # windows d_max = 0, 1, m // 2 (< m) and m + 3 (> m)
        for m in range(1, 401):
            want = dense_grid(m, m + 3)
            for d_max in sorted({0, 1, m // 2, m + 3}):
                assert np.array_equal(z_prime_bruteforce_grid(m, d_max),
                                      want[:d_max + 1]), (m, d_max)

    def test_benchmark_moduli_default_window(self):
        for m in BENCH_MODULI:
            d_max = max(1000, m)
            assert np.array_equal(z_prime_bruteforce_grid(m, d_max),
                                  dense_grid(m, d_max)), m

    def test_highly_composite_modulus(self):
        # 720720 has 240 divisors; the rows up to 16 hold its six least
        # primes and nine composite divisors, walked across the full 2m box
        m = 720720
        assert np.array_equal(z_prime_bruteforce_grid(m, 16),
                              dense_grid(m, 16))
        assert z_prime_walk(factorize(m), m) == [2, 3, 5, 7, 11, 13]

    def test_walk_touches_divisor_rows_and_divisor_columns_only(
            self, monkeypatch):
        """Each divisor row 2 <= d <= d_max is walked over the divisors of d
        below d, ascending from column 1, up to its first violating cell
        or to its end; no other row or column is evaluated."""
        cell = ideals._z_cell_violates
        log = record_cells(monkeypatch)
        for m, d_max in [(1, 10), (12, 12), (97, 1000), (360, 100),
                         (720720, 720720), (2 ** 20, 2 ** 20)]:
            log.clear()
            got = z_prime_walk(factorize(m), d_max)
            rows = [d for d in range(2, min(m, d_max) + 1) if m % d == 0]
            assert sorted({d for d, _ in log}) == rows, m
            for d in rows:
                walk = [x for r, x in log if r == d]
                columns = [x for x in range(1, d) if d % x == 0]
                assert walk == columns[:len(walk)], (m, d)
                violated = [cell(d, d, x, 2 * m) for x in walk]
                assert not any(violated[:-1]), (m, d)
                assert (d in got) == (walk == columns
                                      and not violated[-1]), (m, d)
            if d_max <= 1000:
                assert np.array_equal(z_prime_bruteforce_grid(m, d_max),
                                      dense_grid(m, d_max)), m

    @pytest.mark.parametrize("m", [2 ** 54, 10 ** 17 + 3, 2 ** 63, 10 ** 30])
    def test_guard_prices_before_allocating(self, m):
        """Past 2^26 trial divisions m is refused before it is factored
        or any divisor is listed; the walk computes in Python ints, so
        past int64 too."""
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError,
                               match=r"trial division .+ priced at \d+ "
                                     r"trial divisions, past the limit "
                                     r"67108864"):
                spectrum(Z, shift(Z, [m]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_divisor_cells_are_priced_by_the_same_limit(self, monkeypatch):
        # 720720: 848 trial divisions, then 240^2 = 57600 cells
        monkeypatch.setattr(rings, "Z_SWEEP_CELL_LIMIT", 10_000)
        with pytest.raises(ResourceLimitError,
                           match=r"tau\(m\) = 240 priced at 57600 cells, "
                                 r"past the limit 10000"):
            z_prime_walk(factorize(720720), 720720)

    def test_zero_modulus_is_not_walked(self):
        with pytest.raises(PreconditionError, match="m >= 1"):
            z_prime_bruteforce_grid(0, 10)

    @settings(max_examples=25, deadline=None)
    @given(m=st.integers(1, 10 ** 12))
    # the largest prime below 10^12, and 963761198400 with 6720 divisors
    @example(m=999_999_999_989)
    @example(m=963_761_198_400)
    def test_spectrum_primes_are_the_factorint_keys(self, m):
        labels = spectrum(Z, shift(Z, [m])).labels()
        assert labels == [f"({p})" for p in sorted(sympy.factorint(m))]
