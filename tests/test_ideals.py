import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

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
from approxalg import closures, ideals
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
)
from approxalg.rings import ElementSet, PrincipalSubgroup, is_prime

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
            expected = np.array(
                [d > 1 and is_prime(d) and m % d == 0 for d in range(201)])
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


def record_blocks(monkeypatch):
    """Log (rows, x0, x1, rows with a violation) for every block walked."""
    log = []
    block = ideals._z_sweep_block

    def spy(d, g, x0, x1, bound):
        hit = block(d, g, x0, x1, bound)
        log.append((d.copy(), x0, x1, d[hit]))
        return hit

    monkeypatch.setattr(ideals, "_z_sweep_block", spy)
    return log


class TestCandidateSweep:
    def test_small_moduli_every_window(self):
        # rows do not depend on d_max, so one box of m + 3 rows serves the
        # windows d_max = 0, 1, m // 2 (< m) and m + 3 (> m)
        for m in range(0, 401):
            want = dense_grid(m, m + 3)
            for d_max in sorted({0, 1, m // 2, m + 3}):
                assert np.array_equal(z_prime_bruteforce_grid(m, d_max),
                                      want[:d_max + 1]), (m, d_max)

    @pytest.mark.parametrize("bound", [0, 1, 2, 5, 17, 64])
    def test_custom_bounds(self, bound):
        for m in list(range(0, 61)) + [210, 360, 2310]:
            for d_max in (0, 1, 40, 250):
                assert np.array_equal(
                    z_prime_bruteforce_grid(m, d_max, bound),
                    dense_grid(m, d_max, bound)), (m, d_max, bound)

    def test_benchmark_moduli_default_window(self):
        for m in BENCH_MODULI:
            d_max = max(1000, m)
            assert np.array_equal(z_prime_bruteforce_grid(m, d_max),
                                  dense_grid(m, d_max)), m

    def test_highly_composite_modulus(self, monkeypatch):
        # 720720 has 240 divisors; the rows up to 16 hold its six least
        # primes and nine composite divisors, walked across the full 2m box
        m = 720720
        assert np.array_equal(z_prime_bruteforce_grid(m, 16),
                              dense_grid(m, 16))
        assert np.array_equal(z_prime_bruteforce_grid(m, 1500, 3000),
                              dense_grid(m, 1500, 3000))
        log = record_blocks(monkeypatch)
        swept = z_prime_bruteforce_grid(m, m)
        assert list(np.flatnonzero(swept)) == [2, 3, 5, 7, 11, 13]
        assert max(len(d) * (x1 - x0) for d, x0, x1, _ in log) \
            <= closures.PAIR_GRID

    @pytest.mark.parametrize("args", [(10**30, 100, 50), (2**63, 10, 10),
                                      (12, 2**63, 10), (12, 10, 2**63),
                                      (2**62, 10, None)])
    def test_windows_beyond_int64_are_refused(self, args):
        # the default bound 2m overflows for m = 2^62
        with pytest.raises(PreconditionError, match=r"int64: each must be at "
                                                    r"most 2\^63 - 1"):
            z_prime_bruteforce_grid(*args)

    def test_blocks_hold_at_most_pair_grid_cells(self, monkeypatch):
        monkeypatch.setattr(closures, "PAIR_GRID", 64)
        log = record_blocks(monkeypatch)
        for m in (0, 12, 360, 30030):
            log.clear()
            assert np.array_equal(z_prime_bruteforce_grid(m, 300),
                                  dense_grid(m, 300)), m
            assert log and all(len(d) * (x1 - x0) <= 64
                               for d, x0, x1, _ in log), m

    def test_violations_in_first_middle_and_last_partial_block(
            self, monkeypatch):
        monkeypatch.setattr(closures, "PAIR_GRID", 64)
        log = record_blocks(monkeypatch)
        m, d_max, bound = 30030, 200, 12
        assert np.array_equal(z_prime_bruteforce_grid(m, d_max, bound),
                              dense_grid(m, d_max, bound))
        first = [hit for _, x0, _, hit in log if x0 == 1]
        middle = [hit for _, x0, x1, hit in log if 1 < x0 and x1 <= bound]
        assert any(len(hit) for hit in first)
        assert any(len(hit) for hit in middle)
        # a last block cut short by the box: narrower than twice the block
        # before it, a width the cell cap would have allowed
        assert any(len(hit) and x1 == bound + 1 and x1 - x0 < 2 * (p1 - p0)
                   and len(d) * 2 * (p1 - p0) <= 64
                   for (d, x0, x1, hit), (_, p0, p1, _) in zip(log[1:], log))
        # each row is walked over consecutive blocks from column 1 and
        # leaves at the block of its first violating cell, or at the end
        walks = {}
        for d, x0, x1, hit in log:
            hit = set(hit.tolist())
            for row in d.tolist():
                walks.setdefault(row, []).append((x0, x1, row in hit))
        want = dense_grid(m, d_max, bound)
        for row, walk in walks.items():
            assert walk[0][0] == 1, row
            assert all(a[1] == b[0] for a, b in zip(walk, walk[1:])), row
            assert not any(h for _, _, h in walk[:-1]), row
            if want[row]:
                assert walk[-1][1] == bound + 1 and not walk[-1][2], row
            else:
                assert walk[-1][2], row

    def test_guard_prices_before_allocating(self):
        m = 1_000_000_007
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="priced at"):
                z_prime_bruteforce_grid(m, m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_estimate_bounds_the_cells_walked(self, monkeypatch):
        log = record_blocks(monkeypatch)
        cases = [(m, d_max, None) for m in (0, 2, 12, 97, 360, 3000)
                 for d_max in (0, 1, 50, max(1000, m))] + \
            [(30030, 200, 12), (720720, 1500, 3000), (100, 300, 7)]
        for m, d_max, bound in cases:
            log.clear()
            z_prime_bruteforce_grid(m, d_max, bound)
            walked = sum(len(d) * (x1 - x0) for d, x0, x1, _ in log)
            full = max(2 * m, 16) if bound is None else bound
            assert walked <= ideals._z_sweep_cells(m, d_max, full), \
                (m, d_max, bound)

    def test_guard_limit_is_one_constant(self, monkeypatch):
        assert ideals._z_sweep_cells(3000, 3000, 6000) < 30_000
        monkeypatch.setattr(closures, "Z_SWEEP_CELL_LIMIT", 10_000)
        with pytest.raises(ResourceLimitError, match="past the limit 10000"):
            z_prime_bruteforce_grid(3000, 3000)
