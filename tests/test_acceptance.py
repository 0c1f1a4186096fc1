"""Acceptance suite: one test per criterion, each printing a verdict line.

Every expected value is either a worked example reproduced exactly or a
closed form cross-checked against an independent bounded enumeration; the
stated runtime budgets are asserted where the criterion fixes one.
"""

import time

from sympy import factorint, isprime

from approxalg import (
    GeneratedIdealClosure,
    IdealShiftClosure,
    ProductRing,
    ResidueRing,
    SetShiftClosure,
    Z,
    ideal_generated,
)
from approxalg.cli import main as cli_main
from approxalg.closures import check_axioms, closure_member, _DOMAIN_CACHE
from approxalg.ideals import z_prime_bruteforce, z_prime_bruteforce_grid
from approxalg.localization import (
    check_ext_contr_bijection,
    check_rad_eq_nil,
    check_rep_independence,
    check_transfer_axioms,
    localize,
    mult_set,
)
from approxalg.modules import (
    GeneratedSubmoduleClosure,
    SubmoduleShiftClosure,
    finite_module,
    iso_first,
    iso_second,
    iso_third,
    scaling_hom,
)
from approxalg.nullstellensatz import (
    all_function_ring_ideals,
    check_ans,
    check_esep,
    check_pp,
    check_tolerance_balanced,
    tolerance_case_grid,
)
from approxalg.rings import FunctionRing, PrincipalSubgroup
from approxalg.spectrum import spectrum, topology_check


def shift(ring, gens):
    return IdealShiftClosure(ring, ideal_generated(ring, gens))


def report(n, name, detail=""):
    print(f"ACCEPTANCE {n} [{name}]: PASS {detail}")


def prime_divisors(m):
    return sorted(factorint(m))


def test_criterion_1_spectrum_closed_form():
    """Spec of the integers under every modulus m = 2..120, exactly."""
    start = time.perf_counter()
    for m in range(2, 121):
        sp = spectrum(Z, shift(Z, [m]), z_bound=max(1000, m))
        expected = [f"({p})" for p in prime_divisors(m)]
        assert sp.labels() == expected, (m, sp.labels())
        # independent candidate sweep: no other (d) up to the bound passes
        swept = z_prime_bruteforce_grid(m, max(1000, m))
        found = [f"({d})" for d in range(len(swept)) if swept[d]]
        assert found == expected, (m, found)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(1, "spectrum closed form", f"(m=2..120 in {elapsed:.2f}s)")


def test_criterion_2_modular_primality_example():
    """(p) approximately prime iff p divides m, closed form and brute force."""
    primes = [p for p in range(2, 101) if isprime(p)]
    from approxalg.ideals import is_approx_prime
    for m in range(2, 61):
        cl = shift(Z, [m])
        for p in primes:
            expected = m % p == 0
            closed, _ = is_approx_prime(PrincipalSubgroup(p), cl)
            brute, _ = z_prime_bruteforce(cl, p, bound=2 * m)
            assert closed == expected, (m, p)
            assert brute == expected, (m, p)
    report(2, "modular primality", "(p <= 100, m = 2..60, both routes)")


def test_criterion_3_axiom_suites_exhaustive():
    """Shift closures pass every axiom over every subset, inside budget."""
    _DOMAIN_CACHE.clear()
    z12 = ResidueRing(12)
    klein = ProductRing([ResidueRing(2), ResidueRing(2)])
    suites = [
        IdealShiftClosure(z12, ideal_generated(z12, [4])),
        SetShiftClosure(z12, ideal_generated(z12, [6])),
        IdealShiftClosure(klein, ideal_generated(klein, [(1, 0)])),
        SetShiftClosure(klein, ideal_generated(klein, [(1, 0)])),
    ]
    start = time.perf_counter()
    for cl in suites:
        rep = check_axioms(cl, mode="exhaustive")
        assert rep.mode == "exhaustive"
        assert rep.all_pass(), (cl.describe(), rep.to_text())
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    report(3, "axiom suites", f"(4 suites, all subsets, {elapsed:.2f}s)")


def test_criterion_4_topology_laws():
    """Closed-set laws and separation on the required instances."""
    z12 = ResidueRing(12)
    instances = [
        spectrum(z12, GeneratedIdealClosure(z12)),
        spectrum(z12, shift(z12, [6])),
        spectrum(Z, shift(Z, [12])),
        spectrum(Z, shift(Z, [30])),
    ]
    for sp in instances:
        byname = {v.name: v for v in topology_check(sp, z_ideal_bound=60)}
        for law in ["intersection-law", "union-law", "T0"]:
            assert byname[law].passed, (sp, byname[law].to_dict())
        assert byname["T1-criterion-agreement"].passed
    # the modular integer spectra are discrete
    for sp in instances[2:]:
        byname = {v.name: v for v in topology_check(sp, z_ideal_bound=60)}
        assert byname["T1"].passed
    # the classical closure on the integers is not T1 within the bound
    classical = spectrum(Z, GeneratedIdealClosure(Z), z_bound=50)
    byname = {v.name: v for v in topology_check(classical, z_ideal_bound=30)}
    assert byname["T0"].passed
    assert not byname["T1"].passed
    report(4, "topology laws", "(Z/12 both closures; Z m=12,30; classical Z)")


def test_criterion_5_localization_correspondence():
    """Localizing the modular integers at the powers of two."""
    loc = localize(Z, shift(Z, [30]), mult_set(Z, [2]))
    assert loc.ok(), [v.to_dict() for v in loc.verdicts]

    verdict, matched = check_ext_contr_bijection(loc)
    assert verdict.passed, verdict.to_dict()
    assert verdict.details["avoiding"] == ["(3)", "(5)"]
    assert len(matched) == 2  # both round trips are identities by the check

    rep = check_transfer_axioms(loc)  # subgroup-exhaustive on 15 classes
    assert rep.all_pass(), rep.to_text()
    sampled = check_transfer_axioms(loc, mode="sampled", count=200)
    assert sampled.all_pass(), sampled.to_text()

    assert check_rep_independence(loc).passed
    report(5, "localization", f"(classes={loc.class_count()}, "
           f"axiom modes: {rep.mode}+{sampled.mode})")


def test_criterion_6_radical_equals_prime_intersection():
    """rad(0) equals the intersection of the spectrum on every instance."""
    for n in range(2, 61):
        ring = ResidueRing(n)
        verdict = check_rad_eq_nil(ring, GeneratedIdealClosure(ring))
        assert verdict.passed, (n, verdict.to_dict())
    for m in range(2, 121):
        verdict = check_rad_eq_nil(Z, shift(Z, [m]))
        assert verdict.passed, (m, verdict.to_dict())
    loc = localize(Z, shift(Z, [30]), mult_set(Z, [2]))
    assert check_rad_eq_nil(loc.model, loc.transferred).passed
    report(6, "radical identity", "(Z/n n<=60; Z m<=120; localized model)")


def test_criterion_7_module_isomorphism_theorems():
    """All three theorems on a configured family of at least 20 instances."""
    m8 = finite_module(Z, [8])
    m12 = finite_module(Z, [12])
    m24 = finite_module(Z, [24])
    m2x4 = finite_module(Z, [2, 4])
    table = [
        # (module, shift generators for the non-classical closure,
        #  iso1 scale, iso2 (N, K), iso3 (N, K) with N inside K)
        (m8, [(4,)], 2, ([(2,)], [(4,)]), ([(4,)], [(2,)])),
        (m12, [(6,)], 3, ([(4,)], [(6,)]), ([(6,)], [(3,)])),
        (m24, [(8,)], 6, ([(4,)], [(6,)]), ([(12,)], [(6,)])),
        (m2x4, [(0, 2)], 2, ([(1, 0)], [(0, 2)]), ([(0, 2)], [(0, 1)])),
    ]
    count = 0
    for mod, shift_gens, scale, (n2, k2), (n3, k3) in table:
        for cl in [GeneratedSubmoduleClosure(mod),
                   SubmoduleShiftClosure(mod, shift_gens)]:
            v1 = iso_first(scaling_hom(mod, cl, scale))
            assert v1.ok(), (mod, cl.describe(), v1.verdicts)
            v2 = iso_second(mod, cl, n2, k2)
            assert v2.ok(), (mod, cl.describe(), v2.verdicts)
            v3 = iso_third(mod, cl, n3, k3)
            assert v3.ok(), (mod, cl.describe(), v3.verdicts)
            for v in (v1, v2, v3):
                assert v.left_size == v.right_size
            count += 3
    assert count >= 20
    report(7, "module isomorphisms", f"({count} instances)")


def test_criterion_8_nullstellensatz_schema():
    """The radical identity over the function rings, hypotheses first."""
    fr21 = FunctionRing(2, 1)
    from approxalg.closures import PointwiseClosure
    pw21 = PointwiseClosure(fr21)
    ideals21 = all_function_ring_ideals(fr21)
    assert check_esep(pw21, ideals21).passed
    assert check_pp(pw21).passed
    assert check_ans(pw21, ideals21).passed

    fr22 = FunctionRing(2, 2)
    pw22 = PointwiseClosure(fr22)
    ideals22 = all_function_ring_ideals(fr22)
    assert len(ideals22) >= 10
    assert check_esep(pw22, ideals22).passed
    assert check_pp(pw22).passed
    assert check_ans(pw22, ideals22).passed

    from fractions import Fraction
    from approxalg.closures import ToleranceClosure
    tol = ToleranceClosure(1, [(0,), (1,), (2,)],
                           [Fraction(1, 2), Fraction(2), Fraction(0)])
    verdict, checked = check_tolerance_balanced(
        tol, tolerance_case_grid(nvars=1, seed=11, count=400))
    assert verdict.passed and checked >= 100
    report(8, "nullstellensatz schema",
           f"(all {len(ideals21)} + {len(ideals22)} ideals; "
           f"{checked} tolerance cases)")


def test_criterion_9_worked_example_scenarios(capsys):
    """The worked pixel and codeword memberships, end to end."""
    lattice = ProductRing([Z, Z, Z])
    gray = IdealShiftClosure(lattice, shift_modulus=5)
    assert closure_member(gray, (130, 135, 125), [(1, 1, 1)])

    gf = __import__("approxalg").PolyQuotient(2, (0, 0, 0, 0, 0, 1))
    noisy = SetShiftClosure(gf, ideal_generated(gf, [(0, 1)]))
    c = (1, 0, 0, 1, 1)       # x^4 + x^3 + 1
    c_prime = (1, 1, 0, 1, 1) # x^4 + x^3 + x + 1
    assert closure_member(noisy, c_prime, [c])

    code = cli_main(["scenario", "paper-examples"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.count("[pass]") == 10
    report(9, "worked-example scenarios", "(bundled suite, exit 0)")
