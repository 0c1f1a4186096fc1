"""The paper's worked example, Spec(Z) under cl(A) = <A> + mZ, by second
routes: the topology checker against ``topology_oracle`` (one basic open
per f), the radical sweep against the power-cycle walk of
``localization_oracle``, and the spectrum, topology and radical verdicts
of Z against those of Z/N: every spectrum for N <= 120, and on a subset
the V-sets and the extension-contraction bijection of S = <s>."""

import pytest
from lattice_oracle import small_rings
from localization_oracle import z_radical_cycle_walk
from topology_oracle import topology_check as oracle_topology_check

from approxalg.closures import (
    GeneratedIdealClosure,
    IdealShiftClosure,
    PointwiseClosure,
    SetShiftClosure,
    UnionFixedClosure,
)
from approxalg.grammar import parse_closure
from approxalg.localization import (
    check_ext_contr_bijection,
    check_rad_eq_nil,
    localize,
    mult_set,
    z_radical_bruteforce,
)
from approxalg.rings import (
    FunctionRing,
    ResidueRing,
    Z,
    ideal_generated,
    prime_factors,
    subgroup_generated,
)
from approxalg.spectrum import spectrum, topology_check, v_set

LARGE_MODULI = [383, 605, 956, 1511, 2387, 2999, 3000]
MODULI = [*range(1, 121), *LARGE_MODULI]


def same_topology(spec, bound):
    got = [v.to_dict() for v in topology_check(spec, z_ideal_bound=bound)]
    want = [v.to_dict()
            for v in oracle_topology_check(spec, z_ideal_bound=bound)]
    assert got == want


class TestTopologyAgainstOracle:
    @pytest.mark.parametrize("bound", [0, 1, 5, 30])
    def test_integers_under_gen(self, bound):
        spec = spectrum(Z, GeneratedIdealClosure(Z), z_bound=bound)
        same_topology(spec, bound)

    @pytest.mark.parametrize("kind", ["shift", "setshift"])
    def test_integers_under_modular_closures(self, kind):
        for m in MODULI:
            spec = spectrum(Z, parse_closure(Z, f"{kind}:J={m}"))
            same_topology(spec, 30)

    @pytest.mark.parametrize("ring", small_rings(), ids=str)
    def test_small_rings(self, ring):
        two = ideal_generated(ring, [ring.add(ring.one, ring.one)])
        closures = [GeneratedIdealClosure(ring),
                    IdealShiftClosure(ring, two),
                    SetShiftClosure(ring, two),
                    UnionFixedClosure(ring, [ring.one])]
        if isinstance(ring, FunctionRing):
            closures.append(PointwiseClosure(ring))
        for cl in closures:
            same_topology(spectrum(ring, cl), 120)


def test_radical_sweep_against_the_cycle_walk():
    # cl((0)) = (g) under shift:J=g, for g = 0 too
    for g in [*range(301), *LARGE_MODULI]:
        cl = parse_closure(Z, f"shift:J={g}")
        assert z_radical_bruteforce(cl, 0, bound=200) == \
            z_radical_cycle_walk(cl, 0, bound=200), g


# N <= 60 with every m | N: the divisor-rich N, the prime powers and a few
# square-free N; each takes the finite pair walk of its subgroup pool
CROSS_N = [2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 25, 27, 30, 32, 36, 42, 49,
           60]
CROSS_CASES = [(n, m) for n in CROSS_N for m in range(1, n + 1)
               if n % m == 0]
VERDICTS = ("T0", "T1", "T1-criterion-agreement", "quasi-compact")


@pytest.mark.parametrize("n,m", CROSS_CASES)
def test_residue_rings_follow_the_integers(n, m):
    """Spec(Z/N) under shift:J=m, m | N, is the image of Spec(Z) under
    shift:J=m, and the topology and radical verdicts of the two agree.

    Let pi: Z -> Z/N.  Every subgroup of Z/N is pi(dZ) for exactly one
    d | N, d >= 1, and every one is an ideal.  Since m | N, the closure
    of pi(dZ) is pi(dZ) + pi(mZ) = pi(gZ) with g = gcd(d, m), whose
    preimage is gZ + NZ = gZ = cl(dZ) over Z; and the preimage of pi(dZ)
    is dZ.  So pi(x) pi(y) in cl(pi(dZ)) iff xy in cl(dZ), and pi(x) in
    pi(dZ) iff x in dZ: pi(dZ) is approximately prime in Z/N iff dZ is in
    Z, and pi(dZ) is proper iff d != 1.  The primes of Z are the (p),
    p | m, all dividing N, so Spec(Z/N) = {pi(pZ) : p | m}, and pi keeps
    inclusion among subgroups pi(dZ), d | N, and among their closures.
    So V and D correspond: cl(<pi(f)>) = pi(gcd(f, m)Z), and both f pools
    reach every divisor of m as gcd(f, m) (the Z pool is 0..max(m, 30),
    the Z/N pool 0..N - 1 with m <= N, and f = 0 gives m).  T0, T1 and
    quasi-compactness therefore hold on one side iff on the other.  The
    radical of cl(0) = pi(mZ) is pi(rad(m)Z), and the primes intersect in
    pi(rad(m)Z), as over Z, so rad = nil holds on both sides.
    """
    ring = ResidueRing(n)
    finite_cl = parse_closure(ring, f"shift:J={m}")
    integer_cl = parse_closure(Z, f"shift:J={m}")
    finite = spectrum(ring, finite_cl)
    integer = spectrum(Z, integer_cl)
    assert [p.d for p in integer.primes] == prime_factors(m)
    assert set(finite.primes) == {subgroup_generated(ring, [p])
                                  for p in prime_factors(m)}

    def verdicts(spec):
        return {v.name: v.passed
                for v in topology_check(spec, z_ideal_bound=30)
                if v.name in VERDICTS}

    assert verdicts(finite) == verdicts(integer)
    assert check_rad_eq_nil(ring, finite_cl).passed == \
        check_rad_eq_nil(Z, integer_cl).passed


def _generator(sub):
    """d for pi(dZ), d | N: its least positive member (N for {0})."""
    return min((x for x in sub.values if x), default=sub.ring.n)


def test_every_spectrum_up_to_120():
    """Spec(Z/N) = {pi(pZ) : p | m} for every 2 <= N <= 120 and m | N,
    the image of the closed form of Spec(Z) (proof at
    ``test_residue_rings_follow_the_integers``)."""
    pairs = 0
    for n in range(2, 121):
        ring = ResidueRing(n)
        for m in (m for m in range(1, n + 1) if n % m == 0):
            finite = spectrum(ring, parse_closure(ring, f"shift:J={m}"))
            assert sorted(map(_generator, finite.primes)) == \
                prime_factors(m), (n, m)
            pairs += 1
    assert pairs == 601


@pytest.mark.parametrize("n", CROSS_N)
def test_v_sets_follow_the_integers(n):
    """V(pi(dZ)) in Spec(Z/N) is pi of V(dZ) in Spec(Z), for each d | N
    and m | N: cl(pi(dZ)) = pi(gcd(d, m)Z) lies in cl(pi(pZ)) = pi(pZ)
    iff gcd(d, m)Z lies in pZ, as pi keeps inclusion among the pi(eZ),
    e | N; and that is cl(dZ) = gcd(d, m)Z inside cl(pZ) over Z."""
    ring = ResidueRing(n)
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    for m in divisors:
        finite = spectrum(ring, parse_closure(ring, f"shift:J={m}"))
        integer = spectrum(Z, parse_closure(Z, f"shift:J={m}"))
        for d in divisors:
            got = v_set(finite, subgroup_generated(ring, [d]))
            want = v_set(integer, ideal_generated(Z, [d]))
            assert sorted(map(_generator, got)) == [p.d for p in want], \
                (n, m, d)


@pytest.mark.parametrize("n", CROSS_N)
def test_extension_contraction_follows_the_integers(n):
    """The bijection between the primes avoiding S = <s> and Spec(S^-1 R),
    by Z/N and by Z, for each m | N and s in 1, N - 1 and the least prime
    of N.  pi(pZ), p | N, meets S iff p divides some s^k, iff p | s, as
    for pZ over Z, so both sides avoid the same p; the verdicts, and the
    primes matched, must agree."""
    ring = ResidueRing(n)
    gens = sorted({1, prime_factors(n)[0] % n, n - 1} - {0})
    for m in (m for m in range(1, n + 1) if n % m == 0):
        for s in gens:
            finite = localize(ring, parse_closure(ring, f"shift:J={m}"),
                              mult_set(ring, [s]))
            integer = localize(Z, parse_closure(Z, f"shift:J={m}"),
                               mult_set(Z, [s]))
            (f_verdict, f_matched), (z_verdict, z_matched) = (
                check_ext_contr_bijection(loc) for loc in (finite, integer))
            assert f_verdict.passed and z_verdict.passed, (n, m, s)
            assert sorted(_generator(p) for p, _ in f_matched) == \
                [p.d for p, _ in z_matched] == \
                [p for p in prime_factors(m) if s % p], (n, m, s)
