import itertools
import weakref

import numpy as np
import pytest

from approxalg import (
    FiniteSubgroup,
    GeneratedIdealClosure,
    IdealShiftClosure,
    PreconditionError,
    ProductRing,
    ResidueRing,
    ResourceLimitError,
    SetShiftClosure,
    Z,
    ideal_generated,
)
from approxalg import rings
from approxalg import spectrum as spectrum_module
from approxalg.rings import (
    PrincipalSubgroup,
    ideal_from_subgroup,
    ideal_sum,
    is_prime,
)
from approxalg.spectrum import (
    closure_of_point,
    d_set,
    format_prime,
    spectrum,
    topology_check,
    v_set,
)

Z12 = ResidueRing(12)


def shift(ring, gens):
    return IdealShiftClosure(ring, ideal_generated(ring, gens))


def modular_spectrum(m, bound=None):
    return spectrum(Z, shift(Z, [m]), z_bound=bound)


class TestSpectrum:
    def test_mod_12(self):
        assert modular_spectrum(12).labels() == ["(2)", "(3)"]

    def test_mod_30(self):
        assert modular_spectrum(30).labels() == ["(2)", "(3)", "(5)"]

    @pytest.mark.parametrize("m", [2, 7, 16, 36, 60, 97, 120])
    def test_closed_form_matches_prime_divisors(self, m):
        expected = [f"({p})" for p in range(2, m + 1)
                    if is_prime(p) and m % p == 0]
        assert modular_spectrum(m).labels() == expected

    def test_large_moduli_answer(self):
        assert modular_spectrum(100_000).labels() == ["(2)", "(5)"]
        assert modular_spectrum(720_720).labels() == \
            ["(2)", "(3)", "(5)", "(7)", "(11)", "(13)"]

    def test_sweep_covers_the_default_window(self, monkeypatch):
        calls = []
        sweep = spectrum_module.z_prime_bruteforce_grid

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return sweep(*args, **kwargs)

        monkeypatch.setattr(spectrum_module, "z_prime_bruteforce_grid", spy)
        for m in (12, 997, 3000):
            calls.clear()
            modular_spectrum(m)
            # the box is the sweep's default, 2m columns
            assert calls == [((m, max(1000, m)), {})], m

    def test_closed_form_and_sweep_must_agree(self, monkeypatch):
        def wrong(m, d_max, bound=None):
            swept = np.zeros(d_max + 1, dtype=bool)
            swept[2] = True
            return swept

        monkeypatch.setattr(spectrum_module, "z_prime_bruteforce_grid", wrong)
        with pytest.raises(AssertionError, match="disagree for m=30"):
            modular_spectrum(30)

    def test_classical_z12(self):
        sp = spectrum(Z12, GeneratedIdealClosure(Z12))
        assert sp.labels() == ["{0,3,6,9}", "{0,2,4,6,8,10}"]

    def test_classical_klein_four(self):
        ring = ProductRing([ResidueRing(2), ResidueRing(2)])
        sp = spectrum(ring, GeneratedIdealClosure(ring))
        assert len(sp.primes) == 2

    def test_classical_integers_bounded(self):
        sp = spectrum(Z, GeneratedIdealClosure(Z), z_bound=30)
        labels = sp.labels()
        assert labels[0] == "(0)"
        assert "(29)" in labels and "(4)" not in labels
        assert sp.method == "bounded-enumeration"

    def test_shifted_z12(self):
        sp = spectrum(Z12, shift(Z12, [6]))
        # the closure collapses (p) to (gcd(p, 6)); the primes are still
        # exactly the classical ones here
        assert len(sp.primes) == 2


class TestClosedSets:
    def test_vset_mod_30(self):
        sp = modular_spectrum(30)
        closed = v_set(sp, ideal_generated(Z, [12]))
        assert closed.labels(Z) == ["(2)", "(3)"]
        opens = d_set(sp, 12)
        assert [format_prime(Z, p) for p in opens] == ["(5)"]

    def test_zero_and_whole_ideals(self):
        sp = modular_spectrum(30)
        assert len(v_set(sp, PrincipalSubgroup(0))) == 3
        assert len(v_set(sp, PrincipalSubgroup(1))) == 0

    def test_vset_is_closure_invariant(self):
        # V(I) = V(cl(I)): (8) and (gcd(8,30)) = (2) cut out the same primes
        sp = modular_spectrum(30)
        a = v_set(sp, ideal_generated(Z, [8]))
        b = v_set(sp, ideal_generated(Z, [2]))
        assert a == b

    def test_finite_ring_vset(self):
        sp = spectrum(Z12, GeneratedIdealClosure(Z12))
        closed = v_set(sp, ideal_generated(Z12, [6]))
        assert len(closed) == 2  # 6 lies in both maximal ideals


class TestTopology:
    def test_modular_spectra_are_discrete(self):
        for m in [12, 30]:
            sp = modular_spectrum(m)
            byname = {v.name: v for v in topology_check(sp, z_ideal_bound=60)}
            for name in ["intersection-law", "union-law", "T0", "T1",
                         "T1-criterion-agreement", "quasi-compact",
                         "V(0)-is-whole-space", "V(R)-is-empty"]:
                assert byname[name].passed, byname[name].to_dict()

    def test_classical_integers_fail_t1(self):
        sp = spectrum(Z, GeneratedIdealClosure(Z), z_bound=40)
        byname = {v.name: v for v in topology_check(sp, z_ideal_bound=30)}
        assert byname["T0"].passed
        assert not byname["T1"].passed
        assert byname["T1-criterion-agreement"].passed
        assert byname["T1"].details == {"inclusion-maximal": False,
                                        "singleton-closures": False}

    @pytest.mark.parametrize("closure", ["gen", "shift6"])
    def test_z12_laws_exhaustive(self, closure):
        cl = GeneratedIdealClosure(Z12) if closure == "gen" \
            else shift(Z12, [6])
        sp = spectrum(Z12, cl)
        for verdict in topology_check(sp):
            assert verdict.passed, (closure, verdict.to_dict())

    def test_intersection_law_sums_subgroups(self, monkeypatch):
        # the pool holds additive subgroups that are approximate ideals, not
        # classical ones; the law is about their subgroup sum I + J, which on
        # this ring differs from the ideal that I and J generate on 8 pairs
        ring = ProductRing([ResidueRing(2), ResidueRing(4)])
        cl = SetShiftClosure(ring, ideal_generated(ring, [(1, 0)]))
        sp = spectrum(ring, cl)
        pool = spectrum_module._ideal_pool(sp, 120)
        assert len(pool) == 8
        differ = [(a, b) for a, b in itertools.product(pool, repeat=2)
                  if a + b != ideal_sum(ideal_from_subgroup(a),
                                        ideal_from_subgroup(b)).canonical]
        assert len(differ) == 8
        summed = []
        add = FiniteSubgroup.__add__

        def spy(a, b):
            summed.append((a, b))
            return add(a, b)

        monkeypatch.setattr(FiniteSubgroup, "__add__", spy)
        byname = {v.name: v for v in topology_check(sp)}
        law = byname["intersection-law"]
        assert law.passed and law.mode == "8 ideals, all pairs and triples"
        # every ordered pair, then each triple as (I + J) + K
        pairs = list(itertools.product(pool, repeat=2))
        assert summed[:64] == pairs
        assert len(summed) == 64 + 2 * 56
        assert all(pair in summed for pair in differ)

    def test_basic_opens_are_priced_with_the_pairs(self, monkeypatch):
        """Z/31 under gen: 2 ideals and 31 basic opens, (2^2 + 31) x 31 =
        1085 cells; the pairs alone would be 124."""
        ring = ResidueRing(31)
        sp = spectrum(ring, GeneratedIdealClosure(ring))
        monkeypatch.setattr(spectrum_module, "TOPOLOGY_CELL_LIMIT", 1084)
        with pytest.raises(ResourceLimitError, match=(
                r"topology walk over \(2\^2 ideal pairs \+ 31 basic opens\) "
                r"x \|R\| priced at 1085 cells, past the limit 1084")):
            topology_check(sp)
        monkeypatch.setattr(spectrum_module, "TOPOLOGY_CELL_LIMIT", 1085)
        assert all(v.passed for v in topology_check(sp))

    def test_spectrum_and_topology_walk_the_lattice_once(self, monkeypatch):
        """The ideal pool reads the masks the spectrum's walk kept."""
        monkeypatch.setattr(rings, "_LATTICES", weakref.WeakKeyDictionary())
        walks = []
        walk = rings._Lattice._walk_subgroups

        def counted(lat):
            walks.append(lat)
            return walk(lat)

        monkeypatch.setattr(rings._Lattice, "_walk_subgroups", counted)
        ring = ResidueRing(60)
        sp = spectrum(ring, GeneratedIdealClosure(ring))
        assert all(v.passed for v in topology_check(sp))
        assert len(walks) == 1

    def test_closed_primes_observation_reported(self):
        sp = spectrum(Z12, GeneratedIdealClosure(Z12))
        byname = {v.name: v for v in topology_check(sp)}
        detail = byname["closed-primes-report"].details
        assert detail["all-primes-cl-closed"] is True
        assert detail["closed-ideals-under-primes"] is True


class TestClosureOfPoint:
    def test_discrete_point(self):
        sp = modular_spectrum(30)
        closed = closure_of_point(sp, PrincipalSubgroup(3))
        assert closed.labels(Z) == ["(3)"]

    def test_generic_point_closure_is_everything(self):
        sp = spectrum(Z, GeneratedIdealClosure(Z), z_bound=20)
        closed = closure_of_point(sp, PrincipalSubgroup(0))
        assert len(closed) == len(sp.primes)

    def test_point_outside_spectrum_rejected(self):
        sp = modular_spectrum(30)
        with pytest.raises(PreconditionError):
            closure_of_point(sp, PrincipalSubgroup(7))

    def test_singleton_for_one_prime_spectrum(self):
        sp = modular_spectrum(8)  # only (2)
        assert len(sp.primes) == 1
        assert len(closure_of_point(sp, sp.primes[0])) == 1
