import itertools
import weakref

import pytest
from sympy import factorint

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
        expected = [f"({p})" for p in sorted(factorint(m))]
        assert modular_spectrum(m).labels() == expected

    def test_large_moduli_answer(self):
        assert modular_spectrum(100_000).labels() == ["(2)", "(5)"]
        assert modular_spectrum(720_720).labels() == \
            ["(2)", "(3)", "(5)", "(7)", "(11)", "(13)"]

    def test_sweep_covers_the_default_window(self, monkeypatch):
        calls = []
        sweep = spectrum_module.z_prime_walk

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return sweep(*args, **kwargs)

        monkeypatch.setattr(spectrum_module, "z_prime_walk", spy)
        for m in (12, 997, 3000):
            calls.clear()
            modular_spectrum(m)
            # the rows d <= max(1000, m), over the walk's own 2m columns
            assert calls == [((sorted(factorint(m).items()),
                               max(1000, m)), {})], m

    def test_closed_form_and_sweep_must_agree(self, monkeypatch):
        def wrong(pairs, d_max):
            return [2]

        monkeypatch.setattr(spectrum_module, "z_prime_walk", wrong)
        with pytest.raises(AssertionError, match="disagree for m=30"):
            modular_spectrum(30)

    @pytest.mark.parametrize("m", [1, 97, 720720])
    def test_m_is_factored_once_per_request(self, monkeypatch, m):
        """The spectrum factors m once, for its closed form and its divisor
        rows; its topology and rad(0) read the spectrum's primes."""
        from approxalg import ideals, localization
        calls = []

        def spy(n):
            calls.append(n)
            return rings.factorize(n)

        for module in (spectrum_module, ideals, localization):
            monkeypatch.setattr(module, "factorize", spy)
        cl = shift(Z, [m])
        topology_check(spectrum(Z, cl))
        localization.check_rad_eq_nil(Z, cl)
        # the spectrum of m = 1 is empty: nothing to factor
        assert calls == [m, m] if m > 1 else not calls

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
        # every unordered pair I <= J in pool order, then each triple as
        # (I + J) + K: I + J = J + I, so the walk sums each pair once
        pairs = list(itertools.combinations_with_replacement(pool, 2))
        assert summed[:36] == pairs
        assert len(summed) == 36 + 2 * 56
        assert all(pair in summed or pair[::-1] in summed for pair in differ)

    def test_union_law_closes_one_product_per_pair_of_spans(
            self, monkeypatch):
        """(Z/2)^4 under gen: its 67 subgroups are all approximate ideals
        and span 16 ideals, so at most 16 * 17 / 2 = 136 products are
        closed, against 2278 unordered and 4489 ordered pairs."""
        ring = ProductRing([ResidueRing(2)] * 4)
        sp = spectrum(ring, GeneratedIdealClosure(ring))
        pool = spectrum_module._ideal_pool(sp, 120)
        lat = rings.subgroup_lattice(ring)
        assert len(pool) == 67
        assert len({lat.span(a.mask) for a in pool}) == 16
        calls = []
        product = spectrum_module.approx_product

        def spy(a, b):
            calls.append((a, b))
            return product(a, b)

        monkeypatch.setattr(spectrum_module, "approx_product", spy)
        byname = {v.name: v for v in topology_check(sp)}
        assert byname["union-law"].passed
        assert byname["union-law"].mode == "67 ideals, all pairs"
        assert 0 < len(calls) <= 136

    def test_basic_opens_are_priced_with_the_pairs(self, monkeypatch):
        """Z/31 under gen: 2 ideals, so 3 unordered pairs, and 31 basic
        opens, (3 + 31) x 31 = 1054 cells; the pairs alone would be 93."""
        ring = ResidueRing(31)
        sp = spectrum(ring, GeneratedIdealClosure(ring))
        monkeypatch.setattr(spectrum_module, "TOPOLOGY_CELL_LIMIT", 1053)
        with pytest.raises(ResourceLimitError, match=(
                r"topology walk over \(3 unordered pairs of 2 ideals \+ 31 "
                r"basic opens\) x \|R\| priced at 1054 cells, past the limit "
                r"1053")):
            topology_check(sp)
        monkeypatch.setattr(spectrum_module, "TOPOLOGY_CELL_LIMIT", 1054)
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
