import gc
import itertools
import math
import random
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lattice_oracle import (
    generator_sets,
    naive_is_subgroup,
    naive_lattice,
    naive_span,
    small_rings,
)

from approxalg import (
    DomainMismatchError,
    FunctionRing,
    NotEnumerableError,
    PolyQuotient,
    PreconditionError,
    ProductRing,
    ResidueRing,
    ResourceLimitError,
    RingElem,
    Z,
    elem_ops,
    enumerate_elements,
    enumerate_subgroups,
    ideal_classical_product,
    ideal_generated,
    ideal_sum,
)
from approxalg import rings
from approxalg.grammar import parse_ring
from approxalg.modules import finite_module
from approxalg.rings import (
    PrincipalSubgroup,
    classical_ideals,
    ideal_closure_set,
    is_additive_subgroup,
    prime_factors,
    sort_key,
    subgroup_generated,
    subgroup_lattice,
)


Z12 = ResidueRing(12)
Z2Z2 = ProductRing([ResidueRing(2), ResidueRing(2)])
GF32 = PolyQuotient(2, (0, 0, 0, 0, 0, 1))  # F2[x]/(x^5)
FUN21 = FunctionRing(2, 1)

FINITE_RINGS = [Z12, Z2Z2, GF32, FUN21, ResidueRing(5)]


def num_divisors(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def partitions(e, largest):
    """The partitions of e into parts of at most ``largest``, descending."""
    if e == 0:
        yield []
    for k in range(min(e, largest), 0, -1):
        for rest in partitions(e - k, k):
            yield [k] + rest


def abelian_groups(order):
    """The cyclic orders of each abelian group of the given order, one
    group per choice of a partition of each prime's exponent."""
    per_prime = []
    for p in rings.prime_factors(order):
        e = next(k for k in range(order) if order % p ** (k + 1))
        per_prime.append([[p ** k for k in part]
                          for part in partitions(e, e)])
    return [sum(choice, []) for choice in itertools.product(*per_prime)]


class TestPrimeFactors:
    # sympy is a test-only oracle
    def test_against_factorint(self):
        factorint = pytest.importorskip("sympy").factorint
        for n in list(range(2, 5001)) + [100_003, 360_360, 720_720,
                                         999_983 * 2, 2**31 - 1,
                                         1_000_000_007, 10**12 + 39,
                                         2**40, 3**20 * 7]:
            assert prime_factors(n) == sorted(factorint(n)), n

    def test_sign_and_one(self):
        assert prime_factors(1) == []
        assert prime_factors(-12) == [2, 3]


class TestElemOps:
    def test_mod_12_addition(self):
        ops = elem_ops(Z12)
        assert ops.add(ops.elem(7), ops.elem(8)) == ops.elem(3)

    def test_codeword_sum(self):
        # (x^4+x^2+1) + (x^3+x^2) = x^4+x^3+1 over F2[x]/(x^5)
        ops = elem_ops(GF32)
        a = ops.elem((1, 0, 1, 0, 1))
        b = ops.elem((0, 0, 1, 1))
        assert ops.add(a, b) == ops.elem((1, 0, 0, 1, 1))

    def test_pixel_difference(self):
        lattice = ProductRing([Z, Z, Z])
        ops = elem_ops(lattice)
        p = ops.elem((130, 135, 125))
        a = ops.elem((130, 130, 130))
        assert (p - a).value == (0, 5, -5)

    def test_mixed_ring_operands_rejected(self):
        ops = elem_ops(Z12)
        other = RingElem(ResidueRing(7), 3)
        with pytest.raises(DomainMismatchError):
            ops.add(ops.elem(1), other)

    @pytest.mark.parametrize("ring", FINITE_RINGS, ids=str)
    def test_commutative_ring_axioms_exhaustive(self, ring):
        elems = list(ring.elements())
        z, o = ring.zero, ring.one
        for a in elems:
            assert ring.add(a, z) == a
            assert ring.mul(a, o) == a
            assert ring.add(a, ring.neg(a)) == z
            for b in elems:
                assert ring.add(a, b) == ring.add(b, a)
                assert ring.mul(a, b) == ring.mul(b, a)
                for c in elems:
                    assert ring.add(ring.add(a, b), c) == \
                        ring.add(a, ring.add(b, c))
                    assert ring.mul(ring.mul(a, b), c) == \
                        ring.mul(a, ring.mul(b, c))
                    assert ring.mul(a, ring.add(b, c)) == \
                        ring.add(ring.mul(a, b), ring.mul(a, c))


class TestEnumeration:
    def test_z3(self):
        assert list(enumerate_elements(ResidueRing(3))) == [0, 1, 2]

    def test_product_cardinality(self):
        assert len(list(enumerate_elements(Z2Z2))) == 4

    def test_function_ring_truth_tables(self):
        # all 2^2 functions F_2 -> F_2
        tables = list(enumerate_elements(FUN21))
        assert len(tables) == 4
        assert len(set(tables)) == 4

    def test_integers_not_enumerable(self):
        with pytest.raises(NotEnumerableError):
            enumerate_elements(Z)

    @pytest.mark.parametrize("ring", FINITE_RINGS, ids=str)
    def test_count_matches_cardinality(self, ring):
        elems = list(enumerate_elements(ring))
        assert len(elems) == ring.cardinality()
        assert len(set(elems)) == len(elems)


class TestIdealGenerated:
    def test_gcd(self):
        assert ideal_generated(Z, [4, 6]).canonical.d == 2

    def test_zero_ideal(self):
        assert ideal_generated(Z, []).canonical.d == 0

    def test_mod12_single_generator(self):
        ideal = ideal_generated(Z12, [8])
        assert sorted(ideal.canonical.values) == [0, 4, 8]

    @pytest.mark.parametrize("ring", FINITE_RINGS, ids=str)
    def test_extensive_and_idempotent(self, ring):
        elems = list(ring.elements())
        gens = elems[:2]
        ideal = ideal_generated(ring, gens)
        assert all(g in ideal.canonical.values for g in gens)
        regen = ideal_generated(ring, sorted(ideal.canonical.values,
                                             key=sort_key))
        assert regen == ideal

    def test_monotone_under_generator_inclusion(self):
        small = ideal_generated(Z12, [4])
        large = ideal_generated(Z12, [4, 6])
        assert small.canonical.values <= large.canonical.values

    @given(st.lists(st.integers(-500, 500), max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_integer_ideals_are_gcds(self, gens):
        import math
        expected = 0
        for g in gens:
            expected = math.gcd(expected, g)
        assert ideal_generated(Z, gens).canonical.d == expected


class TestSubgroupEnumeration:
    def test_z12_has_six_subgroups(self):
        subs = enumerate_subgroups(Z12)
        assert len(subs) == 6

    def test_klein_four_has_five(self):
        assert len(enumerate_subgroups(Z2Z2)) == 5

    def test_prime_order_has_two(self):
        assert len(enumerate_subgroups(ResidueRing(5))) == 2

    @pytest.mark.parametrize("n", [*range(2, 65), 128, 210, 360, 512])
    def test_cyclic_subgroup_count_is_divisor_count(self, n):
        assert len(enumerate_subgroups(ResidueRing(n))) == num_divisors(n)

    @pytest.mark.parametrize("orders, count", [
        ((2, 4, 8), 81), ((4, 4, 4), 129), ((2, 2, 2, 2, 2), 374)])
    def test_product_subgroup_counts(self, orders, count):
        ring = ProductRing([ResidueRing(n) for n in orders])
        assert len(enumerate_subgroups(ring)) == count

    @pytest.mark.parametrize("p, k", [(2, k) for k in range(1, 7)]
                             + [(3, k) for k in range(1, 5)]
                             + [(5, 2), (5, 3), (7, 2)])
    def test_elementary_abelian_counts_are_gaussian_binomial_sums(self, p, k):
        """(Z/p)^k has sum_j [k choose j]_p subgroups: a j-dimensional
        subspace has (p^k - 1)...(p^(k-j+1) - 1) ordered bases out of
        (p^j - 1)...(p^j - p^(j-1)) per subspace, which reduces to the
        Gaussian binomial.  2825 for (Z/2)^6."""
        def gaussian(k, j):
            num = den = 1
            for i in range(j):
                num *= p ** (k - i) - 1
                den *= p ** (i + 1) - 1
            return num // den
        group = finite_module(Z, [p] * k)
        assert len(subgroup_lattice(group).subgroups()) == \
            sum(gaussian(k, j) for j in range(k + 1))

    def test_every_result_is_closed(self):
        for sub in enumerate_subgroups(Z2Z2):
            assert is_additive_subgroup(Z2Z2, sub.values)

    def test_every_abelian_group_of_order_at_most_64_is_admitted(self):
        """The 116 groups of order 2..64 enumerate under the work price:
        the cardinality guard it replaced admitted all of them."""
        groups = [orders for order in range(2, 65)
                  for orders in abelian_groups(order)]
        assert len(groups) == 116
        for orders in groups:
            assert subgroup_lattice(finite_module(Z, orders)).subgroups()

    @pytest.mark.parametrize("spec", ["prod:[Zn:2,Zn:2,Zn:2,Zn:2,Zn:2,Zn:2,"
                                      "Zn:2]", "Fun:p=2,n=3"])
    def test_guard_raises_loudly(self, spec):
        """(Z/2)^7 (29212 subgroups) and the 256-element function ring are
        refused by the work price, naming the work against the limit."""
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=(
                rf"priced at \d+ elements so far, past the limit "
                rf"{rings.SUBGROUP_WORK_LIMIT}")):
            enumerate_subgroups(parse_ring(spec))
        assert time.perf_counter() - start < 3

    @pytest.mark.parametrize("spec", ["Zn:1000000007", "Fun:p=2,n=5",
                                      "Zn:1000000", "prod:[Zn:64,Zn:64,Zn:2]"])
    def test_certain_refusal_comes_before_the_lattice(self, spec,
                                                      monkeypatch):
        """2(n - 1) sqrt(n) past the limit: refused before a lattice (an
        element list of n entries) exists."""
        monkeypatch.setattr(rings, "_LATTICES", weakref.WeakKeyDictionary())
        ring = parse_ring(spec)
        with pytest.raises(ResourceLimitError, match=(
                rf"at least 2\(n - 1\) sqrt\(n\) for n = \d+, priced at "
                rf"\d+ elements, past the limit {rings.SUBGROUP_WORK_LIMIT}")):
            enumerate_subgroups(ring)
        assert ring not in rings._LATTICES

    def test_up_front_bound_is_a_lower_bound_of_the_walk(self, monkeypatch):
        """Every walk of the corpus does at least 2(n - 1) isqrt(n) work:
        with the limit one below that, the walk itself refuses (on fresh
        lattices, as a completed walk is kept)."""
        monkeypatch.setattr(rings, "_LATTICES", weakref.WeakKeyDictionary())
        groups = [finite_module(Z, orders) for order in range(2, 65)
                  for orders in abelian_groups(order)]
        groups += [ResidueRing(n) for n in (97, 128, 210, 360, 1021)]
        for group in groups:
            n = group.cardinality()
            monkeypatch.setattr(rings, "SUBGROUP_WORK_LIMIT",
                                2 * (n - 1) * math.isqrt(n) - 1)
            with pytest.raises(ResourceLimitError):
                subgroup_lattice(group).subgroups()

    def test_a_join_is_priced_coset_by_coset(self, monkeypatch):
        """The first join of Z/1021 walks 1021 cosets of {0}; a limit of 100
        stops it at the 101st element, not after the join."""
        monkeypatch.setattr(rings, "_LATTICES", weakref.WeakKeyDictionary())
        monkeypatch.setattr(rings, "SUBGROUP_WORK_LIMIT", 100)
        ring = ResidueRing(1021)
        with pytest.raises(ResourceLimitError, match=r"priced at 101 "):
            subgroup_lattice(ring).subgroups()

    def test_a_refused_walk_keeps_nothing(self, monkeypatch):
        monkeypatch.setattr(rings, "_LATTICES", weakref.WeakKeyDictionary())
        lat = subgroup_lattice(ring := ResidueRing(31))
        monkeypatch.setattr(rings, "SUBGROUP_WORK_LIMIT", 10)
        with pytest.raises(ResourceLimitError):
            lat.subgroups()
        monkeypatch.undo()
        assert lat.subgroups() == [1, (1 << ring.cardinality()) - 1]
        assert lat.subgroups() is lat.subgroups()


class TestLatticeKernel:
    """The kernel against naive fixpoint closures on plain sets."""

    @pytest.mark.parametrize("ring", small_rings(), ids=str)
    def test_against_naive_fixpoint(self, ring):
        elems = sorted(ring.elements(), key=sort_key)
        subgroups = naive_lattice(ring)
        assert [s.values for s in enumerate_subgroups(ring)] == subgroups
        ideals = naive_lattice(ring, elems, ring.mul)
        assert [i.canonical.values for i in classical_ideals(ring)] == ideals
        for gens in generator_sets(elems):
            assert subgroup_generated(ring, gens).values == \
                naive_span(ring, gens)
            assert ideal_closure_set(ring, gens) == \
                naive_span(ring, gens, elems, ring.mul)
        rng = random.Random(len(elems))
        candidates = [frozenset(rng.sample(elems, rng.randint(0, len(elems))))
                      for _ in range(20)]
        for sub in subgroups:
            candidates += [sub, sub | {rng.choice(elems)},
                           sub - {rng.choice(sorted(sub, key=sort_key))}]
        for values in candidates:
            assert is_additive_subgroup(ring, values) == \
                naive_is_subgroup(ring, values), sorted(values, key=sort_key)

    def test_non_canonical_values_go_through_canon(self):
        assert subgroup_generated(Z12, [14]) == subgroup_generated(Z12, [2])
        assert ideal_closure_set(Z12, [-3, 15]) == frozenset({0, 3, 6, 9})
        assert is_additive_subgroup(Z12, [0, 6, 18])
        assert ideal_closure_set(GF32, [(1, 0, 0, 0, 0, 0, 1)]) == \
            ideal_closure_set(GF32, [(1,)])

    def test_non_element_raises_domain_mismatch(self):
        model = small_rings()[-2]
        with pytest.raises(DomainMismatchError):
            is_additive_subgroup(model, [model.zero, 99])
        with pytest.raises(DomainMismatchError):
            ideal_closure_set(Z2Z2, [(1,)])

    def test_lattice_outlives_the_first_equal_ring(self):
        """Equal rings share one lattice; the one a caller holds keeps
        building rows after the ring it was first built for is collected."""
        first = ResidueRing(47)
        subgroup_lattice(first)
        ring = ResidueRing(47)
        lat = subgroup_lattice(ring)
        del first
        gc.collect()
        assert lat.add_row(3) == [(j + 3) % 47 for j in range(47)]
        assert lat.act_row(2) == [2 * j % 47 for j in range(47)]
        assert lat.mask([1, 48]) == 2

    def test_lattice_of_collected_structures_names_the_cause(self,
                                                              monkeypatch):
        """Once every structure a lattice served is collected it cannot
        build rows; it says so instead of ending in StopIteration.  The
        cache is emptied first, as another test may hold an equal module."""
        monkeypatch.setattr(rings, "_LATTICES", weakref.WeakKeyDictionary())
        with pytest.raises(PreconditionError, match="collected"):
            subgroup_lattice(finite_module(Z, [2, 2])).subgroups()

    def test_act_table_builds_the_rows_it_reads(self):
        """A prime test on Z/2048 reads the act rows of the x outside P
        only, the odd x for P = (2), and builds no sum table."""
        from approxalg import GeneratedIdealClosure
        from approxalg.ideals import is_approx_prime
        ring = ResidueRing(2048)
        lat = subgroup_lattice(ring)
        assert is_approx_prime(subgroup_generated(ring, [2]),
                               GeneratedIdealClosure(ring),
                               check_ideal=False) == (True, None)
        table, missing = lat._act_store
        assert missing == set(range(0, 2048, 2))
        assert table[1001].tolist() == [1001 * j % 2048 for j in range(2048)]
        assert "add_table" not in vars(lat)

    def test_index_tables_live_on_the_lattice(self, monkeypatch):
        """Equal rings share one lattice and so one set of index tables,
        which go with the lattice when the rings are collected."""
        monkeypatch.setattr(rings, "_LATTICES", weakref.WeakKeyDictionary())
        ring = ResidueRing(10)
        lat = subgroup_lattice(ring)
        act, add = lat.act_table(), lat.add_table
        assert subgroup_lattice(ResidueRing(10)).act_table() is act
        assert act[3].tolist() == [3 * j % 10 for j in range(10)]
        assert lat.act_table([3, 7]).tolist() == [act[3].tolist(),
                                                  act[7].tolist()]
        assert add[3].tolist() == [(j + 3) % 10 for j in range(10)]
        assert lat.neg_add_table[3].tolist() == [(k - 3) % 10
                                                 for k in range(10)]
        refs = [weakref.ref(act), weakref.ref(add)]
        del ring, lat, act, add
        gc.collect()
        assert [ref() for ref in refs] == [None, None]


class TestIdealArithmetic:
    def test_sum_over_integers(self):
        a = ideal_generated(Z, [4])
        b = ideal_generated(Z, [6])
        assert ideal_sum(a, b).canonical.d == 2

    def test_classical_product_over_integers(self):
        a = ideal_generated(Z, [4])
        b = ideal_generated(Z, [6])
        assert ideal_classical_product(a, b).canonical.d == 24

    def test_sum_in_z12(self):
        a = ideal_generated(Z12, [4])
        b = ideal_generated(Z12, [6])
        assert sorted(ideal_sum(a, b).canonical.values) == [0, 2, 4, 6, 8, 10]

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatchError):
            ideal_sum(ideal_generated(Z, [2]), ideal_generated(Z12, [2]))


class TestDescriptors:
    def test_residue_ring_rejects_trivial_modulus(self):
        with pytest.raises(PreconditionError):
            ResidueRing(1)

    def test_product_rejects_mixed_factors(self):
        with pytest.raises(PreconditionError):
            ProductRing([Z, ResidueRing(3)])

    def test_poly_quotient_requires_monic(self):
        with pytest.raises(PreconditionError):
            PolyQuotient(2, (1, 0, 0))  # leading coefficient 0 after trim

    def test_poly_quotient_requires_prime(self):
        with pytest.raises(PreconditionError):
            PolyQuotient(4, (0, 0, 1))

    def test_cardinalities(self):
        assert Z12.cardinality() == 12
        assert Z2Z2.cardinality() == 4
        assert GF32.cardinality() == 32
        assert FunctionRing(2, 2).cardinality() == 16
        assert FunctionRing(2, 2).npoints == 4

    def test_principal_subgroup_membership(self):
        assert PrincipalSubgroup(2).contains(-6)
        assert not PrincipalSubgroup(2).contains(5)
        assert PrincipalSubgroup(0).contains(0)
        assert not PrincipalSubgroup(0).contains(3)
