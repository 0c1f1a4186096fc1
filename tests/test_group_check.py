"""A structure is a group at its lattice: the add table of a ``TableRing``
is checked once, before its first row is read, and everything above the
lattice takes the group for granted.

The check against the laws it names, its price and what it leaves behind;
the check plus ``ideals._ring_axioms_hold`` against the triple loop of
``map_oracle.ring_axioms_hold``; ``_Lattice.is_subgroup`` against the
translate test it replaced (``lattice_oracle.is_subgroup``), and the
elements it translates; and a localization whose relation fails, which
builds no model."""

import itertools
import random
import re
import weakref

import map_oracle
import pytest
from lattice_oracle import is_subgroup as is_subgroup_oracle
from lattice_oracle import small_rings
from test_closure_family import BROKEN, table_ring
from test_transport_kernel import broken_rings

from approxalg import rings
from approxalg.closures import GeneratedIdealClosure, UnionFixedClosure
from approxalg.errors import PreconditionError, ResourceLimitError
from approxalg.grammar import parse_ring
from approxalg.ideals import (
    ApproxIdeal,
    _ring_axioms_hold,
    is_approx_ideal,
    quotient_ring,
)
from approxalg.localization import (
    check_ext_contr_bijection,
    check_iota_functorial,
    check_rep_independence,
    check_transfer_axioms,
    contract,
    extend,
    localize,
    mult_set,
)
from approxalg.modules import finite_module
from approxalg.rings import (
    FiniteSubgroup,
    ResidueRing,
    TableRing,
    Z,
    enumerate_subgroups,
    subgroup_generated,
    subgroup_lattice,
)


def tables(label, add, mul=None, zero=0, one=1):
    """A TableRing on 0..n-1 from an add table; by default the product
    is 0, which the group check never reads."""
    n = len(add)
    return TableRing(label, range(n), add, mul or [[0] * n] * n, zero, one)


# the tables whose addition is broken: two of test_closure_family's five,
# and test_transport_kernel's |a - b| on Z/4
BROKEN_ADDITIONS = [
    (table_ring(*BROKEN["additive-associative"]), "0 + 1 = 1 + 1"),
    (table_ring(*BROKEN["additive-commutative"]), "1 + 2 = 2 + 2"),
    (list(broken_rings())[1], "0 + 1 = 2 + 1")]

# a commutative loop of order 6 (a Latin square with identity 0) that is
# not associative: (2 + 2) + 4 = 3 but 2 + (2 + 4) = 2
LOOP6 = [[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 3, 4, 5, 0, 1],
         [3, 2, 5, 4, 1, 0], [4, 5, 0, 1, 3, 2], [5, 4, 1, 0, 2, 3]]
# the symmetric group on three letters: every law but commutativity
S3 = [list(p) for p in itertools.permutations(range(3))]
S3_ADD = [[S3.index([S3[a][S3[b][k]] for k in range(3)]) for b in range(6)]
          for a in range(6)]


@pytest.mark.parametrize("ring, cell", BROKEN_ADDITIONS)
def test_broken_additions_are_refused_at_the_door(ring, cell):
    """Each subgroup entry point raises the law and its cell."""
    message = re.escape(
        f"is not an abelian group under +: cancellation fails, {cell}")
    with pytest.raises(PreconditionError, match=message):
        enumerate_subgroups(ring)
    with pytest.raises(PreconditionError, match=message):
        subgroup_generated(ring, [1])
    with pytest.raises(PreconditionError, match=message):
        FiniteSubgroup(ring, [0, 1])
    assert _ring_axioms_hold(ring) is False


@pytest.mark.parametrize("ring, law, cell", [
    (tables("skew", [[(a + b + 1) % 3 for b in range(3)] for a in range(3)]),
     "neutral zero", "0 + 0 = 1"),
    (tables("S3", S3_ADD), "commutativity", "1 + 2 != 2 + 1"),
    (tables("loop6", LOOP6), "associativity", None),
    (tables("leaky", [[0, 1], [1, 7]]), "cancellation",
     "1 + 1 is not an element")])
def test_each_law_is_named_with_a_cell(ring, law, cell):
    with pytest.raises(PreconditionError) as info:
        enumerate_subgroups(ring)
    text = str(info.value)
    assert f"{law} fails, " in text
    assert cell is None or text.endswith(cell)


def test_associativity_cell_is_a_real_violation():
    ring = tables("loop6", LOOP6)
    with pytest.raises(PreconditionError, match="associativity") as info:
        subgroup_lattice(ring).add_table
    lhs, rhs = str(info.value).split("fails, ")[1].split(" != ")
    x, g, y = (int(t) for t in lhs.replace("(", "").replace(")", "")
               .split(" + "))
    assert LOOP6[LOOP6[x][g]][y] != LOOP6[x][LOOP6[g][y]]


def test_a_refused_table_keeps_nothing():
    """A failed check keeps no rows: every later read refuses again."""
    ring = tables("loop6", LOOP6)
    lat = subgroup_lattice(ring)
    for _ in range(2):
        with pytest.raises(PreconditionError, match="associativity"):
            lat.add_row(3)
    assert lat._rows == [None] * 6


def test_the_lattice_reads_the_tables_and_calls_no_operation(monkeypatch):
    """The group check, the subgroups and the ring laws read the add and
    product tables: a TableRing whose add and mul raise passes them all."""
    def refuse(self, a, b):
        raise AssertionError(f"{self} called on {a!r}, {b!r}")

    ring = TableRing("Z/5", range(5),
                     [[(a + b) % 5 for b in range(5)] for a in range(5)],
                     [[a * b % 5 for b in range(5)] for a in range(5)], 0, 1)
    monkeypatch.setattr(TableRing, "add", refuse)
    monkeypatch.setattr(TableRing, "mul", refuse)
    assert len(enumerate_subgroups(ring)) == 2
    assert subgroup_generated(ring, [2]).values == frozenset(range(5))
    assert _ring_axioms_hold(ring)


def test_the_check_is_priced_at_its_cells(monkeypatch):
    monkeypatch.setattr(rings, "_LATTICES", weakref.WeakKeyDictionary())
    monkeypatch.setattr(rings, "SUBGROUP_WORK_LIMIT", 8)
    ring = table_ring(*BROKEN["distributive"])
    with pytest.raises(ResourceLimitError,
                       match="over its 3 x 3 add table priced at 9 cells, "
                             "past the limit 8"):
        subgroup_generated(ring, [1])


def test_built_in_structures_are_not_checked(monkeypatch):
    """A ring or module declares its group: its rows are built one at a
    time as a walk reads them (on fresh lattices)."""
    monkeypatch.setattr(rings, "_LATTICES", weakref.WeakKeyDictionary())
    ring, mod = ResidueRing(64), finite_module(Z, [4, 4])
    for struct, gen in ((ring, 32), (mod, (2, 0))):
        lat = subgroup_lattice(struct)
        subgroup_generated(struct, [gen])
        assert sum(row is not None for row in lat._rows) == 1


# ---------------------------------------------------------------------------
# the ring laws: the check plus _ring_axioms_hold against the triple loop


def _small_ring_tables():
    """Every ring of at most four elements as tables on 0..n-1: the zero
    ring, Z/2, Z/3, Z/4, Z/2 x Z/2, F_4 and F_2[x]/(x^2)."""
    f4 = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]
    dual = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 0, 2], [0, 3, 2, 1]]
    xor = [[a ^ b for b in range(4)] for a in range(4)]
    out = [([[0]], [[0]], 0)]
    for n in (2, 3, 4):
        out.append(([[(a + b) % n for b in range(n)] for a in range(n)],
                    [[a * b % n for b in range(n)] for a in range(n)], 1))
    out.append((xor, [[a & b for b in range(4)] for a in range(4)], 3))
    out += [(xor, f4, 1), (xor, dual, 1)]
    return out


def random_tables(count, seed):
    """Seeded TableRings of at most four elements: a small ring relabelled
    by a random permutation, left whole, or with one to three cells of its
    add or product tables, or its unit, changed."""
    rng = random.Random(seed)
    bases = _small_ring_tables()
    for _ in range(count):
        add, mul, one = bases[rng.randrange(len(bases))]
        n = len(add)
        p = rng.sample(range(n), n)
        inv = [p.index(i) for i in range(n)]
        add = [[p[add[inv[a]][inv[b]]] for b in range(n)] for a in range(n)]
        mul = [[p[mul[inv[a]][inv[b]]] for b in range(n)] for a in range(n)]
        one = p[one]
        for _ in range(rng.choice([0, 0, 1, 2, 3])):
            what = rng.choice(["add", "mul", "one"])
            if what == "one":
                one = rng.randrange(n)
            else:
                table = add if what == "add" else mul
                table[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        yield tables(f"T{n}", add, mul, zero=p[0], one=one)


def test_ring_laws_match_the_loop_on_random_tables():
    verdicts = []
    for ring in random_tables(1200, seed=18):
        want = map_oracle.ring_axioms_hold(ring)
        assert _ring_axioms_hold(ring) is want
        verdicts.append(want)
    # both verdicts, many times over
    assert 300 < sum(verdicts) < 900


def test_ring_laws_match_the_loop_on_the_broken_tables():
    for law in sorted(BROKEN):
        ring = table_ring(*BROKEN[law])
        assert _ring_axioms_hold(ring) is map_oracle.ring_axioms_hold(ring) \
            is False


def test_ring_laws_match_the_loop_on_small_quotient_models():
    """Every quotient of a small ring by an approximate ideal under gen."""
    models = 0
    for ring in small_rings():
        cl = GeneratedIdealClosure(ring)
        for sub in enumerate_subgroups(ring):
            if not is_approx_ideal(sub, cl)[0]:
                continue
            model = quotient_ring(ring, ApproxIdeal(sub, cl)).model
            assert _ring_axioms_hold(model) is \
                map_oracle.ring_axioms_hold(model) is True
            models += 1
    assert models > 100


# ---------------------------------------------------------------------------
# is_subgroup: one coset walk against |S| translates


def test_is_subgroup_matches_the_translate_test_on_every_subset():
    rings_ = [r for r in small_rings() if r.cardinality() <= 10]
    assert len(rings_) > 20
    for ring in rings_:
        lat = subgroup_lattice(ring)
        for mask in range(1 << lat.n):
            assert lat.is_subgroup(mask) == is_subgroup_oracle(lat, mask)


@pytest.mark.parametrize("spec", ["Zn:60", "Zn:360",
                                  "prod:[Zn:2,Zn:2,Zn:2,Zn:2,Zn:2]"])
def test_is_subgroup_matches_the_translate_test_on_seeded_masks(spec):
    """200 masks: random subsets, and subgroups with and without one
    element toggled."""
    ring = parse_ring(spec)
    lat = subgroup_lattice(ring)
    subs = lat.subgroups()
    rng = random.Random(spec)
    hits = 0
    for k in range(200):
        if k % 2:
            mask = rng.getrandbits(lat.n) | (1 << lat.zero) * rng.randint(0, 1)
        else:
            mask = rng.choice(subs) ^ (1 << rng.randrange(lat.n)) * \
                rng.randint(0, 1)
        got = lat.is_subgroup(mask)
        assert got == is_subgroup_oracle(lat, mask)
        hits += got
    assert 20 < hits < 100


@pytest.mark.parametrize("spec", ["Zn:60", "Zn:360",
                                  "prod:[Zn:2,Zn:2,Zn:2,Zn:2,Zn:2]"])
def test_is_subgroup_stops_at_the_first_coset_that_leaves(spec, monkeypatch):
    """On 200 seeded masks holding 0 that are no subgroup, the walk
    translates fewer than 2|S| elements: it stops at the first coset
    outside S instead of generating the subgroup S spans."""
    ring = parse_ring(spec)
    lat = subgroup_lattice(ring)
    subs, rng, refused = lat.subgroups(), random.Random(spec), 0
    bits, translated = rings._bits, []

    def counted(mask):  # a translate lists the bits of the mask it moves
        translated.append(mask.bit_count())
        return bits(mask)

    monkeypatch.setattr(rings, "_bits", counted)
    while refused < 200:
        mask = rng.getrandbits(lat.n) if refused % 2 else \
            rng.choice(subs) ^ (1 << rng.randrange(lat.n))
        mask |= 1 << lat.zero
        translated.clear()
        if not lat.is_subgroup(mask):
            refused += 1
            assert 0 < sum(translated) < 2 * mask.bit_count()


# ---------------------------------------------------------------------------
# a localization whose relation fails builds no model


def test_a_failed_localization_has_no_model():
    """Z/4 under the union-fixed closure of {1}, at S = {1}: the relation
    and the operations fail, and a model of its three components would be
    no group (the add row of (2, 1) would be [2, 0, 0])."""
    ring = ResidueRing(4)
    loc = localize(ring, UnionFixedClosure(ring, [1]), mult_set(ring, [1]))
    assert [(v.name, v.passed) for v in loc.verdicts] == [
        ("equivalence-relation", False), ("operations-well-defined", False)]
    assert loc.model is None and loc.transferred is None
    assert loc.class_count() is None and not loc.ok()
    p = FiniteSubgroup(ring, [0, 2])
    message = "has no model: equivalence-relation, operations-well-defined"
    for check in (check_rep_independence, check_iota_functorial,
                  check_ext_contr_bijection, check_transfer_axioms,
                  lambda loc: extend(loc, p), lambda loc: contract(loc, p)):
        with pytest.raises(PreconditionError, match=message):
            check(loc)
