"""Naive fixpoint closures: the reference the subgroup-lattice kernel
(``rings.subgroup_lattice``) is tested against.  Plain sets, no index space,
no cosets: each step adds every sum, negative and scalar multiple of what
is there until nothing new appears.  Also ``ElementSet`` and
``FiniteSubgroup`` as they were when they held frozensets of values, the
reference for the mask-based classes, and the frozenset evaluations of the
package closures from before ``eval_mask``, the reference for it."""

from approxalg.closures import GeneratedIdealClosure
from approxalg.errors import PreconditionError
from approxalg.grammar import parse_ring
from approxalg.ideals import ApproxIdeal, quotient_ring
from approxalg.localization import localize, mult_set
from approxalg.rings import (
    ResidueRing,
    _same_ring,
    additive_closure,
    ideal_closure_set,
    is_additive_subgroup,
    sort_key,
    subgroup_generated,
)


def naive_span(struct, seed, scalars=(), act=None):
    """Smallest set holding the seed and 0 that is closed under +, - and,
    when ``act`` is given, multiplication by every scalar."""
    out = {struct.canon(v) for v in seed} | {struct.zero}
    while True:
        grown = out | {struct.add(x, y) for x in out for y in out} \
            | {struct.neg(x) for x in out}
        if act is not None:
            grown |= {act(r, x) for r in scalars for x in out}
        if grown == out:
            return frozenset(out)
        out = grown


def naive_lattice(struct, scalars=(), act=None):
    """Every subgroup (every submodule, when ``act`` is given), sorted by
    size and then by elements, grown from {0} one element at a time."""
    zero = naive_span(struct, [])
    seen = {zero}
    frontier = [zero]
    elems = list(struct.elements())
    while frontier:
        h = frontier.pop()
        for g in elems:
            if g not in h:
                grown = naive_span(struct, h | {g}, scalars, act)
                if grown not in seen:
                    seen.add(grown)
                    frontier.append(grown)
    return sorted(seen, key=lambda s: (len(s), sorted(map(sort_key, s))))


def naive_is_subgroup(struct, values):
    return struct.zero in values and all(
        struct.neg(x) in values and all(struct.add(x, y) in values
                                        for y in values)
        for x in values)


def subgroup_sum(add, h, k):
    """H + K for subgroups H and K (value sets) of an abelian group with
    the addition ``add``, as the set of sums h + k: it holds H and K (each
    holds 0), and is closed under + and - (sums and negatives regroup), so
    it is the subgroup H | K generates.  It is the union of the cosets
    H + y, y in K, each added once: a y already covered lies in some
    H + y', and then H + y = H + y'."""
    out = set()
    for y in k:
        if y not in out:
            out |= {add(x, y) for x in h}
    return frozenset(out)


def generator_sets(elems):
    """Each singleton and each pair of neighbours in the element order."""
    return [[x] for x in elems] + [list(p) for p in zip(elems, elems[1:])]


def _products(limit, least=2):
    """Factor lists (nondecreasing, at least two) with product <= limit."""
    out = []
    for n in range(least, limit // 2 + 1):
        for rest in [[m] for m in range(n, limit // n + 1)] + \
                _products(limit // n, n):
            out.append([n] + rest)
    return out


def small_rings():
    """Every kind of grammar ring, each of at most 16 elements, plus a
    quotient model and a localization model (both ``TableRing``)."""
    specs = [f"Zn:{n}" for n in range(2, 17)]
    specs += ["prod:[" + ",".join(f"Zn:{n}" for n in fs) + "]"
              for fs in _products(16)]
    specs += [f"GF:2/{m}" for m in ("x", "x+1", "x^2", "x^2+1", "x^2+x+1",
                                    "x^3", "x^3+x+1", "x^4", "x^4+x+1")]
    specs += ["GF:3/x^2", "GF:3/x^2+1", "GF:5/x", "GF:13/x",
              "prod:[GF:2/x^2+x+1,Zn:2]", "prod:[GF:2/x^2,Zn:3]",
              "Fun:p=2,n=1", "Fun:p=2,n=2"]
    rings = [parse_ring(s) for s in specs]
    z12 = ResidueRing(12)
    gen = GeneratedIdealClosure(z12)
    rings.append(quotient_ring(
        z12, ApproxIdeal(subgroup_generated(z12, [4]), gen)).model)
    rings.append(localize(z12, gen, mult_set(z12, [2])).model)
    return rings


class ElementSet:
    """A plain finite subset of a finite ring (no structure assumed)."""

    def __init__(self, ring, values):
        self.ring = ring
        self.values = frozenset(ring.canon(v) for v in values)

    def contains(self, v):
        return self.ring.canon(v) in self.values

    def is_whole(self):
        return len(self.values) == self.ring.cardinality()

    def __le__(self, other):
        _same_ring(self, other)
        return self.values <= other.values

    def __lt__(self, other):
        _same_ring(self, other)
        return self.values < other.values

    def __and__(self, other):
        _same_ring(self, other)
        return ElementSet(self.ring, self.values & other.values)

    def sorted_values(self):
        return sorted(self.values, key=sort_key)

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.sorted_values())

    def __eq__(self, other):
        return (isinstance(other, ElementSet) and self.ring == other.ring
                and self.values == other.values)

    def __hash__(self):
        return hash((self.ring, self.values))

    def __repr__(self):
        inner = ",".join(self.ring.format_element(v) for v in self.sorted_values())
        return "{" + inner + "}"


class FiniteSubgroup(ElementSet):
    """An explicit additive subgroup of a finite ring; closedness is checked."""

    def __init__(self, ring, values, check=True):
        super().__init__(ring, values)
        if check and not is_additive_subgroup(ring, self.values):
            raise PreconditionError(f"{self!r} is not an additive subgroup")

    def elements(self):
        return self.sorted_values()

    def __and__(self, other):
        if not isinstance(other, FiniteSubgroup):
            return super().__and__(other)
        _same_ring(self, other)
        return FiniteSubgroup(self.ring, self.values & other.values, check=False)

    def __add__(self, other):
        """H + K, the subgroup generated by H | K."""
        if not isinstance(other, FiniteSubgroup):
            return NotImplemented
        _same_ring(self, other)
        return FiniteSubgroup(
            self.ring, additive_closure(self.ring, self.values | other.values),
            check=False)


# The set evaluations of the package closures, as their classes defined
# them before ``eval_mask``: each a function of the closure (``self``) and
# a set of canonical values, keyed by the closure's name.


def gen_eval_set(self, values):
    return ideal_closure_set(self.ring, values)


def shift_eval_set(self, values):
    # <A> + J = <A | J>, as J is an ideal
    return ideal_closure_set(
        self.ring, frozenset(values) | self.shift_ideal.canonical.values)


def setshift_eval_set(self, values):
    j = self.shift_ideal.canonical.values
    return frozenset(self.ring.add(a, b) for a in values for b in j)


def union_fixed_eval_set(self, values):
    return frozenset(values) | self.extra


def sample_eval_set_internal(self, values):
    return frozenset(v for v in self.ring.elements()
                     if self.member(v, values))


SET_EVALUATIONS = {"gen": gen_eval_set, "shift": shift_eval_set,
                   "setshift": setshift_eval_set,
                   "union-fixed": union_fixed_eval_set,
                   "sample": sample_eval_set_internal}


def is_subgroup(lat, mask):
    """``_Lattice.is_subgroup`` as it was: 0 in S and S + s = S for each s
    in S (S + s has the size of S, so it lies in S iff it is S)."""
    return bool((mask >> lat.zero) & 1) and all(
        lat.translate(mask, i) == mask
        for i in range(lat.n) if mask >> i & 1)
