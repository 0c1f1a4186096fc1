"""Naive fixpoint closures: the reference the subgroup-lattice kernel
(``rings.subgroup_lattice``) is tested against.  Plain sets, no index space,
no cosets: each step adds every sum, negative and scalar multiple of what
is there until nothing new appears."""

from approxalg.rings import sort_key


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


def generator_sets(elems):
    """Each singleton and each pair of neighbours in the element order."""
    return [[x] for x in elems] + [list(p) for p in zip(elems, elems[1:])]
