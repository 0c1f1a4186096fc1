"""The plain set-loop axiom checkers: the reference the list engine
(``closures._check_axioms_list``) is tested against.  Frozensets, memoized
closures and a pair loop, with no index space: ``check_axioms_sets`` over
an explicit list of subsets and scalars, and ``sampled_cm`` for a module
closure over seeded random subsets plus the submodules, with C2 and C4a on
pairs of the first ``SAMPLED_PAIR_SUBSETS``; and the image-compatibility
loops, over a list of subsets and over a module hom's pool.  Also operators that break the axioms at
chosen places, whose first failures the checkers must locate."""

import random

from approxalg.closures import ClosureSpec, materialize
from approxalg.modules import SAMPLED_PAIR_SUBSETS, ModuleClosure
from approxalg.reports import AxiomReport, Verdict
from approxalg.rings import is_additive_subgroup, sort_key


def check_axioms_sets(cl, subsets, scalars, report):
    """Pure-python check over an explicit list of subsets."""
    ring = cl.ring
    memo = {}

    def clo(s):
        if s not in memo:
            memo[s] = materialize(cl, s)
        return memo[s]

    def setsum(a, b):
        return frozenset(ring.add(x, y) for x in a for y in b)

    zero = ring.zero
    c1 = c2 = c3 = c4a = c4b = absorb = None
    for a in subsets:
        ca = clo(a)
        if c1 is None and not a <= ca:
            wit = sorted(a - ca, key=sort_key)[0]
            c1 = {"A": sorted(a, key=sort_key), "witness": wit}
        if c3 is None:
            cca = clo(frozenset(ca))
            if cca != ca:
                c3 = {"A": sorted(a, key=sort_key),
                      "clA": sorted(ca, key=sort_key),
                      "cl_clA": sorted(cca, key=sort_key)}
        if c4b is None:
            for r in scalars:
                lhs = frozenset(ring.mul(r, x) for x in ca)
                rhs = clo(frozenset(ring.mul(r, x) for x in a))
                if not lhs <= rhs:
                    wit = sorted(lhs - rhs, key=sort_key)[0]
                    c4b = {"A": sorted(a, key=sort_key), "r": r, "witness": wit}
                    break
        if absorb is None and a and is_additive_subgroup(ring, a):
            for r in scalars:
                prods = frozenset(ring.mul(r, x) for x in a)
                if not prods <= ca:
                    wit = sorted(prods - ca, key=sort_key)[0]
                    absorb = {"A": sorted(a, key=sort_key), "r": r,
                              "witness": wit}
                    break
    for a in subsets:
        if c2 is not None and c4a is not None:
            break
        ca = clo(a)
        for b in subsets:
            if c2 is None and a <= b and not ca <= clo(b):
                wit = sorted(ca - clo(b), key=sort_key)[0]
                c2 = {"A": sorted(a, key=sort_key),
                      "B": sorted(b, key=sort_key), "witness": wit}
            if c4a is None:
                aa = a | {zero}
                bb = b | {zero}
                lhs = setsum(ca, clo(b))
                rhs = clo(setsum(aa, bb))
                if not lhs <= rhs:
                    wit = sorted(lhs - rhs, key=sort_key)[0]
                    c4a = {"A": sorted(a, key=sort_key),
                           "B": sorted(b, key=sort_key), "witness": wit}
            if c2 is not None and c4a is not None:
                break

    report.record("C1", c1 is None, c1)
    report.record("C2", c2 is None, c2)
    report.record("C3", c3 is None, c3)
    report.record("C4a", c4a is None, c4a)
    report.record("C4b", c4b is None, c4b)
    report.record("absorption", absorb is None, absorb)
    return report


def sampled_cm(mod, cl, seed, count):
    rng = random.Random(seed)
    elems = sorted(mod.elements(), key=sort_key)
    subsets = [frozenset(rng.sample(elems, rng.randint(0, len(elems))))
               for _ in range(count)]
    subsets.extend(mod.all_submodules())
    paired = subsets[:SAMPLED_PAIR_SUBSETS]
    report = AxiomReport(mode="sampled", seed=seed, count=count,
                         domain=f"{len(subsets)} sampled subsets of {mod}; "
                                f"C2 and C4a on pairs of the first {len(paired)}")
    zero = mod.zero
    c1 = c2 = c3 = c4a = c4b = absorb = None
    memo = {}

    def clo(s):
        if s not in memo:
            memo[s] = cl.eval_set(s)
        return memo[s]

    def setsum(a, b):
        return frozenset(mod.add(x, y) for x in a for y in b)

    for a in subsets:
        ca = clo(a)
        if c1 is None and not a <= ca:
            c1 = {"A": sorted(a, key=sort_key)}
        if c3 is None and clo(frozenset(ca)) != ca:
            c3 = {"A": sorted(a, key=sort_key)}
        if c4b is None:
            for r in mod.scalar_reps:
                lhs = frozenset(mod.act(r, x) for x in ca)
                rhs = clo(frozenset(mod.act(r, x) for x in a))
                if not lhs <= rhs:
                    c4b = {"A": sorted(a, key=sort_key), "r": r}
                    break
        if absorb is None and is_additive_subgroup(mod, a):
            for r in mod.scalar_reps:
                if not frozenset(mod.act(r, x) for x in a) <= ca:
                    absorb = {"A": sorted(a, key=sort_key), "r": r}
                    break
    for a in paired:
        for b in paired:
            if c2 is None and a <= b and not clo(a) <= clo(b):
                c2 = {"A": sorted(a, key=sort_key), "B": sorted(b, key=sort_key)}
            if c4a is None:
                lhs = setsum(clo(a), clo(b))
                rhs = clo(setsum(a | {zero}, b | {zero}))
                if not lhs <= rhs:
                    c4a = {"A": sorted(a, key=sort_key),
                           "B": sorted(b, key=sort_key)}
            if c2 is not None and c4a is not None:
                break
        if c2 is not None and c4a is not None:
            break
    report.record("C1", c1 is None, c1)
    report.record("C2", c2 is None, c2)
    report.record("C3", c3 is None, c3)
    report.record("C4a", c4a is None, c4a)
    report.record("C4b", c4b is None, c4b)
    report.record("absorption", absorb is None, absorb)
    return report


class TopSwitch(ClosureSpec):
    """Extensive, not monotone: cl(A) = A | {extra} unless A holds the
    largest element, so every C2 violation involves that element."""

    name = "top-switch"

    def __init__(self, ring, extra):
        super().__init__(ring)
        self.extra = extra
        self.top = max(ring.elements(), key=sort_key)

    def eval_set(self, values):
        values = frozenset(values)
        return values if self.top in values else values | {self.extra}


class SmallSetsFill(ClosureSpec):
    """Extensive, not monotone: cl(A) is the whole ring when |A| <= 1.  On
    Z/6 the first C4a violation, (empty set, {1}), has a right member that
    shares its closure with a proper subset."""

    name = "small-sets-fill"

    def eval_set(self, values):
        values = frozenset(values)
        return frozenset(self.ring.elements()) if len(values) <= 1 else values


class Doubling(ClosureSpec):
    """Monotone, not additive: cl(A) = A | {a + a : a in A}."""

    name = "doubling"

    def eval_set(self, values):
        return frozenset(values) | {self.ring.add(a, a) for a in values}


def image_compatible_loop(f, cl_src, cl_dst, subsets, domain):
    """f(cl(A)) inside cl'(f(A)) for each listed A in turn, by
    ``materialize``: the first failing A, with the least witness."""
    for a in subsets:
        lhs = f.image_values(materialize(cl_src, a))
        rhs = materialize(cl_dst, f.image_values(a))
        if not lhs <= rhs:
            wit = sorted(lhs - rhs, key=sort_key)[0]
            return Verdict("image-compatible", False,
                           {"A": sorted(a, key=sort_key), "witness": wit},
                           mode=domain)
    return Verdict("image-compatible", True, mode=domain)


def module_image_compatible_loop(f, sample=200, seed=0):
    """``ModuleHom.image_compatible`` as a loop over its pool: the
    submodules, then seeded random subsets; the first X with f(cl(X))
    outside cl'(f(X))."""
    pools = [frozenset(s) for s in f.src.all_submodules()]
    rng = random.Random(seed)
    elems = sorted(f.src.elements(), key=sort_key)
    pools += [frozenset(rng.sample(elems, rng.randint(0, len(elems))))
              for _ in range(sample)]
    for x_set in pools:
        lhs = {f.mapping[v] for v in f.cl_src.eval_set(x_set)}
        rhs = f.cl_dst.eval_set(frozenset(f.mapping[v] for v in x_set))
        if not lhs <= rhs:
            return Verdict("hom-image-compatible", False,
                           {"X": sorted(x_set, key=sort_key)})
    return Verdict("hom-image-compatible", True,
                   mode=f"{len(pools)} subsets")


class ImpliedElement(ClosureSpec):
    """cl(A) = A | {0}, plus ``implied`` when A holds every element of
    ``premise`` and does not hold ``unless``.  Without ``unless`` this is a
    closure operator (one Horn rule) that fails C4a; with it, it is not
    monotone."""

    name = "implied-element"

    def __init__(self, ring, premise, implied, unless=None):
        super().__init__(ring)
        self.premise = frozenset(premise)
        self.implied = implied
        self.unless = unless

    def eval_set(self, values):
        out = frozenset(values) | {self.ring.zero}
        if self.premise <= out and self.unless not in out:
            out |= {self.implied}
        return out


class SubmoduleMark(ModuleClosure):
    """cl(X) = span(X), plus ``mark`` when X is a proper nonzero submodule:
    it misbehaves on those only, which random subsets seldom are and a
    sampled list puts after its random subsets."""

    name = "submodule-mark"

    def __init__(self, module, mark):
        super().__init__(module)
        self.mark = mark
        self.ends = (frozenset({module.zero}),
                     frozenset(module.elements()))

    def eval_set(self, values):
        span = self.module.span(values)
        if span == frozenset(values) and span not in self.ends:
            return span | {self.mark}
        return span
