"""The element-by-element map loops the map kernel is tested against.

These are the checks that quantify over a finite map as they were written
before maps became index arrays on the subgroup lattice: the table-hom and
approximate module-hom laws, the finite preimage-compatibility loop, both
finite loops of the canonical map's functoriality, the class loop of a
quotient ring with its model's tables, and ``QuotientModule`` with the
three isomorphism theorems built on it.  ``LoopModuleHom`` carries a
hom's map table through the old ``kernel``, ``image_q``, ``image_c`` and
(from before the list engine) the plain ``image_compatible`` loop.
``ModuleClosure`` and its four variants are the module closures as
written before they became the ring closures applied to a module, and
``ring_axioms_hold`` the triple loop over a quotient model's laws."""

import random

from approxalg.closures import _subsets_for, materialize
from approxalg.errors import PreconditionError
from approxalg.modules import IsoVerdict, is_approx_submodule
from approxalg.reports import Verdict
from approxalg.rings import (
    IntegerRing,
    is_additive_subgroup,
    sort_key,
    subgroup_lattice,
)


def verify_hom_table(src, dst, mapping):
    """None if the table is a unital ring hom, else a description of why not."""
    if mapping[src.one] != dst.one:
        return f"f(1) = {mapping[src.one]!r} != 1"
    elems = list(src.elements())
    for x in elems:
        for y in elems:
            if mapping[src.add(x, y)] != dst.add(mapping[x], mapping[y]):
                return f"f({x!r}+{y!r}) != f({x!r})+f({y!r})"
            if mapping[src.mul(x, y)] != dst.mul(mapping[x], mapping[y]):
                return f"f({x!r}*{y!r}) != f({x!r})*f({y!r})"
    return None


def approx_hom_violation(src, dst, cl_dst, mapping):
    """``ModuleHom._approx_hom_violation`` of a map table."""
    f = mapping
    cld = cl_dst
    memo = {}

    def singleton_cl(v):
        if v not in memo:
            memo[v] = cld.eval_set(frozenset({v}))
        return memo[v]

    for x in src.elements():
        for y in src.elements():
            if f[src.add(x, y)] not in singleton_cl(dst.add(f[x], f[y])):
                return {"x": x, "y": y}
        for r in src.scalar_reps:
            if f[src.act(r, x)] not in singleton_cl(dst.act(r, f[x])):
                return {"x": x, "r": r}
    return None


def closure_preimage_compatible(f, cl_src, cl_dst):
    """The finite branch: f^{-1}(cl(B)) inside cl(f^{-1}(B)) for each B."""
    masks, domain = _subsets_for(f.dst)
    src_elems = sorted(f.src.elements(), key=sort_key)
    for b in map(subgroup_lattice(f.dst).values, masks):
        target = materialize(cl_dst, b)
        pre_t = frozenset(x for x in src_elems if f.apply(x) in target)
        pre_b = frozenset(x for x in src_elems if f.apply(x) in b)
        rhs = materialize(cl_src, pre_b)
        if not pre_t <= rhs:
            wit = sorted(pre_t - rhs, key=sort_key)[0]
            return Verdict("preimage-compatible", False,
                           {"B": sorted(b, key=sort_key), "witness": wit},
                           mode=domain)
    return Verdict("preimage-compatible", True, mode=domain)


def check_iota_functorial(loc):
    """Both functoriality inclusions of the canonical map, finite base."""
    from approxalg.rings import enumerate_subgroups
    image_ce = None
    pre_ce = None
    trans = loc.transferred
    assert not isinstance(loc.base, IntegerRing)
    for sub in enumerate_subgroups(loc.base):
        x = sub.values
        clx = materialize(loc.base_cl, x)
        lhs = {loc.iota(v) for v in clx}
        rhs = trans.eval_set(frozenset(loc.iota(v) for v in x))
        if not lhs <= rhs:
            image_ce = {"X": sorted(x, key=sort_key)}
            break
    for sub in enumerate_subgroups(loc.model):
        b = sub.values
        clb = trans.eval_set(b)
        pre_lhs = {v for v in loc.base.elements() if loc.iota(v) in clb}
        pre_b = frozenset(v for v in loc.base.elements()
                          if loc.iota(v) in b)
        rhs = materialize(loc.base_cl, pre_b)
        if not pre_lhs <= rhs:
            pre_ce = {"B": sorted(b, key=sort_key)}
            break
    mode = "additive subgroups both sides"
    return [Verdict("iota-image-compatible", image_ce is None, image_ce,
                    mode=mode),
            Verdict("iota-preimage-compatible", pre_ce is None, pre_ce,
                    mode=mode)]


def quotient_ring_classes(ring, clset):
    """(rep_of, classes) of the class loop of a finite ``quotient_ring``."""
    rep_of = {}
    classes = []
    for x in sorted(ring.elements(), key=sort_key):
        if x in rep_of:
            continue
        members = frozenset(ring.add(x, j) for j in clset)
        for y in members:
            rep_of[y] = x
        classes.append((x, members))
    return rep_of, classes


def quotient_model_tables(ring, rep_of, classes):
    """What ``localization_oracle.model_tables`` reads off a quotient
    model, from the class loop: each negative, sum and product of
    representatives taken to its class, and each class's name."""
    reps = [rep for rep, _ in classes]
    return (reps, [rep_of[ring.neg(x)] for x in reps],
            [[rep_of[ring.add(x, y)] for y in reps] for x in reps],
            [[rep_of[ring.mul(x, y)] for y in reps] for x in reps],
            rep_of[ring.zero], rep_of[ring.one],
            [f"[{ring.format_element(x)}]" for x in reps])


class QuotientModule:
    """Classes of a carrier set under x ~ y iff x - y in cl(N)."""

    def __init__(self, mod, carrier, clset, verdicts):
        self.mod = mod
        self.carrier = sorted(carrier, key=sort_key)
        self.clset = clset
        self.rep_of = {}
        self.classes = []
        for x in self.carrier:
            if x in self.rep_of:
                continue
            members = sorted(
                (y for y in self.carrier if mod.sub(x, y) in clset),
                key=sort_key)
            rep = members[0]
            for y in members:
                self.rep_of[y] = rep
            self.classes.append((rep, frozenset(members)))
        self.verdicts = verdicts

    def class_count(self):
        return len(self.classes)

    def reps(self):
        return [rep for rep, _ in self.classes]

    def add(self, a, b):
        return self.rep_of[self.mod.add(a, b)]

    def act(self, r, a):
        return self.rep_of[self.mod.act(r, a)]

    def ok(self):
        return all(v.passed for v in self.verdicts)


def module_quotient(mod, n_values, cl):
    """M / N on the loop quotient; the preconditions of ``module_quotient``
    (the well-definedness verdicts are ``localization_oracle``'s)."""
    ok, ce = is_approx_submodule(mod, n_values, cl)
    if not ok:
        raise PreconditionError(f"not an approximate submodule: {ce}")
    n_values = frozenset(mod.canon(v) for v in n_values)
    clset = cl.eval_set(n_values)
    if not is_additive_subgroup(mod, clset):
        raise PreconditionError("cl(N) is not a subgroup; classes undefined")
    return QuotientModule(mod, mod.elements(), clset, [])


class LoopModuleHom:
    """A module hom's map table with the methods the first theorem reads."""

    def __init__(self, f):
        self.src, self.dst = f.src, f.dst
        self.cl_src, self.cl_dst = f.cl_src, f.cl_dst
        self.mapping = f.mapping

    def apply(self, x):
        return self.mapping[self.src.canon(x)]

    def kernel(self):
        """Ker f = {x : f(x) in cl'(0)}."""
        cl0 = self.cl_dst.eval_set(frozenset({self.dst.zero}))
        return frozenset(x for x in self.src.elements()
                         if self.mapping[x] in cl0)

    def image_q(self):
        """Im^q f: the classes f(x) + cl'(0) inside M'/cl'(0)."""
        cl0 = self.cl_dst.eval_set(frozenset({self.dst.zero}))
        q = QuotientModule(self.dst, self.dst.elements(), cl0, [])
        return q, sorted({q.rep_of[self.mapping[x]]
                          for x in self.src.elements()}, key=sort_key)

    def image_c(self):
        """Im_c f = cl'(f(M)), the closure of the raw image set."""
        return self.cl_dst.eval_set(
            frozenset(self.mapping[x] for x in self.src.elements()))

    def image_compatible(self, sample=200, seed=0):
        """f(cl(X)) inside cl'(f(X)) over submodules plus sampled subsets."""
        pools = [frozenset(s) for s in self.src.all_submodules()]
        rng = random.Random(seed)
        elems = sorted(self.src.elements(), key=sort_key)
        pools += [frozenset(rng.sample(elems, rng.randint(0, len(elems))))
                  for _ in range(sample)]
        for x_set in pools:
            lhs = {self.mapping[v] for v in self.cl_src.eval_set(x_set)}
            rhs = self.cl_dst.eval_set(
                frozenset(self.mapping[v] for v in x_set))
            if not lhs <= rhs:
                return Verdict("hom-image-compatible", False,
                               {"X": sorted(x_set, key=sort_key)})
        return Verdict("hom-image-compatible", True,
                       mode=f"{len(pools)} subsets")


def _check_map_is_module_iso(name, q_src_reps, q_dst_reps, mapping,
                             add_src, add_dst, act_src, act_dst, scalars):
    """Common verification: totality, injectivity, surjectivity, and the
    descended additivity/action laws for a class-level map."""
    verdicts = []
    image = [mapping[x] for x in q_src_reps]
    inj = len(set(image)) == len(image)
    sur = set(image) == set(q_dst_reps)
    verdicts.append(Verdict(f"{name}-injective", inj,
                            None if inj else {"image-size": len(set(image))}))
    verdicts.append(Verdict(f"{name}-surjective", sur,
                            None if sur else {"missed": len(set(q_dst_reps)
                                                            - set(image))}))
    add_ce = None
    act_ce = None
    for x in q_src_reps:
        for y in q_src_reps:
            if add_ce is None and \
                    mapping[add_src(x, y)] != add_dst(mapping[x], mapping[y]):
                add_ce = {"x": x, "y": y}
        for r in scalars:
            if act_ce is None and \
                    mapping[act_src(r, x)] != act_dst(r, mapping[x]):
                act_ce = {"x": x, "r": r}
    verdicts.append(Verdict(f"{name}-additive", add_ce is None, add_ce))
    verdicts.append(Verdict(f"{name}-action-compatible", act_ce is None,
                            act_ce))
    return verdicts


def iso_first(f):
    """M/Ker f and the image of f in M'/cl'(0) are isomorphic via the
    descended map.  Requires f image-compatible with the closures."""
    f = LoopModuleHom(f)
    compat = f.image_compatible()
    if not compat.passed:
        raise PreconditionError(
            f"hypothesis failed: hom is not image-compatible: "
            f"{compat.counterexample}")
    ker = f.kernel()
    ok, ce = is_approx_submodule(f.src, ker, f.cl_src)
    kernel_verdict = Verdict("kernel-is-approx-submodule", ok, ce)
    q_src = module_quotient(f.src, ker, f.cl_src)
    q_dst, image_reps = f.image_q()
    mapping = {rep: q_dst.rep_of[f.apply(rep)] for rep in q_src.reps()}

    well_ce = None
    for rep, members in q_src.classes:
        for x in members:
            if q_dst.rep_of[f.apply(x)] != mapping[rep]:
                well_ce = {"x": x, "rep": rep}
                break
        if well_ce:
            break
    verdicts = [kernel_verdict,
                Verdict("descended-map-well-defined", well_ce is None, well_ce)]
    verdicts += _check_map_is_module_iso(
        "iso1", q_src.reps(), image_reps, mapping,
        q_src.add, lambda a, b: q_dst.rep_of[f.dst.add(a, b)],
        q_src.act, lambda r, a: q_dst.rep_of[f.dst.act(r, a)],
        f.src.scalar_reps)
    # the closed image is reported for comparison only: when it differs
    # from the raw image no relation between the two is asserted
    raw_image = {f.apply(x) for x in f.src.elements()}
    imc = f.image_c()
    verdicts.append(Verdict(
        "closed-image-report", True, details={
            "image-size": len(raw_image), "closed-image-size": len(imc),
            "image-is-closed": raw_image == set(imc)}))
    return IsoVerdict("first-iso", verdicts, q_src.class_count(),
                      len(image_reps))


def iso_second(mod, cl, n_values, k_values):
    """(N+K)/K matches N/(N meet cl(K)), through the explicit class map.

    The canonical identification of (N+K)/K with (N+cl(K))/cl(K) is also
    realized and verified rather than assumed.
    """
    n_values = mod.span(n_values)
    k_values = mod.span(k_values)
    for name, vals in (("N", n_values), ("K", k_values)):
        ok, ce = is_approx_submodule(mod, vals, cl)
        if not ok:
            raise PreconditionError(f"hypothesis failed: {name}: {ce}")
    cl_k = cl.eval_set(k_values)
    nk = mod.subgroup_closure(n_values | k_values)

    # left side: classes of N+K under x ~ y iff x - y in cl(K)
    left = QuotientModule(mod, nk, cl_k, [])
    # canonical identification with (N + cl(K))/cl(K)
    n_clk = mod.subgroup_closure(n_values | cl_k)
    ident = QuotientModule(mod, n_clk, cl_k, [])
    ident_map = {rep: ident.rep_of[rep] for rep in left.reps()}
    ident_ok = (len(set(ident_map.values())) == len(ident_map)
                and set(ident_map.values()) == set(ident.reps()))
    verdicts = [Verdict("canonical-identification-bijective", ident_ok)]

    # right side: classes of N under x ~ y iff x - y in cl(N meet cl(K))
    meet = n_values & cl_k
    cl_meet = cl.eval_set(meet)
    right = QuotientModule(mod, n_values, cl_meet, [])

    mapping = {}
    well_ce = None
    for rep, members in right.classes:
        targets = {left.rep_of[x] for x in members}
        if len(targets) != 1:
            well_ce = {"class-of": rep}
            break
        mapping[rep] = targets.pop()
    verdicts.append(Verdict("map-well-defined", well_ce is None, well_ce))
    if well_ce is None:
        verdicts += _check_map_is_module_iso(
            "iso2", right.reps(), left.reps(), mapping,
            right.add, left.add, right.act, left.act, mod.scalar_reps)
    return IsoVerdict("second-iso", verdicts, right.class_count(),
                      left.class_count())


def iso_third(mod, cl, n_values, k_values):
    """(M/N)/(cl(K)/N) matches M/cl(K) when N sits inside K."""
    n_values = mod.span(n_values)
    k_values = mod.span(k_values)
    if not n_values <= k_values:
        raise PreconditionError("hypothesis failed: N must sit inside K")
    ok, ce = is_approx_submodule(mod, n_values, cl)
    if not ok:
        raise PreconditionError(f"hypothesis failed: N: {ce}")
    cl_n = cl.eval_set(n_values)
    cl_k = cl.eval_set(k_values)
    if not cl_n <= cl_k:
        raise PreconditionError("cl(N) must sit inside cl(K)")

    q_n = module_quotient(mod, n_values, cl)
    big = QuotientModule(mod, mod.elements(), cl_k, [])

    # cl(K)/N inside M/N, then the classical quotient of M/N by it
    clk_classes = frozenset(q_n.rep_of[x] for x in cl_k)
    outer = {}
    for rep in q_n.reps():
        coset = frozenset(q_n.add(rep, c) for c in clk_classes)
        outer[rep] = min(coset, key=sort_key)
    outer_reps = sorted(set(outer.values()), key=sort_key)

    mapping = {}
    well_ce = None
    for rep in outer_reps:
        fiber = [r for r in q_n.reps() if outer[r] == rep]
        targets = {big.rep_of[r] for r in fiber}
        if len(targets) != 1:
            well_ce = {"class-of": rep}
            break
        mapping[rep] = targets.pop()
    verdicts = [Verdict("map-well-defined", well_ce is None, well_ce)]
    if well_ce is None:
        verdicts += _check_map_is_module_iso(
            "iso3", outer_reps, big.reps(), mapping,
            lambda a, b: outer[q_n.add(a, b)],
            big.add,
            lambda r, a: outer[q_n.act(r, a)],
            big.act, mod.scalar_reps)
    return IsoVerdict("third-iso", verdicts, len(outer_reps),
                      big.class_count())


# ---------------------------------------------------------------------------
# module closures and the ring laws, as loops


class ModuleClosure:
    """Base class of module closures; ``set_valued`` and ``join`` are as on
    ``ClosureSpec``."""

    name = "?"
    set_valued = True
    join = None

    def __init__(self, module):
        self.module = module

    def eval_set(self, values):
        raise NotImplementedError

    def describe(self):
        return self.name

    def __repr__(self):
        return f"<module closure {self.describe()} on {self.module}>"


class GeneratedSubmoduleClosure(ModuleClosure):
    name = "gen"
    join = "sum"

    def eval_set(self, values):
        return self.module.span(values)


class SubmoduleShiftClosure(ModuleClosure):
    """cl(X) = span(X) + N0."""

    name = "shift"
    join = "sum"

    def __init__(self, module, shift_values):
        super().__init__(module)
        self.shift = module.span(shift_values)

    def describe(self):
        return f"shift:N0={sorted(self.shift, key=sort_key)}"

    def eval_set(self, values):
        # span(X) + N0 = span(X | N0), as N0 is a submodule
        return self.module.span(frozenset(values) | self.shift)


class ModuleSetShiftClosure(ModuleClosure):
    """cl(X) = X + N0 elementwise."""

    name = "setshift"
    join = "union"

    def __init__(self, module, shift_values):
        super().__init__(module)
        self.shift = module.span(shift_values)

    def describe(self):
        return f"setshift:N0={sorted(self.shift, key=sort_key)}"

    def eval_set(self, values):
        return frozenset(self.module.add(a, b)
                         for a in values for b in self.shift)


class ModuleUnionFixedClosure(ModuleClosure):
    """Diagnostic cl(X) = X | F."""

    name = "union-fixed"
    join = "union"

    def __init__(self, module, extra):
        super().__init__(module)
        self.extra = frozenset(module.canon(v) for v in extra)

    def eval_set(self, values):
        return frozenset(values) | self.extra


def ring_axioms_hold(ring):
    """Exhaustive commutative-ring axioms over a small finite ring."""
    elems = list(ring.elements())
    z, o = ring.zero, ring.one
    for a in elems:
        if ring.add(a, z) != a or ring.mul(a, o) != a:
            return False
        if all(ring.add(a, b) != z for b in elems):
            return False
        for b in elems:
            if ring.add(a, b) != ring.add(b, a):
                return False
            if ring.mul(a, b) != ring.mul(b, a):
                return False
            for c in elems:
                if ring.add(ring.add(a, b), c) != ring.add(a, ring.add(b, c)):
                    return False
                if ring.mul(ring.mul(a, b), c) != ring.mul(a, ring.mul(b, c)):
                    return False
                if ring.mul(a, ring.add(b, c)) != \
                        ring.add(ring.mul(a, b), ring.mul(a, c)):
                    return False
    return True
