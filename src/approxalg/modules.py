"""Approximate modules: closures, submodules, quotients, and the three
isomorphism theorems verified by explicit bijections.

A module is a finite product of cyclic groups with the canonical scalar
action of Z or Z/n (compatibility is checked at construction).  Module
closures are the ring closures on a module (``module`` is ``ring``): the
generated submodule, a submodule shift of it, the elementwise shift, and
the deliberately broken union variant for exercising the checkers.  A
homomorphism is a map table, compiled to an index array between the
subgroup lattices, whose approximate additivity lands in the target
closure (so a coarse closure admits non-additive maps).  A quotient is the
rings' ``closures.QuotientModule``, a label array, each index to its
class's least member; the theorems compare label arrays on index tables.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import closures
from .closures import (
    ClosureSpec,
    GeneratedIdealClosure,
    IdealShiftClosure,
    QuotientModule,
    SetShiftClosure,
    UnionFixedClosure,
    _check_axioms_list,
    ring_domain,
)
from .errors import DomainMismatchError, PreconditionError
from .ideals import is_approx_ideal
from .reports import AxiomReport, Verdict
from .rings import (
    ElementSet,
    IntegerRing,
    ResidueRing,
    _mask,
    additive_closure,
    enumerate_subgroups,
    ideal_closure_set,
    ideal_generated,
    subgroup_lattice,
    whole_subgroup,
)

# sampled mode checks the pairwise rules (C2, C4a) on the first this many
# subsets only
SAMPLED_PAIR_SUBSETS = 80


class FiniteModule:
    """Z/n1 x ... x Z/nk with the canonical action of Z or Z/n.

    The action is r * x taken componentwise mod n_i.  Once each n_i divides
    n (for Z/n scalars), that is well defined on residues r mod n, and the
    four laws r(x + y) = rx + ry, (r + s)x = rx + sx, (rs)x = r(sx) and
    1x = x hold componentwise by modular arithmetic; they are not checked
    again here."""

    is_finite = True

    def __init__(self, scalar_ring, orders):
        orders = tuple(orders)
        if not orders or any(n < 1 for n in orders):
            raise PreconditionError("cyclic orders must be positive")
        if isinstance(scalar_ring, ResidueRing):
            for n_i in orders:
                if scalar_ring.n % n_i != 0:
                    raise PreconditionError(
                        f"Z/{scalar_ring.n} cannot act canonically on "
                        f"Z/{n_i}: {n_i} does not divide {scalar_ring.n}")
            self.scalar_reps = list(range(scalar_ring.n))
        elif isinstance(scalar_ring, IntegerRing):
            # the action factors through Z/lcm(orders)
            self.scalar_reps = list(range(math.lcm(*orders)))
        else:
            raise PreconditionError("scalars must be Z or a residue ring")
        self.scalar_ring = scalar_ring
        self.orders = orders
        self.zero = (0,) * len(orders)

    def elements(self):
        return itertools.product(*[range(n) for n in self.orders])

    def cardinality(self):
        return math.prod(self.orders)

    def add(self, x, y):
        return tuple((a + b) % n for a, b, n in zip(x, y, self.orders))

    def neg(self, x):
        return tuple((-a) % n for a, n in zip(x, self.orders))

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def act(self, r, x):
        return tuple((r * a) % n for a, n in zip(x, self.orders))

    def canon(self, x):
        if not isinstance(x, tuple) or len(x) != len(self.orders):
            raise DomainMismatchError(f"{x!r} is not a module element")
        return tuple(a % n for a, n in zip(x, self.orders))

    def span(self, values):
        """The submodule generated by the given elements."""
        return ideal_closure_set(self, values)

    def subgroup_closure(self, values):
        return additive_closure(self, values)

    def submodule_masks(self):
        """Every submodule (a subgroup that is its own span) as a mask."""
        return [s.mask for s in enumerate_subgroups(self)
                if s.lat.span(s.mask) == s.mask]

    def all_submodules(self):
        """Every submodule as a set of values, by size and then by elements."""
        return list(map(subgroup_lattice(self).values, self.submodule_masks()))

    def spec_string(self):
        scal = self.scalar_ring.spec_string()
        prods = "x".join(str(n) for n in self.orders)
        return f"mod:{scal}:[{prods}]"

    def __repr__(self):
        return self.spec_string()

    def __eq__(self, other):
        return self is other or (isinstance(other, FiniteModule) and
                                 self.spec_string() == other.spec_string())

    def __hash__(self):
        return hash(self.spec_string())


def finite_module(scalar_ring, orders):
    return FiniteModule(scalar_ring, orders)


# ---------------------------------------------------------------------------
# module closures


class ModuleClosure(ClosureSpec):
    """A closure on a module: a ``ClosureSpec`` whose structure is the
    module, so ``module`` is ``ring``."""

    def __init__(self, module):
        super().__init__(module)

    @property
    def module(self):
        return self.ring

    def __repr__(self):
        return f"<module closure {self.describe()} on {self.module}>"


class GeneratedSubmoduleClosure(GeneratedIdealClosure, ModuleClosure):
    """cl(X) = span(X)."""


class SubmoduleShiftClosure(IdealShiftClosure, ModuleClosure):
    """cl(X) = span(X) + N0, with N0 = span(shift_values) as the shift."""

    def __init__(self, module, shift_values):
        super().__init__(module, ideal_generated(module, shift_values))

    def describe(self):
        return f"shift:N0={self.shift_ideal.canonical.sorted_values()}"


class ModuleSetShiftClosure(SetShiftClosure, ModuleClosure):
    """cl(X) = X + N0 elementwise, with N0 = span(shift_values)."""

    def __init__(self, module, shift_values):
        super().__init__(module, ideal_generated(module, shift_values))

    def describe(self):
        return f"setshift:N0={self.shift_ideal.canonical.sorted_values()}"


class ModuleUnionFixedClosure(UnionFixedClosure, ModuleClosure):
    """Diagnostic cl(X) = X | F."""

    def describe(self):
        return "union-fixed"


class CMAxiomReport(AxiomReport):
    AXIOMS = ("CM1", "CM2", "CM3", "CM4", "absorption")


def module_domain(mod):
    return ring_domain(mod)


def check_cm_axioms(mod, cl, mode="auto", seed=0, count=500):
    """CM1-CM4 for a closure on ``mod``: the verdicts of ``check_axioms``
    renamed, CM4 merging the additive and scalar compatibility rules (C4a,
    then C4b); absorption reports which subgroups are absorbed.  Auto mode
    is exhaustive up to EXHAUSTIVE_ELEMENTS elements and sampled past them:
    ``count`` seeded subsets and then every submodule, C2 and C4a on pairs
    of the first SAMPLED_PAIR_SUBSETS.  Exhaustive, subgroups and ideals
    are ``check_axioms``'s; Z's bounded mode is no module mode, and is
    refused as unknown with every other."""
    if mode not in ("auto", "exhaustive", "subgroups", "ideals", "sampled"):
        raise PreconditionError(f"unknown axiom-check mode {mode!r}")
    if cl.ring != mod:
        raise DomainMismatchError(f"{cl!r} is not a closure on {mod}")
    card = mod.cardinality()
    if mode == "auto":
        mode = "exhaustive" if card <= closures.EXHAUSTIVE_ELEMENTS \
            else "sampled"
    if mode == "sampled":
        subsets = closures._sampled_masks(card, count, seed) + \
            mod.submodule_masks()
        paired = min(len(subsets), SAMPLED_PAIR_SUBSETS)
        inner = AxiomReport(
            mode="sampled", seed=seed, count=count,
            domain=f"{len(subsets)} sampled subsets of {mod}; "
                   f"C2 and C4a on pairs of the first {paired}")
        _check_axioms_list(cl, mod, subsets, inner, paired=paired)
    else:
        inner = closures.check_axioms(cl, mode=mode)
    report = CMAxiomReport(inner.mode, seed=inner.seed, count=inner.count,
                           domain=inner.domain)

    # CM4 fails at C4a's counterexample, else at C4b's; a sampled one names
    # the subsets and the scalar only
    for name, parts in zip(report.AXIOMS,
                           ["C1", "C2", "C3", "C4a C4b", "absorption"]):
        failed = [inner.verdicts[p] for p in parts.split()
                  if not inner.verdicts[p].passed]
        ce = failed[0].counterexample if failed else None
        if ce is not None and inner.mode == "sampled":
            ce = {k: v for k, v in ce.items() if k in ("A", "B", "r")}
        report.record(name, not failed, ce)
    return report


def is_approx_submodule(mod, n_values, cl):
    """(verdict, counterexample): N a subgroup with R*N inside cl(N)."""
    ok, ce = is_approx_ideal(ElementSet(mod, n_values), cl)
    if not ok and ce["reason"] == "not-a-subgroup":
        raise PreconditionError("N is not an additive subgroup")
    return ok, ce and {"r": ce["r"], "x": ce["s"], "witness": ce["witness"]}


# ---------------------------------------------------------------------------
# quotients


def _reps(labels):
    """A quotient map's representatives: the indices that are their label."""
    return np.flatnonzero(labels == np.arange(len(labels)))


def module_quotient(mod, n_values, cl):
    """M / N with the congruence m ~ m' iff m - m' in cl(N)."""
    ok, ce = is_approx_submodule(mod, n_values, cl)
    if not ok:
        raise PreconditionError(f"not an approximate submodule: {ce}")
    cl_n = ElementSet.from_mask(
        mod, cl.eval_mask(subgroup_lattice(mod).mask(n_values)))
    q = QuotientModule(mod, whole_subgroup(mod), cl_n,
                       [Verdict("cl(N)-is-subgroup", True)])
    q.check_operations()
    return q


# ---------------------------------------------------------------------------
# approximate homomorphisms


class ModuleHom:
    """A map table between modules, approximately additive into the target
    closure.  The defining conditions are checked at construction, on the
    table compiled to the index map ``img`` between the two lattices."""

    def __init__(self, src, dst, cl_src, cl_dst, mapping):
        self.src = src
        self.dst = dst
        self.cl_src = cl_src
        self.cl_dst = cl_dst
        self.mapping = {src.canon(k): dst.canon(v) for k, v in mapping.items()}
        missing = [x for x in src.elements() if x not in self.mapping]
        if missing:
            raise PreconditionError(f"map table missing {len(missing)} entries")
        _, _, self.img = closures._hom_map(self)
        problem = self._approx_hom_violation()
        if problem is not None:
            raise PreconditionError(f"not an approximate homomorphism: {problem}")

    def _approx_hom_violation(self):
        """The first (x, y) with f(x + y) outside cl'({f(x) + f(y)}) or (x, r)
        with f(r x) outside cl'({r f(x)}), in ``_first_hom_break`` order."""
        dst = subgroup_lattice(self.dst)
        single = closures._ClosureRows(self.cl_dst, dst)(
            np.eye(dst.n, dtype=bool))
        hit = closures._first_hom_break(self.src, self.dst, self.img, single)
        if hit is not None:
            return {"x": hit[0], "y" if hit[1] == "+" else "r": hit[2]}

    def apply(self, x):
        return self.mapping[self.src.canon(x)]

    def kernel(self):
        """Ker f = {x : f(x) in cl'(0)}, the preimage of cl'(0)."""
        src, dst = subgroup_lattice(self.src), subgroup_lattice(self.dst)
        (cl0,) = dst.rows([self.cl_dst.eval_mask(1 << dst.zero)])
        return src.values(src.row_mask(cl0[self.img]))

    def image_q(self):
        """Im^q f: the classes f(x) + cl'(0) inside M'/cl'(0)."""
        dst = subgroup_lattice(self.dst)
        cl0 = self.cl_dst.eval_mask(1 << dst.zero)
        q = QuotientModule(self.dst, whole_subgroup(self.dst),
                           ElementSet.from_mask(self.dst, cl0), [])
        return q, [dst.elems[i] for i in np.unique(q.labels[self.img])]

    def image_c(self):
        """Im_c f = cl'(f(M)), the closure of the raw image set."""
        dst = subgroup_lattice(self.dst)
        return dst.values(self.cl_dst.eval_mask(_mask(set(self.img.tolist()))))

    def image_compatible(self, sample=200, seed=0):
        """f(cl(X)) inside cl'(f(X)) over submodules plus sampled subsets."""
        src = subgroup_lattice(self.src)
        pools = self.src.submodule_masks() + \
            closures._sampled_masks(src.n, sample, seed)
        rows = src.rows(pools)
        bad = closures._first_image_violation(
            subgroup_lattice(self.dst), self.img, rows,
            closures._ClosureRows(self.cl_src, src)(rows), self.cl_dst)
        if bad is not None:
            return Verdict("hom-image-compatible", False,
                           {"X": src.listed(pools[bad[0]])})
        return Verdict("hom-image-compatible", True,
                       mode=f"{len(pools)} subsets")


def module_hom(src, dst, cl_src, cl_dst, mapping):
    return ModuleHom(src, dst, cl_src, cl_dst, mapping)


def scaling_hom(mod, cl, k, cl_dst=None):
    """x -> k*x as a module self-map."""
    cl_dst = cl_dst or cl
    return ModuleHom(mod, mod, cl, cl_dst,
                     {x: mod.act(k, x) for x in mod.elements()})


class IsoVerdict:
    """The verdict bundle of one isomorphism-theorem instance."""

    def __init__(self, name, verdicts, left_size, right_size):
        self.name = name
        self.verdicts = verdicts
        self.left_size = left_size
        self.right_size = right_size

    def ok(self):
        return all(v.passed for v in self.verdicts) and \
            self.left_size == self.right_size

    def __repr__(self):
        state = "ok" if self.ok() else "FAIL"
        return (f"<{self.name}: {state} sizes {self.left_size}="
                f"{self.right_size}>")


def _class_map(src_labels, dst_labels, idx):
    """The class map that two quotient maps induce on the indices ``idx``
    (phi[rep] is a target label), and the least source representative whose
    class meets two target classes, or None."""
    s, t = src_labels[idx], dst_labels[idx]
    phi = np.full(len(src_labels), -1, dtype=np.intp)
    phi[s] = t
    split = s[phi[s] != t]
    return phi, (int(split.min()) if len(split) else None)


def _check_map_is_module_iso(name, src, dst, phi, targets):
    """Injectivity, surjectivity onto ``targets`` and the descended laws of
    the class map ``phi`` between quotient maps ``src`` and ``dst``, each a
    lattice with its labels; the laws report their first counterexample over
    pairs of source representatives and (representative, scalar)."""
    (s, ls), (d, ld) = src, dst
    reps = _reps(ls)
    image = phi[reps]
    hit, targets = set(image.tolist()), set(targets.tolist())
    inj, sur = len(hit) == len(image), hit == targets
    act = np.array([d.act_row(r) for r in s.scalars], dtype=np.intp)
    add_s, add_d, act_s = s.add_table, d.add_table, s.act_table()
    add_hit, act_hit = closures._first_break(
        reps, len(reps) + len(s.scalars),
        lambda x: phi[ls[add_s[x][:, reps]]] != ld[add_d[phi[x]][:, image]],
        lambda x: phi[ls[act_s[:, x].T]] != ld[act[:, phi[x]].T])
    add_ce = act_ce = None
    if add_hit is not None:
        add_ce = {"x": s.elems[add_hit[0]], "y": s.elems[reps[add_hit[1]]]}
    if act_hit is not None:
        act_ce = {"x": s.elems[act_hit[0]], "r": s.scalars[act_hit[1]]}
    return [Verdict(f"{name}-injective", inj,
                    None if inj else {"image-size": len(hit)}),
            Verdict(f"{name}-surjective", sur,
                    None if sur else {"missed": len(targets - hit)}),
            Verdict(f"{name}-additive", add_ce is None, add_ce),
            Verdict(f"{name}-action-compatible", act_ce is None, act_ce)]


def iso_first(f):
    """M/Ker f and the image of f in M'/cl'(0) are isomorphic via the
    descended map.  Requires f image-compatible with the closures."""
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
    # the descended map, read at every source index: the target class of f(x)
    phi = q_dst.labels[f.img]
    src, dst = subgroup_lattice(f.src), subgroup_lattice(f.dst)
    rows = q_src.member_rows()
    bad = rows[phi[rows] != phi[q_src.labels[rows]]]
    well_ce = None
    if len(bad):
        well_ce = {"x": src.elems[bad[0]],
                   "rep": src.elems[q_src.labels[bad[0]]]}
    verdicts = [kernel_verdict,
                Verdict("descended-map-well-defined", well_ce is None, well_ce)]
    verdicts += _check_map_is_module_iso(
        "iso1", (src, q_src.labels), (dst, q_dst.labels), phi,
        np.unique(phi))
    # the closed image is reported for comparison only: when it differs
    # from the raw image no relation between the two is asserted
    raw_image = {dst.elems[j] for j in f.img.tolist()}
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
    lat = subgroup_lattice(mod)

    def sub(mask):
        return ElementSet.from_mask(mod, mask)

    n, k = (lat.span(lat.mask(v)) for v in (n_values, k_values))
    for name, mask in (("N", n), ("K", k)):
        ok, ce = is_approx_submodule(mod, sub(mask), cl)
        if not ok:
            raise PreconditionError(f"hypothesis failed: {name}: {ce}")
    cl_k = sub(cl.eval_mask(k))

    # left side: classes of N+K under x ~ y iff x - y in cl(K)
    left = QuotientModule(mod, sub(lat.subgroup(n | k)), cl_k, [])
    # canonical identification with (N + cl(K))/cl(K)
    ident = QuotientModule(mod, sub(lat.subgroup(n | cl_k.mask)), cl_k,
                           []).labels
    image = ident[_reps(left.labels)].tolist()
    ident_ok = len(set(image)) == len(image) and \
        set(image) == set(_reps(ident).tolist())
    verdicts = [Verdict("canonical-identification-bijective", ident_ok)]

    # right side: classes of N under x ~ y iff x - y in cl(N meet cl(K))
    right = QuotientModule(mod, sub(n), sub(cl.eval_mask(n & cl_k.mask)), [])

    phi, split = _class_map(right.labels, left.labels,
                            np.flatnonzero(right.labels >= 0))
    well_ce = None if split is None else {"class-of": lat.elems[split]}
    verdicts.append(Verdict("map-well-defined", well_ce is None, well_ce))
    if well_ce is None:
        verdicts += _check_map_is_module_iso(
            "iso2", (lat, right.labels), (lat, left.labels), phi,
            _reps(left.labels))
    return IsoVerdict("second-iso", verdicts, right.class_count(),
                      left.class_count())


def iso_third(mod, cl, n_values, k_values):
    """(M/N)/(cl(K)/N) matches M/cl(K) when N sits inside K."""
    lat = subgroup_lattice(mod)
    n, k = (lat.span(lat.mask(v)) for v in (n_values, k_values))
    if n & ~k:
        raise PreconditionError("hypothesis failed: N must sit inside K")
    n_sub = ElementSet.from_mask(mod, n)
    ok, ce = is_approx_submodule(mod, n_sub, cl)
    if not ok:
        raise PreconditionError(f"hypothesis failed: N: {ce}")
    cl_k = cl.eval_mask(k)
    if cl.eval_mask(n) & ~cl_k:
        raise PreconditionError("cl(N) must sit inside cl(K)")

    q_n = module_quotient(mod, n_sub, cl)
    big = QuotientModule(mod, whole_subgroup(mod),
                         ElementSet.from_mask(mod, cl_k), [])

    # cl(K)/N, the classes of cl(K) in M/N, and the quotient of M/N by it,
    # built on M/N's own lattice from its own operations; each x of M goes
    # to its class in M/N and on to that class's class
    outer = QuotientModule(q_n, q_n.elements(),
                           {q_n.rep_of[x] for x in lat.listed(cl_k)}, [])
    labels = np.array([lat.index[outer.rep_of[q_n.rep_of[x]]]
                       for x in lat.elems], dtype=np.intp)
    phi, split = _class_map(labels, big.labels, _reps(q_n.labels))
    well_ce = None if split is None else {"class-of": lat.elems[split]}
    verdicts = [Verdict("map-well-defined", well_ce is None, well_ce)]
    if well_ce is None:
        verdicts += _check_map_is_module_iso(
            "iso3", (lat, labels), (lat, big.labels), phi, _reps(big.labels))
    return IsoVerdict("third-iso", verdicts, outer.class_count(),
                      big.class_count())
