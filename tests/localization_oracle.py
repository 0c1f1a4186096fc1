"""The plain pair loops the congruence kernel is tested against.

``LoopLocalization`` builds the classes of a finite localization the way
``localization.LocalizedRing._build_finite`` did before it moved onto the
lattice's index tables: a Python ``related`` predicate, a union-find over
every pair of pairs, and nested loops for the equivalence check and for
well-definedness.  ``quotient_breaks_loop`` and ``module_breaks_loop`` are
the nested well-definedness loops of ``ideals.quotient_ring`` and
``modules.module_quotient``, run on the classes those functions built.
``rep_independence_loop`` decides representative independence of the
transferred closure from its definition, one representative at a time.
``z_relation_loop`` is the relation check of a localization of Z as it was
before it read the absorbed residues: one grid comparison per residue of
S.  ``z_radical_cycle_walk`` is the membership sweep of rad((d)) over Z as
it was before one power decided it: it walks each x's power residues
modulo g until one is 0 or repeats."""

import numpy as np

from approxalg.closures import _chunks, materialize
from approxalg.errors import ResourceLimitError
from approxalg.reports import Verdict
from approxalg.rings import TableRing, sort_key


class LoopLocalization:
    """The classes, model and verdicts of S^{-1}R over a finite base."""

    def __init__(self, base, base_cl, mult):
        self.base = base
        self.base_cl = base_cl
        self.mult = mult
        self.verdicts = []
        self._build_finite()

    def _build_finite(self):
        ring = self.base
        sat = sorted(self.mult.saturation, key=sort_key)
        cl0 = materialize(self.base_cl, {ring.zero})
        pairs = [(a, s) for a in sorted(ring.elements(), key=sort_key)
                 for s in sat]
        if len(pairs) > 4096:
            raise ResourceLimitError(f"{len(pairs)} pairs exceed the guard")

        def related(p, q):
            (a, s), (b, t) = p, q
            diff = ring.sub(ring.mul(a, t), ring.mul(b, s))
            return any(ring.mul(u, diff) in cl0 for u in sat)

        parent = {p: p for p in pairs}

        def find(p):
            while parent[p] != p:
                parent[p] = parent[parent[p]]
                p = parent[p]
            return p

        def union(p, q):
            rp, rq = find(p), find(q)
            if rp != rq:
                lo, hi = sorted([rp, rq], key=lambda t_: (sort_key(t_[0]),
                                                          sort_key(t_[1])))
                parent[hi] = lo

        for i, p in enumerate(pairs):
            for q in pairs[i + 1:]:
                if related(p, q):
                    union(p, q)

        # the relation as tested must agree with its union-find closure
        eq_ce = None
        for p in pairs:
            for q in pairs:
                if (find(p) == find(q)) != related(p, q):
                    eq_ce = {"pair1": p, "pair2": q,
                             "related": related(p, q)}
                    break
            if eq_ce:
                break
        self.verdicts.append(Verdict("equivalence-relation", eq_ce is None,
                                     eq_ce, mode="all pairs"))

        classes = {}
        for p in pairs:
            classes.setdefault(find(p), []).append(p)
        reps = sorted(classes, key=lambda t_: (sort_key(t_[0]), sort_key(t_[1])))
        self.pairs = pairs
        self._class_members = {rep: tuple(classes[rep]) for rep in reps}
        self._pair_class = {p: rep for rep, mem in self._class_members.items()
                            for p in mem}
        self.sat = sat
        self.denominators = sat
        self.cl0 = cl0

        one = self._pair_class[(ring.one, ring.one)]
        zero = self._pair_class[(ring.zero, ring.one)]

        def add(x, y):
            (a, s), (b, t) = x, y
            return self._pair_class[(ring.add(ring.mul(a, t), ring.mul(b, s)),
                                     ring.mul(s, t))]

        def mul(x, y):
            (a, s), (b, t) = x, y
            return self._pair_class[(ring.mul(a, b), ring.mul(s, t))]

        # the model's tables, one cell at a time
        slot, fmt = {rep: k for k, rep in enumerate(reps)}, ring.format_element
        self.model = TableRing(
            f"S^-1({ring.spec_string()})", reps,
            *([[slot[op(x, y)] for y in reps] for x in reps]
              for op in (add, mul)), zero, one,
            [f"{fmt(a)}/{fmt(s)}" for a, s in reps])

        wd_ce = None
        for rep, members in self._class_members.items():
            for p in members:
                for other in reps:
                    if add(p, other) != add(rep, other):
                        wd_ce = {"pair": p, "rep": rep, "other": other,
                                 "op": "add"}
                        break
                    if mul(p, other) != mul(rep, other):
                        wd_ce = {"pair": p, "rep": rep, "other": other,
                                 "op": "mul"}
                        break
                if wd_ce:
                    break
            if wd_ce:
                break
        self.verdicts.append(Verdict("operations-well-defined", wd_ce is None,
                                     wd_ce, mode="all representative pairs"))


def model_tables(model):
    """The model's elements and its neg, add and mul tables, by value, and
    its elements' names."""
    elems = list(model.elements())
    return (elems, [model.neg(x) for x in elems],
            [[model.add(x, y) for y in elems] for x in elems],
            [[model.mul(x, y) for y in elems] for x in elems],
            model.zero, model.one, [model.format_element(x) for x in elems])


def quotient_breaks_loop(q):
    """(add_ce, mul_ce) of a finite ``quotient_ring``, by one slot at a time
    over its classes in their member order."""
    ring, classes = q.ring, q.classes
    rep_of = {x: rep for rep, members in classes for x in members}
    elems = sorted(ring.elements(), key=sort_key)
    add_ce = mul_ce = None
    for rep, members in classes:
        for x in members:
            for y in elems:
                if add_ce is None and \
                        rep_of[ring.add(x, y)] != rep_of[ring.add(rep, y)]:
                    add_ce = {"x": x, "x2": rep, "y": y}
                if mul_ce is None and \
                        rep_of[ring.mul(x, y)] != rep_of[ring.mul(rep, y)]:
                    mul_ce = {"x": x, "x2": rep, "y": y}
            if add_ce is not None and mul_ce is not None:
                break
    return add_ce, mul_ce


def module_breaks_loop(mod, q):
    """(add_ce, act_ce) of a ``module_quotient``, over its classes in their
    member order."""
    add_ce = act_ce = None
    for rep, members in q.classes:
        for x in members:
            for y in q.carrier:
                if add_ce is None and \
                        q.rep_of[mod.add(x, y)] != q.rep_of[mod.add(rep, y)]:
                    add_ce = {"x": x, "x2": rep, "y": y}
            for r in mod.scalar_reps:
                if act_ce is None and \
                        q.rep_of[mod.act(r, x)] != q.rep_of[mod.act(r, rep)]:
                    act_ce = {"x": x, "x2": rep, "r": r}
    return add_ce, act_ce


def rep_independence_loop(loc, tested):
    """The first class subset A (of ``tested``) under which some class of a
    ``LoopLocalization`` has a representative (a, s) admitted by the
    transferred closure, u * a in cl({x : x/s in A}) for some u in S, and
    one refused; with the first such class in the model's order."""
    ring = loc.base
    for a_set in tested:
        pullback = {s: materialize(loc.base_cl, {
            x for x in ring.elements() if loc._pair_class[(x, s)] in a_set})
            for s in loc.sat}
        for cls in loc.model.elements():
            admitted = {any(ring.mul(u, a) in pullback[s] for u in loc.sat)
                        for a, s in loc._class_members[cls]}
            if len(admitted) == 2:
                return {"A": sorted(a_set, key=sort_key), "class": cls}
    return None


def z_relation_loop(loc):
    """The "equivalence-matches-class-map" verdict of a localization of Z:
    (a, s) ~ (b, t) iff u (a t - b s) = 0 mod m for some residue u of S,
    one comparison of the whole chunk per u, against the class map."""
    m = loc.modulus
    s_lifts = loc._sat_lifts()
    pairs = [(a, s) for a in range(-m, m + 1) for s in s_lifts]
    a_m = np.array([a % m for a, _ in pairs], dtype=np.int64)
    s_m = np.array([s % m for _, s in pairs], dtype=np.int64)
    cls = np.array([loc.to_class_z(a, s) for a, s in pairs], dtype=np.int64)
    ce = None
    for lo, hi in _chunks(len(pairs), len(pairs)):
        cross = (a_m[lo:hi, None] * s_m - s_m[lo:hi, None] * a_m) % m
        rel = np.zeros(cross.shape, dtype=bool)
        for u in loc.sat_residues_mod_m:
            rel |= (u * cross) % m == 0
        hits = np.argwhere(rel != (cls[lo:hi, None] == cls))
        if len(hits):
            i, j = hits[0]
            ce = {"pair1": pairs[lo + i], "pair2": pairs[j],
                  "related": bool(rel[i, j])}
            break
    return Verdict("equivalence-matches-class-map", ce is None, ce,
                   mode=f"pairs with |a| <= {m}, {len(s_lifts)} denominators")


def z_radical_cycle_walk(cl, d, bound=200):
    """Membership of each x = 0..bound in rad((d)) straight from the
    definition, detecting the power-residue cycle for the exponent bound."""
    g = cl.z_principal_image(d)
    out = []
    for x in range(0, bound + 1):
        if g == 0:
            hit = x == 0
        else:
            seen = set()
            r = x % g
            hit = False
            while r not in seen:
                seen.add(r)
                if r == 0:
                    hit = True
                    break
                r = (r * x) % g
        if hit:
            out.append(x)
    return out
