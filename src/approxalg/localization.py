"""Localization S^{-1}R with the transferred closure, and radicals.

Pairs (a, s) are identified when some u in S puts u(at - bs) inside cl(0).
The transferred closure of a subset A of classes admits a/s exactly when
some u in S drags u*a into cl_R of the denominator-s pullback of A;
representative independence is checked, not assumed.

Finite base rings decide the relation on the index tables of the base's
subgroup lattice, and the operations by the representative test quotient
rings use (``closures._first_label_break``); a pair-label grid (the class
of (a, s) at row a, column slot(s)) then serves the canonical map,
extension, contraction and the transferred closure.  For the integers with
the modular closure, multiplying by elements of S can only absorb the prime
factors of m shared with S, so the classes collapse onto Z/m0 where m0 is
the generator of {z : exists u in S with uz = 0 mod m}; everything is then
decided by exact residue arithmetic (with u ranging over saturation
residues, which is sound because membership in mZ only depends on residues).
"""

from __future__ import annotations

import math

import numpy as np

from .closures import (
    EXHAUSTIVE_ELEMENTS,
    LIST_GRID,
    LIST_PAIR_CELL_LIMIT,
    ClosureSpec,
    _chunks,
    _ClosureRows,
    _first_image_violation,
    _first_label_break,
    _first_preimage_violation,
    _first_violation,
    _image_rows,
    check_axioms,
)
from .errors import InvariantError, PreconditionError, price
from .ideals import (
    ApproxIdeal,
    _z_shift_modulus,
    is_approx_prime,
)
from .reports import Verdict
from .rings import (
    ElementSet,
    FiniteSubgroup,
    IntegerRing,
    PrincipalSubgroup,
    ResidueRing,
    TableRing,
    Z,
    _mask,
    enumerate_subgroups,
    ideal_from_subgroup,
    ideal_generated,
    price_group_check,
    prime_factors,
    sort_key,
    subgroup_lattice,
    whole_subgroup,
)
from .spectrum import spectrum

# the most representative pairs (a, s), |R| |S| of them, that a finite
# localization relates in its one pairs x pairs bool grid (16 MiB at 4096)
LOCALIZATION_PAIR_LIMIT = 4096


def _saturate(one, generators, mul, key=lambda y: y):
    """The products of ``one`` by the generators, walked depth first: a
    dict from each key reached to the first product found with it."""
    seen = {key(one): one}
    frontier = [one]
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = mul(x, g)
            if key(y) not in seen:
                seen[key(y)] = y
                frontier.append(y)
    return seen


class MultSet:
    """A multiplicative subset given by generators; 1 is always included."""

    def __init__(self, ring, generators):
        self.ring = ring
        self.generators = tuple(ring.canon(g) for g in generators)
        if isinstance(ring, IntegerRing):
            if any(g == 0 for g in self.generators):
                raise PreconditionError("0 in S collapses the localization")
            self.saturation = None  # infinite; residues computed on demand
        else:
            self.saturation = frozenset(
                _saturate(ring.one, self.generators, ring.mul))
            self._sat = ElementSet(ring, self.saturation)

    def residues(self, modulus):
        """Saturation residues modulo ``modulus`` (integers only)."""
        return sorted(_saturate(1 % modulus, self.generators,
                                lambda x, g: (x * g) % modulus))

    def contains_multiple_of(self, d):
        """Whether some element of S is divisible by d (integers only):
        whether every prime of d divides some generator."""
        if d == 0:
            return False
        return all(any(g % p == 0 for g in self.generators)
                   for p in prime_factors(abs(d)))

    def meets(self, sub):
        """Whether the subgroup holds an element of S."""
        if isinstance(self.ring, IntegerRing):
            return self.contains_multiple_of(sub.d)
        return len(self._sat & sub) > 0

    def __repr__(self):
        gens = ",".join(self.ring.format_element(g) for g in self.generators)
        return f"<{gens}>"


def mult_set(ring, generators):
    return MultSet(ring, generators)


class TransferredClosure(ClosureSpec):
    """The localized closure, evaluated directly from its defining formula."""

    name = "transferred"

    def __init__(self, localized):
        super().__init__(localized.model)
        self.loc = localized

    def describe(self):
        return f"transferred({self.loc.base_cl.describe()})"

    def eval_mask(self, mask):
        """The classes with a representative (a, s) such that u * a lies in
        cl({x : x/s in A}) for some u in S (``LocalizedRing._class_masks``)."""
        return self.loc._class_masks(mask)[0]


class _ClassesModM0(ResidueRing):
    """Z/m0, m0 >= 2, named as the classes of a localization of Z."""

    def spec_string(self):
        return f"S^-1Z (classes mod {self.n})"


class LocalizedRing:
    """S^{-1}R as explicit classes with a finite model ring: a ``TableRing``
    on the tables its operations verdict computed over a finite base, and
    over Z the residues mod m0, named ``S^-1Z (classes mod m0)`` (the
    one-element table ring at m0 = 1).  Past 1024 classes
    ``price_group_check`` refuses the model before it is built.  When its
    own relation or operations verdict fails there are no classes to model:
    ``model`` and ``transferred`` are None, the verdicts say why, and the
    checks below refuse it (``_require_model``)."""

    def __init__(self, base, base_cl, mult):
        self.base = base
        self.base_cl = base_cl
        self.mult = mult
        self.verdicts = []
        self._masks = {}
        self.model = self.transferred = None
        if isinstance(base, IntegerRing):
            self._build_z()
        elif base.is_finite:
            self._build_finite()
        else:
            raise PreconditionError(f"localization unsupported over {base}")
        if self.ok():
            self.transferred = TransferredClosure(self)
        else:
            self.model = None  # the Z model, built to check the operations

    # -- integer base -----------------------------------------------------

    def _build_z(self):
        m = _z_shift_modulus(self.base_cl)
        if m == 0:
            raise PreconditionError(
                "localizing Z needs the modular closure (cl(0) = mZ, m >= 1)")
        self.modulus = m
        sat_m = self.mult.residues(m)
        self.sat_residues_mod_m = sat_m
        # absorbed[z]: u z = 0 mod m for some u in S, i.e. m / gcd(u, m) | z
        self._absorbed = np.zeros(m, dtype=bool)
        for d in {m // math.gcd(u, m) for u in sat_m}:
            self._absorbed[::d] = True
        g0 = math.gcd(m, *np.flatnonzero(self._absorbed).tolist())
        self.m0 = g0 if g0 > 0 else m
        m0 = self.m0
        for s in sat_m:
            if math.gcd(s, m0) != 1:
                raise InvariantError(
                    "saturation residue not invertible modulo the class modulus")
        self.model = _ClassesModM0(m0) if m0 > 1 else TableRing(
            "S^-1Z (classes mod 1)", [0], [[0]], [[0]], 0, 0)
        # class c has the representative (c s, s) for each residue s of S
        self.denominators = sorted({s % m0 for s in sat_m}) if m0 > 1 else [1]
        self._class_members = {c: tuple(((c * s) % m0, s)
                                        for s in self.denominators)
                               for c in range(m0)}
        # the class of (a, s) is a s^-1 mod m0, for each residue a
        self._pair_labels = np.arange(m0)[:, None] * [
            pow(s, -1, m0) for s in self.denominators] % m0
        self._verify_z_relation()
        if self.ok():
            price_group_check(self.model, m0)

    def to_class_z(self, a, s):
        return (a * pow(s % self.m0, -1, self.m0)) % self.m0

    def _verify_z_relation(self):
        """The relation is a congruence matching the class map, on a box.

        Both sweeps are numpy grids over the pairs, taken mod m (the
        relation) and mod m0 (the class map), the first in doubling row
        chunks; each reports its first violating pair in row-major order.
        Beyond LIST_PAIR_CELL_LIMIT pairs^2 cells the check is refused."""
        m, m0 = self.modulus, self.m0
        s_lifts = self._sat_lifts()
        n_pairs = (2 * m + 1) * len(s_lifts)
        price(f"the relation check of {n_pairs} pairs by {n_pairs} pairs",
              n_pairs ** 2, LIST_PAIR_CELL_LIMIT, "cells")
        pairs = [(a, s) for a in range(-m, m + 1) for s in s_lifts]
        a_m = np.array([a % m for a, _ in pairs], dtype=np.int64)
        s_m = np.array([s % m for _, s in pairs], dtype=np.int64)
        cls = np.array([self.to_class_z(a, s) for a, s in pairs],
                       dtype=np.int64)

        ce = None
        for lo, hi in _chunks(len(pairs), len(pairs)):
            # (a, s) ~ (b, t): u (a t - b s) = 0 mod m for some u in S
            cross = (a_m[lo:hi, None] * s_m - s_m[lo:hi, None] * a_m) % m
            rel = self._absorbed[cross]
            hits = np.argwhere(rel != (cls[lo:hi, None] == cls))
            if len(hits):
                i, j = hits[0]
                ce = {"pair1": pairs[lo + i], "pair2": pairs[j],
                      "related": bool(rel[i, j])}
                break
        self.verdicts.append(Verdict(
            "equivalence-matches-class-map", ce is None, ce,
            mode=f"pairs with |a| <= {m}, {len(s_lifts)} denominators"))

        # the class of (a t + b s, s t) and of (a b, s t), by the class
        # formula x * y^-1 mod m0 of ``to_class_z``, against the model's
        # add and mul of the two classes, through their tables
        small = [k for k, p in enumerate(pairs) if abs(p[0]) <= 12]
        a0 = np.array([pairs[k][0] % m0 for k in small], dtype=np.int64)
        s0 = np.array([pairs[k][1] % m0 for k in small], dtype=np.int64)
        c0 = cls[small]
        model = self.model
        vals, c_idx = np.unique(c0, return_inverse=True)
        add_tab, mul_tab = (np.array([[op(int(x), int(y)) for y in vals]
                                      for x in vals], dtype=np.int64)
                            for op in (model.add, model.mul))
        den = (s0[:, None] * s0) % m0
        den_vals, den_idx = np.unique(den, return_inverse=True)
        inverse = np.array([pow(int(y), -1, m0) for y in den_vals],
                           dtype=np.int64)
        denom = inverse[den_idx].reshape(den.shape)
        lhs_add = ((a0[:, None] * s0 + s0[:, None] * a0) % m0 * denom) % m0
        lhs_mul = ((a0[:, None] * a0) % m0 * denom) % m0
        grid = (c_idx[:, None], c_idx)
        bad_add = lhs_add != add_tab[grid]
        bad_mul = lhs_mul != mul_tab[grid]
        hits = np.argwhere(bad_add | bad_mul)
        add_ce = None
        if len(hits):
            i, j = hits[0]
            add_ce = {"pair1": pairs[small[i]], "pair2": pairs[small[j]]}
            if not bad_add[i, j]:
                add_ce["op"] = "mul"
        self.verdicts.append(Verdict("operations-well-defined", add_ce is None,
                                     add_ce, mode="bounded pair sample"))

    def _sat_lifts(self):
        """Concrete elements of S, one per residue class mod m."""
        m = self.modulus
        return sorted(_saturate(1, self.mult.generators, lambda x, g: x * g,
                                key=lambda y: y % m).values())

    # -- finite base -------------------------------------------------------

    def _build_finite(self):
        """(a, s) ~ (b, t) iff u (a t - b s) lies in cl(0) for some u in S,
        as one bool grid over the pairs in ``sort_key`` order.  A class is a
        connected component of its upper triangle, labelled by its least
        pair; the grid must agree with the classes."""
        ring = self.base
        lat = subgroup_lattice(ring)
        sat = sorted(self.mult.saturation, key=sort_key)
        pairs = [(a, s) for a in lat.elems for s in sat]
        price(f"the localization of {ring} at {self.mult!r}, |R| |S| = "
              f"{lat.n} x {len(sat)},", len(pairs), LOCALIZATION_PAIR_LIMIT,
              "representative pairs")
        (cl0,) = lat.rows([self.base_cl.eval_mask(1 << lat.zero)])
        mul, n_pairs, ns = lat.act_table(), len(pairs), len(sat)
        s_idx = np.array([lat.index[s] for s in sat], dtype=np.intp)
        slot = np.full(lat.n, -1, dtype=np.intp)
        slot[s_idx] = np.arange(ns)
        num, den = np.repeat(np.arange(lat.n), ns), np.tile(s_idx, lat.n)
        # absorbed[z]: u z lies in cl(0) for some u in S
        absorbed = cl0[mul[s_idx]].any(0)

        grid = np.empty((n_pairs, n_pairs), dtype=bool)
        for lo, hi in _chunks(n_pairs, n_pairs):
            at = mul[num[lo:hi, None], den]
            bs = mul[num, den[lo:hi, None]]
            grid[lo:hi] = absorbed[lat.neg_add_table[bs, at]]

        # merge the component of i with those of the later pairs the grid
        # links to it; a component's label stays its least pair
        labels = np.arange(n_pairs)
        for i in range(n_pairs):
            linked = labels[i + 1 + np.flatnonzero(grid[i, i + 1:])]
            if (linked != labels[i]).any():
                merged = np.append(linked, labels[i])
                labels[np.isin(labels, merged)] = merged.min()

        eq_ce = None
        for lo, hi in _chunks(n_pairs, n_pairs):
            pos = _first_violation(
                grid[lo:hi] != (labels[lo:hi, None] == labels))
            if pos is not None:
                i, j = lo + pos[0], pos[1]
                eq_ce = {"pair1": pairs[i], "pair2": pairs[j],
                         "related": bool(grid[i, j])}
                break
        self.verdicts.append(Verdict("equivalence-relation", eq_ce is None,
                                     eq_ce, mode="all pairs"))

        self._pair_class = {p: pairs[k] for p, k in zip(pairs, labels.tolist())}
        members = {}
        for p, rep in self._pair_class.items():
            members.setdefault(rep, []).append(p)
        self._class_members = {rep: tuple(m) for rep, m in members.items()}
        self.pairs = pairs
        self.sat = self.denominators = sat

        reps = np.flatnonzero(labels == np.arange(n_pairs))
        # pairs in index order are in sort_key order, as the model's elements
        self._pair_labels = np.searchsorted(reps, labels).reshape(lat.n, ns)
        self._sat_act = mul[s_idx]

        def ops(x):
            """For pairs x = (a, s) and each representative y = (b, t), the
            pairs of x + y and x * y side by side: (a t + b s, s t), (a b, s t)."""
            a, s = num[x, None], den[x, None]
            st = slot[mul[s, den[reps]]]
            return np.stack([lat.add_table[mul[num[reps], s],
                                           mul[a, den[reps]]],
                             mul[a, num[reps]]], axis=2).reshape(len(x), -1) \
                * ns + np.repeat(st, 2, axis=1)

        hit = _first_label_break(labels, ops, np.argsort(labels, kind="stable"))
        wd_ce = None
        if hit is not None:
            p, (c, op) = pairs[hit[0]], divmod(hit[1], 2)
            wd_ce = {"pair": p, "rep": self._pair_class[p],
                     "other": pairs[reps[c]], "op": ("add", "mul")[op]}
        self.verdicts.append(Verdict("operations-well-defined", wd_ce is None,
                                     wd_ce, mode="all representative pairs"))

        if not self.ok():
            return
        label = f"S^-1({ring.spec_string()})"
        price_group_check(label, len(reps))
        # the sum and product tables side by side, in the narrowest type
        cells = np.empty((len(reps), 2 * len(reps)), np.min_scalar_type(-n_pairs))
        for lo, hi in _chunks(len(reps), 2 * len(reps)):
            cells[lo:hi] = np.searchsorted(reps, labels[ops(reps[lo:hi])])
        classes, fmt = [pairs[k] for k in reps], ring.format_element
        self.model = TableRing(
            label, classes, cells[:, ::2], cells[:, 1::2],
            self.iota(ring.zero), self.iota(ring.one),
            [f"{fmt(a)}/{fmt(s)}" for a, s in classes])

    # -- shared interface ---------------------------------------------------

    def class_pairs(self, cls_value):
        """All representative pairs of one class (finite base), or the
        denominator-indexed representatives over the integers."""
        return self._class_members[cls_value]

    def iota(self, x):
        """The canonical map R -> S^{-1}R."""
        if isinstance(self.base, IntegerRing):
            return self.to_class_z(Z.canon(x), 1)
        return self._pair_class[(self.base.canon(x), self.base.one)]

    def _iota_map(self):
        """iota as an index map (finite base): the grid's column at s = 1."""
        return self._pair_labels[:, self.denominators.index(self.base.one)]

    def _pullbacks(self, mask):
        """cl_R({x : x/s in A}) per denominator s, for A a mask of the
        model: over Z (g), its residues a s mod m0 for a in A; else a mask,
        A's row through the grid at s."""
        model = subgroup_lattice(self.model)
        if isinstance(self.base, IntegerRing):
            m0 = self.m0
            if m0 == 1:
                return [1] * len(self.denominators)  # the pullback spans Z
            values = model.listed(mask)
            return [self.base_cl.z_principal_image(
                math.gcd(m0, *res) if res else 0) for res in (
                    {(a * s) % m0 for a in values} for s in self.denominators)]
        lat = subgroup_lattice(self.base)
        (a_row,) = model.rows([mask])
        return [self.base_cl.eval_mask(lat.row_mask(p))
                for p in a_row[self._pair_labels].T]

    def _class_masks(self, mask):
        """Masks over the classes (model order) with a representative (a, s)
        such that u * a lies in the pullback closure at s for some u in S,
        and with one such that none does; cached by (s, pullback closure)."""
        hits = misses = 0
        for t, pullback in enumerate(self._pullbacks(mask)):
            masks = self._masks.get((t, pullback))
            if masks is None:
                if isinstance(self.base, IntegerRing):
                    prods = np.multiply.outer(self.sat_residues_mod_m,
                                              np.arange(self.m0))
                    ok = (prods % pullback == 0 if pullback else prods == 0)
                else:
                    (cl,) = subgroup_lattice(self.base).rows([pullback])
                    ok = cl[self._sat_act]
                col = self._pair_labels[:, t]
                masks = self._masks[(t, pullback)] = tuple(
                    _mask(set(col[side].tolist()))
                    for side in (ok.any(0), ~ok.any(0)))
            hits |= masks[0]
            misses |= masks[1]
        return hits, misses

    def class_count(self):
        return None if self.model is None else self.model.cardinality()

    def ok(self):
        return all(v.passed for v in self.verdicts)

    def __repr__(self):
        return (f"<localization of {self.base} at {self.mult!r}: "
                f"{self.class_count()} classes>")


def localize(ring, cl, mult):
    """Construct S^{-1}R carrying the transferred closure."""
    if mult.ring != ring:
        raise PreconditionError("multiplicative set lives in a different ring")
    if cl.ring != ring:
        raise PreconditionError("closure lives in a different ring")
    return LocalizedRing(ring, cl, mult)


def _require_model(loc):
    """Refuse a localization whose failed relation or operations verdict
    left it without a model, naming the verdict."""
    if loc.model is None:
        failed = ", ".join(v.name for v in loc.verdicts if not v.passed)
        raise PreconditionError(f"{loc.base} localized at {loc.mult!r} has "
                                f"no model: {failed} failed")


def check_transfer_axioms(loc, mode="auto", **kwargs):
    """Axiom suite for the transferred closure on the localized classes."""
    _require_model(loc)
    if mode == "auto":
        mode = "exhaustive" if loc.class_count() <= EXHAUSTIVE_ELEMENTS \
            else "subgroups"
    return check_axioms(loc.transferred, mode=mode, **kwargs)


def check_rep_independence(loc):
    """Evaluate the transferred closure on a family of class subsets (the
    first 512 of the model's subgroups and then its singletons) and report
    the first subset under which a class mixes verdicts across its
    representatives, with the first such class in the model's order."""
    _require_model(loc)
    lat = subgroup_lattice(loc.model)
    tested = ([sub.mask for sub in enumerate_subgroups(loc.model)] +
              [1 << i for i in range(lat.n)])[:512]
    bad = None
    for a in tested:
        hits, misses = loc._class_masks(a)
        mixed = hits & misses
        if mixed:
            bad = {"A": lat.listed(a),
                   "class": lat.elems[(mixed & -mixed).bit_length() - 1]}
            break
    return Verdict("representative-independence", bad is None, bad,
                   mode=f"{len(tested)} class subsets")


def check_iota_functorial(loc):
    """Both functoriality inclusions for the canonical map."""
    _require_model(loc)
    image_ce = None
    pre_ce = None
    trans = loc.transferred
    if isinstance(loc.base, IntegerRing):
        model = subgroup_lattice(loc.model)
        for d in range(121):
            g = loc.base_cl.z_principal_image(d)
            lhs, a = (model.mask({loc.iota(e * k) for k in range(loc.m0 + 1)})
                      for e in (g, d))
            if lhs & ~trans.eval_mask(a):
                image_ce = {"X": f"({d})"}
                break
        for sub in enumerate_subgroups(loc.model):
            b = sub.sorted_values()
            # iota^{-1}(U) = {x : x mod m0 in U}; spanning those lifts
            g = loc.base_cl.z_principal_image(math.gcd(loc.m0, *b))
            if loc.m0 > 1 and not all(
                    (c % g == 0 if g else c == 0)
                    for c in model.listed(trans.eval_mask(sub.mask))):
                pre_ce = {"B": b}
                break
        mode = "(d) for d <= 120; subgroup subsets of classes"
    else:
        # iota as an index array from the base's lattice to the model's
        base, model = subgroup_lattice(loc.base), subgroup_lattice(loc.model)
        img = loc._iota_map()
        xs = enumerate_subgroups(loc.base)
        rows = base.rows([sub.mask for sub in xs])
        bad = _first_image_violation(
            model, img, rows, _ClosureRows(loc.base_cl, base)(rows), trans)
        if bad is not None:
            image_ce = {"X": xs[bad[0]].sorted_values()}
        bs = enumerate_subgroups(loc.model)
        bad = _first_preimage_violation(
            base, model, img, model.rows([sub.mask for sub in bs]),
            loc.base_cl, trans)
        if bad is not None:
            pre_ce = {"B": bs[bad[0]].sorted_values()}
        mode = "additive subgroups both sides"
    return [Verdict("iota-image-compatible", image_ce is None, image_ce,
                    mode=mode),
            Verdict("iota-preimage-compatible", pre_ce is None, pre_ce,
                    mode=mode)]


# ---------------------------------------------------------------------------
# extension and contraction


def extend(loc, p_sub):
    """P^e = S^{-1}P as a set of classes, with properness/primeness verdicts.

    When P meets S the extension blows up to the whole localized ring; that
    is reported (``proper`` False), not raised.
    """
    _require_model(loc)
    if isinstance(loc.base, IntegerRing):
        # the multiples of gcd(d, m0) among the classes 0, ..., m0 - 1
        mask = _mask(range(0, loc.m0, math.gcd(p_sub.d, loc.m0)))
    else:
        # the classes of the pairs (a, s), a in P: rows of the grid
        base, model = subgroup_lattice(loc.base), subgroup_lattice(loc.model)
        (p_row,) = base.rows([base.mask(p_sub)])
        mask = model.row_mask(_image_rows(
            loc._pair_labels.ravel(), p_row.repeat(len(loc.sat)), model.n))
    sub = FiniteSubgroup.from_mask(loc.model, mask)
    proper = not sub.is_whole()
    ce = None if proper else {"P-meets-S": loc.mult.meets(p_sub)}
    verdicts = [Verdict("extension-proper", proper, ce)]
    if proper:
        prime, ce = is_approx_prime(sub, loc.transferred, check_ideal=False)
        verdicts.append(Verdict("extension-prime", prime, ce))
    return sub, verdicts


def contract(loc, q_sub):
    """q^c = iota^{-1}(q) back in the base ring, with a primeness verdict."""
    _require_model(loc)
    if isinstance(loc.base, IntegerRing):
        out = PrincipalSubgroup(math.gcd(loc.m0, *q_sub.values))
    else:
        base, model = subgroup_lattice(loc.base), subgroup_lattice(loc.model)
        (q_row,) = model.rows([model.mask(q_sub)])
        out = FiniteSubgroup.from_mask(loc.base,
                                       base.row_mask(q_row[loc._iota_map()]))
    q_prime, _ = is_approx_prime(q_sub, loc.transferred, check_ideal=False) \
        if not q_sub.is_whole() else (False, None)
    verdicts = []
    if q_prime:
        try:
            prime, ce = is_approx_prime(out, loc.base_cl)
        except PreconditionError as exc:
            prime, ce = False, {"reason": str(exc)}
        verdicts.append(Verdict("contraction-prime", prime, ce))
    return out, verdicts


def check_ext_contr_bijection(loc, z_bound=None):
    """Match {P in Spec(R) : P avoids S} with Spec(S^{-1}R) through
    extension and contraction, checking both round trips and inclusion
    order.  Returns (verdict, matched pairs).
    """
    _require_model(loc)
    base_spec = spectrum(loc.base, loc.base_cl, z_bound=z_bound)
    loc_spec = spectrum(loc.model, loc.transferred)
    avoiding = [p for p in base_spec.primes if not loc.mult.meets(p)]

    matched = []
    problems = []
    loc_primes = set(loc_spec.primes)
    for p in avoiding:
        ext, _ = extend(loc, p)
        if ext not in loc_primes:
            problems.append({"P": repr(p),
                             "issue": "extension-not-in-spectrum"})
            continue
        back, _ = contract(loc, ext)
        if back != p:
            problems.append({"P": repr(p), "issue": "round-trip-P"})
            continue
        matched.append((p, ext))
    extended = {e for _, e in matched}
    for q in loc_spec.primes:
        if q not in extended:
            problems.append({"q": repr(q), "issue": "not-hit-by-extension"})
            continue
        back, _ = contract(loc, q)
        ext2, _ = extend(loc, back)
        if ext2 != q:
            problems.append({"q": repr(q), "issue": "round-trip-q"})

    order_ce = None
    for (p1, e1) in matched:
        for (p2, e2) in matched:
            if (p1 <= p2) != (e1 <= e2):
                order_ce = {"P1": repr(p1), "P2": repr(p2)}
    if order_ce:
        problems.append({"issue": "inclusion-order", **order_ce})

    verdict = Verdict(
        "extension-contraction-bijection", not problems,
        problems[0] if problems else None,
        details={"avoiding": [repr(p) for p in avoiding],
                 "localized": loc_spec.labels()})
    return verdict, matched


# ---------------------------------------------------------------------------
# radicals


def _power_orbit_members(ring, cl_mask):
    """The g of a finite ring with some positive power in the mask
    ``cl_mask``, as a mask over the ring's lattice.  A power sequence in a
    finite ring takes at most n values, all among its first n powers; these
    are read off the lattice's ``act_table`` in doubling blocks,
    g^(m + j) = g^m g^j, for LIST_GRID cells of g at once."""
    lat = subgroup_lattice(ring)
    (inside,) = lat.rows([cl_mask])
    act, members = lat.act_table(), np.zeros(lat.n, dtype=bool)
    step = max(1, LIST_GRID // lat.n)
    for lo in range(0, lat.n, step):
        powers = np.arange(lo, min(lat.n, lo + step))[:, None]
        while powers.shape[1] < lat.n:
            powers = np.hstack([powers, act[powers[:, -1:], powers]])
        members[lo:lo + step] = inside[powers].any(1)
    return lat.row_mask(members)


def radical(ring, cl, ideal):
    """rad(I) = {g : some power of g lies in cl(I)}, as an ideal."""
    base = ideal.base if isinstance(ideal, ApproxIdeal) else ideal
    if isinstance(ring, IntegerRing):
        g = cl.z_principal_image(base.d)
        return ideal_generated(Z, [_squarefree_kernel(g)])
    lat = subgroup_lattice(ring)
    members = _power_orbit_members(ring, cl.eval_mask(lat.mask(base)))
    if not lat.is_subgroup(members):
        raise PreconditionError(
            "radical is not an additive subgroup for this closure")
    if lat.span(members) != members:
        raise PreconditionError("radical is not an ideal for this closure")
    return ideal_from_subgroup(FiniteSubgroup.from_mask(ring, members))


def _squarefree_kernel(n):
    return math.prod(prime_factors(n)) if n else 0


def z_radical_bruteforce(cl, d, bound=200):
    """Membership of each x = 0..bound in rad((d)) straight from the
    definition: some power x^k, k >= 1, lies in cl((d)) = (g).

    One power decides it, x^e with e = max(1, floor(log2 g)), without
    factoring g.  If g | x^k for some k, every prime p of g divides x^k,
    hence x.  Each exponent a of p in g has p^a <= g, so a <= log2 g, and
    a <= e; as p^a divides x^a, it divides x^e, for every p, and so g | x^e.
    The converse is the definition with k = e.  For g = 0 only x = 0 has a
    power in (0), and (0) holds exactly 0.
    """
    g = cl.z_principal_image(d)
    if g == 0:
        return [0] if bound >= 0 else []
    e = max(1, g.bit_length() - 1)
    return [x for x in range(bound + 1) if pow(x, e, g) == 0]


def prime_radical(spec):
    """The intersection of all approximate primes in the spectrum (the
    whole ring when the spectrum is empty)."""
    out = whole_subgroup(spec.ring)
    for p in spec.primes:
        out = out & p
    return out


def check_rad_eq_nil(ring, cl, z_bound=None):
    """rad(0) = intersection of the spectrum, both sides computed fresh."""
    spec = spectrum(ring, cl, z_bound=z_bound)
    inter = prime_radical(spec)
    if isinstance(ring, IntegerRing):
        m = _z_shift_modulus(cl)
        rad0 = _squarefree_kernel(m)
        bound = max(60, min(200, 2 * max(m, 1)))
        swept = z_radical_bruteforce(cl, 0, bound=bound)
        expected = [x for x in range(bound + 1)
                    if PrincipalSubgroup(rad0).contains(x)]
        agree = rad0 == inter.d and swept == expected
        return Verdict("radical-equals-prime-intersection", agree,
                       None if agree else {"rad0": f"({rad0})",
                                           "intersection": repr(inter)},
                       details={"rad0": f"({rad0})",
                                "intersection": repr(inter)})
    zero_ideal = ApproxIdeal(FiniteSubgroup(ring, {ring.zero}, check=False),
                             cl, check=False)
    rad = radical(ring, cl, zero_ideal)
    agree = rad.canonical == inter
    return Verdict("radical-equals-prime-intersection", agree,
                   None if agree else {
                       "rad0": rad.canonical.sorted_values(),
                       "intersection": inter.sorted_values()},
                   details={"size": len(inter)})