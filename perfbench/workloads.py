"""The four benchmark workloads: seeded inputs, tasks, and independent checks.

A workload is built once per process (that is the set-up the benchmark
times) and then hands out rounds of tasks.  A task is one verdict-producing
call into approxalg's public API; a round is a fixed mix of task kinds whose
parameters the seed draws, so every round costs about the same and a run
that stops at a round boundary measures the same mix whatever the seed.

Every call into approxalg goes through a module attribute looked up at call
time (``closures.check_axioms``, not a name bound at import), so the traced
run's wrappers see the calls the benchmark makes.

Each task is ``(kind, label, fn, args, info)``; ``fn(ctx, *args)`` runs it,
where ``ctx`` is a per-round dict that later tasks of the round read (a
spectrum, a localization).  ``check(kind, info, result)`` returns None when
the result is right by a route independent of the call, or a one-line reason;
``summary(result)`` gives the JSON that the verdict digest hashes.
"""

import contextlib
import io
import json
import math
import random

import approxalg
from approxalg import cli, closures, homs, ideals, localization, modules
from approxalg import nullstellensatz, rings, spectrum
from approxalg.grammar import parse_closure, parse_element, parse_ring

# Rounds whose parameters are drawn up front (a 20 s run takes 3 to 20);
# a run that needs more rounds repeats them from the start.
MAX_ROUNDS = 64


def _log_strata(u, k, lo, hi):
    """k values, one per equal-width stratum of [lo, hi) in log scale, all at
    the same offset u inside their stratum."""
    a, b = math.log(lo), math.log(hi)
    return [min(hi - 1, max(lo, int(math.exp(a + (i + u) / k * (b - a)))))
            for i in range(k)]


def _turn(options, i):
    """The i-th of ``options``, cycling: any len(options) rounds in a row take
    each once, so an option that costs ten times the others recurs at the
    same rate in every run, whatever the seed."""
    return options[i % len(options)]


# ---------------------------------------------------------------------------
# exhaustive-axioms


# ring spec -> (ideal generators for shift:J= and setshift:J=, union-fixed
# extra elements).  Every ring has 8 to 12 elements, so each check
# quantifies over 256 to 4096 subsets and 4^n subset pairs.  Rings of more
# than 9 elements have one parameter of each kind: their checks cost 10-100
# times more, and a round must hold enough tasks for a tail percentile.
EXHAUSTIVE_RINGS = {
    "Zn:8": (["2", "4", "6"], ["1", "3", "6"]),
    "Zn:9": (["3", "6"], ["1", "4", "6"]),
    "Zn:10": (["2"], ["1"]),
    "Zn:11": ([], ["1"]),
    "Zn:12": (["2"], ["1"]),
    "prod:[Zn:2,Zn:4]": (["(0,1)", "(0,2)", "(1,0)", "(1,2)"],
                         ["(0,1)", "(1,0)", "(1,3)"]),
    "prod:[Zn:2,Zn:5]": (["(0,1)"], ["(0,1)"]),
    "prod:[Zn:3,Zn:3]": (["(0,1)", "(1,0)", "(2,0)"],
                         ["(0,1)", "(1,1)", "(2,2)"]),
    "prod:[Zn:2,Zn:2,Zn:2]": (["(0,0,1)", "(0,1,1)", "(1,0,0)", "(1,1,0)"],
                              ["(0,0,1)", "(1,1,0)", "(1,1,1)"]),
    "GF:2/x^3+x+1": ([], ["1", "x", "x^2+x"]),
    "GF:3/x^2+1": ([], ["1", "x", "2*x+1"]),
}

# The stated verdict table: the axioms expected to FAIL.  The span closure
# and every ideal shift <A> + J pass all six.  A set shift A + J passes all
# but absorption, which fails exactly when some additive subgroup A is not
# an ideal and J does not cover the gap; the listed (ring, J) are those.
# The union-fixed operator A | {e} (e != 0) is never additively or
# scalar compatible (cl of the empty set is {e}, but 0*e = 0 is not in it),
# and fails absorption on every ring with a non-ideal additive subgroup.
SETSHIFT_ABSORPTION_FAILS = {
    ("prod:[Zn:2,Zn:4]", "(0,2)"),
    ("prod:[Zn:2,Zn:2,Zn:2]", "(0,0,1)"),
    ("prod:[Zn:2,Zn:2,Zn:2]", "(1,0,0)"),
}
RINGS_WITH_NON_IDEAL_SUBGROUPS = {
    "prod:[Zn:2,Zn:4]", "prod:[Zn:3,Zn:3]", "prod:[Zn:2,Zn:2,Zn:2]",
    "GF:2/x^3+x+1", "GF:3/x^2+1",
}


def expected_failures(ring_spec, kind, param):
    if kind in ("gen", "shift"):
        return set()
    if kind == "setshift":
        return ({"absorption"} if (ring_spec, param) in SETSHIFT_ABSORPTION_FAILS
                else set())
    fails = {"C4a", "C4b"}
    if ring_spec in RINGS_WITH_NON_IDEAL_SUBGROUPS:
        fails.add("absorption")
    return fails


def _run_exhaustive(_ctx, cl):
    return closures.check_axioms(cl, mode="exhaustive")


class ExhaustiveAxioms:
    """check_axioms(mode="exhaustive") on set-valued closures of 8-12
    element rings.  A round runs every ring with each closure kind and
    listed parameter.  Every round runs the same tasks, so the mix a run
    measures does not depend on how many rounds it completes.  The first
    task on a ring builds its domain and pair cache; round 0 keeps the
    listed order, so in every run that cost falls on the same task (the
    ring's gen closure).  The seed draws the order of later rounds."""

    REFERENCE = "mixed"  # numpy bitmask engine plus Python sweeps (speed.py)

    def __init__(self, seed, tiny=False):
        rng = random.Random(seed)
        ring_specs = list(EXHAUSTIVE_RINGS)
        if tiny:
            ring_specs = ["Zn:8", "prod:[Zn:2,Zn:4]", "GF:2/x^3+x+1"]
        self.closures = {}
        plan = []
        for spec in ring_specs:
            ring = parse_ring(spec)
            gens, extras = EXHAUSTIVE_RINGS[spec]
            kinds = [("gen", [None])]
            if gens:
                kinds += [("shift", gens), ("setshift", gens)]
            kinds.append(("union", extras))
            for kind, params in kinds:
                for param in params:
                    self.closures[(spec, kind, param)] = \
                        self._closure(ring, kind, param)
                    plan.append((spec, kind, param))
        self.rounds = [plan]
        for _ in range(1, MAX_ROUNDS):
            picks = list(plan)
            rng.shuffle(picks)
            self.rounds.append(picks)

    @staticmethod
    def _closure(ring, kind, param):
        if kind == "gen":
            return parse_closure(ring, "gen")
        if kind == "union":
            extra = parse_element(ring, param)
            return approxalg.UnionFixedClosure(ring, [extra])
        return parse_closure(ring, f"{kind}:J={param}")

    def round_tasks(self, r):
        tasks = []
        for spec, kind, param in self.rounds[r % MAX_ROUNDS]:
            cl = self.closures[(spec, kind, param)]
            tasks.append(("axioms", f"{spec} {kind} {param}", _run_exhaustive,
                          (cl,), (cl, spec, kind, param)))
        return tasks

    def check(self, kind, info, result):
        cl, spec, cl_kind, param = info
        if result.mode != "exhaustive":
            return f"mode {result.mode}"
        failed = {v.name for v in result.failed()}
        want = expected_failures(spec, cl_kind, param)
        if failed != want:
            return f"failed {sorted(failed)}, expected {sorted(want)}"
        for v in result.failed():
            if v.counterexample is None:
                return f"{v.name} failed without a counterexample"
            if not closures.replay_counterexample(cl, v.name, v.counterexample):
                return f"{v.name} counterexample does not replay"
        return None


# ---------------------------------------------------------------------------
# integer-spectrum


def _spectrum_task(ctx, cl):
    ctx["spec"] = spectrum.spectrum(rings.Z, cl)
    return ctx["spec"]


def _v_set_task(ctx, f):
    return spectrum.v_set(ctx["spec"], [f])


def _d_set_task(ctx, f):
    return spectrum.d_set(ctx["spec"], f)


def _prime_task(_ctx, cl, p):
    return ideals.is_approx_prime(rings.PrincipalSubgroup(p), cl)


def _topology_task(ctx, bound):
    return spectrum.topology_check(ctx["spec"], z_ideal_bound=bound)


def _rad_task(_ctx, cl):
    return localization.check_rad_eq_nil(rings.Z, cl)


def _smallest_factor(m):
    for q in range(2, int(math.isqrt(m)) + 1):
        if m % q == 0:
            return q
    return m


class IntegerSpectrum:
    """spectrum, V, D, primality, topology and rad = nil over Z with the
    modular closure shift:J=m.  Every round decides the same moduli, spread
    log-uniformly over [2, M): one per stratum at offset 1/4 and one per
    stratum at 3/4, so that every run, however many rounds it completes,
    has the same slowest tasks, which set the tail.  The seed draws f, p
    and the order.  Each round also decides the spectrum at m = M, the
    workload's largest input, which sets its peak memory."""

    M = 3000
    REFERENCE = "mixed"  # numpy candidate grids plus Python closed forms
    STRATA = 8
    TOPOLOGY_BOUND = 30

    def __init__(self, seed, tiny=False):
        rng = random.Random(seed)
        top = 200 if tiny else self.M
        strata = 3 if tiny else self.STRATA
        self.closures = {}
        self.rounds = []
        moduli = _log_strata(0.25, strata, 2, top) + \
            _log_strata(0.75, strata, 2, top)
        for _ in range(MAX_ROUNDS):
            picks = []
            for i, m in enumerate(moduli):
                f = rng.randint(1, 10 * m)
                p = _smallest_factor(m) if rng.random() < 0.5 \
                    else rng.choice([2, 3, 4, 5, 7, 9, 11, 13, 15, 31])
                picks.append((m, f, p, i % 2 == 0))
            rng.shuffle(picks)
            self.rounds.append(picks + [(top, None, None, None)])
        for m in moduli + [top]:
            self.closures[m] = parse_closure(rings.Z, f"shift:J={m}")

    def round_tasks(self, r):
        tasks = []
        for m, f, p, use_v in self.rounds[r % MAX_ROUNDS]:
            cl = self.closures[m]
            tasks.append(("spectrum", f"m={m}", _spectrum_task, (cl,), (m,)))
            if f is None:
                continue
            if use_v:
                tasks.append(("v_set", f"m={m} f={f}", _v_set_task, (f,),
                              (f, m)))
            else:
                tasks.append(("d_set", f"m={m} f={f}", _d_set_task, (f,),
                              (f, m)))
            tasks.append(("is_prime", f"m={m} p={p}", _prime_task, (cl, p),
                          (p, m)))
            tasks.append(("topology", f"m={m}", _topology_task,
                          (self.TOPOLOGY_BOUND,), (m,)))
            tasks.append(("rad_eq_nil", f"m={m}", _rad_task, (cl,), (m,)))
        return tasks

    def _load_oracle(self):
        import sympy
        self._factorint = sympy.factorint
        self._isprime = sympy.isprime
        self._grid = {}

    def _primes(self, m):
        return sorted(self._factorint(m))

    def check(self, kind, info, result):
        if not hasattr(self, "_grid"):
            self._load_oracle()
        m = info[-1]
        primes = self._primes(m)
        if kind == "spectrum":
            want = [f"({p})" for p in primes]
            if result.labels() != want:
                return f"labels {result.labels()} != factorint {want}"
            if m not in self._grid:
                # every candidate (d) up to the largest prime of m
                swept = ideals.z_prime_bruteforce_grid(m, primes[-1])
                self._grid[m] = [f"({d})" for d in range(primes[-1] + 1)
                                 if swept[d]]
            if self._grid[m] != want:
                return f"grid sweep {self._grid[m]} != factorint {want}"
            return None
        if kind in ("v_set", "d_set"):
            f = info[0]
            inside = [f"({p})" for p in primes if f % p == 0]
            outside = [f"({p})" for p in primes if f % p != 0]
            got = result.labels(rings.Z) if kind == "v_set" else \
                [spectrum.format_prime(rings.Z, p) for p in result]
            want = inside if kind == "v_set" else outside
            return None if got == want else f"{kind} {got} != {want}"
        if kind == "is_prime":
            p = info[0]
            want = bool(self._isprime(p)) and m % p == 0
            return None if result[0] == want else f"prime({p}) {result[0]}"
        if kind == "topology":
            bad = [v.name for v in result if not v.passed]
            return None if not bad else f"topology failed {bad}"
        kernel = math.prod(primes)
        if not result.passed or result.details["rad0"] != f"({kernel})":
            return f"rad = nil {result.to_dict()}"
        return None


# ---------------------------------------------------------------------------
# finite-lattices


def _shift(ring, m):
    return closures.IdealShiftClosure(ring, rings.ideal_generated(ring, [m]))


def _localize_task(ctx, key, ring, cl, s):
    ctx[key] = localization.localize(ring, cl, localization.mult_set(ring, [s]))
    return ctx[key]


def _transfer_task(ctx, key, mode, count, seed):
    kwargs = {"count": count, "seed": seed} if mode == "sampled" else {}
    return localization.check_transfer_axioms(ctx[key], mode=mode, **kwargs)


def _rep_task(ctx, key):
    return localization.check_rep_independence(ctx[key])


def _ext_contr_task(ctx, key):
    return localization.check_ext_contr_bijection(ctx[key])[0]


def _rad_nil_task(_ctx, ring, cl):
    return localization.check_rad_eq_nil(ring, cl)


def _iso_task(_ctx, which, mod, cl, a, b):
    if which == "iso1":
        return modules.iso_first(modules.scaling_hom(mod, cl, a))
    fn = modules.iso_second if which == "iso2" else modules.iso_third
    return fn(mod, cl, a, b)


def _cm_task(_ctx, mod, cl, count, seed):
    return modules.check_cm_axioms(mod, cl, mode="sampled", count=count,
                                   seed=seed)


def _ideals_task(ctx, key, ring):
    ctx[key] = nullstellensatz.all_function_ring_ideals(ring)
    return ctx[key]


def _null_task(ctx, key, which, cl):
    if which == "pp":
        return nullstellensatz.check_pp(cl)
    fn = nullstellensatz.check_esep if which == "esep" else \
        nullstellensatz.check_ans
    return fn(cl, ctx[key])


def _axioms_task(_ctx, cl, mode, count, seed):
    if mode == "sampled":
        return closures.check_axioms(cl, mode="sampled", count=count, seed=seed)
    return closures.check_axioms(cl, mode=mode)


def _compat_task(_ctx, which, f, cl_src, cl_dst):
    fn = closures.closure_image_compatible if which == "image" else \
        closures.closure_preimage_compatible
    return fn(f, cl_src, cl_dst)


# localizations of Z (modulus, S generator) and of Z/n (n, S generator)
Z_LOCALIZATIONS = [(12, 2), (18, 2), (20, 5), (30, 2)]
FINITE_LOCALIZATIONS = [(12, 3), (18, 2), (20, 2), (24, 3)]
# the acceptance suite's isomorphism-theorem family without Z/24 (whose
# iso1 alone takes 0.3-0.5 s): module orders, shift generators, iso1 scale,
# iso2 (N, K), iso3 (N inside K)
ISO_FAMILY = [
    ([8], [(4,)], 2, ([(2,)], [(4,)]), ([(4,)], [(2,)])),
    ([12], [(6,)], 3, ([(4,)], [(6,)]), ([(6,)], [(3,)])),
    ([2, 4], [(0, 2)], 2, ([(1, 0)], [(0, 2)]), ([(0, 2)], [(0, 1)])),
]
CM_MODULES = [([8], [(4,)]), ([12], [(6,)]), ([2, 4], [(0, 2)])]
REDUCTIONS = [(12, 4), (12, 6), (24, 8), (30, 6)]


class FiniteLattices:
    """Subgroup/ideal lattices of small rings and modules through the
    localization, module, Nullstellensatz, set-engine and hom checks.  A
    round runs each family once; the seed draws the sampled subsets and
    the order."""

    REFERENCE = "interpreter"  # pure-Python set arithmetic (speed.py)
    SAMPLED_TRANSFER = 100
    SAMPLED_AXIOMS = 40
    SAMPLED_CM = 25
    STRATA = 4

    def __init__(self, seed, tiny=False):
        rng = random.Random(seed)
        scale = 4 if tiny else 1
        z_locs = Z_LOCALIZATIONS[:1] if tiny else Z_LOCALIZATIONS
        f_locs = FINITE_LOCALIZATIONS[:1] if tiny else FINITE_LOCALIZATIONS
        iso_family = ISO_FAMILY[:1] if tiny else ISO_FAMILY
        self.z_locs = [(rings.Z, _shift(rings.Z, m), s, f"Z m={m} S={s}")
                       for m, s in z_locs]
        self.f_locs = []
        for n, s in f_locs:
            ring = rings.ResidueRing(n)
            self.f_locs.append((ring, closures.GeneratedIdealClosure(ring), s,
                                f"Z/{n} S={s}"))
        self.iso = []
        for orders, shift_gens, scale_k, iso2, iso3 in iso_family:
            mod = modules.finite_module(rings.Z, orders)
            for cl in (modules.GeneratedSubmoduleClosure(mod),
                       modules.SubmoduleShiftClosure(mod, shift_gens)):
                self.iso.append((mod, cl, {"iso1": (scale_k, None),
                                           "iso2": iso2, "iso3": iso3}))
        self.cm = []
        for orders, shift_gens in (CM_MODULES[:1] if tiny else CM_MODULES):
            mod = modules.finite_module(rings.Z, orders)
            self.cm.append((mod, modules.SubmoduleShiftClosure(mod, shift_gens)))
        self.fun = [rings.FunctionRing(2, 1)] + \
            ([] if tiny else [rings.FunctionRing(2, 2)])
        self.fun_cl = [closures.PointwiseClosure(r) for r in self.fun]
        self.axiom_rings = {n: rings.ResidueRing(n) for n in range(2, 61)}
        self.axiom_cl = {n: (closures.GeneratedIdealClosure(r),
                             _shift(r, _smallest_factor(n)))
                         for n, r in self.axiom_rings.items()}
        self.homs = []
        for n, k in (REDUCTIONS[:1] if tiny else REDUCTIONS):
            f = homs.reduction_hom(rings.ResidueRing(n), rings.ResidueRing(k))
            self.homs.append((f, closures.GeneratedIdealClosure(f.src),
                              closures.GeneratedIdealClosure(f.dst)))
        self.counts = (self.SAMPLED_TRANSFER // scale,
                       self.SAMPLED_AXIOMS // scale, self.SAMPLED_CM // scale)
        self.strata = 1 if tiny else self.STRATA
        # Every round quantifies over the same rings, so the mix a run
        # measures does not depend on how many rounds it completes.
        self.rounds = [self._draw(rng) for _ in range(MAX_ROUNDS)]

    def _strata(self, lo, hi):
        """Ring sizes in [lo, hi): log strata at offsets 1/4 and 3/4."""
        return _log_strata(0.25, self.strata, lo, hi) + \
            _log_strata(0.75, self.strata, lo, hi)

    def _draw(self, rng):
        """One round: groups of tasks (kept in order inside a group, since
        later tasks read what the first one built), shuffled as groups."""
        n_transfer, n_axioms, n_cm = self.counts
        groups = []
        for i, (ring, cl, s, label) in enumerate(self.z_locs):
            key = f"zloc{i}"
            groups.append([
                ("localize", label, _localize_task, (key, ring, cl, s)),
                ("transfer", label + " subgroups", _transfer_task,
                 (key, "subgroups", None, None)),
                ("transfer", label + f" sampled {n_transfer}", _transfer_task,
                 (key, "sampled", n_transfer, rng.randrange(1 << 30))),
                ("rep_independence", label, _rep_task, (key,)),
                ("ext_contr", label, _ext_contr_task, (key,))])
        for i, (ring, cl, s, label) in enumerate(self.f_locs):
            key = f"floc{i}"
            groups.append([
                ("localize", label, _localize_task, (key, ring, cl, s)),
                ("transfer", label + " subgroups", _transfer_task,
                 (key, "subgroups", None, None)),
                ("ext_contr", label, _ext_contr_task, (key,))])
        for n in self._strata(2, 61):
            ring = self.axiom_rings[n]
            groups.append([("rad_eq_nil", f"Z/{n}", _rad_nil_task,
                            (ring, self.axiom_cl[n][0]))])
        for mod, cl, params in self.iso:
            for which, (a, b) in params.items():
                groups.append([(which, f"{mod.spec_string()} {cl.describe()}",
                                _iso_task, (which, mod, cl, a, b))])
        for mod, cl in self.cm:
            groups.append([("cm_axioms", f"{mod.spec_string()} {cl.describe()}",
                            _cm_task, (mod, cl, n_cm, rng.randrange(1 << 30)))])
        for i, (ring, cl) in enumerate(zip(self.fun, self.fun_cl)):
            key = f"fun{i}"
            groups.append([
                ("ideal_enum", str(ring), _ideals_task, (key, ring)),
                ("esep", str(ring), _null_task, (key, "esep", cl)),
                ("pp", str(ring), _null_task, (key, "pp", cl)),
                ("ans", str(ring), _null_task, (key, "ans", cl))])
        for n in self._strata(8, 61):
            gen, shift = self.axiom_cl[n]
            groups.append([("axioms", f"Z/{n} gen subgroups", _axioms_task,
                            (gen, "subgroups", None, None))])
        for n in self._strata(6, 13):
            gen, shift = self.axiom_cl[n]
            groups.append([("axioms", f"Z/{n} {shift.describe()} sampled",
                            _axioms_task, (shift, "sampled", n_axioms,
                                           rng.randrange(1 << 30)))])
        for f, cl_src, cl_dst in self.homs:
            label = f"{f.src}->{f.dst}"
            groups.append([("image", label, _compat_task,
                            ("image", f, cl_src, cl_dst)),
                           ("preimage", label, _compat_task,
                            ("preimage", f, cl_src, cl_dst))])
        rng.shuffle(groups)
        return groups

    def round_tasks(self, r):
        return [task + (None,)
                for group in self.rounds[r % MAX_ROUNDS] for task in group]

    def check(self, kind, info, result):
        if kind == "localize":
            ok = result.ok()
        elif kind in ("iso1", "iso2", "iso3"):
            ok = result.ok() and result.left_size == result.right_size
        elif kind == "ideal_enum":
            ok = len(result) >= 2
        elif hasattr(result, "all_pass"):
            ok = result.all_pass()
        else:
            ok = result.passed
        return None if ok else f"{kind} did not pass"


# ---------------------------------------------------------------------------
# cli-requests


def _cli_task(_ctx, argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


Z_MODULI = [2, 6, 12, 30, 42, 60, 210, 360]
MODULE_DOCS = [
    {"module": {"scalars": "Z", "orders": [12]},
     "closure": {"name": "shift", "shift": [[6]]}, "check": "iso2",
     "N": [[4]], "K": [[6]]},
    {"module": {"scalars": "Z", "orders": [8]}, "closure": {"name": "gen"},
     "check": "iso1", "hom": {"scale": 2}},
    {"module": {"scalars": "Z", "orders": [2, 4]},
     "closure": {"name": "shift", "shift": [[0, 2]]}, "check": "iso3",
     "N": [[0, 2]], "K": [[0, 1]]},
    {"module": {"scalars": "Z", "orders": [8]},
     "closure": {"name": "shift", "shift": [[4]]}, "check": "cm-axioms"},
    {"module": {"scalars": "Z", "orders": [12]},
     "closure": {"name": "setshift", "shift": [[6]]}, "check": "quotient",
     "N": [[4]]},
]


class CliRequests:
    """A stream of in-process ``approxalg.cli.main(argv)`` calls over all 13
    subcommands on small rings, half in ``--format json``.  Rings and
    closures come from small pools, so the closures domain and pair caches
    are hit.  Each round also holds one warm Z/12 exhaustive sweep and the
    three expected non-zero exits."""

    REFERENCE = "mixed"  # half its time is warm Z/12 exhaustive sweeps

    def __init__(self, seed, tiny=False):
        rng = random.Random(seed)
        self.rounds = [self._draw(rng, r, tiny) for r in range(MAX_ROUNDS)]

    @staticmethod
    def _draw(rng, r, tiny):
        """Round r.  The costlier choices (exhaustive and subgroup sweeps,
        localize, modules, the bound-60 topology) turn with r; the seed
        draws the cheap ones."""
        reqs = []

        def add(expect, *argv):
            fmt = rng.choice(["json", "table"])
            reqs.append((expect, tuple(argv) + ("--format", fmt)))

        def zm():
            return rng.choice(Z_MODULI)

        def zn():
            return rng.choice([6, 8, 9, 10, 12])

        reps = 1 if tiny else 2
        for rep in range(reps):
            m = zm()
            add(0, "spec", "--ring", "Z", "--closure", f"shift:J={m}")
            add(0, "vset", "--ring", "Z", "--closure", f"shift:J={m}",
                "--ideal", str(rng.randint(1, 100)))
            add(0, "dset", "--ring", "Z", "--closure", f"shift:J={m}",
                "--ideal", str(rng.randint(1, 100)))
            add(0, "is-prime", "--ring", "Z", "--closure", f"shift:J={m}",
                "--ideal", str(rng.choice([2, 3, 5, 7, 4, 6])))
            add(0, "product", "--ring", "Z", "--closure", f"shift:J={m}",
                "--ideal", str(rng.randint(1, 20)),
                "--ideal", str(rng.randint(1, 20)))
            add(0, "quotient", "--ring", "Z", "--closure", f"shift:J={zm()}",
                "--ideal", str(rng.randint(0, 12)))
            add(0, "radical", "--ring", "Z", "--closure", f"shift:J={zm()}",
                "--ideal", "0")
            n = zn()
            add(0, "spec", "--ring", f"Zn:{n}", "--closure",
                rng.choice(["gen", f"shift:J={_smallest_factor(n)}"]))
            add(0, "topology", "--ring", f"Zn:{n}", "--closure", "gen")
            add(0, "radical", "--ring", f"Zn:{n}", "--closure", "gen",
                "--ideal", "0")
            add(0, "axioms", "--ring",
                f"Zn:{_turn([6, 8, 9], reps * r + rep)}", "--closure",
                _turn(["gen", "shift:J=2", "setshift:J=3"], r),
                "--mode", "exhaustive")
            add(0, "axioms", "--ring",
                f"Zn:{_turn([12, 18, 24], reps * r + rep)}",
                "--closure", "gen", "--mode", "subgroups")
            # costs 80-110 ms by m, near the tail percentile: m turns too
            add(0, "topology", "--ring", "Z", "--closure",
                f"shift:J={_turn(Z_MODULI, reps * r + rep)}", "--bound", "60")
        add(0, "axioms", "--ring", "Zn:10", "--closure",
            _turn(["gen", "shift:J=2", "shift:J=5"], r),
            "--mode", "exhaustive")
        if not tiny:
            # a warm Z/12 sweep reuses the 64 MB pair cache the first built
            add(0, "axioms", "--ring", "Zn:12", "--closure",
                _turn(["gen", "shift:J=2", "shift:J=3", "shift:J=4",
                       "shift:J=6"], r),
                "--mode", "exhaustive")
        s, m = _turn([(2, 12), (2, 30), (5, 20), (3, 12)], r)
        add(0, "localize", "--ring", "Z", "--closure", f"shift:J={m}",
            "--mult-set", str(s), "--mode", "subgroups")
        add(0, "modules", "--spec",
            json.dumps(_turn(MODULE_DOCS, r)))
        add(0, "nullstellensatz", "--ring", "Fun:p=2,n=1", "--closure",
            "pointwise", "--ideal", rng.choice(["x", "x+1", "0"]))
        add(0, "scenario", "paper-examples")
        # expected non-zero exits: a failed verdict (the classical closure
        # on Z is not T1), a malformed spec, and a tripped guard
        add(1, "topology", "--ring", "Z", "--closure", "gen", "--bound", "30")
        add(2, "spec", "--ring", rng.choice(["Zn:1x", "prod:[Zn:2", "Q"]),
            "--closure", "gen")
        add(3, "axioms", "--ring", f"Zn:{rng.choice([17, 19, 20])}",
            "--closure", "gen", "--mode", "exhaustive")
        rng.shuffle(reqs)
        return reqs

    def round_tasks(self, r):
        return [(argv[0], " ".join(argv), _cli_task, (argv,), (argv, expect))
                for expect, argv in self.rounds[r % MAX_ROUNDS]]

    def check(self, kind, info, result):
        argv, expect = info
        code, out, _err = result
        if code != expect:
            return f"exit {code}, expected {expect}"
        if argv[argv.index("--format") + 1] == "json":
            if code in (0, 1) or out:
                try:
                    doc = json.loads(out)
                except ValueError:
                    return "output is not JSON"
                if doc.get("command") != kind:
                    return f"JSON names command {doc.get('command')!r}"
        elif code in (0, 1) and not out.startswith(f"command: {kind}\n"):
            return "table output does not name the command"
        return None


WORKLOADS = {
    "exhaustive-axioms": ExhaustiveAxioms,
    "integer-spectrum": IntegerSpectrum,
    "finite-lattices": FiniteLattices,
    "cli-requests": CliRequests,
}


def summary(result):
    """A JSON-able rendering of a task's verdict, for the digest."""
    if isinstance(result, tuple) and len(result) == 3 and \
            isinstance(result[1], str):
        return {"exit": result[0], "stdout": result[1]}
    if hasattr(result, "to_dict"):
        return result.to_dict()
    if isinstance(result, spectrum.SpectrumReport):
        return {"primes": result.labels(), "method": result.method}
    if isinstance(result, spectrum.ClosedSet):
        return {"members": result.labels(rings.Z)}
    if isinstance(result, localization.LocalizedRing):
        return {"classes": result.class_count(),
                "verdicts": [v.to_dict() for v in result.verdicts]}
    if isinstance(result, modules.IsoVerdict):
        return {"name": result.name, "left": result.left_size,
                "right": result.right_size,
                "verdicts": [v.to_dict() for v in result.verdicts]}
    if isinstance(result, (list, tuple)):
        return [summary(x) for x in result]
    if isinstance(result, rings.PrincipalSubgroup):
        return f"({result.d})"
    if hasattr(result, "canonical"):
        return {"generators": [str(g) for g in result.generators]}
    return result
