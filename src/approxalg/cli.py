"""Command-line front end.

Subcommands: axioms, spec, vset, dset, is-prime, product, quotient,
topology, localize, radical, modules, nullstellensatz, scenario.  Each
takes only the options its handler reads: every subcommand but modules
and scenario takes ``--ring`` and ``--closure``; ``--bound`` goes to
axioms, spec, vset, dset, topology, localize and radical; ``--mode`` and
``--seed`` (which fixes the sampled mode) to axioms and localize.  Any
other option is refused with exit 2.  Output is a structured report
(``--format json`` or the default human table).  Exit status: 0 success,
1 a checked verdict failed, 2 usage or precondition error, 3 a resource
limit tripped, 4 an internal invariant failed (a bug).
Limits are measured prices, not options: ``rings.SUBGROUP_WORK_LIMIT``
(elements translated or kept), ``spectrum.TOPOLOGY_CELL_LIMIT`` (cells),
``rings.Z_SWEEP_CELL_LIMIT`` (every trial division of an integer by
``rings.factorize``, and the cells of the integer sweeps and of the
``gen`` spectrum's sieve) and ``rings.POINT_GUARD`` (the points of a
function ring).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from importlib import resources

from .closures import (
    DEFAULT_SEED,
    check_axioms,
    closure_eval,
    closure_member,
)
from .errors import (
    ApproxAlgError,
    InvariantError,
    ParseError,
    PreconditionError,
    ResourceLimitError,
)
from .grammar import parse_closure, parse_element, parse_generators, parse_ring
from .ideals import ApproxIdeal, approx_product, is_approx_prime, quotient_ring
from .localization import (
    check_ext_contr_bijection,
    check_iota_functorial,
    check_rad_eq_nil,
    check_rep_independence,
    check_transfer_axioms,
    localize,
    mult_set,
    radical,
)
from .modules import (
    GeneratedSubmoduleClosure,
    ModuleSetShiftClosure,
    SubmoduleShiftClosure,
    check_cm_axioms,
    finite_module,
    iso_first,
    iso_second,
    iso_third,
    module_quotient,
    scaling_hom,
)
from .nullstellensatz import (
    all_function_ring_ideals,
    check_ans,
    check_esep,
    check_pp,
    variety,
)
from .reports import Report, Verdict
from .rings import Z, ideal_generated, subgroup_generated
from .spectrum import d_set, spectrum, topology_check, v_set


@functools.cache
def build_parser():
    """The parser, built once: each parse makes a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="approxalg",
        description="approximate commutative algebra workbench")
    sub = parser.add_subparsers(dest="command", required=True)
    # options only some handlers read: command() adds those it is given
    extras = {
        "--seed": dict(type=int, default=DEFAULT_SEED,
                       help="seed of the sampled mode"),
        "--bound": dict(type=int, default=None,
                        help="bound for integer enumerations"),
        "--mode": dict(choices=["auto", "exhaustive", "subgroups", "ideals",
                                "sampled"], default="auto"),
    }

    def command(name, help, *options):
        p = sub.add_parser(name, help=help)
        p.add_argument("--ring", required=True, help="ring spec")
        p.add_argument("--closure", required=True, help="closure spec")
        p.add_argument("--format", choices=["json", "table"], default="table")
        for option in options:
            p.add_argument(option, **extras[option])
        return p

    command("axioms", "closure axiom suite", "--seed", "--bound", "--mode")
    command("spec", "enumerate the approximate primes", "--bound")
    p = command("vset", "closed set V(I)", "--bound")
    p.add_argument("--ideal", required=True)
    p = command("dset", "basic open D(f)", "--bound")
    p.add_argument("--ideal", required=True, help="the element f")
    p = command("is-prime", "approximate primality of an ideal")
    p.add_argument("--ideal", required=True)
    p = command("product", "approximate product of two ideals")
    p.add_argument("--ideal", action="append", required=True,
                   help="give twice: the two factors")
    p = command("quotient", "quotient ring by an ideal")
    p.add_argument("--ideal", required=True)
    command("topology", "Zariski topology checks", "--bound")
    p = command("localize", "localize at a multiplicative set",
                "--seed", "--bound", "--mode")
    p.add_argument("--mult-set", required=True)
    p = command("radical", "approximate radical of an ideal", "--bound")
    p.add_argument("--ideal", required=True)

    p = sub.add_parser("modules", help="module checks from a JSON document")
    p.add_argument("--file", help="path to a JSON module/closure/check spec")
    p.add_argument("--spec", help="the same JSON document given inline")
    p.add_argument("--format", choices=["json", "table"], default="table")

    p = command("nullstellensatz", "ESEP, PP, and the radical identity")
    p.add_argument("--ideal", default=None)

    p = sub.add_parser("scenario", help="run a scenario suite")
    p.add_argument("path", help="path to a JSON suite, or 'paper-examples'")
    p.add_argument("--format", choices=["json", "table"], default="table")
    return parser


def _ideal_from(ring, cl, text):
    gens = parse_generators(ring, text)
    return ApproxIdeal(subgroup_generated(ring, gens), cl, check=False)


def cmd_axioms(args, report):
    ring = parse_ring(args.ring)
    cl = parse_closure(ring, args.closure)
    kwargs = {}
    if args.bound is not None:
        kwargs["gen_bound"] = args.bound
    rep = check_axioms(cl, mode=args.mode, seed=args.seed, **kwargs)
    for name in rep.AXIOMS:
        if name in rep.verdicts:
            report.add_verdict(rep.verdicts[name])
    report.add_extra("mode", rep.mode)
    if rep.domain:
        report.add_extra("domain", rep.domain)


def cmd_spec(args, report):
    ring = parse_ring(args.ring)
    cl = parse_closure(ring, args.closure)
    sp = spectrum(ring, cl, z_bound=args.bound)
    report.add_extra("primes", sp.labels())
    report.add_extra("method", sp.method)


def cmd_vset(args, report):
    ring = parse_ring(args.ring)
    cl = parse_closure(ring, args.closure)
    sp = spectrum(ring, cl, z_bound=args.bound)
    gens = parse_generators(ring, args.ideal)
    closed = v_set(sp, ideal_generated(ring, gens))
    report.add_extra("vset", closed.labels(ring))


def cmd_dset(args, report):
    ring = parse_ring(args.ring)
    cl = parse_closure(ring, args.closure)
    sp = spectrum(ring, cl, z_bound=args.bound)
    f = parse_element(ring, args.ideal)
    opens = d_set(sp, f)
    report.add_extra("dset", [repr(p) for p in opens])


def cmd_is_prime(args, report):
    ring = parse_ring(args.ring)
    cl = parse_closure(ring, args.closure)
    gens = parse_generators(ring, args.ideal)
    sub = subgroup_generated(ring, gens)
    verdict, ce = is_approx_prime(sub, cl)
    report.add_extra("prime", verdict)
    if ce is not None:
        report.add_extra("counterexample", ce)


def cmd_product(args, report):
    if len(args.ideal) != 2:
        raise PreconditionError("product needs exactly two --ideal arguments")
    ring = parse_ring(args.ring)
    cl = parse_closure(ring, args.closure)
    a = _ideal_from(ring, cl, args.ideal[0])
    b = _ideal_from(ring, cl, args.ideal[1])
    report.add_extra("product", repr(approx_product(a, b)))


def cmd_quotient(args, report):
    ring = parse_ring(args.ring)
    cl = parse_closure(ring, args.closure)
    ideal = _ideal_from(ring, cl, args.ideal)
    q = quotient_ring(ring, ideal)
    n = q.class_count()
    report.add_extra("classes", "infinite" if n is None else n)
    for v in q.verdicts:
        report.add_verdict(v)


def cmd_topology(args, report):
    ring = parse_ring(args.ring)
    cl = parse_closure(ring, args.closure)
    sp = spectrum(ring, cl, z_bound=args.bound)
    report.add_extra("primes", sp.labels())
    bound = 120 if args.bound is None else args.bound
    for v in topology_check(sp, z_ideal_bound=bound):
        report.add_verdict(v)


def cmd_localize(args, report):
    ring = parse_ring(args.ring)
    cl = parse_closure(ring, args.closure)
    gens = parse_generators(ring, args.mult_set)
    loc = localize(ring, cl, mult_set(ring, gens))
    for v in loc.verdicts:
        report.add_verdict(v)
    if loc.model is None:  # no classes to check the rest on
        return
    report.add_extra("classes", loc.class_count())
    report.add_verdict(check_rep_independence(loc))
    for v in check_iota_functorial(loc):
        report.add_verdict(v)
    bij, matched = check_ext_contr_bijection(loc, z_bound=args.bound)
    report.add_verdict(bij)
    report.add_extra("matched-pairs", [
        f"{p!r} <-> {e!r}" for p, e in matched])
    rep = check_transfer_axioms(loc, mode=args.mode, seed=args.seed)
    for name in rep.AXIOMS:
        if name in rep.verdicts:
            v = rep.verdicts[name]
            report.add_verdict(Verdict(f"transfer-{name}", v.passed,
                                       v.counterexample, mode=rep.mode,
                                       seed=rep.seed))


def cmd_radical(args, report):
    ring = parse_ring(args.ring)
    cl = parse_closure(ring, args.closure)
    ideal = _ideal_from(ring, cl, args.ideal)
    report.add_extra("radical", repr(radical(ring, cl, ideal)))
    report.add_verdict(check_rad_eq_nil(ring, cl, z_bound=args.bound))


_JSON_TYPES = {dict: "object", list: "list", str: "string", int: "integer"}


def _load_json(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc.msg}", text, exc.pos) from None


def _field(doc, key, kind, default=None):
    """doc[key], which must hold the JSON type ``kind``."""
    value = doc.get(key, default) if type(doc) is dict else None
    if type(value) is not kind:
        raise PreconditionError(
            f"the spec needs {key!r} to be a JSON {_JSON_TYPES[kind]}")
    return value


def _vectors(doc, key, default=None):
    """doc[key] as module elements: a list of integer lists."""
    rows = _field(doc, key, list, default)
    if not all(type(v) is list and all(type(a) is int for a in v)
               for v in rows):
        raise PreconditionError(f"the spec needs {key!r} to be a list of "
                                f"integer lists")
    return [tuple(v) for v in rows]


def _module_closure(mod, spec):
    name = _field(spec, "name", str, "gen")
    shift = _vectors(spec, "shift", [])
    if name == "gen":
        return GeneratedSubmoduleClosure(mod)
    if name == "shift":
        return SubmoduleShiftClosure(mod, shift)
    if name == "setshift":
        return ModuleSetShiftClosure(mod, shift)
    raise PreconditionError(f"unknown module closure {name!r}")


def cmd_modules(args, report):
    if bool(args.file) == bool(args.spec):
        raise PreconditionError("give exactly one of --file or --spec")
    if args.file:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = args.spec
    doc = _load_json(text)
    module = _field(doc, "module", dict)
    scal_text = _field(module, "scalars", str)
    orders = _field(module, "orders", list)
    if not all(type(n) is int for n in orders):
        raise PreconditionError(
            "the spec needs 'orders' to be a list of integers")
    scalars = Z if scal_text == "Z" else parse_ring(scal_text)
    mod = finite_module(scalars, orders)
    cl = _module_closure(mod, _field(doc, "closure", dict, {}))
    check = _field(doc, "check", str, "cm-axioms")
    report.add_extra("module", mod.spec_string())
    report.add_extra("check", check)
    if check == "cm-axioms":
        rep = check_cm_axioms(mod, cl, mode=_field(doc, "mode", str, "auto"))
        for name in rep.AXIOMS:
            if name in rep.verdicts:
                report.add_verdict(rep.verdicts[name])
    elif check == "quotient":
        n_gens = _vectors(doc, "N")
        q = module_quotient(mod, mod.subgroup_closure(n_gens), cl)
        report.add_extra("classes", q.class_count())
        for v in q.verdicts:
            report.add_verdict(v)
    elif check in ("iso1", "iso2", "iso3"):
        if check == "iso1":
            hom = _field(doc, "hom", dict, {})
            if "scale" not in hom:
                raise PreconditionError("iso1 needs a scaling hom")
            f = scaling_hom(mod, cl, _field(hom, "scale", int))
            res = iso_first(f)
        else:
            n_gens = _vectors(doc, "N")
            k_gens = _vectors(doc, "K")
            fn = iso_second if check == "iso2" else iso_third
            res = fn(mod, cl, n_gens, k_gens)
        report.add_extra("left-size", res.left_size)
        report.add_extra("right-size", res.right_size)
        for v in res.verdicts:
            report.add_verdict(v)
        report.add_verdict(Verdict("class-counts-equal",
                                   res.left_size == res.right_size))
    else:
        raise PreconditionError(f"unknown module check {check!r}")


def cmd_nullstellensatz(args, report):
    ring = parse_ring(args.ring)
    cl = parse_closure(ring, args.closure)
    ideals = all_function_ring_ideals(ring)
    report.add_extra("ideal-count", len(ideals))
    if args.ideal:
        gens = parse_generators(ring, args.ideal)
        ideal = ideal_generated(ring, gens)
        v = variety(ring, ideal)
        report.add_extra("variety", [str(p) for p in v.sorted_points()])
    report.add_verdict(check_esep(cl, ideals))
    report.add_verdict(check_pp(cl))
    report.add_verdict(check_ans(cl, ideals))


# ---------------------------------------------------------------------------
# scenarios


def _run_scenario(sc):
    """One scenario: returns (ok, got) comparing to the expected outcome."""
    if type(sc) is not dict:
        raise PreconditionError("a scenario must be a JSON object")
    ring = parse_ring(_field(sc, "ring", str))
    op = _field(sc, "operation", str)
    params = _field(sc, "params", dict, {})
    # element arithmetic is the only operation that needs no closure
    cl = None if op in ("elem-add", "elem-sub") and "closure" not in sc \
        else parse_closure(ring, _field(sc, "closure", str))
    if op == "member":
        x = parse_element(ring, _field(params, "element", str))
        gens = parse_generators(ring, _field(params, "generators", str))
        got = closure_member(cl, x, gens)
    elif op == "elem-add":
        a = parse_element(ring, _field(params, "a", str))
        b = parse_element(ring, _field(params, "b", str))
        got = ring.format_element(ring.add(a, b))
    elif op == "elem-sub":
        a = parse_element(ring, _field(params, "a", str))
        b = parse_element(ring, _field(params, "b", str))
        got = ring.format_element(ring.sub(a, b))
    elif op == "is-prime":
        gens = parse_generators(ring, _field(params, "generators", str))
        got, _ = is_approx_prime(subgroup_generated(ring, gens), cl)
    elif op == "spec":
        got = spectrum(ring, cl).labels()
    elif op == "vset":
        sp = spectrum(ring, cl)
        gens = parse_generators(ring, _field(params, "ideal", str))
        got = v_set(sp, ideal_generated(ring, gens)).labels(ring)
    elif op == "radical":
        gens = parse_generators(ring, _field(params, "generators", str))
        ideal = ApproxIdeal(subgroup_generated(ring, gens), cl, check=False)
        got = repr(radical(ring, cl, ideal))
    elif op == "closure-eval":
        gens = parse_generators(ring, _field(params, "generators", str))
        got = repr(closure_eval(cl, gens))
    else:
        raise PreconditionError(f"unknown scenario operation {op!r}")
    expected = sc.get("expected")
    ok = expected is None or got == expected
    return ok, got


def cmd_scenario(args, report):
    if args.path == "paper-examples":
        text = resources.files("approxalg.data").joinpath(
            "paper_examples.json").read_text(encoding="utf-8")
    else:
        with open(args.path, encoding="utf-8") as fh:
            text = fh.read()
    suite = _load_json(text)
    if type(suite) is not list:
        raise PreconditionError("a scenario suite must be a JSON list")
    errors = 0
    for sc in suite:
        name = sc.get("name", "?") if type(sc) is dict else "?"
        try:
            ok, got = _run_scenario(sc)
        except InvariantError:
            raise
        except ApproxAlgError as exc:
            errors += 1
            report.add_verdict(Verdict(name, False,
                                       {"error": str(exc)}))
            continue
        ce = None if ok else {"expected": sc.get("expected"), "got": got}
        report.add_verdict(Verdict(name, ok, ce))
    report.add_extra("scenario-count", len(suite))
    if errors:
        report.add_extra("errors", errors)
        raise PreconditionError(f"{errors} scenario(s) failed to run")


HANDLERS = {
    "axioms": cmd_axioms,
    "spec": cmd_spec,
    "vset": cmd_vset,
    "dset": cmd_dset,
    "is-prime": cmd_is_prime,
    "product": cmd_product,
    "quotient": cmd_quotient,
    "topology": cmd_topology,
    "localize": cmd_localize,
    "radical": cmd_radical,
    "modules": cmd_modules,
    "nullstellensatz": cmd_nullstellensatz,
    "scenario": cmd_scenario,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    report = Report(command=args.command)
    try:
        HANDLERS[args.command](args, report)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except ApproxAlgError as exc:
        _emit(report, args)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(report, args)
    return 0 if report.ok() else 1


def _emit(report, args):
    if args.format == "json":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.to_table())


if __name__ == "__main__":
    sys.exit(main())