"""Every verdict has a second route that can fail.

The names below are every ``Verdict`` name the package can emit, read
from its source: the first argument of each ``Verdict(...)`` and
``.record(...)`` call, with an f-string's formatted parts as ``*``
(``transfer-*``, ``*-well-defined``).  Each maps either to a committed case
that makes a verdict of that name fail, or to the list of names with no
failing case, each with the reason; a new name must be put in one or the
other."""

import ast
import contextlib
import fnmatch
import io
import json
import pathlib
from types import SimpleNamespace

import pytest
from test_congruence_kernel import closure
from test_map_kernel import ThirdIdealClosure
from test_transport_kernel import Doubling

from approxalg import modules
from approxalg.cli import main
from approxalg.closures import (
    ClosureSpec,
    GeneratedIdealClosure,
    IdealShiftClosure,
    SetShiftClosure,
    check_axioms,
    closure_image_compatible,
    closure_preimage_compatible,
)
from approxalg.grammar import parse_ring
from approxalg.ideals import (
    ApproxIdeal,
    _pullback_identity_verdict,
    check_thm_ring_prime,
    image_transfer,
    quotient_ring,
)
from approxalg.homs import reduction_hom
from approxalg.localization import (
    LocalizedRing,
    check_ext_contr_bijection,
    check_iota_functorial,
    check_rad_eq_nil,
    check_rep_independence,
    contract,
    extend,
    localize,
    mult_set,
)
from approxalg.nullstellensatz import (
    all_function_ring_ideals,
    check_esep,
    check_pp,
)
from approxalg.rings import (
    FiniteSubgroup,
    ResidueRing,
    Z,
    ideal_generated,
    sort_key,
    subgroup_generated,
    subgroup_lattice,
)
from approxalg.spectrum import spectrum, topology_check

SOURCES = sorted((pathlib.Path(__file__).resolve().parents[1]
                  / "src" / "approxalg").glob("*.py"))

# names held in a variable at the call: what the variable can hold
VARIABLES = {
    # the scenario runner names each verdict after its suite entry
    ("cli.py", "name"): ["<scenario entry>"],
    # check_cm_axioms renames C1-C3 (its CM4 and absorption are literals)
    ("modules.py", "out_name"): ["CM1", "CM2", "CM3"],
    # AxiomReport.record's own parameter: its callers are read instead
    ("reports.py", "axiom"): [],
}


def emitted_names():
    names = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            func = node.func
            if not (isinstance(func, ast.Name) and func.id == "Verdict"
                    or isinstance(func, ast.Attribute)
                    and func.attr == "record"):
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Constant):
                names.add(arg.value)
            elif isinstance(arg, ast.JoinedStr):
                names.add("".join(v.value if isinstance(v, ast.Constant)
                                  else "*" for v in arg.values))
            else:
                names.update(VARIABLES[(path.name, arg.id)])
    return names


# ---------------------------------------------------------------------------
# closures that break the axioms


class Successor(ClosureSpec):
    """A with the successor of its largest element (in the structure's
    order, cyclically) added: never idempotent."""

    name = "successor"

    def eval_mask(self, mask):
        top = mask.bit_length() - 1
        return mask | 1 << (top + 1) % subgroup_lattice(self.ring).n


class Zero(ClosureSpec):
    """Every A to {0}."""

    name = "zero"

    def eval_mask(self, mask):
        return 1 << subgroup_lattice(self.ring).zero


def axioms(cl):
    return list(check_axioms(cl, mode="exhaustive").verdicts.values())


def cm_axioms(orders, make):
    mod = modules.finite_module(Z, orders)
    return list(modules.check_cm_axioms(mod, make(mod), mode="exhaustive")
                .verdicts.values())


def topology(spec, cl=None):
    ring = parse_ring(spec)
    return topology_check(spectrum(ring, cl or ThirdIdealClosure(ring)))


def localization(spec, kind, s):
    ring = parse_ring(spec)
    cl = ThirdIdealClosure(ring) if kind == "third" else closure(ring, kind)
    return localize(ring, cl, mult_set(ring, [s]))


def cli_verdicts(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main([*argv, "--format", "json"])
    return [SimpleNamespace(name=v["axiom"], passed=v["verdict"] == "pass")
            for v in json.loads(out.getvalue())["verdicts"]]


def swapped_iso_third(monkeypatch):
    """The addition of M/N on representatives with the classes of 1 and 2
    swapped: the outer quotient of the third theorem splits a class."""
    mod = modules.finite_module(Z, [8])

    def swapped(x):
        return {(1,): (2,), (2,): (1,)}.get(x, x)

    monkeypatch.setattr(
        modules.QuotientModule, "add", lambda self, a, b: swapped(
            self.rep_of[self.mod.add(swapped(a), swapped(b))]))
    return modules.iso_third(mod, modules.GeneratedSubmoduleClosure(mod),
                             [], [(4,)]).verdicts


def z_class_map_broken(monkeypatch):
    """A class map that sends every pair to class 0 disagrees with the
    relation it must match."""
    monkeypatch.setattr(LocalizedRing, "to_class_z", lambda self, a, s: 0)
    shift = IdealShiftClosure(Z, ideal_generated(Z, [12]))
    return localize(Z, shift, mult_set(Z, [5])).verdicts


def quotient_by_zero(spec, kind):
    ring = parse_ring(spec)
    sub = subgroup_generated(ring, [])
    return quotient_ring(ring, ApproxIdeal(sub, closure(ring, kind))).verdicts


def scenario(tmp_path):
    suite = [{"name": "wrong", "ring": "Z", "closure": "shift:J=12",
              "operation": "is-prime", "params": {"generators": "3"},
              "expected": False}]
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    return [SimpleNamespace(name="<scenario entry>", passed=v.passed)
            for v in cli_verdicts("scenario", str(path))]


def z12_to_z4(src_kind, dst_kind):
    f = reduction_hom(ResidueRing(12), ResidueRing(4))
    return f, closure(f.src, src_kind), closure(f.dst, dst_kind)


def image_of_zero_closure():
    f = reduction_hom(ResidueRing(12), ResidueRing(4))
    cl_src, cl_dst = Zero(f.src), ThirdIdealClosure(f.dst)
    i = ApproxIdeal(FiniteSubgroup(f.src, [0, 6]), cl_src, check=False)
    return image_transfer(f, i, cl_src, cl_dst)[1]


def hom_image(orders):
    mod = modules.finite_module(Z, orders)
    elems = sorted(mod.elements(), key=sort_key)
    cl = modules.ModuleUnionFixedClosure(mod, [elems[1]])
    return [modules.scaling_hom(mod, cl, 0).image_compatible()]


def esep_third():
    ring = parse_ring("Fun:p=2,n=1")
    return [check_esep(ThirdIdealClosure(ring),
                       all_function_ring_ideals(ring))]


def total_shift_pp():
    ring = parse_ring("Fun:p=2,n=2")
    return [check_pp(SetShiftClosure(ring, ideal_generated(ring, [ring.one])))]


# each case takes pytest's monkeypatch and tmp_path and returns verdicts
CASES = {
    "C1": lambda mp, tmp: axioms(ThirdIdealClosure(ResidueRing(6))),
    "C2": lambda mp, tmp: axioms(ThirdIdealClosure(ResidueRing(6))),
    "C3": lambda mp, tmp: axioms(Successor(ResidueRing(4))),
    "C4a": lambda mp, tmp: axioms(ThirdIdealClosure(ResidueRing(6))),
    "C4b": lambda mp, tmp: axioms(closure(ResidueRing(6), "union-fixed")),
    "absorption": lambda mp, tmp: axioms(ThirdIdealClosure(ResidueRing(6))),
    "CM1": lambda mp, tmp: cm_axioms([4], ThirdIdealClosure),
    "CM2": lambda mp, tmp: cm_axioms([8], ThirdIdealClosure),
    "CM3": lambda mp, tmp: cm_axioms([4], Successor),
    "CM4": lambda mp, tmp: cm_axioms([8], ThirdIdealClosure),
    "transfer-*": lambda mp, tmp: cli_verdicts(
        "localize", "--ring", "prod:[Zn:2,Zn:4]", "--closure",
        "setshift:J=(0,2)", "--mult-set", "(1,3)"),
    "<scenario entry>": lambda mp, tmp: scenario(tmp),
    # multiplication-well-defined (addition-well-defined cannot fail:
    # cosets of a subgroup add well, (x + h) + y = (x + y) + h)
    "*-well-defined": lambda mp, tmp: quotient_by_zero(
        "GF:2/x^2", "union-fixed"),
    "image-compatible": lambda mp, tmp: [closure_image_compatible(
        *z12_to_z4("gen", "setshift"))],
    "preimage-compatible": lambda mp, tmp: [closure_preimage_compatible(
        *z12_to_z4("gen", "shift"))],
    "prime-ring-characterization": lambda mp, tmp: [check_thm_ring_prime(
        ResidueRing(3), closure(ResidueRing(3), "union-fixed"))],
    "image-is-approx-ideal": lambda mp, tmp: image_of_zero_closure(),
    "pullback-identity": lambda mp, tmp: [_pullback_identity_verdict(
        Doubling(Z, ResidueRing(6)))],
    "equivalence-matches-class-map": lambda mp, tmp: z_class_map_broken(mp),
    "equivalence-relation": lambda mp, tmp: localization(
        "Zn:4", "union-fixed", 1).verdicts,
    "operations-well-defined": lambda mp, tmp: localization(
        "Zn:4", "union-fixed", 1).verdicts,
    "representative-independence": lambda mp, tmp: [check_rep_independence(
        localization("prod:[Zn:2,Zn:2]", "union-fixed", (1, 0)))],
    "iota-image-compatible": lambda mp, tmp: check_iota_functorial(
        localization("Zn:6", "third", 3)),
    "iota-preimage-compatible": lambda mp, tmp: check_iota_functorial(
        localization("Zn:6", "third", 3)),
    "extension-proper": lambda mp, tmp: extend(
        localization("Zn:6", "gen", 2), FiniteSubgroup(ResidueRing(6),
                                                       [0, 2, 4]))[1],
    "extension-prime": lambda mp, tmp: extend(
        localization("Zn:4", "gen", 1), FiniteSubgroup(ResidueRing(4),
                                                       [0]))[1],
    "contraction-prime": lambda mp, tmp: (lambda loc: contract(
        loc, FiniteSubgroup(loc.model, [(0, 1), (2, 1)]))[1])(
        localization("Zn:4", "third", 1)),
    "extension-contraction-bijection": lambda mp, tmp: [
        check_ext_contr_bijection(localization("Zn:6", "third", 3))[0]],
    "radical-equals-prime-intersection": lambda mp, tmp: [check_rad_eq_nil(
        ResidueRing(4), ThirdIdealClosure(ResidueRing(4)))],
    "hom-image-compatible": lambda mp, tmp: hom_image([4]),
    "map-well-defined": lambda mp, tmp: swapped_iso_third(mp),
    "evaluation-separation": lambda mp, tmp: esep_third(),
    "point-ideals-prime-and-closed": lambda mp, tmp: total_shift_pp(),
    "intersection-law": lambda mp, tmp: topology("Zn:12"),
    "V(R)-is-empty": lambda mp, tmp: topology("Zn:2"),
    "quasi-compact": lambda mp, tmp: topology("Zn:2"),
    "T1": lambda mp, tmp: topology_check(
        spectrum(Z, GeneratedIdealClosure(Z), z_bound=40), z_ideal_bound=30),
}

# names no committed case makes fail, each with the reason
NO_FAILING_CASE = {
    "congruence-classes-partition": "recorded as passed: the classes are "
    "the cosets of cl(I), which quotient_ring first requires to be a "
    "subgroup",
    "ring-axioms": "a quotient model is built only when both operations "
    "are well defined, and the quotient of a ring by such a congruence is "
    "a ring",
    "cl(N)-is-subgroup": "recorded as passed: QuotientModule refuses a "
    "cl(N) that is not a subgroup before it is made",
    "image-primeness-clause-skipped": "recorded as passed: a note that the "
    "primeness clause did not apply",
    "closed-image-report": "recorded as passed: a report of sizes",
    "closed-primes-report": "recorded as passed: a report of closedness",
    "class-counts-equal": "both sides count the classes of one bijection "
    "the theorem checks verify; no survey instance differed",
    "preimage-is-approx-ideal": "the transfer lemma; no instance failed "
    "over the reductions Z/n -> Z/k under gen, shift, setshift, "
    "union-fixed and five non-axiomatic closures, functoriality first "
    "required",
    "preimage-is-approx-prime": "as preimage-is-approx-ideal",
    "image-is-approx-prime": "as preimage-is-approx-ideal; it runs only "
    "when Ker f lies in the ideal and f is preimage-compatible",
    "*-injective": "the isomorphism theorems' maps; no instance failed on "
    "Z-modules [2]..[12], [2,2], [2,4] under the four module closures and "
    "five non-axiomatic ones",
    "*-surjective": "as *-injective",
    "*-additive": "as *-injective",
    "*-action-compatible": "as *-injective",
    "kernel-is-approx-submodule": "as *-injective",
    "descended-map-well-defined": "as *-injective",
    "canonical-identification-bijective": "as *-injective",
    "radical-equals-vanishing-ideal": "the approximate Nullstellensatz; no "
    "instance failed on Fun:p=2,n=1 and n=2 under pointwise, gen, shift, "
    "setshift, union-fixed and five non-axiomatic closures",
    "tolerance-balanced-rule": "the balanced rule of the tolerance "
    "closure holds by its definition (|r a| tau = |r| |a| tau); no case "
    "of its grid failed",
    "union-law": "no instance failed on Z/2..Z/12 and three products "
    "under the four ring closures and five non-axiomatic ones",
    "V(0)-is-whole-space": "as union-law",
    "T0": "as union-law",
    "T1-criterion-agreement": "as union-law; the two computations of T1 "
    "are both read off the same closed points",
}


def test_every_emitted_name_has_a_case_or_a_reason():
    names = emitted_names()
    assert len(names) > 50
    assert not set(CASES) & set(NO_FAILING_CASE)
    assert names == set(CASES) | set(NO_FAILING_CASE), (
        sorted(names - set(CASES) - set(NO_FAILING_CASE)),
        sorted((set(CASES) | set(NO_FAILING_CASE)) - names))


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_case_fails_the_verdict(name, monkeypatch, tmp_path):
    verdicts = list(CASES[name](monkeypatch, tmp_path))
    failed = [v.name for v in verdicts if not v.passed]
    assert any(fnmatch.fnmatchcase(v, name) for v in failed), \
        (name, [(v.name, v.passed) for v in verdicts])
