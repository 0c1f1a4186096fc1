"""The command line under generated input: ring, closure and element
strings drawn from the grammar (every finite ring but Fun:p=3,n=1 has at
most 12 elements, and Z takes shift moduli of at most 20), and module
documents, each also with a character dropped or inserted, or replaced by
malformed text, through ``approxalg.cli.main`` on every subcommand but
``scenario``, with at most one of ``--seed``, ``--mode`` and ``--bound``,
which the subcommands that do not read it refuse.

Every call must end in a documented exit status (0, 1, 2 or 3) with no
traceback, and ``--format json`` must print the same bytes when the call
is repeated.  Mutations insert no digits, so a malformed ring is never a
larger valid one.
"""

import contextlib
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from approxalg.cli import main

INTEGERS = st.integers(-20, 20).map(str)
POLYS = st.lists(st.integers(0, 4), min_size=1, max_size=4).map(
    lambda cs: "+".join(f"{c}*x^{i}" for i, c in enumerate(cs)))


def tuples(width):
    return st.lists(st.integers(-5, 12), min_size=width,
                    max_size=width).map(
        lambda vs: "(" + ",".join(map(str, vs)) + ")")


# each ring of at most 12 elements with a strategy for its element text
RINGS = [(f"Zn:{n}", INTEGERS) for n in (2, 3, 4, 5, 6, 7, 8, 9, 10, 12)]
RINGS += [(f"prod:[Zn:{a},Zn:{b}]", tuples(2))
          for a, b in ((2, 2), (2, 3), (2, 4), (3, 3), (2, 5), (2, 6),
                       (3, 4))]
RINGS += [("prod:[Zn:2,Zn:2,Zn:2]", tuples(3))]
RINGS += [(f"GF:{p}/{m}", POLYS)
          for p, m in ((2, "x^2+x+1"), (2, "x^3+x+1"), (2, "x^3"),
                       (3, "x^2+1"), (3, "x^2"), (5, "x"), (11, "x"))]
RINGS += [("Fun:p=2,n=1", st.sampled_from(["0", "1", "x1", "x1+1"])),
          ("Fun:p=3,n=1", st.sampled_from(["0", "2", "x1", "x1^2+2"]))]
RINGS += [("Z", INTEGERS)]

MODULE_DOCS = [json.dumps(doc) for doc in (
    {"module": {"scalars": "Z", "orders": [12]},
     "closure": {"name": "shift", "shift": [[6]]}, "check": "iso2",
     "N": [[4]], "K": [[6]]},
    {"module": {"scalars": "Z", "orders": [8]}, "closure": {"name": "gen"},
     "check": "iso1", "hom": {"scale": 2}},
    {"module": {"scalars": "Z", "orders": [2, 4]},
     "closure": {"name": "setshift", "shift": [[0, 2]]}, "check": "iso3",
     "N": [[0, 2]], "K": [[0, 1]]},
    {"module": {"scalars": "Zn:4", "orders": [4]},
     "closure": {"name": "shift", "shift": [[2]]}, "check": "cm-axioms"},
    {"module": {"scalars": "Z", "orders": [6]},
     "closure": {"name": "setshift", "shift": [[3]]}, "check": "quotient",
     "N": [[2]]})]

MALFORMED = st.sampled_from([
    "", " ", "Zn:0", "Zn:1", "Zn:-3", "Zn:x", "prod:[]", "prod:[Zn:2",
    "GF:4/x", "GF:2/x^-1", "GF:2/", "Fun:p=4,n=1", "Fun:p=2", "Z^2",
    "shift:J=", "setshift:J=(", "sample:[]", "sample:[{(9,)}]",
    "tol:[{point:(0,),tau:-1}]", "tol:[{point:(0,)}]", "((", "x^", "1/0",
    "[", "}", "gen,gen", "(1,2,3,4)"])
# values of the options some subcommands read; the others refuse them.  The
# sampled mode's 2000 subsets take seconds on the 27 functions of
# Fun:p=3,n=1, so it is drawn on the other rings only.
OPTIONS = {
    "--seed": st.integers(-5, 99).map(str),
    "--bound": st.integers(-5, 60).map(str),
    "--mode": st.sampled_from(["subgroups", "ideals", "sampled"]),
}
NO_DIGITS = "()[]{},:;=+-*^/ xJZnpGFunprodgenshift"


def broken(text):
    """The text with one character dropped or one inserted (never a
    digit), or malformed text instead."""
    drop = st.integers(0, max(0, len(text) - 1)).map(
        lambda i: text[:i] + text[i + 1:])
    insert = st.tuples(st.integers(0, len(text)),
                       st.sampled_from(NO_DIGITS)).map(
        lambda t: text[:t[0]] + t[1] + text[t[0]:])
    return st.one_of(drop, insert, MALFORMED)


@st.composite
def requests(draw):
    """A request with at most one argument broken, so that most reach the
    checks behind the parser."""
    command = draw(st.sampled_from([
        "axioms", "spec", "is-prime", "radical", "quotient", "vset", "dset",
        "localize", "product", "topology", "nullstellensatz", "modules"]))
    ring, element = draw(st.sampled_from(
        [r for r in RINGS if r[0].startswith("Fun")]
        if command == "nullstellensatz" else RINGS))
    elem = draw(element)
    closure = draw(st.sampled_from([
        "gen", f"shift:J={elem}", f"setshift:J={elem}", "pointwise",
        "sample:[{(0,)},{(1,)}]", "tol:[{point:(0,),tau:1/2}]"]))
    if command == "modules":
        args = [("--spec", draw(st.sampled_from(MODULE_DOCS)))]
    else:
        args = [("--ring", ring), ("--closure", closure)]
        ideals = {"spec": 0, "topology": 0, "axioms": 0, "product": 2}
        for _ in range(ideals.get(command, 1)):
            args.append(("--mult-set" if command == "localize" else "--ideal",
                         elem if command == "dset" else
                         ",".join(draw(st.lists(element, max_size=2)))))
    broke = draw(st.sampled_from([None, *range(len(args))]))
    if broke is not None:
        args[broke] = (args[broke][0], draw(broken(args[broke][1])))
    option = draw(st.sampled_from([None, *OPTIONS]))
    if option is not None:
        value = draw(OPTIONS[option])
        if value == "sampled" and ring == "Fun:p=3,n=1":
            value = "subgroups"
        args.append((option, value))
    if command == "axioms" and option != "--mode":
        args.append(("--mode", "subgroups"))
    return [command] + [f"{name}={value}" for name, value in args] + \
        ["--format=json"]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a malformed command
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=250)
@given(requests())
# a --bound below m's largest prime over Z
@example(["spec", "--ring=Z", "--closure=shift:J=12", "--bound=2",
          "--format=json"])
@example(["topology", "--ring=Z", "--closure=setshift:J=12", "--bound=0",
          "--format=json"])
@example(["vset", "--ring=Z", "--closure=shift:J=30", "--ideal=2",
          "--bound=3", "--format=json"])
@example(["radical", "--ring=Z", "--closure=shift:J=12", "--ideal=0",
          "--bound=2", "--format=json"])
@example(["localize", "--ring=Z", "--closure=shift:J=12", "--mult-set=2",
          "--bound=2", "--format=json"])
# a negative --bound over Z
@example(["spec", "--ring=Z", "--closure=shift:J=6", "--bound=-3",
          "--format=json"])
@example(["vset", "--ring=Z", "--closure=shift:J=6", "--ideal=2",
          "--bound=-4", "--format=json"])
@example(["dset", "--ring=Z", "--closure=shift:J=6", "--ideal=2",
          "--bound=-5", "--format=json"])
@example(["topology", "--ring=Z", "--closure=shift:J=6", "--bound=-3",
          "--format=json"])
@example(["radical", "--ring=Z", "--closure=shift:J=6", "--ideal=0",
          "--bound=-3", "--format=json"])
@example(["localize", "--ring=Z", "--closure=shift:J=6", "--mult-set=2",
          "--bound=-4", "--format=json"])
@example(["axioms", "--ring=Z", "--closure=gen", "--bound=-2",
          "--format=json"])
@example(["topology", "--ring=Z", "--closure=gen", "--bound=-3",
          "--format=json"])
def test_every_request_ends_in_a_documented_exit(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    assert run(argv) == (code, out, err), argv
