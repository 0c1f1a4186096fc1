"""The command line under generated input: ring, closure and element
strings drawn from the grammar (every ring has at most 12 elements), and
the same strings with a character dropped or inserted, or replaced by
malformed text, through ``approxalg.cli.main``.

Every call must end in a documented exit status (0, 1, 2 or 3) with no
traceback, and ``--format json`` must print the same bytes when the call
is repeated.  Mutations insert no digits, so a malformed ring is never a
larger valid one.
"""

import contextlib
import io

from hypothesis import given, settings
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
RINGS += [("Fun:p=2,n=1", st.sampled_from(["0", "1", "x1", "x1+1"]))]

MALFORMED = st.sampled_from([
    "", " ", "Zn:0", "Zn:1", "Zn:-3", "Zn:x", "prod:[]", "prod:[Zn:2",
    "GF:4/x", "GF:2/x^-1", "GF:2/", "Fun:p=4,n=1", "Fun:p=2", "Z^2",
    "shift:J=", "setshift:J=(", "sample:[]", "sample:[{(9,)}]",
    "tol:[{point:(0,),tau:-1}]", "tol:[{point:(0,)}]", "((", "x^", "1/0",
    "[", "}", "gen,gen", "(1,2,3,4)"])
NO_DIGITS = "()[]{},:;=+-*^/ xJZnpGFunprodgenshift"


def mutated(text):
    """The text, or it with one character dropped or one inserted (never a
    digit), or malformed text instead."""
    drop = st.integers(0, max(0, len(text) - 1)).map(
        lambda i: text[:i] + text[i + 1:])
    insert = st.tuples(st.integers(0, len(text)),
                       st.sampled_from(NO_DIGITS)).map(
        lambda t: text[:t[0]] + t[1] + text[t[0]:])
    return st.one_of(st.just(text), st.just(text), st.just(text), drop,
                     insert, MALFORMED)


@st.composite
def requests(draw):
    ring, element = draw(st.sampled_from(RINGS))
    elem = draw(element)
    closure = draw(st.sampled_from([
        "gen", f"shift:J={elem}", f"setshift:J={elem}", "pointwise",
        "sample:[{(0,)},{(1,)}]", "tol:[{point:(0,),tau:1/2}]"]))
    ideal = ",".join(draw(st.lists(element, min_size=0, max_size=2)))
    command = draw(st.sampled_from(["axioms", "spec", "is-prime", "radical",
                                    "quotient", "vset"]))
    argv = [command, "--ring=" + draw(mutated(ring)),
            "--closure=" + draw(mutated(closure)), "--format=json"]
    if command == "axioms":
        argv.append("--mode=subgroups")
    elif command != "spec":
        argv.append("--ideal=" + draw(mutated(ideal)))
    return argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a malformed command
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150)
@given(requests())
def test_every_request_ends_in_a_documented_exit(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    assert run(argv) == (code, out, err), argv
