"""Source rules the package keeps.

Internal invariants are raised as ``errors.InvariantError``, which the CLI
maps to exit status 4; a bare ``AssertionError`` would escape as a
traceback with exit status 1.
"""

import pathlib

import pytest

SOURCES = sorted((pathlib.Path(__file__).resolve().parents[1]
                  / "src" / "approxalg").glob("*.py"))


def test_sources_found():
    assert len(SOURCES) > 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_bare_assertion_error(path):
    lines = [n for n, line in enumerate(path.read_text().splitlines(), 1)
             if "raise AssertionError" in line]
    assert not lines, f"{path.name}: raise InvariantError instead, lines {lines}"


def test_module_closures_inherit_their_semantics():
    """No ``ModuleClosure`` subclass in the package defines ``eval_mask``,
    ``eval_set`` or ``member``: a module closure is a ring closure applied
    to a module, so such a method would be a second copy of a ring
    closure's, and a tracer that wraps the method on every closure class
    would wrap it twice."""
    import importlib

    for path in SOURCES:
        if path.stem != "__init__":
            importlib.import_module(f"approxalg.{path.stem}")
    from approxalg.modules import ModuleClosure

    seen, todo = [], [ModuleClosure]
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    own = [f"{cls.__name__}.{name}" for cls in seen
           if cls.__module__.startswith("approxalg")
           for name in ("eval_mask", "eval_set", "member")
           if name in vars(cls)]
    assert len(seen) > 4
    assert not own, f"module closures define their own {own}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_finite_kernels_evaluate_closures_on_masks(path):
    """Only ``closures.py`` calls ``eval_set`` or ``materialize``, the
    frozenset views of a closure: every other module evaluates a closure
    by ``eval_mask`` on lattice masks, with no decoding to values and
    re-encoding through ``canon`` around it."""
    if path.name == "closures.py":
        return
    lines = [n for n, line in enumerate(path.read_text().splitlines(), 1)
             if ".eval_set(" in line or "materialize(" in line]
    assert not lines, f"{path.name}: call eval_mask instead, lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_price_refuses_work(path):
    """``ResourceLimitError`` is constructed in the package only inside
    ``errors.price``: every guard prices its work by that one call, so
    every refusal reads "<what> priced at <amount> <unit>, past the limit
    <limit>"."""
    import ast

    tree = ast.parse(path.read_text(), filename=str(path))
    inside = {id(inner) for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == "price"
              and path.name == "errors.py"
              for inner in ast.walk(node)}
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and "ResourceLimitError" in (getattr(node.func, "id", None),
                                          getattr(node.func, "attr", None))]
    sites = [node.lineno for node in calls if id(node) not in inside]
    assert not sites, f"{path.name}: call errors.price instead, lines {sites}"
    assert len(calls) == (path.name == "errors.py")


LIMIT_KNOBS = {"guard", "subset_cap", "subset_limit", "f_pool"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_limits_are_constants_not_parameters(path):
    """No function takes a resource limit as a parameter: a limit is a
    module constant that prices the work (``rings.SUBGROUP_WORK_LIMIT``,
    ``spectrum.TOPOLOGY_CELL_LIMIT``, ``closures.EXHAUSTIVE_SUBSET_CAP``),
    so no caller can raise it and no test or benchmark has to cover the
    values it could take."""
    import ast

    tree = ast.parse(path.read_text(), filename=str(path))
    knobs = [f"{node.name}({arg.arg}) line {node.lineno}"
             for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             for arg in ast.walk(node.args)
             if isinstance(arg, ast.arg) and arg.arg in LIMIT_KNOBS]
    assert not knobs, f"{path.name}: limit parameters {knobs}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_coset_arithmetic_lives_in_the_lattice(path):
    """Only ``rings.py`` calls ``.translate(``: a subgroup, a span, a
    coset tiling or a subgroup test is asked of ``rings._Lattice``, which
    may take its structure for a group once its add table passed the
    check at the door."""
    if path.name == "rings.py":
        return
    lines = [n for n, line in enumerate(path.read_text().splitlines(), 1)
             if ".translate(" in line]
    assert not lines, f"{path.name}: ask the lattice instead, lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_join_is_read_through_declared_join(path):
    """Only ``closures.declared_join`` reads a closure's ``join`` (an
    attribute ``.join`` that is not called, or ``getattr`` of "join"): the
    engines may build a closure from its join only where the class that
    defines the evaluation declares it, and a direct read would also
    honour a join that a subclass inherited past its own ``eval_mask``."""
    import ast

    tree = ast.parse(path.read_text(), filename=str(path))
    called = {id(node.func) for node in ast.walk(tree)
              if isinstance(node, ast.Call)}
    helper = {id(inner) for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef)
              and node.name == "declared_join" and path.name == "closures.py"
              for inner in ast.walk(node)}
    reads = [node.lineno for node in ast.walk(tree)
             if id(node) not in helper and (
                 isinstance(node, ast.Attribute) and node.attr == "join"
                 and id(node) not in called
                 or isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == "getattr"
                 and any(isinstance(arg, ast.Constant) and arg.value == "join"
                         for arg in node.args))]
    assert not reads, f"{path.name}: read join through declared_join, " \
        f"lines {reads}"


# the functions that may hold a ``for ... in _chunks(...)`` loop calling
# ``_first_violation``, and how many: the one counterexample walk, and the
# list engine's unary walk, whose C4b and absorption share ``_acted(x)``
CHUNK_SEARCHES = {"_first_break": 1, "_check_axioms_list": 1}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_first_violation_walks_go_through_first_break(path):
    """Every row-major counterexample search over chunks of rows is
    ``closures._first_break``: no other ``for ... in _chunks(...)`` loop
    calls ``_first_violation``, so the argument that the first chunk with
    a true cell holds the first cell is stated and kept in one place."""
    import ast

    def name(call):
        return getattr(call.func, "id", getattr(call.func, "attr", None))

    def calls(node, callee):
        return isinstance(node, ast.Call) and name(node) == callee

    tree = ast.parse(path.read_text(), filename=str(path))
    found = {}
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for loop in ast.walk(fn):
            if isinstance(loop, ast.For) and calls(loop.iter, "_chunks") \
                    and any(calls(c, "_first_violation")
                            for c in ast.walk(loop)):
                found.setdefault(fn.name, set()).add(loop.lineno)
    extra = {fn: sorted(lines) for fn, lines in found.items()
             if len(lines) > CHUNK_SEARCHES.get(fn, 0)}
    assert not extra, f"{path.name}: walk by _first_break instead: {extra}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_one_grid_constant(path):
    """``closures.LIST_GRID`` is the one chunk size: no module defines
    another ``*_GRID`` constant."""
    import ast

    tree = ast.parse(path.read_text(), filename=str(path))
    grids = [target.id for node in tree.body if isinstance(node, ast.Assign)
             for target in node.targets if isinstance(target, ast.Name)
             and target.id.endswith("_GRID") and target.id != "LIST_GRID"]
    assert not grids, f"{path.name}: chunk by LIST_GRID instead of {grids}"


def _trial_divisions(tree):
    """(function, line) of each ``x % q`` whose divisor q is built from a
    candidate that counts: the target of a loop or comprehension over
    ``range`` or ``itertools.count``, or a name a ``while`` loop steps
    with ``+=`` (so ``m % f`` and ``m % p ** (e + 1)`` alike)."""
    import ast

    def counts(call):
        return isinstance(call, ast.Call) and getattr(
            call.func, "id", getattr(call.func, "attr", None)) in (
                "range", "count")

    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        candidates = set()
        for node in ast.walk(fn):
            if isinstance(node, (ast.For, ast.comprehension)) \
                    and counts(node.iter):
                candidates |= {n.id for n in ast.walk(node.target)
                               if isinstance(n, ast.Name)}
            if isinstance(node, ast.While):
                candidates |= {n.target.id for n in ast.walk(node)
                               if isinstance(n, ast.AugAssign)
                               and isinstance(n.op, ast.Add)
                               and isinstance(n.target, ast.Name)}
        out += [(fn.name, node.lineno) for node in ast.walk(fn)
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                and any(isinstance(n, ast.Name) and n.id in candidates
                        for n in ast.walk(node.right))]
    return out


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_factorize_trial_divides(path):
    """``rings.factorize`` is the one trial division: a prime test, a
    divisor list, a split or a squarefree kernel reads its (p, e) pairs,
    so every integer factorization is priced by its one
    ``Z_SWEEP_CELL_LIMIT`` call before it starts."""
    import ast

    tree = ast.parse(path.read_text(), filename=str(path))
    sites = [(fn, line) for fn, line in _trial_divisions(tree)
             if (path.name, fn) != ("rings.py", "factorize")]
    assert not sites, f"{path.name}: read rings.factorize instead, {sites}"


def test_the_trial_division_rule_sees_factorize():
    import ast

    from approxalg import rings
    tree = ast.parse(pathlib.Path(rings.__file__).read_text())
    assert {fn for fn, _ in _trial_divisions(tree)} == {"factorize"}
