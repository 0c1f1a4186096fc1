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
