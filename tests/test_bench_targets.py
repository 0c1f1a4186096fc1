"""Every name the benchmark's span tracer wraps still exists.

``perfbench/spans.py`` names approxalg functions and methods by string;
renaming or deleting one would only show in a traced benchmark run.  This
executes the file from its path, without installing the tracer or writing
bytecode next to it, and resolves each target the way ``Tracer.install``
does.
"""

import importlib
import pathlib
import types

import pytest

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    code = compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec")
    exec(code, module.__dict__)
    return module


spans = load_spans()
# every module a target names, so that subclasses defined anywhere are seen
for _, _target, _ in spans.TARGETS:
    importlib.import_module("approxalg." + _target.split(":")[0])


def subclasses(base):
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


def package_subclasses(base):
    """``base`` and its subclasses defined in approxalg modules: classes a
    test file derives do not count."""
    return [cls for cls in subclasses(base)
            if cls.__module__.split(".")[0] == "approxalg"]


def star_wrapped(cls, method):
    """Whether a "module:*Base.method" target wraps ``method`` as
    defined on ``cls``: the tracer wraps it on every subclass of Base that
    defines it."""
    for _, target, _ in spans.TARGETS:
        mod_name, qual = target.split(":")
        if qual.startswith("*") and qual.endswith("." + method):
            base = getattr(importlib.import_module("approxalg." + mod_name),
                           qual[1:].split(".")[0])
            if issubclass(cls, base):
                return True
    return False


@pytest.mark.parametrize("target", [t for _, t, _ in spans.TARGETS])
def test_target_resolves(target):
    mod_name, qual = target.split(":")
    mod = importlib.import_module("approxalg." + mod_name)
    if qual.startswith("*"):
        base_name, method = qual[1:].split(".")
        base = getattr(mod, base_name)
        for cls in package_subclasses(base):
            # the class the method resolves to on cls must be wrapped
            owner = next(k for k in cls.__mro__ if method in vars(k))
            assert star_wrapped(owner, method), (target, cls, owner)
    elif "." in qual:
        cls_name, method = qual.split(".")
        assert method in getattr(mod, cls_name).__dict__, target
    else:
        assert callable(getattr(mod, qual)), target


def test_every_hook_names_a_target():
    targets = {t for _, t, _ in spans.TARGETS}
    assert set(spans.HOOKS) <= targets


def test_hooks_read_live_attributes():
    """The tracer's hooks read attributes no target names: the table arrays
    of a ``FiniteDomain`` and the size of ``closures._DOMAIN_CACHE``."""
    from approxalg.closures import ring_domain
    from approxalg.rings import ResidueRing

    ring = ResidueRing(4)
    dom = ring_domain(ring)
    assert spans._table_bytes(dom) == 640
    assert spans._domain_cache_size() >= 1
