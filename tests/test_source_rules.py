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
