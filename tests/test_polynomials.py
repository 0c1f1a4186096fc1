import pytest

from approxalg import polynomials as poly
from approxalg.grammar import parse_ring
from approxalg.rings import FunctionRing


def test_uni_rem_reduces_degree():
    # x^5 mod (x^5) = 0, x^6 mod (x^5) = 0
    mod = (0, 0, 0, 0, 0, 1)
    assert poly.uni_rem(2, (0, 0, 0, 0, 0, 1), mod) == ()
    assert poly.uni_rem(2, (0, 0, 0, 0, 0, 0, 1), mod) == ()


def test_uni_mul_matches_convolution():
    # (x+1)^2 = x^2 + 1 over F2
    assert poly.uni_mul(2, (1, 1), (1, 1)) == (1, 0, 1)


def test_uni_rem_requires_monic():
    with pytest.raises(ValueError):
        poly.uni_rem(3, (1, 1), (2, 2))


def test_uni_to_str():
    assert poly.uni_to_str((1, 0, 0, 1, 1)) == "x^4+x^3+1"
    assert poly.uni_to_str(()) == "0"


def test_m_eval_exact_integers():
    f = {(2, 0): 3, (0, 1): -1, (0, 0): 7}
    assert poly.m_eval(f, (2, 5)) == 3 * 4 - 5 + 7


def test_m_mul_with_fn_ring_reduction():
    p = 2
    red = poly.fn_ring_exp_reducer(p)
    x = poly.m_var(0, 1)
    # x * x = x^2 = x in the function ring over F2
    assert poly.m_mul(x, x, p, red) == {(1,): 1}


@pytest.mark.parametrize("p,nvars", [(2, 1), (2, 2), (3, 1)])
def test_table_and_reduced_form_agree_everywhere(p, nvars):
    ring = FunctionRing(p, nvars)
    for v in ring.elements():
        mp = ring.to_mpoly(v)
        for point, value in zip(ring.points, v):
            assert poly.m_eval(mp, point, p) == value
        assert ring.from_mpoly(mp) == v


def test_m_to_str_ordering():
    f = {(1, 1): 1, (1, 0): 1}
    assert poly.m_to_str(f, ["x1", "x2"]) == "x1*x2+x1"


# sympy's galoistools is a test-only oracle: its dense polynomials list
# the coefficients highest first, a PolyQuotient's lowest first


@pytest.mark.parametrize("spec", ["GF:2/x^3+x+1", "GF:2/x^4", "GF:3/x^2+1",
                                  "GF:5/x^2"])
def test_poly_quotient_matches_galoistools(spec):
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_add, gf_mul, gf_rem

    ring = parse_ring(spec)
    p = ring.p

    def dense(coeffs):
        return [ZZ(c) for c in reversed(coeffs)]

    def ours(dense):
        return tuple(int(c) for c in reversed(dense))

    elems = list(ring.elements())
    for a in elems:
        for b in elems:
            assert ring.add(a, b) == ours(gf_add(dense(a), dense(b), p, ZZ))
            assert ring.mul(a, b) == ours(gf_rem(
                gf_mul(dense(a), dense(b), p, ZZ), dense(ring.modulus), p, ZZ))


@pytest.mark.parametrize("p, nvars", [(2, 2), (3, 1)])
def test_to_mpoly_evaluates_back_through_sympy(p, nvars):
    """Every table's reduced polynomial, as a sympy polynomial over the
    integers, takes the table's value at each point mod p, and has degree
    below p in each variable."""
    sympy = pytest.importorskip("sympy")
    ring = FunctionRing(p, nvars)
    gens = sympy.symbols(f"x1:{nvars + 1}")
    for table in ring.elements():
        f = ring.to_mpoly(table)
        if not f:
            assert not any(table)
            continue
        g = sympy.Poly.from_dict(f, *gens, domain="ZZ")
        assert max(g.degree_list()) < p
        assert [int(g.eval(dict(zip(gens, point)))) % p
                for point in ring.points] == list(table)
