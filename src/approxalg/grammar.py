"""Parsers for the ring/closure/element mini-grammars.

Rings:     ``Z`` | ``Zn:<n>`` | ``prod:[<ring>,...]`` | ``GF:<p>/<poly>`` |
           ``Fun:p=<p>,n=<nvars>``
Closures:  ``gen`` | ``shift:J=<gens>`` | ``setshift:J=<gens>`` |
           ``pointwise`` | ``sample:[{(0,0),(1,0)},...]`` |
           ``tol:[{point:(0,),tau:1/2},...]``
Elements:  integers for Z and Z/n, tuples ``(a,b,c)`` for products,
           univariate polynomials ``x^4+x^3+1`` for GF quotients, and
           multivariate ``x1*x2+x1`` for function rings.

Parse failures carry the offending position.
"""

from __future__ import annotations

from fractions import Fraction

from .closures import (
    GeneratedIdealClosure,
    IdealShiftClosure,
    PointwiseClosure,
    SamplingClosure,
    SetShiftClosure,
    ToleranceClosure,
)
from .errors import ParseError
from .rings import (
    FunctionRing,
    IntegerRing,
    PolyQuotient,
    ProductRing,
    ResidueRing,
    Z,
    ideal_generated,
)

OPENERS = {"(": ")", "[": "]", "{": "}"}
CLOSERS = {v: k for k, v in OPENERS.items()}


def split_top(text, sep=","):
    """Split on the separator at bracket depth zero."""
    parts = []
    depth = 0
    cur = []
    for i, ch in enumerate(text):
        if ch in OPENERS:
            depth += 1
        elif ch in CLOSERS:
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced bracket", text, i)
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ParseError("unbalanced bracket", text, len(text))
    parts.append("".join(cur))
    return parts


def _int(text, context):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"expected an integer in {context}", text, 0) from None


def parse_ring(text):
    text = text.strip()
    if text == "Z":
        return Z
    if text.startswith("Zn:"):
        return ResidueRing(_int(text[3:], "Zn:<n>"))
    if text.startswith("prod:"):
        body = text[5:].strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ParseError("prod expects [..]", text, 5)
        factors = [parse_ring(part) for part in split_top(body[1:-1])]
        return ProductRing(factors)
    if text.startswith("GF:"):
        body = text[3:]
        if "/" not in body:
            raise ParseError("GF expects GF:<p>/<poly>", text, 3)
        p_text, poly_text = body.split("/", 1)
        p = _int(p_text, "GF:<p>")
        coeffs = _poly_to_uni(parse_poly(poly_text, univar=True), p)
        return PolyQuotient(p, coeffs)
    if text.startswith("Fun:"):
        body = text[4:]
        params = {}
        for part in split_top(body):
            if "=" not in part:
                raise ParseError("Fun expects p=<p>,n=<nvars>", text, 4)
            k, v = part.split("=", 1)
            params[k.strip()] = _int(v, "Fun parameter")
        if set(params) != {"p", "n"}:
            raise ParseError("Fun expects exactly p and n", text, 4)
        return FunctionRing(params["p"], params["n"])
    raise ParseError("unknown ring spec", text, 0)


# ---------------------------------------------------------------------------
# polynomials: sums of signed terms, term = factor (* factor)*


def parse_poly(text, univar=False, nvars=None):
    """Sparse exponent-dict polynomial with integer coefficients."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ParseError("empty polynomial", text, 0)
    terms = []
    pos = 0
    sign = 1
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        pos = 1
    start = pos
    while pos <= len(s):
        if pos == len(s) or s[pos] in "+-":
            if pos == start:
                raise ParseError("empty term", text, pos)
            terms.append((sign, s[start:pos]))
            if pos < len(s):
                sign = -1 if s[pos] == "-" else 1
            pos += 1
            start = pos
        else:
            pos += 1

    max_var = 0
    parsed = []
    for sign, term in terms:
        coeff = 1
        exps = {}
        for factor in term.split("*"):
            if not factor:
                raise ParseError("empty factor", text, 0)
            if factor[0].isdigit():
                coeff *= _int(factor, "coefficient")
                continue
            if factor[0] != "x":
                raise ParseError(f"unknown symbol {factor!r}", text, 0)
            body = factor[1:]
            power = 1
            if "^" in body:
                body, p_text = body.split("^", 1)
                power = _int(p_text, "exponent")
            if body == "":
                index = 1
                if not univar and nvars not in (None, 1):
                    raise ParseError("use x1..xn for multivariate", text, 0)
            else:
                index = _int(body, "variable index")
                if univar:
                    raise ParseError("univariate uses plain x", text, 0)
            if power < 0:
                raise ParseError("negative exponent", text, 0)
            max_var = max(max_var, index)
            exps[index] = exps.get(index, 0) + power
        parsed.append((sign * coeff, exps))

    width = 1 if univar else (nvars if nvars is not None else max(max_var, 1))
    out = {}
    for coeff, exps in parsed:
        if any(i > width for i in exps):
            raise ParseError(f"variable index exceeds {width}", text, 0)
        key = tuple(exps.get(i + 1, 0) for i in range(width))
        out[key] = out.get(key, 0) + coeff
    return {e: c for e, c in out.items() if c}


def _poly_to_uni(mp, p):
    """Dense low-to-high coefficient tuple from a univariate sparse dict."""
    if not mp:
        return ()
    deg = max(e[0] for e in mp)
    return tuple(mp.get((i,), 0) % p for i in range(deg + 1))


def parse_point(text):
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError("point expects (a,b,...)", text, 0)
    parts = split_top(text[1:-1])
    if parts and parts[-1].strip() == "":
        parts = parts[:-1]  # allow the 1-tuple form (a,)
    return tuple(_int(part, "point coordinate") for part in parts)


def parse_element(ring, text):
    text = text.strip()
    if isinstance(ring, IntegerRing):
        return _int(text, "integer element")
    if isinstance(ring, ResidueRing):
        return ring.canon(_int(text, "residue element"))
    if isinstance(ring, ProductRing):
        if not (text.startswith("(") and text.endswith(")")):
            raise ParseError("product element expects (a,b,...)", text, 0)
        parts = split_top(text[1:-1])
        if len(parts) != len(ring.factors):
            raise ParseError(
                f"expected {len(ring.factors)} components", text, 0)
        return tuple(parse_element(f, part)
                     for f, part in zip(ring.factors, parts))
    if isinstance(ring, PolyQuotient):
        return ring.canon(_poly_to_uni(parse_poly(text, univar=True), ring.p))
    if isinstance(ring, FunctionRing):
        mp = parse_poly(text, nvars=ring.nvars)
        return ring.from_mpoly(mp)
    raise ParseError(f"no element syntax for {ring}", text, 0)


def parse_generators(ring, text):
    text = text.strip()
    if not text:
        return []
    return [parse_element(ring, part) for part in split_top(text)]


def parse_closure(ring, text):
    text = text.strip()
    if text == "gen":
        return GeneratedIdealClosure(ring)
    if text == "pointwise":
        return PointwiseClosure(ring)
    if text.startswith("shift:J=") or text.startswith("setshift:J="):
        is_set = text.startswith("setshift:")
        body = text.split("=", 1)[1]
        maker = SetShiftClosure if is_set else IdealShiftClosure
        if isinstance(ring, ProductRing) and not ring.is_finite:
            return maker(ring, shift_modulus=_int(body, "shift modulus"))
        gens = parse_generators(ring, body)
        return maker(ring, ideal_generated(ring, gens))
    if text.startswith("sample:"):
        body = text[len("sample:"):].strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ParseError("sample expects [..]", text, 7)
        family = []
        for part in split_top(body[1:-1]):
            part = part.strip()
            if not (part.startswith("{") and part.endswith("}")):
                raise ParseError("sample set expects {..}", text, 7)
            family.append({parse_point(p) for p in split_top(part[1:-1])})
        return SamplingClosure(ring, family)
    if text.startswith("tol:"):
        body = text[len("tol:"):].strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ParseError("tol expects [..]", text, 4)
        points = []
        taus = []
        for part in split_top(body[1:-1]):
            part = part.strip()
            if not (part.startswith("{") and part.endswith("}")):
                raise ParseError("tol item expects {..}", text, 4)
            point = None
            tau = None
            for item in split_top(part[1:-1]):
                if ":" not in item:
                    raise ParseError("tol item expects key:value", text, 4)
                k, v = item.split(":", 1)
                k = k.strip()
                if k == "point":
                    point = parse_point(v)
                elif k == "tau":
                    try:
                        tau = Fraction(v.strip())
                    except (ValueError, ZeroDivisionError):
                        raise ParseError("tol tau expects a rational", text,
                                         4) from None
                else:
                    raise ParseError(f"unknown tol key {k!r}", text, 4)
            if point is None or tau is None:
                raise ParseError("tol item needs point and tau", text, 4)
            points.append(point)
            taus.append(tau)
        nvars = len(points[0]) if points else 1
        return ToleranceClosure(nvars, points, taus)
    raise ParseError("unknown closure spec", text, 0)