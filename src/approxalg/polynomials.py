"""Plain polynomial arithmetic used by the ring constructions.

Univariate polynomials over F_p are dense coefficient tuples, low degree
first, with no trailing zeros (the zero polynomial is the empty tuple).
Multivariate polynomials are sparse dicts mapping exponent tuples to nonzero
coefficients; the same representation serves both F_p coefficients (for
function rings) and integer coefficients (for tolerance closures).
"""

from __future__ import annotations


# ---------------------------------------------------------------------------
# univariate, dense, coefficients in Z/p


def uni_trim(coeffs):
    """Drop trailing zero coefficients."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def uni_add(p, a, b):
    n = max(len(a), len(b))
    return uni_trim((((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p)
                    for i in range(n))


def uni_neg(p, a):
    return tuple((-x) % p for x in a)


def uni_mul(p, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return uni_trim(out)


def uni_rem(p, a, m):
    """Remainder of a modulo the monic polynomial m."""
    if not m or m[-1] != 1:
        raise ValueError("modulus must be monic")
    r = list(a)
    dm = len(m) - 1
    while len(r) - 1 >= dm and r:
        lead = r[-1] % p
        shift = len(r) - 1 - dm
        if lead:
            for i, c in enumerate(m):
                r[shift + i] = (r[shift + i] - lead * c) % p
        r.pop()
    return uni_trim(r)


def uni_to_str(coeffs, var="x"):
    if not coeffs:
        return "0"
    terms = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        if e == 0:
            terms.append(str(c))
        elif e == 1:
            terms.append(var if c == 1 else f"{c}*{var}")
        else:
            terms.append(f"{var}^{e}" if c == 1 else f"{c}*{var}^{e}")
    return "+".join(terms)


# ---------------------------------------------------------------------------
# sparse multivariate: dict {exponent tuple: coefficient}


def m_const(c, nvars):
    return {} if c == 0 else {(0,) * nvars: c}


def m_var(i, nvars):
    e = [0] * nvars
    e[i] = 1
    return {tuple(e): 1}


def m_add(f, g, modulus=None):
    out = dict(f)
    for e, c in g.items():
        v = out.get(e, 0) + c
        if modulus:
            v %= modulus
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def m_scale(f, c, modulus=None):
    out = {}
    for e, v in f.items():
        w = v * c
        if modulus:
            w %= modulus
        if w:
            out[e] = w
    return out


def m_neg(f, modulus=None):
    return m_scale(f, -1, modulus)


def m_mul(f, g, modulus=None, reduce_exp=None):
    """Product; reduce_exp, when given, maps a raw exponent to a reduced one."""
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if reduce_exp:
                e = reduce_exp(e)
            v = out.get(e, 0) + c1 * c2
            if modulus:
                v %= modulus
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def m_eval(f, point, modulus=None):
    """Evaluate at a tuple of scalars; exact integers unless modulus given."""
    total = 0
    for e, c in f.items():
        term = c
        for x, k in zip(point, e):
            if k:
                term *= x ** k
        total += term
        if modulus:
            total %= modulus
    return total


def fn_ring_exp_reducer(p):
    """Exponent reduction x^p = x, i.e. e -> ((e-1) mod (p-1)) + 1 for e >= 1."""
    def reduce_exp(e):
        return tuple(k if k == 0 else ((k - 1) % (p - 1)) + 1 for k in e)
    return reduce_exp


def m_to_str(f, varnames):
    if not f:
        return "0"
    def term_key(e):
        return (-sum(e), tuple(-k for k in e))
    parts = []
    for e in sorted(f, key=term_key):
        c = f[e]
        factors = []
        for name, k in zip(varnames, e):
            if k == 1:
                factors.append(name)
            elif k > 1:
                factors.append(f"{name}^{k}")
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        elif c == -1:
            parts.append("-" + "*".join(factors))
        else:
            parts.append(f"{c}*" + "*".join(factors))
    s = "+".join(parts)
    return s.replace("+-", "-")


def interpolate_fn_table(p, nvars, table_points, values):
    """Reduced polynomial over F_p agreeing with the given value table.

    Uses the indicator expansion: f = sum_a f(a) * prod_i (1 - (x_i - a_i)^(p-1)),
    reduced by x^p = x.  Exact companion form for function-ring tables.
    """
    reduce_exp = fn_ring_exp_reducer(p)
    nv = nvars
    out = {}
    for a, val in zip(table_points, values):
        if val == 0:
            continue
        ind = m_const(1, nv)
        for i, ai in enumerate(a):
            # (x_i - a_i)^(p-1)
            base = m_add(m_var(i, nv), m_const(-ai % p, nv), p)
            powr = m_const(1, nv)
            for _ in range(p - 1):
                powr = m_mul(powr, base, p, reduce_exp)
            factor = m_add(m_const(1, nv), m_neg(powr, p), p)
            ind = m_mul(ind, factor, p, reduce_exp)
        out = m_add(out, m_scale(ind, val, p), p)
    return out
