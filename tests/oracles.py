"""Reference implementations the tests compare the package against.

Each is the plain, obviously correct version of something the package
does faster or more generally: a step-by-step loop, a group-action
definition, a textbook reduction.  None of them is used by georoots.
"""

import json
from fractions import Fraction

from georoots.csvio import fmt_cell, fmt_float
from georoots.density import _canon, _SigmaFrame
from georoots.forms import (
    MAT_ID,
    disc,
    is_zagier_reduced,
    mat_inv,
    mat_mul,
    zagier_step,
)


def mat_pow(g, k):
    """g^k for any integer k, by repeated squaring."""
    if k < 0:
        return mat_pow(mat_inv(g), -k)
    out = MAT_ID
    while k:
        if k & 1:
            out = mat_mul(out, g)
        g = mat_mul(g, g)
        k >>= 1
    return out


def tshift(f, j):
    """Apply T^j:  (a, b, c) -> (a, b - 2aj, a j^2 - b j + c)."""
    a, b, c = f
    return (a, b - 2 * a * j, a * j * j - b * j + c)


def tshift_canonical(f):
    """Unique T-orbit representative with b in (-|a|, |a|]."""
    a, b, c = f
    if a == 0:
        raise ValueError("degenerate form (a=0)")
    bstar = abs(a) - (abs(a) - b) % (2 * abs(a))
    return tshift(f, (b - bstar) // (2 * a))


def mobius_apply(g, x):
    """The fractional-linear map (p x + q)/(r x + s) on a QuadNum x."""
    p, q, r, s = g
    return (x * p + q) / (x * r + s)


def is_totally_positive(x):
    """Both real embeddings of the QuadNum x are positive."""
    return x.sign() > 0 and x.conjugate().sign() > 0


def reduce_definite(f):
    """Gauss reduction of a positive definite form, step by step."""
    a, b, c = f
    if disc(f) >= 0 or a <= 0:
        raise ValueError("expected a positive definite form")
    while True:
        if a > c:
            a, b, c = c, -b, a
            continue
        if b <= -a or b > a:
            k = (a - b) // (2 * a)
            a, b, c = a, b + 2 * a * k, a * k * k + b * k + c
            continue
        break
    if (a == c and b < 0) or b == -a:
        b = -b
    return (a, b, c)


def is_reduced_definite(f):
    a, b, c = f
    return -a < b <= a <= c and not (a == c and b < 0)


def zagier_reduce_stepwise(f):
    """(U, g) of `forms.zagier_reduce`, one Zagier step at a time."""
    U = MAT_ID
    while not is_zagier_reduced(f):
        U, f = zagier_step(U, f)
    return U, f


def sigma_canonical(G, sig, sig_inv):
    """Unique representative of {sigma^t G}; see `density._canon`."""
    return _canon(G, _SigmaFrame(sig, sig_inv))


def form_pair_q(f1, s1, f2, s2, D):
    """q of two form-geodesics, exactly: (b1 b2 - 2 a1 c2 - 2 a2 c1)/(s1 s2 D).

    s_i is the sqrt-scale of the form's discriminant: disc = (s_i)^2 D.
    Orientation-sensitive: replacing a form by its negative negates q.
    """
    a1, b1, c1 = f1
    a2, b2, c2 = f2
    return Fraction(b1 * b2 - 2 * a1 * c2 - 2 * a2 * c1, s1 * s2 * D)


def table_rows(data):
    """The rows of a table given as columns, cells as Python values."""
    return zip(*(c.tolist() if hasattr(c, "tolist") else list(c)
                 for c in data))


def write_csv_by_cell(stream, meta, columns, data):
    """`csvio.write_csv`, one row and one `fmt_cell` call at a time."""
    for k, v in meta.items():
        stream.write(f"# {k} = {fmt_cell(v)}\n")
    stream.write(",".join(columns) + "\n")
    for row in table_rows(data):
        stream.write(",".join(fmt_cell(c) for c in row) + "\n")


def write_json_by_cell(stream, meta, columns, data):
    """`csvio.write_json`, rounding each float cell through `fmt_float`."""
    def value(x):
        if isinstance(x, float):
            return float(fmt_float(x))
        if isinstance(x, (list, tuple)):
            return [value(v) for v in x]
        return x

    doc = {"meta": {k: value(v) for k, v in meta.items()},
           "columns": list(columns),
           "rows": [[value(c) for c in row] for row in table_rows(data)]}
    json.dump(doc, stream)
    stream.write("\n")
