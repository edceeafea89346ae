"""Integer binary quadratic forms (a, b, c) and 2x2 integer matrices.

Forms are plain tuples so they can be hashed and pushed through searches
cheaply.  Matrices are tuples (p, q, r, s) read row-major.  The group
action used throughout is the *left* action

    (g . Q)(x, y) = Q(s x - q y, -r x + p y)       g = (p, q, r, s), det 1

under which the first root of Q (the solution w of Q(w,1)=0 carrying the
sign convention +sqrt(disc)) transforms as w -> (p w + q)/(r w + s).

Indefinite forms are reduced after Zagier.  `zagier_cycle` walks a
form's cycle of reduced forms once and returns the bases it walks and
the automorph E that closes it; E generates the automorphs of a
primitive form that preserve its positive sector.  Narrow classes,
units, the stabilizers of base geodesics and their orbit cones are all
read off that one walk.
"""

from math import gcd, isqrt

import numpy as np

Form = tuple  # (a, b, c)
Mat = tuple   # (p, q, r, s)

MAT_ID = (1, 0, 0, 1)
MAT_T = (1, 1, 0, 1)
MAT_S = (0, -1, 1, 0)


def mat_mul(g: Mat, h: Mat) -> Mat:
    return (g[0] * h[0] + g[1] * h[2], g[0] * h[1] + g[1] * h[3],
            g[2] * h[0] + g[3] * h[2], g[2] * h[1] + g[3] * h[3])


def mat_det(g: Mat) -> int:
    return g[0] * g[3] - g[1] * g[2]


def mat_inv(g: Mat) -> Mat:
    """Inverse of a determinant +-1 integer matrix."""
    d = mat_det(g)
    if d == 1:
        return (g[3], -g[1], -g[2], g[0])
    if d == -1:
        return (-g[3], g[1], g[2], -g[0])
    raise ValueError("matrix is not unimodular")


def disc(f: Form) -> int:
    a, b, c = f
    return b * b - 4 * a * c


def form_value(f: Form, x: int, y: int) -> int:
    a, b, c = f
    return a * x * x + b * x * y + c * y * y


def content(f: Form) -> int:
    return gcd(gcd(abs(f[0]), abs(f[1])), abs(f[2]))


def is_primitive(f: Form) -> bool:
    return content(f) == 1


def act(g: Mat, f: Form) -> Form:
    """Left action of det-1 g on f; disc is preserved."""
    p, q, r, s = g
    a, b, c = f
    a2 = a * s * s - b * s * r + c * r * r
    c2 = a * q * q - b * q * p + c * p * p
    mid = (a * (s - q) * (s - q) + b * (s - q) * (p - r)
           + c * (p - r) * (p - r))
    return (a2, mid - a2 - c2, c2)


def principal_form(delta: int) -> Form:
    if delta % 4 == 0:
        return (1, 0, -delta // 4)
    if delta % 4 == 1:
        return (1, 1, (1 - delta) // 4)
    raise ValueError("discriminant must be 0 or 1 mod 4")


# ----------------------------------------------------------------------
# indefinite reduction (positive non-square discriminant), after Zagier
#
# A basis U = (p, q, r, s) has columns u = (p, r), u' = (q, s), and
# g = f o U is the form g(x, y) = f(x u + y u'), i.e. act(mat_inv(U), f).

def is_zagier_reduced(f: Form) -> bool:
    """a > 0, c > 0 and b > a + c; then f > 0 on the closed quadrant."""
    a, b, c = f
    return a > 0 and c > 0 and b > a + c


def _isqrt_indefinite(delta: int) -> int:
    if delta <= 0 or isqrt(delta) ** 2 == delta:
        raise ValueError(f"discriminant {delta} is not positive non-square")
    return isqrt(delta)


def zagier_step(U: Mat, g: Form):
    """One Zagier step: the basis U (0, -1; 1, k) = (u', k u' - u) and
    the form g' = (C, 2Ck - B, Ck^2 - Bk + A) of f in it, g = (A, B, C).

    In terms of the root w = (B + sqrt disc)/(2C) of C t^2 - B t + A it
    is w -> 1/(k - w) with k = ceil(w): the minus continued fraction.
    The quotient is irrational, so with rt = isqrt(disc) k is
    floor((B + rt)/(2C)) + 1 for C > 0 and -floor((B + rt)/(-2C)) for
    C < 0.  g reduced means w > 1 > w' > 0, i.e. 1 lies strictly between
    the two roots; then C' = C (k - w)(k - w') > 0 and
    B' - A' - C' = -C (k-1-w)(k-1-w') > 0 since w' < 1 <= k - 1 < w,
    so the step keeps g reduced.
    """
    A, B, C = g
    rt = _isqrt_indefinite(B * B - 4 * A * C)
    k = (B + rt) // (2 * C) + 1 if C > 0 else -((B + rt) // (-2 * C))
    return mat_mul(U, (0, -1, 1, k)), (C, 2 * C * k - B, (C * k - B) * k + A)


def zagier_reduce(f: Form):
    """(U, g): a basis U of det 1 with g = f o U Zagier-reduced.

    Takes the steps of `zagier_step` from U = 1 until g is reduced.  The
    minus continued fraction of a real quadratic irrational is eventually
    periodic, and its periodic part is exactly its reduced tail (Zagier,
    Nombres de classes et fractions continues, 1975), so this terminates
    for every f of positive non-square discriminant; other discriminants
    raise ValueError.

    Runs of quotient 2 are skipped in closed form.  With g = (A, B, C),
    w = (B + sqrt disc)/(2C) and its conjugate w', put x = 1/(w - 1) and
    x' = 1/(w' - 1), i.e. (B - 2C -+ sqrt disc)/(2(A - B + C)).  A step
    of quotient 2 is w -> 1/(2 - w), which is x -> x - 1, and likewise
    x' -> x' - 1 (the step is rational, so it commutes with conjugation).
    The quotient ceil(w) is 2 exactly when 1 < w < 2, i.e. x > 1, so from
    g the next floor(x) quotients are 2, and w stays above 1 for the
    floor(x) + 1 forms met on the way.  Reduced means w > 1 > w' > 0
    (`zagier_step`), and 0 < w' < 1 is x' < -1, so the i-th of those
    forms is reduced exactly when i >= floor(x') + 2.  The loop would
    therefore take the next s = min(floor(x), floor(x') + 2) steps with
    quotient 2 and without stopping, and they compose to the basis
    change P^s = (1 - s, -s; s, 1 + s), P = (0, -1; 1, 2).  Both floors
    are exact: sqrt disc is irrational, so floor(y -+ sqrt disc) is
    y - isqrt(disc) - 1 or y + isqrt(disc) for integer y.

    After a skip the walk has stopped or its next quotient is at least 3,
    so it takes at most two loop turns per quotient other than 2; those
    quotients stand for every second partial quotient of the ordinary
    continued fraction of w (whose other partial quotients are the run
    lengths), so the turns are logarithmic in the coefficients, as for
    Gauss reduction: act(P^N, (1, 1, -1)) takes at most three for any N.
    """
    rt = _isqrt_indefinite(disc(f))
    U = MAT_ID
    while not is_zagier_reduced(f):
        A, B, C = f
        p, q = B - 2 * C, 2 * (A - B + C)
        if q > 0:
            fx, fx1 = (p - rt - 1) // q, (p + rt) // q
        else:
            fx, fx1 = (rt - p) // -q, (-p - rt - 1) // -q
        s = min(fx, fx1 + 2)
        if s >= 2:
            U = mat_mul(U, (1 - s, -s, s, 1 + s))
            f = act((1 + s, s, -s, 1 - s), f)
        else:
            U, f = zagier_step(U, f)
    return U, f


def zagier_cycle(f: Form):
    """(cycle, bases, E): the reduced forms g_0 .. g_{K-1} met by stepping
    from (U_0, g_0) = zagier_reduce(f) until g_K = g_0, their bases
    U_0 .. U_{K-1} (g_i = f o U_i), and the automorph E = U_K U_0^-1 of f
    (f o E = f) that closes the cycle.

    Let P be the open sector of f > 0 that holds the cone of U_0 (a
    reduced g is positive on the closed quadrant).  The bases U_i,
    i in Z (stepping backwards too), tile P: consecutive cones share the
    ray u_{i+1} and turn the same way (det 1), so the half-open cones
    {x u_i + y u_{i+1}: x > 0, y >= 0} are disjoint; E preserves f and
    maps a vector of P into P, hence P onto P, and U_{i+K} = E U_i since
    each step depends only on g_i; E has positive eigenvalues on the
    null lines of f, so its powers carry the cones of one period to the
    two null lines and the union is all of P.  The u_i therefore list, in
    order, the nonzero lattice points on the boundary of the convex hull
    of P and the lattice (k >= 2 makes the polygon convex, det 1 leaves
    no lattice point between u_i and u_{i+1}, and every lattice point of
    a cone is a nonnegative combination of its edges).  So the walk from
    any reduced basis inside P visits the same bases, and two reduced
    forms are equivalent under SL(2, Z) exactly when they lie on one
    cycle: the cycles of `zagier_cycles` are the proper classes.  For a
    primitive f, E generates the automorphs of f that preserve P
    (`orders.totally_positive_fundamental_unit`).
    """
    U0, g0 = zagier_reduce(f)
    cycle, bases, U, g = [g0], [U0], U0, g0
    while True:
        U, g = zagier_step(U, g)
        if g == g0:
            return tuple(cycle), tuple(bases), mat_mul(U, mat_inv(U0))
        cycle.append(g)
        bases.append(U)


def zagier_reduced_forms(delta: int):
    """All primitive Zagier-reduced forms of discriminant delta, sorted.

    Write b = a + c + k with k >= 1 and d = a - c, s = a + c, so that
    delta = d^2 + 2ks + k^2.  Then k and |d| are below sqrt(delta), and
    each pair (k, d) with 2k | delta - k^2 - d^2 fixes s; a, c > 0 asks
    s > |d| and s = d (mod 2).  That examines O(delta) candidates.
    """
    rt = _isqrt_indefinite(delta)
    d = np.arange(-rt, rt + 1, dtype=np.int64)
    out = []
    for k in range(1, rt + 1):
        num = delta - k * k - d * d
        s = num // (2 * k)
        ok = (num % (2 * k) == 0) & (s > np.abs(d)) & ((s - d) % 2 == 0)
        a, c = (s[ok] + d[ok]) // 2, (s[ok] - d[ok]) // 2
        out += [(x, x + y + k, y) for x, y in zip(a.tolist(), c.tolist())
                if gcd(gcd(x, y), k) == 1]
    return sorted(out)


def zagier_cycles(delta: int):
    """Partition of the primitive reduced forms of disc delta into cycles."""
    remaining = set(zagier_reduced_forms(delta))
    cycles = []
    while remaining:
        cycle, _, _ = zagier_cycle(min(remaining))
        cycles.append(cycle)
        remaining -= set(cycle)
    return cycles


# ----------------------------------------------------------------------
# definite reduction (negative discriminant, positive definite a > 0)

def reduced_forms_definite(delta: int):
    """The primitive reduced positive definite forms of discriminant
    delta < 0."""
    if delta >= 0:
        raise ValueError("discriminant must be negative")
    out = []
    a = 1
    while 3 * a * a <= -delta:
        for b in range(-a + 1, a + 1):
            num = b * b - delta
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            f = (a, b, c)
            if not is_primitive(f):
                continue
            out.append(f)
        a += 1
    return sorted(out)
