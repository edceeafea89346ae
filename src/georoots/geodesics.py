"""Closed geodesics attached to roots, their Gamma_0(n) orbits, and tops.

A root (m, mu) of mu^2 = D (mod m) gives the semicircle geodesic with
endpoints (mu -+ sqrt(D))/m; its highest point ("top") sits at
mu/m + i sqrt(D)/m, so the normalized root mu/m is read off a geodesic by
taking the top modulo horizontal integer translation.  A geodesic is
held as the integral binary quadratic form whose roots are its endpoints
(`orders.form_of_root`); matrices act on it by `forms.act`, and its top
is read back by `orders.root_of_form`.  This module makes the
correspondence executable in both directions: build base geodesics from
the narrow-class machinery, then enumerate every top of bounded modulus
in their Gamma_0(n) orbits exactly, as the primitive lattice points of
the Zagier-reduced cones of each base form.

One Zagier walk of a base form f (`forms.zagier_cycle`) gives both its
symmetry and its cones: the closing automorph E and -1 generate the
proper automorphs of f, so the Gamma_0(n) stabilizer is E^j for the
least j in {1, 3} that lands in Gamma_0(n) (`stabilizer_generator`),
and the walk's bases moved by E^0 .. E^(j-1) tile the positive sector
of f modulo that stabilizer (`zagier_cones`).  `base_geodesic_set` keeps
both on each `BaseGeodesic`, so each base form is walked once.
"""

import math
from dataclasses import dataclass

import numpy as np

from .arith import xgcd, xgcd_array
from .forms import MAT_ID, act, form_value, mat_mul, zagier_cycle
from .orders import (
    OrderTag,
    class_shift_representative,
    filter_reaches_order,
    form_of_root,
    narrow_class_group,
    root_of_form,
    unit_relation,
)
from .roots import RootFilter


class BudgetExceeded(RuntimeError):
    """Orbit search grew past its node budget before closing."""


# ----------------------------------------------------------------------
# stabilizers

def stabilizer_generator(f, n: int = 1):
    """Generator (sigma, j) of the Gamma_0(n) stabilizer of the geodesic
    of the primitive indefinite form f, up to sign.

    sigma = E^j for the automorph E that closes the Zagier cycle of f
    (`forms.zagier_cycle`), and j in {1, 3} is least with n | sigma_21.
    E = A(eps)^(+-1) for the totally positive fundamental unit eps of
    the order of discriminant disc f, and +-E^Z are all the proper
    automorphs of f (`orders.totally_positive_fundamental_unit`); they
    fix the geodesic, which runs between the roots of f.  So the
    stabilizer in Gamma_0(n) is +-E^(jZ) for the least j >= 1 with E^j
    in Gamma_0(n), and the geodesic's length in Gamma_0(n)\\H is
    2 j log(eps).  A j of 3 is least: E^2 in Gamma_0(n) would put
    E = E^3 E^-2 there too.  Any other j raises RuntimeError.
    """
    sigma, j, _ = _symmetry(f, n)
    return sigma, j


def _symmetry(f, n):
    """(sigma, j, cones): `stabilizer_generator(f, n)` and
    `zagier_cones(f, j)`, read off one Zagier walk of f."""
    _, bases, E = zagier_cycle(f)
    for j, g in ((1, E), (3, mat_mul(E, mat_mul(E, E)))):
        if g[2] % n == 0:
            return g, j, tuple(_periods(bases, E, j))
    raise RuntimeError(
        f"no stabilizer power j in {{1,3}} lands in Gamma_0({n}) "
        f"for the form {f}")


# ----------------------------------------------------------------------
# Gamma_0(n): cosets

def extra_coset_copies(n: int):
    """Matrices of Gamma_0(n/2), one in each right coset of Gamma_0(n)
    inside it other than Gamma_0(n) itself, for even n.

    With h = n/2 they are (u, -v, h, d) for u d + v h = 1 (xgcd(d, h)):
    d = 1 always, and d = 2 too when h is odd.  Proof: gamma' gamma^-1
    lies in Gamma_0(n) exactly when the bottom rows (c : d) of gamma and
    gamma' agree in P^1(Z/n), i.e. (c', d') = lambda (c, d) mod n for a
    unit lambda.  A matrix of Gamma_0(h) has c = 0 or h (mod n); c = 0 is
    the identity coset.  Every unit is odd, so lambda h = h (mod n), and
    the rows (h : d) with gcd(d, h) = 1 fall into the unit orbits of d
    mod n, which are told apart by gcd(d, n), a divisor of 2.  If h is
    even, d is odd and gcd(d, n) = 1: one coset, d = 1.  If h is odd,
    gcd(d, n) = 1 or 2 gives two, d = 1 and d = 2.  So the index
    [Gamma_0(h) : Gamma_0(n)] is 2 when 4 | n and 3 otherwise.
    """
    if n % 2:
        raise ValueError("n must be even")
    h = n // 2
    copies = []
    for d in (1, 2) if h % 2 else (1,):
        _, u, v = xgcd(d, h)
        copies.append((u, -v, h, d))
    return copies


# ----------------------------------------------------------------------
# the base set of geodesics for a congruence filter

@dataclass(frozen=True)
class BaseGeodesic:
    source: tuple          # ("I", k) or ("J", l): order side and class index
    m: int                 # root of the shifted class representative
    mu: int
    conjugator: tuple      # matrix (p, q, r, s)
    form: tuple            # conjugator applied to the form of (m, mu)
    stabilizer: tuple      # generates its Gamma_0(n) stabilizer, up to sign
    j_stab: int            # stabilizer realizes eps_order^j_stab
    length_mult: int       # geodesic length = 2 * length_mult * log(eps2)
    cones: tuple           # zagier_cones(form, j_stab), off the same walk

    @property
    def mult(self):
        """Modulus multiplier: a top with form coefficient a has root
        modulus mult * a (1 on the I side, disc 4D; 2 on the J side,
        disc D)."""
        return 1 if self.source[0] == "I" else 2


@dataclass(frozen=True, eq=False)
class BaseGeodesicSet:
    D: int
    n: int
    nu: int
    s: int                  # splitting number of the wider-order classes
    geodesics: tuple        # BaseGeodesic entries, I side first
    eps2: tuple             # (a, b, c): eps2 = (a + b sqrt(D))/c
    unit_relation: str      # "Equal" or "Cube"

    @property
    def h(self):
        return len(self.geodesics)

    def lengths(self):
        a, b, c = self.eps2
        le = 2.0 * math.log((a + b * self.D ** 0.5) / c)
        return [le * g.length_mult for g in self.geodesics]


def _splitting_number(D, n, relation):
    if n % 2 == 1:
        return 1
    if D % 8 == 5 and relation == "Cube" and n % 4 == 2:
        return 1
    if n % 4 == 0:
        return 2
    return 3


def base_geodesic_set(D: int, n: int = 1, nu: int = 0) -> BaseGeodesicSet:
    """One base geodesic per narrow class of each order, with the copies
    the congruence group demands for even n.

    The O1 side contributes h1 geodesics.  For odd n the O2 side
    contributes one geodesic per class; for even n it contributes s
    copies per class (s = 2 when 4 | n, else 3, except that a cube unit
    relation at n = 2 mod 4 folds the three copies into a single
    geodesic of tripled length), and none at all when (D - nu^2)/n is
    odd, since no root of the wider order satisfies such a filter
    (`orders.filter_reaches_order`).
    """
    filt = RootFilter(n, nu % n)
    filt.validate_for(D)
    nu %= n
    rel = unit_relation(D)
    cube = rel.relation == "Cube"
    geos = []

    g1 = narrow_class_group(D, OrderTag.O1)
    for k, rep in enumerate(g1.reps):
        shifted = class_shift_representative(D, OrderTag.O1, rep, n, nu, g1)
        m, mu = shifted.m, shifted.mu
        f = form_of_root(D, m, mu, OrderTag.O1)
        stab, j, cones = _symmetry(f, n)
        geos.append(BaseGeodesic(("I", k), m, mu, MAT_ID, f, stab, j,
                                 j * (3 if cube else 1), cones))

    s = _splitting_number(D, n, rel.relation)
    if filter_reaches_order(D, OrderTag.O2, n, nu):
        if n % 2 == 1 or s == 1:
            copies = [MAT_ID]
        else:
            copies = [MAT_ID] + extra_coset_copies(n)
        g2 = narrow_class_group(D, OrderTag.O2)
        for l, rep in enumerate(g2.reps):
            shifted = class_shift_representative(D, OrderTag.O2, rep, n, nu,
                                                 g2)
            m, mu = shifted.m, shifted.mu
            f = form_of_root(D, m, mu, OrderTag.O2)
            for conj in copies:
                fc = act(conj, f)
                stab, j, cones = _symmetry(fc, n)
                geos.append(BaseGeodesic(("J", l), m, mu, conj, fc, stab,
                                         j, j, cones))

    out = BaseGeodesicSet(D, n, nu, s, tuple(geos), rel.eps2, rel.relation)
    _check_base_tops(out, filt)
    return out


def _check_base_tops(base: BaseGeodesicSet, filt: RootFilter):
    """Every base geodesic with a top has its root in the filter, and its
    stabilizer fixes its form.

    The geodesic of a form (a, b, c) runs between its roots, from
    (-b - s sqrt D)/(2a) to (-b + s sqrt D)/(2a) for disc s^2 D, so it
    has a top exactly when a > 0, and the top's root is
    `orders.root_of_form`.  That readout is always a root, so a top
    cannot fail to sit at one.  At disc 4D, b is even and (m, mu) =
    (a, -b/2 mod a) has mu^2 - D = b^2/4 - D = ac.  At disc D, (m, mu) =
    (2a, -b mod 2a) has mu^2 - D = b^2 - D = 4ac, a multiple of m, and
    m and (D - mu^2)/m = -2c are both even, as the wider order asks.
    act(sigma, f) = f says that sigma fixes both roots of f, each in its
    place.
    """
    for g in base.geodesics:
        if g.form[0] > 0:
            m, mu = root_of_form(g.form, g.mult)
            if not filt.accepts(m, mu):
                raise RuntimeError(
                    f"base geodesic {g.source} top ({m},{mu}) violates "
                    f"{filt}")
        if act(g.stabilizer, g.form) != g.form:
            raise RuntimeError(f"stabilizer does not fix {g.source}")


# ----------------------------------------------------------------------
# orbit enumeration: every top of modulus <= M, exactly

@dataclass
class EnumerationResult:
    roots: set        # {(m, mu)}
    produced: int     # tops encountered, duplicates included
    duplicates: int   # produced - len(roots)
    visited: int      # candidates examined: lattice points of the cones

    @classmethod
    def from_arrays(cls, ms, mus, visited):
        roots = set(zip(ms.tolist(), mus.tolist()))
        return cls(roots, len(ms), len(ms) - len(roots), visited)


def enumerate_tops(base: BaseGeodesicSet, M: int,
                   budget: int = 10_000_000) -> EnumerationResult:
    """Every top of modulus at most M in the Gamma_0(n) orbits, exactly.

    Tops are lattice points.  For gamma = (p, q, r, s) in Gamma_0(n),
    act(gamma, f0)(x, y) = f0(x v + y w) with v = (s, -r), w = (-q, p)
    and det[v w] = 1: the state's leading coefficient is f0(v), its middle
    one the bilinear value B(v, w) = f0(v + w) - f0(v) - f0(w).  A left
    factor T^j keeps v and moves w by j v, so T-classes of states are
    bottom rows; gamma lies in Gamma_0(n) iff n | v_2, and every primitive
    v is a bottom row.  A right factor sigma (the stabilizer, which fixes
    f0) sends v to sigma* v, sigma* = (s', -q', -r', p'), and -gamma acts
    as gamma.  Since +-<sigma> is the whole stabilizer of f0 in
    Gamma_0(n), the states are the primitive v with n | v_2 modulo
    +-<sigma*>, each once, and the tops are those with f0(v) > 0.

    The v with f0(v) > 0 fill two opposite open sectors +-P between the
    irrational null lines of f0, swapped by -1.  `zagier_cones` tiles P
    modulo sigma* by unimodular cones (each base geodesic holds them as
    `cones`), and `cone_roots` reads off their primitive points; the
    proofs sit there.  Work is counted in
    candidates (lattice points of the cones); more than `budget` raises
    BudgetExceeded before the candidate arrays are built.
    """
    if M < 1:
        raise ValueError("M >= 1 required")
    cones = [(bg.form, U, bg.mult)
             for bg in base.geodesics for U in bg.cones]
    ms, mus, visited = cone_roots(cones, M, base.n, budget)
    return EnumerationResult.from_arrays(ms, mus, visited)


def zagier_cones(f, j):
    """Bases U_0 .. U_{jK-1} of the Zagier cones of f over j periods of
    its cycle, as matrices (p, q, r, s) with columns u_i = (p, r) and
    u_{i+1} = (q, s).

    f is primitive and indefinite with non-square discriminant.  The
    cones are those of the Zagier walk of `forms.zagier_cycle`: each
    g_i = f o U_i is reduced, hence positive on the closed quadrant, and
    the half-open cones {x u_i + y u_{i+1}: x > 0, y >= 0} of all i tile
    the sector P where f > 0.  One cycle of K reduced forms advances U by
    the closing automorph E, U_{i+tK} = E^t U_i, so the first j periods
    are the walk's K bases moved by E^0 .. E^(j-1).  They tile P modulo
    E^j, the stabilizer sigma of `stabilizer_generator`, and so modulo
    sigma* = sigma^-1 once.
    """
    _, bases, E = zagier_cycle(f)
    return _periods(bases, E, j)


def _periods(bases, E, j):
    """The bases of one period moved by E^0 .. E^(j-1)."""
    cones = list(bases)
    for _ in range(j - 1):
        bases = [mat_mul(E, U) for U in bases]
        cones += bases
    return cones


def cone_roots(cones, M, n, budget):
    """Roots (m, mu) of the primitive points of half-open lattice cones.

    Each cone is (f, U, mult): a form f, a basis U = (p, q, r, s) of det 1
    with columns u = (p, r), u' = (q, s) such that g = f o U = (A, B, C)
    is positive on the closed quadrant, and the modulus multiplier.  Its
    candidates are the (x, y) with x >= 1, y >= 0 and g(x, y) <= M//mult,
    a finite set because g >= c (x^2 + y^2) there for some c > 0.  The
    rows y run up to where the ellipse g <= M//mult ends (disc < 0) or
    where g(1, y) <= M//mult holds (disc > 0: positivity on the quadrant
    forces B > 0, so g increases in x).  In each row the admissible x form
    an interval (g is convex in x), taken from the float roots and then
    settled by exact int64 tests.  Their count is the work, checked
    against `budget` before the candidate arrays are built.  All cones
    are enumerated together, one array entry per row, then per candidate.

    A candidate gives v = x u + y u', primitive iff gcd(x, y) = 1 because
    U is unimodular; it is kept when also n | v_2.  Extended Euclid gives
    (x', y') with x y' - y x' = 1, hence w = x' u + y' u' with
    det[v w] = 1, and b = B(v, w) is the bilinear value of g at
    (x, y), (x', y').  The root is m = mult * g(x, y) with mu = (-b // 2)
    mod m for mult = 1 (disc 4D, b even) and -b mod m for mult = 2.
    Another w differs by a multiple of v and moves b by a multiple of
    2 g(x, y), which leaves mu alone.

    Returns (ms, mus, candidates), in cone order.
    """
    params, heights = [], []
    for f, (p, q, r, s), mult in cones:
        A, C = form_value(f, p, r), form_value(f, q, s)
        B = form_value(f, p + q, r + s) - A - C
        delta = B * B - 4 * A * C
        L = M // mult
        if delta < 0:   # rows where the ellipse g <= L is nonempty
            Y = math.isqrt(4 * A * L // -delta)
        else:           # rows where g(1, y) <= L
            dy = B * B - 4 * C * (A - L)
            Y = (math.isqrt(dy) - B) // (2 * C) if dy >= 0 else -1
        if Y >= 0:
            params.append((A, B, C, L, mult, r % n, s % n))
            heights.append(Y + 1)
    heights = np.array(heights, dtype=np.int64)
    cols = np.array(params, dtype=np.int64).reshape(-1, 7).T
    A, B, C, L, mult, rn, sn = (np.repeat(c, heights) for c in cols)
    y = np.arange(len(A)) - np.repeat(np.cumsum(heights) - heights, heights)

    rad = np.sqrt(np.maximum(4 * A * L + (B * B - 4 * A * C) * y * y, 0))
    lo = np.maximum(np.floor((-B * y - rad) / (2 * A)), 1).astype(np.int64)
    hi = np.floor((-B * y + rad) / (2 * A)).astype(np.int64) + 1
    while (bad := (lo <= hi) & ((A * lo + B * y) * lo + C * y * y > L)).any():
        lo += bad
    while (bad := (lo <= hi) & ((A * hi + B * y) * hi + C * y * y > L)).any():
        hi -= bad
    count = np.maximum(hi - lo + 1, 0)
    examined = int(count.sum())
    if examined > budget:
        raise BudgetExceeded(f"orbit enumeration needs {examined} "
                             f"candidates, budget {budget}")

    row = np.repeat(np.arange(len(count)), count)
    x = lo[row] + np.arange(examined) - (np.cumsum(count) - count)[row]
    y = y[row]
    if n > 1:
        keep = (x * rn[row] + y * sn[row]) % n == 0
        row, x, y = row[keep], x[keep], y[keep]
    one, sx, ty = xgcd_array(x, y)     # sx x + ty y = one
    keep = one == 1
    row, x, y = row[keep], x[keep], y[keep]
    x1, y1 = -ty[keep], sx[keep]       # x y1 - y x1 = 1
    A, B, C, mult = A[row], B[row], C[row], mult[row]
    m = mult * ((A * x + B * y) * x + C * y * y)
    b = 2 * A * x * x1 + B * (x * y1 + y * x1) + 2 * C * y * y1
    mu = np.where(mult == 1, (-b // 2) % m, -b % m)
    return m, mu, examined
