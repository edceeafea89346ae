"""Reference implementations the tests compare the package against.

Each is the plain, obviously correct version of something the package
does faster or more generally: a step-by-step loop, a group-action
definition, a textbook reduction.  None of them is used by georoots.

The package holds a geodesic as the integral form whose roots are its
endpoints.  The endpoint layer here holds it as two exact QuadNum
endpoints instead (`Geodesic`), moves it by Mobius maps
(`apply_gamma`), reads its top off the endpoints (`top_of`) and its
pair invariants off their cross ratio (`cross_ratio_q`): an independent
check on every readout the package makes from forms.

The package reads a base geodesic's stabilizer and orbit cones off the
Zagier walk of its own form.  The unit layer here builds them from the
order's fundamental unit instead: the automorph A(t, u) of
eps = (t + u sqrt(Delta))/2 (`stabilizer_by_unit`), and a cone walk that
stops when it closes on that stabilizer (`cones_closing_on`).

The package holds an ideal as its root (m, mu) and its form, and decides
invertibility by the closed form of I conj(I) (`roots.is_invertible`).
The ideal layer here keeps ideals in Hermite normal form and multiplies
them (`IdealHNF`, `ideal_mul`), names the class of a root by reducing its
form into a cycle (`class_of_root`), and starts a base geodesic at a
filtered root of its class built as a carrier ideal of the filter times
an auxiliary ideal of coprime norm found by a bounded search
(`class_shift_representative`), where the package reads the least such
root off the class's Zagier cones.

The package runs extended Euclid only on arrays (`arith.xgcd_array`)
and writes the Gamma_0(n) coset copies in closed form
(`geodesics.extra_coset_copies`).  The scalar loop here (`xgcd`) is
the reference for both, and the ideal layer below runs it.

The package sums the H rows of the density in place, on runs of the
sorted grid (`density.H`).  The sum here evaluates each term's whole row
into fresh arrays, masks and all, and adds it to the total
(`H_row`, `omega_by_rows`).

Two helpers cut a root sequence the way the tests split their pools:
its first N roots (`head`) and the roots a mask selects (`subset`).
"""

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

import numpy as np

from georoots.arith import sqrt_mod
from georoots.csvio import fmt_cell, fmt_float
from georoots.density import (
    DomainError,
    _canon,
    _SigmaFrame,
    enumerate_coset_terms,
    kappa_and_vol,
)
from georoots.forms import (
    MAT_ID,
    MAT_S,
    MAT_T,
    disc,
    is_zagier_reduced,
    mat_det,
    mat_inv,
    mat_mul,
    zagier_cycles,
    zagier_reduce,
    zagier_step,
)
from georoots.orders import (
    OrderMismatch,
    form_of_root,
    narrow_class_group,
    totally_positive_fundamental_unit,
)
from georoots.roots import (
    OrderTag,
    RootSequence,
    filter_reaches_order,
    is_invertible,
)
from georoots.statistics import _WINDOW_EPS, Histogram, PairCorrResult
from quadnum import QuadNum


def head(seq: RootSequence, N: int) -> RootSequence:
    """The first N roots of seq."""
    return RootSequence(seq.D, seq.ms[:N], seq.mus[:N])


def subset(seq: RootSequence, keep) -> RootSequence:
    """The roots of seq selected by a boolean mask, order preserved."""
    keep = np.asarray(keep, dtype=bool)
    return RootSequence(seq.D, seq.ms[keep], seq.mus[keep])


@dataclass(frozen=True)
class TopPoint:
    """Top of a root geodesic, or for D < 0 the root's point: x = mu/m,
    imaginary part sqrt(|D|)/m."""

    x: Fraction
    m: int

    def root(self):
        mu = self.x * self.m
        return (self.m, int(mu) % self.m)


def point_of_root(D: int, m: int, mu: int) -> TopPoint:
    """The point x + i sqrt(|D|)/m of the root, x = mu/m."""
    if m < 1 or (mu * mu - D) % m:
        raise ValueError("mu^2 = D (mod m) violated")
    return TopPoint(Fraction(mu, m), m)


class NotRootGeodesic(ValueError):
    """Positively oriented geodesic whose top is not at a root of D."""


class SharedEndpoint(ValueError):
    """Cross-ratio of two geodesics with a common endpoint."""


@dataclass(frozen=True)
class Geodesic:
    """Oriented geodesic with exact endpoints; None stands for infinity."""

    D: int
    minus: QuadNum  # backward endpoint (or None)
    plus: QuadNum   # forward endpoint (or None)

    def __post_init__(self):
        if self.minus is not None and self.plus is not None \
                and self.minus == self.plus:
            raise ValueError("endpoints must be distinct")

    def is_positively_oriented(self) -> bool:
        return (self.minus is not None and self.plus is not None
                and self.minus < self.plus)

    def reversed(self) -> "Geodesic":
        return Geodesic(self.D, self.plus, self.minus)


def geodesic_from_root(D: int, m: int, mu: int) -> Geodesic:
    if (mu * mu - D) % m:
        raise ValueError("mu^2 = D (mod m) violated")
    return Geodesic(D, QuadNum(D, mu, -1, m), QuadNum(D, mu, 1, m))


def _mobius_endpoint(g, z, D):
    p, q, r, s = g
    if z is None:  # infinity
        if r == 0:
            return None
        return QuadNum.from_fraction(D, Fraction(p, r))
    den = z * r + s
    if den == 0:
        return None
    return (z * p + q) / den


def apply_gamma(g, c: Geodesic) -> Geodesic:
    """Exact Mobius image of a geodesic under the matrix g = (p, q, r, s)."""
    return Geodesic(c.D, _mobius_endpoint(g, c.minus, c.D),
                    _mobius_endpoint(g, c.plus, c.D))


def top_of(c: Geodesic):
    """TopPoint of a positively oriented root geodesic, else None.

    Returns None for vertical or right-to-left geodesics (no top in the
    convention used here); raises NotRootGeodesic when the geodesic has a
    top but it does not sit at mu/m + i sqrt(D)/m for a root (m, mu).
    """
    if not c.is_positively_oriented():
        return None
    half = (c.plus - c.minus) * Fraction(1, 2)
    if half.a != 0 or half.b != 1:
        raise NotRootGeodesic(f"half-width {half} is not sqrt(D)/m")
    m = half.c
    mid = (c.plus + c.minus) * Fraction(1, 2)
    if not mid.is_rational():
        raise NotRootGeodesic("top is not at a rational abscissa")
    x = mid.as_fraction()
    mu = x * m
    if mu.denominator != 1:
        raise NotRootGeodesic(f"mu = {mu} is not integral")
    if (int(mu) ** 2 - c.D) % m:
        raise NotRootGeodesic(f"({m}, {int(mu) % m}) is not a root of D={c.D}")
    return TopPoint(x, m)


def form_geodesic(D: int, f, mult: int) -> Geodesic:
    """The geodesic of a form (a, b, c) with a != 0, from the root
    (-b - s sqrt D)/(2a) to (-b + s sqrt D)/(2a), where disc f = s^2 D:
    s = 2 for mult 1 and s = 1 for mult 2."""
    a, b, _ = f
    s = 2 // mult
    return Geodesic(D, QuadNum(D, -b, -s, 2 * a), QuadNum(D, -b, s, 2 * a))


def _flavour_sign(c1, beta):
    """+1 when beta lands positive under the map sending c1 to the
    standard vertical geodesic (0 -> infinity), -1 when negative."""
    am, ap = c1.minus, c1.plus
    if am is None:                      # c1 runs from infinity down to ap
        return (ap - beta).sign()
    if ap is None:                      # c1 runs from am up to infinity
        return (beta - am).sign()
    t = (ap - am).sign()
    if beta is None:
        return -t
    return t * (beta - am).sign() * (ap - beta).sign()


def cross_ratio_q(c1, c2):
    """Pair invariant (q, sign) of two geodesics, exact over Q(sqrt D).

    q = (r+1)/(r-1) with r the cross ratio of the four endpoints
    (c2.plus, c1.minus; c2.minus, c1.plus); infinite endpoints are
    evaluated as limits.  |q| < 1 for crossing geodesics, |q| > 1 for
    disjoint ones; a shared endpoint would give q = +-1 and raises
    SharedEndpoint instead.  sign selects which H flavour the pair
    feeds: +1 when the backward endpoint of c2 lies on the positive
    side of c1.
    """
    v1 = c1.minus is None or c1.plus is None
    v2 = c2.minus is None or c2.plus is None
    if v1 and v2:
        raise SharedEndpoint("two vertical geodesics meet at infinity")
    num = [(c2.plus, c1.minus), (c2.minus, c1.plus)]
    den = [(c2.plus, c1.plus), (c2.minus, c1.minus)]
    num = [a - b for a, b in num if a is not None and b is not None]
    den = [a - b for a, b in den if a is not None and b is not None]
    rn = num[0] if len(num) == 1 else num[0] * num[1]
    rd = den[0] if len(den) == 1 else den[0] * den[1]
    if rn == 0 or rd == 0:
        raise SharedEndpoint("geodesics share an endpoint")
    r = rn / rd
    q = (r + 1) / (r - 1)
    sgn = _flavour_sign(c1, c2.minus)
    if sgn == 0:
        raise SharedEndpoint("backward endpoint lies on an endpoint of c1")
    return q, sgn


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


def automorph(f, t: int, u: int):
    """The proper automorph A(t, u) of f = (a, b, c) for a solution of
    t^2 - disc(f) u^2 = 4; it has determinant 1 and fixes f under the
    left action."""
    a, b, c = f
    if (t - b * u) % 2 or (t + b * u) % 2:
        raise ValueError("parity: t and b*u must agree mod 2")
    return ((t - b * u) // 2, -c * u, a * u, (t + b * u) // 2)


def stabilizer_by_unit(D: int, f, n: int = 1):
    """(sigma, j) of `geodesics.symmetry` for a form f of
    disc 4D or D, built from the order's totally positive fundamental
    unit eps = (t + u sqrt(disc f))/2: sigma = A(t, u) or its cube,
    whichever first lands in Gamma_0(n)."""
    order = OrderTag.O1 if disc(f) == 4 * D else OrderTag.O2
    a, b, c = totally_positive_fundamental_unit(D, order)
    s = 2 if order is OrderTag.O1 else 1     # disc f = s^2 D
    t, t_rem = divmod(2 * a, c)
    u, u_rem = divmod(2 * b, s * c)
    if t_rem or u_rem:
        raise RuntimeError(f"unit {(a, b, c)} gives no automorph of {f}")
    sigma = automorph(f, t, u)
    if mat_det(sigma) != 1:
        raise RuntimeError("stabilizer determinant is not 1")
    for j, g in ((1, sigma), (3, mat_pow(sigma, 3))):
        if g[2] % n == 0:
            return g, j
    raise RuntimeError(f"no power j in {{1,3}} of {sigma} lands in "
                       f"Gamma_0({n})")


def cones_closing_on(f, sigma):
    """Bases of the Zagier cones of f, stepping from zagier_reduce(f)
    until the next basis is sigma^(+-1) U_0; one period of sigma.  The
    walk returns to its first form once per cycle, so a third return
    without closing raises."""
    U, g0 = zagier_reduce(f)
    closers = {mat_mul(h, U) for h in (mat_inv(sigma), sigma)}
    g, cones, returns = g0, [U], 0
    while True:
        U, g = zagier_step(U, g)
        if U in closers:
            return cones
        returns += g == g0
        if returns == 3:
            raise RuntimeError(f"cone walk of {f} does not close on {sigma}")
        cones.append(U)


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


def class_reps_by_search(D: int, order: OrderTag):
    """(m, mu) of each narrow class's first root, walking the roots of the
    order by m, then mu, and placing each in its Zagier cycle; in the
    order the classes are met.  Every class has roots, so it ends."""
    delta = 4 * D if order is OrderTag.O1 else D
    cycles = zagier_cycles(delta)
    cycle_of = {f: i for i, cyc in enumerate(cycles) for f in cyc}
    found = {}
    m = 0
    while len(found) < len(cycles):
        m += 1
        for mu in sqrt_mod(D, m):
            if fits_order(D, m, mu, order):
                f = zagier_reduce(form_of_root(D, m, mu, order))[1]
                found.setdefault(cycle_of[f], (m, mu))
    return list(found.values())


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s a + t b (extended Euclid)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


# ----------------------------------------------------------------------
# the ideal layer: primitive ideals in Hermite normal form
#
# Primitive ideals are stored in Hermite normal form as a pair (m, mu):
# the O1 ideal with Z-basis {m, mu + sqrt(D)}, or the O2 ideal with
# Z-basis {m/2, (mu + sqrt(D))/2}.  Both require mu^2 = D (mod m); the O2
# shape additionally needs m and (D - mu^2)/m even.

def fits_order(D: int, m: int, mu: int, order: OrderTag) -> bool:
    """Does the root (m, mu) present an ideal of the given order?

    O1 takes the invertible roots, O2 the rest; every root matches
    exactly one of the two.
    """
    inv = is_invertible(D, m, mu)
    return inv if order is OrderTag.O1 else not inv


@dataclass(frozen=True)
class IdealHNF:
    """scalar times the primitive ideal with root (m, mu) in the order."""

    D: int
    order: OrderTag
    m: int
    mu: int
    scalar: Fraction = Fraction(1)

    def __post_init__(self):
        if self.m <= 0 or not 0 <= self.mu < self.m:
            raise ValueError("need m > 0 and 0 <= mu < m")
        if (self.mu * self.mu - self.D) % self.m:
            raise ValueError("mu^2 = D (mod m) violated")
        if self.scalar <= 0:
            raise ValueError("scalar must be positive")
        if self.order is OrderTag.O2:
            if self.m % 2 or ((self.D - self.mu * self.mu) // self.m) % 2:
                raise OrderMismatch(
                    "O2 ideals need m and (D - mu^2)/m both even")
        if not isinstance(self.scalar, Fraction):
            object.__setattr__(self, "scalar", Fraction(self.scalar))

    def norm(self) -> Fraction:
        base = self.m if self.order is OrderTag.O1 else Fraction(self.m, 2)
        return self.scalar**2 * base


def ideal_from_root(D: int, m: int, mu: int, order: OrderTag,
                    scalar=Fraction(1)) -> IdealHNF:
    return IdealHNF(D, order, m, mu % m, Fraction(scalar))


def ideal_conjugate(ideal: IdealHNF) -> IdealHNF:
    return IdealHNF(ideal.D, ideal.order, ideal.m, (-ideal.mu) % ideal.m,
                    ideal.scalar)


def _lattice_hnf(vecs):
    """HNF (a, 0), (x0, c) of the rank-2 sublattice of Z^2 spanned by vecs."""
    x0, c = 0, 0
    for x, y in vecs:
        if y == 0:
            continue
        if c == 0:
            x0, c = x, y
        else:
            g, s, t = xgcd(c, y)
            x0, c = s * x0 + t * x, g
    if c < 0:
        x0, c = -x0, -c
    a = 0
    for x, y in vecs:
        a = gcd(a, x - (y // c) * x0)
    a = abs(a)
    if a == 0 or c == 0:
        raise ValueError("vectors do not span a rank-2 lattice")
    return a, x0 % a, c


def ideal_mul(A: IdealHNF, B: IdealHNF) -> IdealHNF:
    """Product ideal, as scalar times a primitive HNF ideal.

    The product lattice is spanned by the four pairwise generator
    products; its HNF is read back into (scalar, m, mu) form.
    """
    if A.D != B.D:
        raise ValueError("mixed D")
    if A.order is not B.order:
        raise OrderMismatch("cannot multiply ideals of different orders")
    D = A.D
    mA, muA, mB, muB = A.m, A.mu, B.m, B.mu
    vecs = [
        (mA * mB, 0),
        (mA * muB, mA),
        (mB * muA, mB),
        (muA * muB + D, muA + muB),
    ]
    a, x0, c = _lattice_hnf(vecs)
    if a % c or x0 % c:
        raise RuntimeError("product lattice is not an ideal (bug)")
    m = a // c
    mu = (x0 // c) % m
    content = Fraction(c) if A.order is OrderTag.O1 else Fraction(c, 2)
    return IdealHNF(D, A.order, m, mu, A.scalar * B.scalar * content)


@functools.cache
def _class_index(D: int, order: OrderTag) -> dict:
    """Reduced form -> index of its class in `narrow_class_group`."""
    delta = 4 * D if order is OrderTag.O1 else D
    cycle_of = {f: cyc for cyc in zagier_cycles(delta) for f in cyc}
    index = {}
    for i, rep in enumerate(narrow_class_group(D, order)):
        f = zagier_reduce(form_of_root(D, *rep, order))[1]
        index.update(dict.fromkeys(cycle_of[f], i))
    return index


def class_of_root(D: int, order: OrderTag, m: int, mu: int) -> int:
    """Index in `narrow_class_group` of the narrow class of the root: the
    class whose least root's form reduces into the same Zagier cycle."""
    f = zagier_reduce(form_of_root(D, m, mu, order))[1]
    return _class_index(D, order)[f]


# ----------------------------------------------------------------------
# shifting a class representative into a congruence filter

_SEARCH_FACTOR = 50


class SearchExhausted(RuntimeError):
    """An auxiliary-ideal search ran past its bound without a hit."""


def _v2(n: int) -> int:
    return (n & -n).bit_length() - 1


def class_shift_representative(D: int, order: OrderTag, rep: tuple,
                               n: int, nu: int) -> IdealHNF:
    """An ideal narrowly equivalent to the root rep = (m, mu) whose root
    obeys the filter.

    Returns a primitive ideal of the order with root (m, mu) satisfying
    m = 0 (mod n) and mu = nu (mod n).  The construction multiplies a
    fixed ideal carrying the congruence by an auxiliary ideal of coprime
    norm from the class rep * (carrier)^-1; coprimality makes the product
    norm multiply and the two congruences combine by CRT.

    Raises OrderMismatch when no root of the order meets the filter
    (`filter_reaches_order`), and SearchExhausted if no auxiliary ideal
    of norm below 50*sqrt(D)*n works.
    """
    rep = ideal_from_root(D, *rep, order)
    if (nu * nu - D) % n:
        raise ValueError("nu^2 = D (mod n) violated")
    nu %= n
    if not filter_reaches_order(D, order, n, nu):
        raise OrderMismatch(
            f"no {order.value} root has m = 0 (mod n), mu = nu (mod n) "
            "when (D - nu^2)/n is odd")

    if order is OrderTag.O1:
        if n % 2 == 1 or ((D - nu * nu) // n) % 2 == 1:
            carrier = ideal_from_root(D, n, nu, OrderTag.O1)
        else:
            s = _v2((D - nu * nu) // n)
            nprime = n << s
            carrier = ideal_from_root(D, nprime, nu, OrderTag.O1)

        def admissible(m0, mu0):
            return gcd(m0, carrier.m) == 1 and is_invertible(D, m0, mu0)
    else:
        if n % 2 == 1:
            nu_odd = nu if nu % 2 else nu + n
            carrier = ideal_from_root(D, 2 * n, nu_odd, OrderTag.O2)

            def admissible(m0, mu0):
                return (m0 % 2 == 0 and gcd(m0 // 2, n) == 1
                        and not is_invertible(D, m0, mu0))
        else:
            carrier = ideal_from_root(D, n, nu, OrderTag.O2)

            def admissible(m0, mu0):
                return (m0 % 4 == 2 and gcd(m0 // 2, n // 2) == 1
                        and not is_invertible(D, m0, mu0))

    def class_of_ideal(ideal):
        return class_of_root(D, order, ideal.m, ideal.mu)

    target = class_of_ideal(ideal_mul(rep, ideal_conjugate(carrier)))
    bound = _SEARCH_FACTOR * isqrt(D) * max(1, n) + _SEARCH_FACTOR
    for m0 in range(1, bound + 1):
        for mu0 in sqrt_mod(D, m0):
            if not admissible(m0, mu0):
                continue
            if class_of_root(D, order, m0, mu0) != target:
                continue
            aux = ideal_from_root(D, m0, mu0, order)
            out = ideal_mul(aux, carrier)
            if (out.scalar != 1 or out.m % n
                    or (out.mu - nu) % n
                    or class_of_ideal(out) != class_of_ideal(rep)):
                raise RuntimeError("class shift postcondition failed (bug)")
            return out
    raise SearchExhausted(
        f"no auxiliary ideal below {bound} for D={D}, n={n}, nu={nu}")


def sigma_canonical(G, sig, sig_inv):
    """Unique representative of {sigma^t G}; see `density._canon`."""
    return _canon(G, _SigmaFrame(sig, sig_inv))


def _p1_normalize(c, d, n):
    """Canonical representative of the projective point (c : d) mod n."""
    if n == 1:
        return (0, 0)
    best = None
    for lam in range(1, n):
        if math.gcd(lam, n) != 1:
            continue
        cand = (lam * c % n, lam * d % n)
        if best is None or cand < best:
            best = cand
    return best


def gamma0_coset_transversal(n: int):
    """dict P1-point -> SL(2,Z) matrix whose coset realizes the point."""
    start = _p1_normalize(0, 1, n)
    reps = {start: MAT_ID}
    queue = [start]
    row = {start: (0, 1)}
    moves = [MAT_T, MAT_S, mat_inv(MAT_T), mat_inv(MAT_S)]
    while queue:
        pt = queue.pop()
        c, d = row[pt]
        g = reps[pt]
        for mv in moves:
            p, q, r, s = mv
            c2, d2 = c * p + d * r, c * q + d * s
            pt2 = _p1_normalize(c2, d2, n)
            if pt2 not in reps:
                reps[pt2] = mat_mul(g, mv)
                row[pt2] = (c2 % n, d2 % n) if n > 1 else (0, 1)
                queue.append(pt2)
    return reps


def _sign_canon(g):
    p, q, r, s = g
    if p < 0 or (p == 0 and q < 0):
        return (-p, -q, -r, -s)
    return g


def gamma0_generators(n: int):
    """Schreier generating set of Gamma_0(n) (with inverses), from the
    coset graph of the transversal under S and T."""
    reps = gamma0_coset_transversal(n)
    inv_reps = {pt: mat_inv(g) for pt, g in reps.items()}
    bottom = {pt: g[2:] for pt, g in reps.items()}
    gens = set()
    for pt, g in reps.items():
        c, d = bottom[pt]
        for mv in (MAT_T, MAT_S):
            p, q, r, s = mv
            pt2 = _p1_normalize(c * p + d * r, c * q + d * s, n)
            w = mat_mul(mat_mul(g, mv), inv_reps[pt2])
            if w[2] % n:
                raise RuntimeError("Schreier element escaped Gamma_0(n)")
            for cand in (w, mat_inv(w)):
                cand = _sign_canon(cand)
                if cand != MAT_ID:
                    gens.add(cand)
    return sorted(gens)


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


_BLOCK = 1 << 16


def pair_correlation_by_block(points, lo: float = 0.0, hi: float = 5.0,
                              bins: int = 100) -> PairCorrResult:
    """`statistics.pair_correlation`, materialising every pair of a block.

    Each block of _BLOCK sources lists all its (source, neighbour) pairs
    at once through np.repeat over the full integer translates of the
    point set, so its memory grows with the number of pairs.
    """
    ms = np.asarray(points.ms, dtype=np.int64)
    mus = np.asarray(points.mus, dtype=np.int64)
    xs = mus / ms
    order = np.argsort(xs)
    xs, ms, mus = xs[order], ms[order], mus[order]
    N = len(xs)
    if N < 2:
        raise ValueError("need at least two points")
    hist = Histogram(lo, hi, bins)
    if not (hi > lo) or bins < 1:
        return PairCorrResult(hist, N)

    width = (hi - lo) / bins
    wlo, whi = lo / N - _WINDOW_EPS, hi / N + _WINDOW_EPS
    # integer translates of the point set covering every window
    # [x + wlo, x + whi] with x in [0, 1)
    shifts = range(math.floor(wlo), math.floor(whi) + 2)
    xs_ext = np.concatenate([xs + k for k in shifts])
    ms_ext = np.tile(ms, len(shifts))
    mus_ext = np.concatenate([mus + k * ms for k in shifts])

    def do_block(b0):
        b1 = min(b0 + _BLOCK, N)
        src = np.arange(b0, b1)
        starts = np.searchsorted(xs_ext, xs[b0:b1] + wlo, side="left")
        ends = np.searchsorted(xs_ext, xs[b0:b1] + whi, side="left")
        counts = ends - starts
        total = int(counts.sum())
        if total == 0:
            return np.zeros(bins, dtype=np.int64)
        rep_src = np.repeat(src, counts)
        offs = np.arange(total) - np.repeat(
            np.concatenate([[0], np.cumsum(counts)[:-1]]), counts)
        tgt = np.repeat(starts, counts) + offs
        # x_i - x_j with i the found neighbor and j the block source
        num = mus_ext[tgt] * ms[rep_src] - mus[rep_src] * ms_ext[tgt]
        den = ms_ext[tgt] * ms[rep_src]
        delta = N * (num / den)
        idx = np.floor((delta - lo) / width)
        keep = (idx >= 0) & (idx < bins) & ((tgt % N) != rep_src)
        return np.bincount(idx[keep].astype(np.int64), minlength=bins)

    parts = [do_block(b) for b in range(0, N, _BLOCK)]
    hist.counts = np.sum(parts, axis=0, dtype=np.int64)
    return PairCorrResult(hist, N)


# ----------------------------------------------------------------------
# the density's H sum, one fresh row per term

def H_row(sign: int, q: float, v: np.ndarray) -> np.ndarray:
    """H_+ (sign > 0) or H_- (sign < 0) at q on an array of v: one term's
    row, with boolean masks over the whole array and a new array per
    step."""
    if abs(q) == 1.0:
        raise DomainError("|q| = 1")
    out = np.zeros_like(v)
    if q > 1.0:
        y = np.sqrt(v * v + q * q - 1.0)
        out[:] = np.log((q + y) * (q - math.sqrt(q * q - 1.0)))
        return out
    thr = math.sqrt(2.0 - 2.0 * q)
    if q < -1.0:
        mask = (np.abs(v) > thr) if sign < 0 else np.zeros(v.shape, bool)
    else:
        mask = (v > thr) if sign > 0 else (v < -thr)
    if mask.any():
        vm = v[mask]
        out[mask] = 2.0 * np.log(q + np.sqrt(vm * vm + q * q - 1.0))
    return out


def omega_by_rows(base, grid, q_max: float, mask=None, terms=None):
    """The values of `density.omega`, with the H sum as one H_row per
    term added to a zero total in the (q, sign, k, l) order."""
    grid = np.asarray(grid, dtype=np.float64)
    kappa, vol = kappa_and_vol(base, mask)
    if terms is None:
        terms, _ = enumerate_coset_terms(base, q_max, mask)
    total = np.zeros_like(grid)
    vk = grid / kappa
    for t in sorted(terms, key=lambda t: (t.q, t.sign, t.k, t.l)):
        total += H_row(t.sign, t.q, vk)
    total /= 2.0 * math.pi * vol * grid * grid
    edge = [t for t in terms if t.q >= q_max / 2]
    dens = len(edge) / (q_max / 2)
    total += dens / (8.0 * math.pi * vol * kappa * kappa * q_max)
    return total
