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
    OrderMismatch,
    form_of_root,
    narrow_class_group,
    root_of_form,
    unit_relation,
)
from .roots import OrderTag, RootFilter, filter_reaches_order


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


def _splitting_number(n, relation):
    """The number s of Gamma_0(n)-orbits that the Gamma_0(n/2)-orbit of an
    O2 base form splits into: 1 for odd n, 2 when 4 | n, and for
    n = 2 (mod 4) 3, or 1 under the cube unit relation, in which case
    that orbit's stabilizer is E^3 and its geodesic is three times as
    long.  relation is `orders.unit_relation`'s.

    Proof.  Let n be even, h = n/2, and f = (a, b, c) an O2 base form
    (disc D) whose root (2a, -b mod 2a) meets the filter, so h | a.
    Gamma_0(h) keeps the filter: act(gamma, f) is f o U with U =
    gamma^-1 = (p, q, r, s), h | r, whose first coefficient
    a p^2 + b p r + c r^2 is a multiple of h, and whose middle one
    b + 2a p q + 2b q r + 2c r s is b (mod n), as n | 2a and n | 2r.  So
    the copies act(g, f), one g per right coset of Gamma_0(n) in
    Gamma_0(h) (the identity and `extra_coset_copies`), all meet the
    filter.  The proper automorphs of f are +-E^Z (`stabilizer_generator`),
    so act(g', f) lies in the Gamma_0(n)-orbit of act(g, f) exactly when
    Gamma_0(n) g' = Gamma_0(n) g E^i for some i: the copies fall into the
    orbits of E acting on the cosets by right multiplication, and the
    copy of a coset whose orbit has size k has the Gamma_0(n)-stabilizer
    +-(g E^k g^-1)^Z, so j = k and its length is k times that of f.
    E = +-((t - b u)/2, -c u; a u, (t + b u)/2) up to inverse, for
    eps2 = (t + u sqrt(D))/2 (`orders.totally_positive_fundamental_unit`),
    so h | E_21 and E lies in Gamma_0(h).
    - Parity.  If t is even, t^2 - D u^2 = 4 makes u even, so eps2 lies
      in Z[sqrt(D)] (the relation is Equal), E_12 and E_21 are even,
      and det E = 1 makes E = 1 (mod 2).  If t is odd, so is u, eps2 is
      not in Z[sqrt(D)], and the relation is Cube (`orders.unit_relation`).
    - 4 | n.  For D = 5 (mod 8) an O2 root (m, mu) has mu odd, so
      D - mu^2 = 4 (mod 8), and (D - mu^2)/m even leaves m = 2 (mod 4):
      no O2 root meets the filter.  So D = 1 (mod 8), and there
      t^2 - D u^2 = 4 has t and u even, so n = 2h | a u and E lies in
      Gamma_0(n).  That subgroup has index 2 in Gamma_0(h), hence is
      normal, so E fixes both cosets: s = 2.
    - n = 2 (mod 4).  h is odd, so Gamma_0(n) is Gamma_0(h) intersected
      with Gamma_0(2), and reduction mod 2 maps Gamma_0(h) onto
      SL(2, Z/2) (SL(2, Z) maps onto SL(2, Z/h) x SL(2, Z/2)).  The three
      cosets are those of the upper triangular subgroup B of order 2,
      and E acts through E mod 2.  Under Equal, E = 1 (mod 2) fixes all
      three: s = 3, each with j = 1.  Under Cube, E mod 2 has trace 1,
      so it has order 3 (x^2 + x + 1 divides x^3 - 1 over Z/2), and it
      fixes no coset, since B g E = B g would put g E g^-1 in B, of
      order 2: it permutes the three cyclically, s = 1, and j = 3.

    That the filtered roots of one class are the tops of a single
    Gamma_0(h)-orbit (of a single Gamma_0(n)-orbit on the O1 side) is
    not proved here; tier-1 checks it as orbit = sieve.
    """
    if n % 2 == 1:
        return 1
    if n % 4 == 0:
        return 2
    return 1 if relation == "Cube" else 3


# ----------------------------------------------------------------------
# the base set of geodesics for a congruence filter

@dataclass(frozen=True)
class BaseGeodesic:
    source: tuple          # ("I", k) or ("J", l): order side and class index
    m: int                 # least root of its class that meets the filter
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

    def lengths(self):
        a, b, c = self.eps2
        le = 2.0 * log_surd(a, b, self.D ** 0.5, c)
        return [le * g.length_mult for g in self.geodesics]


def log_surd(a: int, b: int, root: float, c) -> float:
    """log((a + b sqrt d) / c) for integers a >= b >= 0 of any size,
    given root = sqrt d as a float.

    With k = max(bit_length(a) - 1000, 0) it is the float expression
    log(((a >> k) + (b >> k) root) / c) + k log 2.  For a < 2^1000, k = 0
    and this is the plain expression, bit for bit (adding 0.0 changes no
    float).  For k > 0 no conversion overflows, since a >> k < 2^1001,
    and the shift moves the value by almost nothing: a >> k = floor(a /
    2^k) lies in (a/2^k - 1, a/2^k], and so does b >> k for b, so with
    S = a + b sqrt d, S' = (a >> k) + (b >> k) sqrt d satisfies
    S/2^k - (1 + sqrt d) < S' <= S/2^k.  As S >= a >= 2^(999 + k), the
    relative error of S' 2^k is below (1 + sqrt d) 2^-999, and so is,
    up to a factor 2, the absolute error of the log: far below one ulp
    of a log of at least 999 log 2.
    """
    k = max(a.bit_length() - 1000, 0)
    return math.log(((a >> k) + (b >> k) * root) / c) + k * math.log(2.0)


def least_filtered_root(D: int, order: OrderTag, rep,
                        filt: RootFilter) -> tuple:
    """The least root (m, mu) of rep's narrow class of the order that
    meets the filter m = 0, mu = nu (mod n), lexicographically.

    rep is the class's least root (m0, mu0) (`orders.narrow_class_group`)
    and f its form.  The roots of the class are those of the
    primitive points u of the sector P of f > 0, with m = f(u) (O1) or
    2 f(u) (O2), and two points give the same root exactly when an
    automorph of f that preserves P, a power of the closing automorph E,
    moves one to the other (`narrow_class_group`, `enumerate_tops` at
    level 1).  The cones of one period tile P modulo E (`zagier_cones`),
    so `cone_roots` over them lists each root of the class with m <= M
    exactly once, and the least filtered one among them, when there is
    one, is the least in the class.  M starts at n m0 and doubles until
    there is one.

    Termination: the class K holds a filtered root.  Let C be the ideal
    of the filtered root (m_C, mu_C) that `roots.filter_reaches_order`'s
    proof builds.  It is invertible (in O1, m_C or (D - mu_C^2)/m_C is
    odd; O2 is the maximal order), and every prime of its norm N(C)
    divides n.  Let g be a primitive form of the class K [C]^-1; each
    primitive point u with g(u) > 0 gives an ideal A of that class with
    norm g(u).  g properly represents an integer prime to n (Cox, *Primes
    of the form x^2 + ny^2*, Lemma 2.25), and the proof picks the point
    u modulo n, so every point of u + n Z^2 has a value prime to n.
    That coset has primitive points in every open sector: for a basis
    (u, w) and integers r, c and d != 0, the point u + r d n (c u + d w)
    = (1 + r d n c) u + r d^2 n w is primitive, since each prime of
    r d n leaves 1 + r d n c = 1 modulo it, and its direction tends to
    c u + d w as r grows.  So some A has norm g(u) > 0 prime to n, hence
    to N(C).  Coprime norms give A + C = O, so A C is the intersection
    of A and C, and O/(A C) = Z/N(A) x Z/N(C) is cyclic: A C is
    primitive, of norm N(A) N(C), in the class K, and its root (m, mu)
    has m = N(A) m_C.  A C lies in C, and so does mu_C + sqrt(D) (O1),
    resp. (mu_C + sqrt(D))/2 (O2); the difference of that and mu + sqrt(D),
    resp. (mu + sqrt(D))/2, lies in C and in Z, which meet in N(C) Z, so
    mu = mu_C (mod m_C).  As n | m_C and mu_C = nu (mod n), A C meets
    the filter.

    Raises OrderMismatch when no root of the order meets the filter.
    """
    filt.validate_for(D)
    if not filter_reaches_order(D, order, filt.n, filt.nu):
        raise OrderMismatch(f"no {order.value} root of D={D} meets {filt}")
    mult = 1 if order is OrderTag.O1 else 2
    m0, mu0 = rep
    f = form_of_root(D, m0, mu0, order)
    cones = [(f, U, mult) for U in zagier_cones(f, 1)]
    M = filt.n * m0
    while True:
        ms, mus, _ = cone_roots(cones, M, 1, math.inf)
        keep = filt.accepts(ms, mus)
        if keep.any():
            return min(zip(ms[keep].tolist(), mus[keep].tolist()))
        M *= 2


def base_geodesic_set(D: int, n: int = 1, nu: int = 0) -> BaseGeodesicSet:
    """One base geodesic per narrow class of each order, with the copies
    the congruence group demands for even n.

    The O1 side contributes h1 geodesics.  For odd n the O2 side
    contributes one geodesic per class; for even n it contributes s
    copies per class (s = 2 when 4 | n, else 3, except that a cube unit
    relation at n = 2 mod 4 folds the three copies into a single
    geodesic of tripled length; proof in `_splitting_number`), and none
    at all when (D - nu^2)/n is odd, since no root of the wider order
    satisfies such a filter (`roots.filter_reaches_order`).  Each class
    starts at its least filtered root (`least_filtered_root`).
    """
    filt = RootFilter(n, nu % n)
    filt.validate_for(D)
    nu %= n
    rel = unit_relation(D)
    cube = rel.relation == "Cube"
    geos = []

    for k, rep in enumerate(narrow_class_group(D, OrderTag.O1)):
        m, mu = least_filtered_root(D, OrderTag.O1, rep, filt)
        f = form_of_root(D, m, mu, OrderTag.O1)
        stab, j, cones = _symmetry(f, n)
        geos.append(BaseGeodesic(("I", k), m, mu, MAT_ID, f, stab, j,
                                 j * (3 if cube else 1), cones))

    s = _splitting_number(n, rel.relation)
    if filter_reaches_order(D, OrderTag.O2, n, nu):
        if n % 2 == 1 or s == 1:
            copies = [MAT_ID]
        else:
            copies = [MAT_ID] + extra_coset_copies(n)
        for l, rep in enumerate(narrow_class_group(D, OrderTag.O2)):
            m, mu = least_filtered_root(D, OrderTag.O2, rep, filt)
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
