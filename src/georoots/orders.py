"""Ideals, units, and narrow class groups of the two orders in Q(sqrt(D)).

For squarefree D = 1 (mod 4) the relevant orders are O1 = Z[sqrt(D)]
(discriminant 4D) and the maximal order O2 = Z[(1+sqrt(D))/2]
(discriminant D).  Primitive ideals are stored in Hermite normal form as a
pair (m, mu): the O1 ideal with Z-basis {m, mu + sqrt(D)}, or the O2 ideal
with Z-basis {m/2, (mu + sqrt(D))/2}.  Both require mu^2 = D (mod m); the
O2 shape additionally needs m and (D - mu^2)/m even.

Narrow (totally positive) equivalence is decided through the Zagier
cycles of the associated indefinite binary quadratic forms, whose closing
automorphs also give the units, so everything here terminates and is
exact.
"""

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd

from .arith import factorize, xgcd
from .forms import principal_form, zagier_cycle, zagier_cycles, zagier_reduce


class OrderTag(Enum):
    O1 = "O1"  # Z[sqrt(D)]
    O2 = "O2"  # Z[(1+sqrt(D))/2]


class OrderMismatch(ValueError):
    """An (m, mu) pair or ideal does not fit the requested order."""


def validate_discriminant(D: int):
    """Require squarefree D > 1 with D = 1 (mod 4)."""
    if D <= 1 or D % 4 != 1:
        raise ValueError("D must be a squarefree integer > 1 with D = 1 mod 4")
    if any(e > 1 for _, e in factorize(D)):
        raise ValueError("D must be squarefree")


def validate_negative_discriminant(D: int):
    """Require squarefree D < 0 with D = 1 (mod 4)."""
    if D >= 0 or D % 4 != 1:
        raise ValueError("D must be a squarefree integer < 0 with D = 1 mod 4")
    if any(e > 1 for _, e in factorize(-D)):
        raise ValueError("D must be squarefree")


def is_invertible(D: int, m: int, mu: int) -> bool:
    """Invertibility of the O1 ideal (m, mu + sqrt(D)).

    True iff m is odd or (D - mu^2)/m is odd.  The complementary roots
    (both quotient and m even) are exactly the ones belonging to O2.
    """
    if (mu * mu - D) % m:
        raise ValueError("mu^2 = D (mod m) violated")
    return m % 2 == 1 or ((D - mu * mu) // m) % 2 == 1


def fits_order(D: int, m: int, mu: int, order: OrderTag) -> bool:
    """Does the root (m, mu) present an ideal of the given order?

    O1 takes the invertible roots, O2 the rest; every root matches
    exactly one of the two.
    """
    inv = is_invertible(D, m, mu)
    return inv if order is OrderTag.O1 else not inv


def filter_reaches_order(D: int, order: OrderTag, n: int, nu: int) -> bool:
    """Does some root of the order meet the filter m = 0, mu = nu (mod n)?

    Needs nu^2 = D (mod n).  Always true for O1; for O2 true unless n is
    even and (D - nu^2)/n is odd.

    Proof.  Let n be even and (D - nu^2)/n odd, and let (m, mu) be a
    filtered root, mu = nu + k n.  Then (D - mu^2)/n =
    (D - nu^2)/n - 2 k nu - k^2 n is odd, and it equals
    (m/n) (D - mu^2)/m, so (D - mu^2)/m is odd and the root is of O1.
    In every other case the filter holds a root (m, mu) of the order:
    - O1, n odd: (n, nu), m odd.  O1, n even: (n 2^s, nu), 2^s the
      power of 2 in (D - nu^2)/n, so (D - nu^2)/(n 2^s) is odd.
    - O2, n even: (n, nu), with m and (D - nu^2)/n even.  O2, n odd:
      (2n, nu') for nu' the odd one of nu, nu + n; D = 1 (mod 4) makes
      D - nu'^2 a multiple of 4, and of n, so (D - nu'^2)/(2n) is even.
    These carriers are the witnesses of the termination proof in
    `geodesics.least_filtered_root`.
    """
    return order is OrderTag.O1 or n % 2 == 1 or (D - nu * nu) // n % 2 == 0


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


# ----------------------------------------------------------------------
# the root <-> form dictionary

def form_of_root(D: int, m: int, mu: int, order: OrderTag):
    """Binary quadratic form attached to a root, disc 4D (O1) or D (O2)."""
    if (mu * mu - D) % m:
        raise ValueError("mu^2 = D (mod m) violated")
    if order is OrderTag.O1:
        return (m, -2 * mu, (mu * mu - D) // m)
    if m % 2 or (mu * mu - D) % (2 * m):
        raise OrderMismatch("root does not fit O2")
    return (m // 2, -mu, (mu * mu - D) // (2 * m))


def root_of_form(f, mult: int):
    """The root (m, mu) of the form f = (a, b, c), a > 0: the inverse of
    `form_of_root`.  mult is 1 for disc 4D (b is even), giving
    (a, -b/2 mod a), and 2 for disc D, giving (2a, -b mod 2a)."""
    a, b, _ = f
    return mult * a, (-b * mult // 2) % (mult * a)


# ----------------------------------------------------------------------
# units

def totally_positive_fundamental_unit(D: int, order: OrderTag) -> tuple:
    """Smallest totally positive unit > 1 of the order (norm +1), as the
    reduced triple (a, b, c) with eps = (a + b sqrt(D))/c, c > 0 and
    gcd(a, b, c) = 1: (t, 2u, 2) (O1) or (t, u, 2) (O2) in lowest terms.

    Read off the Zagier cycle of the principal form (1, b, c) of
    discriminant Delta = 4D (O1) or D (O2) by the lemma below:
    eps = (t + u sqrt(Delta))/2 with t = tr E and u = |E_21|.

    Lemma.  Let f = (a, b, c) be any primitive form of discriminant
    Delta and E its closing automorph (`forms.zagier_cycle`), P the
    sector of f > 0 that holds the walk's bases.  Then E generates the
    automorphs of f that preserve P, E = A(eps)^(+-1), and
    eps = (tr E + |E_21 / a| sqrt(Delta))/2.

    Proof.  The proper automorphs of f are the +-A(t', u') =
    +-((t' - b u')/2, -c u'; a u', (t' + b u')/2) over the solutions of
    t'^2 - Delta u'^2 = 4, and A(t', u') -> (t' + u' sqrt(Delta))/2 is
    an isomorphism onto the norm +1 units of the order of discriminant
    Delta.  Those units are +-eps^Z; eps > 0 with norm +1 is totally
    positive, and every totally positive unit has norm +1, so the
    positive ones, eps^Z, are the totally positive units.  A(t', u')
    with t' > 0 has eigenvalues eps^j > 0 and eps^-j > 0 along the two
    null lines of f, so it maps each of the opposite sectors +-P where
    f > 0 to itself, while -1 swaps them: the automorphs that preserve P
    are exactly A(eps)^Z.  E preserves f and P (`forms.zagier_cycle`),
    and E != 1 because the cones of one cycle are disjoint, so
    E = A(eps)^j with j != 0.  A(eps)^(+-1), oriented along the walk,
    maps the walk's bases to bases of reduced forms inside P, hence onto
    the walk's bases shifted by some i >= 1 (the walk lists the boundary
    lattice points of the convex hull of P, which any P-preserving
    automorph keeps in order), and since f o A U_0 = f o U_0 = g_0 the
    walk is back at g_0 after i steps, so K <= i.  E shifts by K = |j| i
    steps, so |j| = 1: E = A(eps)^(+-1) = A(t, +-u) with
    eps = (t + u sqrt(Delta))/2, so t = tr E and a u = |E_21|, and eps
    is the root > 1 of x^2 - (tr E) x + 1.  The solution (t, u) of
    t^2 - Delta u^2 = 4 read here is then the least one with t, u > 0.
    """
    delta = 4 * D if order is OrderTag.O1 else D
    _, _, E = zagier_cycle(principal_form(delta))
    t, u = E[0] + E[3], abs(E[2])
    b = 2 * u if order is OrderTag.O1 else u
    g = gcd(gcd(t, b), 2)
    return t // g, b // g, 2 // g


def unit_str(D: int, eps: tuple) -> str:
    """A unit eps = (a, b, c) > 1 (so a, b > 0) as 'a + b*sqrt(D)', or
    '(a + b*sqrt(D))/c' when c > 1."""
    a, b, c = eps
    core = f"{a} + {b}*sqrt({D})"
    return core if c == 1 else f"({core})/{c}"


@dataclass(frozen=True)
class UnitData:
    eps1: tuple  # (a, b, c) of `totally_positive_fundamental_unit`
    eps2: tuple
    relation: str  # "Equal" or "Cube"


def unit_relation(D: int) -> UnitData:
    """Compare the totally positive fundamental units of the two orders.

    Both are reduced triples, so eps1 = eps2 is tuple equality, and
    eps2^3 = ((a^3 + 3 a b^2 D) + (3 a^2 b + b^3 D) sqrt(D))/c^3 equals
    eps1 exactly when both parts agree after clearing denominators."""
    validate_discriminant(D)
    e1 = totally_positive_fundamental_unit(D, OrderTag.O1)
    e2 = totally_positive_fundamental_unit(D, OrderTag.O2)
    if e1 == e2:
        return UnitData(e1, e2, "Equal")
    (a1, b1, c1), (a, b, c) = e1, e2
    if (c1 * (a**3 + 3 * a * b * b * D) == a1 * c**3
            and c1 * (3 * a * a * b + b**3 * D) == b1 * c**3):
        if D % 8 != 5:
            raise RuntimeError("cube relation outside D = 5 mod 8 (unit bug)")
        return UnitData(e1, e2, "Cube")
    raise RuntimeError(f"units of D={D} satisfy neither relation (unit bug)")


# ----------------------------------------------------------------------
# narrow class groups

@dataclass(frozen=True, eq=False)
class NarrowClassGroup:
    D: int
    order: OrderTag
    reps: tuple  # IdealHNF per class; reps[0] is the unit ideal
    h_plus: int
    _form_class: dict  # reduced form -> class index

    def class_of_form(self, f) -> int:
        try:
            return self._form_class[zagier_reduce(f)[1]]
        except KeyError:
            raise ValueError(f"form {f} is not primitive of the right disc")

    def class_of_root(self, m: int, mu: int) -> int:
        return self.class_of_form(form_of_root(self.D, m, mu, self.order))


def narrow_class_group(D: int, order: OrderTag) -> NarrowClassGroup:
    """Representatives and membership test for the narrow class group.

    Classes are the Zagier cycles of primitive indefinite forms of
    discriminant 4D (O1) or D (O2) (`forms.zagier_cycle`).  Each rep is
    the lexicographically smallest root (m, mu) of the order in its
    class, and the classes are numbered in the order of their reps, so
    reps[0] is always the unit ideal.

    The rep is read off the cycle: it is the least (m, mu) = (a, -b/2
    mod a) (O1) or (2a, -b mod 2a) (O2) over the cycle's forms (a, b, c).
    The roots of a class are those of the forms f o U, U in SL(2, Z),
    whose first coefficient f(u) is positive, u the first column of U;
    up to the sign of U, u is a primitive lattice point of the sector P
    of f > 0 that holds the cycle's bases, and m = f(u) (O1) or 2 f(u)
    (O2).  Let H be the convex hull of the nonzero lattice points of P.
    Its boundary is the chain of edges [u_i, u_{i+1}] through the walk's
    bases, whose lattice points are the u_i (`forms.zagier_cycle`), and
    f(u_i) is the first coefficient a_i of the cycle form g_i = f o U_i.
    sqrt(f) is concave on P (the geometric mean of the two linear
    factors of f, both positive there), so on each edge it is least at
    an end: f >= min a_i on the boundary.  A lattice point v of P off
    the boundary is interior to H, and 0 is not in H, so the ray from 0
    through v enters H at a boundary point w = v/t with t > 1, and
    f(v) = t^2 f(w) > f(w).  The least m of the class is therefore met,
    ties included, only at the u_i, whose roots are those of the g_i.
    """
    validate_discriminant(D)
    delta, mult = (4 * D, 1) if order is OrderTag.O1 else (D, 2)

    def least_root(cycle):
        return min(root_of_form(f, mult) for f in cycle)

    cycles = sorted(zagier_cycles(delta), key=least_root)
    reps = tuple(ideal_from_root(D, *least_root(c), order) for c in cycles)
    form_class = {f: i for i, cyc in enumerate(cycles) for f in cyc}
    return NarrowClassGroup(D, order, reps, len(cycles), form_class)
