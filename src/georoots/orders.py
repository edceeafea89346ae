"""Ideals, units, and narrow class groups of the two orders in Q(sqrt(D)).

For squarefree D = 1 (mod 4) the relevant orders are O1 = Z[sqrt(D)]
(discriminant 4D) and the maximal order O2 = Z[(1+sqrt(D))/2]
(discriminant D).  Primitive ideals are stored in Hermite normal form as a
pair (m, mu): the O1 ideal with Z-basis {m, mu + sqrt(D)}, or the O2 ideal
with Z-basis {m/2, (mu + sqrt(D))/2}.  Both require mu^2 = D (mod m); the
O2 shape additionally needs m and (D - mu^2)/m even.

Narrow (totally positive) equivalence is decided through the reduction
cycles of the associated indefinite binary quadratic forms, so everything
here terminates and is exact.
"""

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, isqrt

from .arith import factorize, pell_fundamental, sqrt_mod, xgcd
from .forms import reduce_indefinite, reduction_cycles
from .quadnum import QuadNum


class OrderTag(Enum):
    O1 = "O1"  # Z[sqrt(D)]
    O2 = "O2"  # Z[(1+sqrt(D))/2]


class OrderMismatch(ValueError):
    """An (m, mu) pair or ideal does not fit the requested order."""


class SearchExhausted(RuntimeError):
    """An auxiliary-ideal search ran past its bound without a hit."""


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

    def basis_rows(self):
        """HNF rows over (sqrt(D), 1) for O1, ((1+sqrt(D))/2, 1) for O2."""
        if self.order is OrderTag.O1:
            return ((1, self.mu), (0, self.m))
        return ((1, (self.mu - 1) // 2), (0, self.m // 2))


def ideal_from_root(D: int, m: int, mu: int, order: OrderTag,
                    scalar=Fraction(1)) -> IdealHNF:
    return IdealHNF(D, order, m, mu % m, Fraction(scalar))


def root_from_ideal(ideal: IdealHNF) -> tuple:
    return (ideal.m, ideal.mu)


def unit_ideal(D: int, order: OrderTag) -> IdealHNF:
    if order is OrderTag.O1:
        return IdealHNF(D, order, 1, 0)
    return IdealHNF(D, order, 2, 1)


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


def root_of_form(D: int, f, order: OrderTag):
    """Inverse dictionary; requires positive leading coefficient."""
    a, b, _ = f
    if a <= 0:
        raise ValueError("need a > 0 to read off a root")
    if order is OrderTag.O1:
        if b % 2:
            raise ValueError("odd middle coefficient at discriminant 4D")
        m = a
        return m, (-b // 2) % m
    m = 2 * a
    return m, (-b) % m


# ----------------------------------------------------------------------
# units

def _icbrt(n: int) -> int:
    if n <= 0:
        return 0
    x = 1 << -(-n.bit_length() // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


def totally_positive_fundamental_unit(D: int, order: OrderTag) -> QuadNum:
    """Smallest totally positive unit > 1 of the order (norm +1).

    Built from the fundamental solution of x^2 - D y^2 = +-1.  For O2 a
    half-integral cube root (t + u sqrt(D))/2 of that unit is searched for
    directly -- its u-component is pinned by an exact cubic identity -- and
    verified by exact multiplication before being trusted.
    """
    x, y, n = pell_fundamental(D)
    u1 = QuadNum(D, x, y)
    if order is OrderTag.O2 and D % 8 == 5:
        u0 = _icbrt(2 * y // D)
        for u in range(max(1, u0 - 2), u0 + 4):
            if u % 2 == 0 or D * u**3 + 3 * n * u != 2 * y:
                continue
            t2 = D * u * u + 4 * n
            t = isqrt(t2)
            if t * t == t2 and t % 2 == 1:
                v = QuadNum(D, t, u, 2)
                if v**3 == u1:
                    return v * v if n == -1 else v
    return u1 * u1 if n == -1 else u1


@dataclass(frozen=True)
class UnitData:
    eps1: QuadNum
    eps2: QuadNum
    relation: str  # "Equal" or "Cube"


def unit_relation(D: int) -> UnitData:
    """Compare the totally positive fundamental units of the two orders."""
    validate_discriminant(D)
    e1 = totally_positive_fundamental_unit(D, OrderTag.O1)
    e2 = totally_positive_fundamental_unit(D, OrderTag.O2)
    if e1 == e2:
        return UnitData(e1, e2, "Equal")
    if e2**3 == e1:
        if D % 8 != 5:
            raise RuntimeError("cube relation outside D = 5 mod 8 (unit bug)")
        return UnitData(e1, e2, "Cube")
    raise RuntimeError(f"units of D={D} satisfy neither relation (unit bug)")


# ----------------------------------------------------------------------
# narrow class groups

_SEARCH_FACTOR = 50


@dataclass(frozen=True, eq=False)
class NarrowClassGroup:
    D: int
    order: OrderTag
    reps: tuple  # IdealHNF per class; reps[0] is the unit ideal
    h_plus: int
    _form_class: dict  # reduced form -> class index

    def class_of_form(self, f) -> int:
        try:
            return self._form_class[reduce_indefinite(f)]
        except KeyError:
            raise ValueError(f"form {f} is not primitive of the right disc")

    def class_of_root(self, m: int, mu: int) -> int:
        return self.class_of_form(form_of_root(self.D, m, mu, self.order))

    def class_of_ideal(self, ideal: IdealHNF) -> int:
        if ideal.order is not self.order or ideal.D != self.D:
            raise OrderMismatch("ideal belongs to a different group")
        return self.class_of_root(ideal.m, ideal.mu)


def narrow_class_group(D: int, order: OrderTag) -> NarrowClassGroup:
    """Representatives and membership test for the narrow class group.

    Classes are the reduction cycles of primitive indefinite forms of
    discriminant 4D (O1) or D (O2); each rep is the lexicographically
    smallest root (m, mu) of the order landing in its cycle, so reps[0]
    is always the unit ideal.
    """
    validate_discriminant(D)
    delta = 4 * D if order is OrderTag.O1 else D
    cycles = reduction_cycles(delta)
    cycle_of = {}
    for i, cyc in enumerate(cycles):
        for f in cyc:
            cycle_of[f] = i
    found: dict = {}
    order_of_discovery = []
    bound = _SEARCH_FACTOR * isqrt(D) + _SEARCH_FACTOR
    for m in range(1, bound + 1):
        for mu in sqrt_mod(D, m):
            if not fits_order(D, m, mu, order):
                continue
            i = cycle_of[reduce_indefinite(form_of_root(D, m, mu, order))]
            if i not in found:
                found[i] = ideal_from_root(D, m, mu, order)
                order_of_discovery.append(i)
        if len(found) == len(cycles):
            break
    else:
        raise SearchExhausted(
            f"class reps of D={D} not all found below {bound}")
    renumber = {old: new for new, old in enumerate(order_of_discovery)}
    reps = tuple(found[old] for old in order_of_discovery)
    form_class = {f: renumber[i] for f, i in cycle_of.items()}
    return NarrowClassGroup(D, order, reps, len(cycles), form_class)


# ----------------------------------------------------------------------
# shifting a class representative into a congruence filter

def _v2(n: int) -> int:
    return (n & -n).bit_length() - 1


def class_shift_representative(D: int, order: OrderTag, rep: IdealHNF,
                               n: int, nu: int,
                               group: NarrowClassGroup = None) -> IdealHNF:
    """An ideal narrowly equivalent to rep whose root obeys the filter.

    Returns a primitive ideal of the order with root (m, mu) satisfying
    m = 0 (mod n) and mu = nu (mod n).  The construction multiplies a
    fixed ideal carrying the congruence by an auxiliary ideal of coprime
    norm from the class rep * (carrier)^-1; coprimality makes the product
    norm multiply and the two congruences combine by CRT.

    Raises OrderMismatch for O2 when n is even but (D - nu^2)/n is odd:
    no root of the wider order meets that filter at all.  Raises
    SearchExhausted if no auxiliary ideal of norm below 50*sqrt(D)*n works.
    """
    if group is None:
        group = narrow_class_group(D, order)
    if rep.order is not order or rep.scalar != 1:
        raise ValueError("rep must be a primitive ideal of the given order")
    if (nu * nu - D) % n:
        raise ValueError("nu^2 = D (mod n) violated")
    nu %= n

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
            if ((D - nu * nu) // n) % 2 == 1:
                raise OrderMismatch(
                    "no O2 root has m = 0 (mod n), mu = nu (mod n) "
                    "when (D - nu^2)/n is odd")
            carrier = ideal_from_root(D, n, nu, OrderTag.O2)

            def admissible(m0, mu0):
                return (m0 % 4 == 2 and gcd(m0 // 2, n // 2) == 1
                        and not is_invertible(D, m0, mu0))

    target = group.class_of_ideal(ideal_mul(rep, ideal_conjugate(carrier)))
    bound = _SEARCH_FACTOR * isqrt(D) * max(1, n) + _SEARCH_FACTOR
    for m0 in range(1, bound + 1):
        for mu0 in sqrt_mod(D, m0):
            if not admissible(m0, mu0):
                continue
            if group.class_of_root(m0, mu0) != target:
                continue
            aux = ideal_from_root(D, m0, mu0, order)
            out = ideal_mul(aux, carrier)
            if (out.scalar != 1 or out.m % n
                    or (out.mu - nu) % n
                    or group.class_of_ideal(out) != group.class_of_ideal(rep)):
                raise RuntimeError("class shift postcondition failed (bug)")
            return out
    raise SearchExhausted(
        f"no auxiliary ideal below {bound} for D={D}, n={n}, nu={nu}")
