"""Roots, units, and narrow class groups of the two orders in Q(sqrt(D)).

For squarefree D = 1 (mod 4) the relevant orders are O1 = Z[sqrt(D)]
(discriminant 4D) and the maximal order O2 = Z[(1+sqrt(D))/2]
(discriminant D).  A root (m, mu) of mu^2 = D (mod m) stands for the
primitive O1 ideal with Z-basis {m, mu + sqrt(D)} or, when m and
(D - mu^2)/m are both even, the O2 ideal with Z-basis
{m/2, (mu + sqrt(D))/2}; `form_of_root` gives the binary quadratic form
of that ideal, and everything here works with roots and forms.  Which
order a root belongs to is decided beside the root sequence, in `roots`
(`OrderTag`, `is_invertible`, `filter_reaches_order` and the
discriminant checks), and imported from there.

Narrow (totally positive) equivalence is decided through the Zagier
cycles of those forms, whose closing automorphs also give the units, so
everything here terminates and is exact.
"""

from math import gcd
from typing import NamedTuple

from .forms import principal_form, zagier_cycle, zagier_cycles
from .roots import OrderTag, validate_discriminant


class OrderMismatch(ValueError):
    """An (m, mu) pair or ideal does not fit the requested order."""


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
    m = mult * a
    return m, (-b * mult // 2) % m


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


class UnitData(NamedTuple):
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

def narrow_class_group(D: int, order: OrderTag) -> tuple:
    """The narrow classes of the order, as the sorted tuple of their least
    roots (m, mu), so the unit class's (1, 0) (O1) or (2, 1) (O2) comes
    first.

    Classes are the Zagier cycles of primitive indefinite forms of
    discriminant 4D (O1) or D (O2) (`forms.zagier_cycle`).

    The least root of a class, lexicographically, is read off its cycle:
    it is the least (m, mu) = (a, -b/2 mod a) (O1) or (2a, -b mod 2a)
    (O2) over the cycle's forms (a, b, c).  Distinct classes have
    distinct least roots, since a root gives one form, in one cycle.
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
    return tuple(sorted(min(root_of_form(f, mult) for f in cycle)
                        for cycle in zagier_cycles(delta)))
