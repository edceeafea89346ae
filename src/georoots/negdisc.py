"""Root orbits for negative discriminants.

For D < 0 a root (m, mu) pictures as the point mu/m + i sqrt(|D|)/m of
the upper half plane rather than as a geodesic, and the ideal classes of
the two orders become finitely many base points whose congruence-group
orbits sweep out exactly the root set.  Positive definite forms encode
the points exactly: a disc-4D form (a, b, c) sits at the point with
m = a, mu = -b/2 (the invertible-ideal roots, where m or (D - mu^2)/m is
odd), a disc-D form at the point with m = 2a, mu = -b (the rest).  The
sieve side is unchanged -- the local square-root solvers never look at
the sign of D.
"""

from . import InputError
from .forms import MAT_ID, MAT_S, reduced_forms_definite
from .geodesics import EnumerationResult, cone_roots
from .roots import (
    OrderTag,
    RootFilter,
    RootSequence,
    _sieve,
    first_n,
    validate_modulus_bound,
    validate_negative_discriminant,
)


def sieve_roots_neg(D: int, M: int,
                    filt: RootFilter = RootFilter()) -> RootSequence:
    """All filtered roots with modulus m <= M for negative D.

    Same sieve, ordering and classification as the positive case: the
    parity split (m or (D - mu^2)/m odd versus both even) still tells
    the two orders apart.
    """
    validate_negative_discriminant(D)
    return _sieve(D, M, filt)


def take_n_neg(D: int, N: int,
               filt: RootFilter = RootFilter()) -> RootSequence:
    """The first N filtered roots for negative D (ordered by modulus)."""
    validate_negative_discriminant(D)
    return first_n(D, N, filt)[0]


def class_forms(D: int, order: OrderTag) -> list:
    """One reduced positive definite form per ideal class of the order.

    Primitive forms of discriminant 4D are the invertible ideal classes
    of the order generated by sqrt(D); discriminant D (fundamental, so
    primitivity is automatic) gives the classes of the maximal order.
    """
    validate_negative_discriminant(D)
    delta = 4 * D if order is OrderTag.O1 else D
    return reduced_forms_definite(delta)


def enumerate_orbit_points(D: int, M: int, filt: RootFilter = RootFilter(),
                           budget: int = 10_000_000) -> EnumerationResult:
    """Every filtered orbit point of modulus at most M, exactly.

    The points of a class are the T-classes of its modular-group orbit:
    as for geodesics (see `geodesics.enumerate_tops`), the primitive v
    modulo the automorphs of the class form f, the point's modulus being
    f(v) (doubled on the disc-D side).  f is positive definite, so every
    v counts, and modulo +-1 the half-open cones of (e1, e2) and
    (e2, -e1) hold each class {v, -v} once.  Only the form (1, 1, 1) of
    disc -3 has more automorphs: (x, y) -> (-y, x + y), of order 6, takes
    the ray e1 to e2, e2 - e1 and -e1, so the cone (e1, e2) alone is a
    fundamental domain.  (Disc -4, the other such case, is not 4D or D
    for D = 1 mod 4.)  The filter then acts on each root; the level n
    never restricts v.  `cone_roots` reads off the points and counts the
    candidates against `budget`; `EnumerationResult.from_arrays` sorts
    the filtered roots by (m, mu) and drops repeats.  M < 1 or M >= 2^31
    raises InputError before any work, as in `enumerate_tops`.
    """
    validate_negative_discriminant(D)
    filt.validate_for(D)
    if M < 1:
        raise InputError("M must be >= 1")
    validate_modulus_bound(M)
    cones = []
    for order, mult in ((OrderTag.O1, 1), (OrderTag.O2, 2)):
        for f in class_forms(D, order):
            cones.append((f, MAT_ID, mult))
            if f != (1, 1, 1):
                cones.append((f, MAT_S, mult))
    ms, mus, visited = cone_roots(cones, M, 1, budget)
    keep = filt.accepts(ms, mus)
    return EnumerationResult.from_arrays(ms[keep], mus[keep], visited)

