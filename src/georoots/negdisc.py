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

from dataclasses import dataclass
from fractions import Fraction

from .arith import SpfTable
from .forms import MAT_ID, act, reduced_forms_definite, tshift, tshift_canonical
from .geodesics import (
    BudgetExceeded,
    EnumerationResult,
    _window,
    gamma0_coset_transversal,
    gamma0_generators,
)
from .orders import OrderTag, validate_negative_discriminant
from .roots import RootFilter, RootSequence, _sieve, first_n


@dataclass(frozen=True)
class OrbitPoint:
    """Orbit point x + i sqrt(|D|)/m; x = mu/m encodes the root."""

    x: Fraction
    m: int

    def root(self):
        mu = self.x * self.m
        return (self.m, int(mu) % self.m)


def point_of_root(D: int, m: int, mu: int) -> OrbitPoint:
    if m < 1 or (mu * mu - D) % m:
        raise ValueError("mu^2 = D (mod m) violated")
    return OrbitPoint(Fraction(mu, m), m)


def sieve_roots_neg(D: int, M: int, filt: RootFilter = RootFilter(),
                    spf: SpfTable = None) -> RootSequence:
    """All filtered roots with modulus m <= M for negative D.

    Same sieve, ordering and classification as the positive case: the
    parity split (m or (D - mu^2)/m odd versus both even) still tells
    the two orders apart.
    """
    validate_negative_discriminant(D)
    return _sieve(D, M, filt, spf)


def take_n_neg(D: int, N: int, filt: RootFilter = RootFilter(),
               spf: SpfTable = None) -> RootSequence:
    """The first N filtered roots for negative D (ordered by modulus)."""
    validate_negative_discriminant(D)
    return first_n(D, N, filt, spf=spf)


def class_forms(D: int, order: OrderTag) -> list:
    """One reduced positive definite form per ideal class of the order.

    Primitive forms of discriminant 4D are the invertible ideal classes
    of the order generated by sqrt(D); discriminant D (fundamental, so
    primitivity is automatic) gives the classes of the maximal order.
    """
    validate_negative_discriminant(D)
    delta = 4 * D if order is OrderTag.O1 else D
    return reduced_forms_definite(delta)


def class_number_neg(D: int, order: OrderTag) -> int:
    return len(class_forms(D, order))


def enumerate_orbit_points(D: int, M: int, filt: RootFilter = RootFilter(),
                           safety: int = 4,
                           budget: int = 10_000_000) -> EnumerationResult:
    """Exact BFS over the congruence-group orbits of the class points.

    States are T-orbit-canonical definite forms; a state of modulus at
    most M (leading coefficient, doubled on the disc-D side) contributes
    its root if the filter accepts it.  For level n > 1 each class point
    is seeded through a full coset transversal, so the walk still covers
    the whole modular-group orbit while every step stays in the
    congruence group.  Corridor and budget behave as in the geodesic
    enumeration.
    """
    validate_negative_discriminant(D)
    filt.validate_for(D)
    if M < 1:
        raise ValueError("M >= 1 required")
    n = filt.n
    reps = [MAT_ID] if n == 1 else list(gamma0_coset_transversal(n).values())
    gens = [g for g in gamma0_generators(n) if g[2] != 0]
    corridor = safety * M * max(1, n * n // 4)
    produced = 0
    counts = {}
    visited_total = 0
    for order, mult in ((OrderTag.O1, 1), (OrderTag.O2, 2)):
        seeds = {tshift_canonical(act(g, f))
                 for f in class_forms(D, order)
                 for g in reps}
        amax = max(corridor, mult * max(f[0] for f in seeds)) // mult
        seen = set(seeds)
        stack = list(seeds)
        while stack:
            visited_total += 1
            if visited_total > budget:
                raise BudgetExceeded(
                    f"point orbit for D={D} passed {budget} states")
            F = stack.pop()
            a, b, c = F
            if mult * a <= M:
                mroot = mult * a
                mu = (-b // 2) % mroot if mult == 1 else (-b) % mroot
                if filt.accepts(mroot, mu):
                    produced += 1
                    counts[(mroot, mu)] = counts.get((mroot, mu), 0) + 1
            if a > amax:
                continue
            for g in gens:
                p, q, r, s = g
                A = a * r * r
                B = 2 * a * s * r - b * r * r
                C = a * s * s - b * s * r + c * r * r
                for t in _window(A, B, C, amax):
                    G = tshift_canonical(act(g, tshift(F, t)))
                    if G not in seen:
                        seen.add(G)
                        stack.append(G)
    roots = set(counts)
    return EnumerationResult(roots, produced, produced - len(roots),
                             visited_total)


if __name__ == "__main__":
    for D, M in ((-3, 20), (-15, 20)):
        seq = sieve_roots_neg(D, M)
        got = enumerate_orbit_points(D, M)
        match = got.roots == {(int(m), int(mu))
                              for m, mu in zip(seq.ms, seq.mus)}
        h1 = class_number_neg(D, OrderTag.O1)
        h2 = class_number_neg(D, OrderTag.O2)
        print(f"D={D}: h1={h1} h2={h2} roots={len(seq)} "
              f"orbit==sieve: {match}")
