"""Completeness of the orbit enumerators: sweeps against the sieve, the
breadth-first walk they replaced as an oracle, and the exact work count.

`geodesics.enumerate_tops` and `negdisc.enumerate_orbit_points` read the
orbit tops off the primitive points of lattice cones; the proofs are in
`geodesics.enumerate_tops`, `zagier_cones` and `cone_roots`.  The walk
below is the former implementation: it expands each orbit by the
generators of Gamma_0(n) from T-canonical forms, inside a corridor of
leading coefficients up to safety*M*max(1, n^2/4).
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from georoots.forms import (
    MAT_ID,
    act,
    disc,
    form_value,
    mat_mul,
)
from georoots.geodesics import (
    BudgetExceeded,
    base_geodesic_set,
    enumerate_tops,
    zagier_cones,
)
from georoots.negdisc import (
    class_forms,
    enumerate_orbit_points,
    sieve_roots_neg,
)
from georoots.roots import OrderTag, RootFilter, sieve_roots
from oracles import (
    gamma0_coset_transversal,
    gamma0_generators,
    tshift,
    tshift_canonical,
)


def _window(A, B, C, amax):
    """Integer t with |A t^2 + B t + C| <= amax (A != 0): bounded band."""
    lim = amax if A > 0 else -amax
    d = B * B - 4 * A * (C - lim)
    if d < 0:
        return
    rad = math.sqrt(d)
    lo = math.floor((-B - rad) / (2 * A) if A > 0 else (-B + rad) / (2 * A))
    hi = math.ceil((-B + rad) / (2 * A) if A > 0 else (-B - rad) / (2 * A))
    for t in range(lo - 1, hi + 2):
        if abs((A * t + B) * t + C) <= amax:
            yield t


def _orbit_bfs(seeds, mult, n, M, accept=lambda m, mu: True, safety=4):
    """Roots of the T-canonical states reachable from `seeds` by the
    generators of Gamma_0(n), one entry per state with a > 0 and modulus
    mult*a <= M; states with |a| above the corridor are not expanded."""
    gens = [g for g in gamma0_generators(n) if g[2] != 0]
    corridor = safety * M * max(1, n * n // 4)
    amax = max(corridor, mult * max(abs(f[0]) for f in seeds)) // mult
    seen = set(seeds)
    stack = list(seeds)
    found = []
    while stack:
        F = stack.pop()
        a, b, c = F
        if a > 0 and mult * a <= M:
            m = mult * a
            mu = (-b // 2) % m if mult == 1 else (-b) % m
            if accept(m, mu):
                found.append((m, mu))
        if abs(a) > amax:
            continue
        for p, q, r, s in gens:
            A = a * r * r
            B = 2 * a * s * r - b * r * r
            C = a * s * s - b * s * r + c * r * r
            for t in _window(A, B, C, amax):
                G = tshift_canonical(act((p, q, r, s), tshift(F, t)))
                if G not in seen:
                    seen.add(G)
                    stack.append(G)
    return found


def bfs_tops(base, M):
    found = []
    for bg in base.geodesics:
        found += _orbit_bfs({tshift_canonical(bg.form)}, bg.mult, base.n, M)
    return found


def bfs_orbit_points(D, M, filt):
    """The level-n walk covers the modular-group orbit because each class
    form is seeded through a full coset transversal."""
    n = filt.n
    reps = [MAT_ID] if n == 1 else list(gamma0_coset_transversal(n).values())
    found = []
    for order, mult in ((OrderTag.O1, 1), (OrderTag.O2, 2)):
        seeds = {tshift_canonical(act(g, f))
                 for f in class_forms(D, order) for g in reps}
        found += _orbit_bfs(seeds, mult, n, M, filt.accepts)
    return found


def sieved(D, M, n=1, nu=0):
    filt = RootFilter(n, nu)
    seq = sieve_roots(D, M, filt) if D > 0 else sieve_roots_neg(D, M, filt)
    return set(zip(seq.ms.tolist(), seq.mus.tolist()))


def _fundamental(D):
    return D % 4 == 1 and all(D % (p * p) for p in range(2, 15))


POSITIVE_D = [D for D in range(5, 201) if _fundamental(D)]
NEGATIVE_D = [D for D in range(-3, -201, -1) if _fundamental(D)]


def _levels(D, n_max):
    return [(n, nu) for n in range(1, n_max + 1) for nu in range(n)
            if (nu * nu - D) % n == 0]


@st.composite
def positive_cases(draw):
    D = draw(st.sampled_from(POSITIVE_D))
    n, nu = draw(st.sampled_from(_levels(D, 48)))
    return D, n, nu, draw(st.integers(1, 3000))


@st.composite
def negative_cases(draw):
    D = draw(st.sampled_from(NEGATIVE_D))
    n, nu = draw(st.sampled_from(_levels(D, 48)))
    return D, n, nu, draw(st.integers(1, 3000))


@settings(max_examples=400)
@given(positive_cases())
@example((61, 1, 0, 3000))
@example((109, 1, 0, 3000))
@example((157, 1, 0, 3000))
@example((5, 2, 1, 3000))
def test_enumerate_tops_equals_sieve(case):
    D, n, nu, M = case
    got = enumerate_tops(base_geodesic_set(D, n, nu), M)
    assert got.roots == sieved(D, M, n, nu)
    assert got.duplicates == 0


@settings(max_examples=200)
@given(negative_cases())
@example((-3, 1, 0, 3000))
def test_enumerate_orbit_points_equals_sieve(case):
    D, n, nu, M = case
    got = enumerate_orbit_points(D, M, RootFilter(n, nu))
    assert got.roots == sieved(D, M, n, nu)
    assert got.duplicates == 0


@pytest.mark.parametrize("D,n,nu,M", [
    (5, 1, 0, 400), (13, 1, 0, 200), (17, 1, 0, 200), (21, 1, 0, 200),
    (61, 1, 0, 150), (5, 2, 1, 200), (5, 4, 1, 150), (17, 8, 1, 60),
    (13, 3, 1, 150), (21, 3, 0, 150),
])
def test_enumerate_tops_equals_bfs_oracle(D, n, nu, M):
    base = base_geodesic_set(D, n, nu)
    got = enumerate_tops(base, M)
    walked = bfs_tops(base, M)
    assert got.roots == set(walked)
    assert got.produced == len(walked)


@pytest.mark.parametrize("D,n,nu,M", [
    (-3, 1, 0, 300), (-15, 1, 0, 300), (-39, 1, 0, 200), (-7, 4, 1, 100),
    (-3, 2, 1, 100),
])
def test_enumerate_orbit_points_equals_bfs_oracle(D, n, nu, M):
    filt = RootFilter(n, nu)
    got = enumerate_orbit_points(D, M, filt)
    walked = bfs_orbit_points(D, M, filt)
    assert got.roots == set(walked)
    assert got.produced == len(walked)


@pytest.mark.parametrize("D", [5, 61])
def test_candidates_per_root_at_level_one(D):
    # a candidate is primitive with probability about 6/pi^2 = 0.61
    got = enumerate_tops(base_geodesic_set(D), 23_000)
    assert got.roots == sieved(D, 23_000)
    assert got.visited <= 2 * len(got.roots)


def test_budget_counts_exactly_the_candidates():
    base = base_geodesic_set(5, 4, 1)
    need = enumerate_tops(base, 500).visited
    assert enumerate_tops(base, 500, budget=need).visited == need
    with pytest.raises(BudgetExceeded):
        enumerate_tops(base, 500, budget=need - 1)
    need = enumerate_orbit_points(-15, 500).visited
    assert enumerate_orbit_points(-15, 500, budget=need).visited == need
    with pytest.raises(BudgetExceeded):
        enumerate_orbit_points(-15, 500, budget=need - 1)


@pytest.mark.parametrize("D,n,nu", [
    (5, 1, 0), (5, 2, 1), (13, 1, 0), (17, 8, 1), (21, 3, 0), (61, 5, 1),
    (65, 2, 1), (157, 1, 0),
])
def test_zagier_cones_walk_j_periods_of_reduced_forms(D, n, nu):
    for bg in base_geodesic_set(D, n, nu).geodesics:
        f0 = bg.form
        cones = zagier_cones(f0, bg.j_stab)
        forms = []
        for U in cones:
            p, q, r, s = U
            assert p * s - q * r == 1
            A, C = form_value(f0, p, r), form_value(f0, q, s)
            B = form_value(f0, p + q, r + s) - A - C
            assert A > 0 and C > 0 and B > A + C
            assert B * B - 4 * A * C == disc(f0)
            forms.append((A, B, C))
        for U, V in zip(cones, cones[1:]):
            assert (U[1], U[3]) == (V[0], V[2])      # shared ray
        period, rest = divmod(len(forms), bg.j_stab)
        assert rest == 0 and forms == forms[:period] * bg.j_stab
        assert forms[0] not in forms[1:period]
        # the cone after the last is sigma*^(+-1) applied to the first
        p, q, r, s = bg.stabilizer
        A, B, C = forms[-1]
        k = (B + math.isqrt(disc(f0))) // (2 * C) + 1
        closer = mat_mul(cones[-1], (0, -1, 1, k))
        assert closer in {mat_mul(h, cones[0])
                          for h in ((s, -q, -r, p), (p, q, r, s))}
