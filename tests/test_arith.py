import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from georoots.arith import (
    crt_combine,
    factorize,
    is_probable_prime,
    spf_table,
    sqrt_mod_prime_power,
    xgcd_array,
)
from georoots.forms import (
    mat_mul,
    principal_form,
    zagier_cycle,
    zagier_reduce,
    zagier_reduced_forms,
    zagier_step,
)
from georoots.orders import totally_positive_fundamental_unit
from georoots.roots import OrderTag
from oracles import xgcd
from quadnum import QuadNum


def brute_sqrt_mod(a, m):
    return sorted(x for x in range(m) if (x * x - a) % m == 0)


def test_factorize_pinned():
    assert factorize(1) == []
    assert factorize(20) == [(2, 2), (5, 1)]
    assert factorize(999966000289) == [(999983, 2)]


def test_factorize_small_exhaustive():
    for n in range(1, 2000):
        f = factorize(n)
        assert math.prod(p**e for p, e in f) == n
        assert all(is_probable_prime(p) for p, _ in f)
        assert f == sorted(f)


def test_spf_table_matches_factorize():
    spf = spf_table(10_000)
    for n in range(2, 10_001):
        assert spf[n] == factorize(n)[0][0]


def test_spf_table_rejects_limits_past_int32():
    with pytest.raises(ValueError):
        spf_table(2**31)


def _spf_by_arange(limit):
    """The table as built before: primes filled from a full arange."""
    spf = np.zeros(limit + 1, dtype=np.int64)
    for i in range(2, math.isqrt(limit) + 1):
        if spf[i] == 0:
            seg = spf[i * i :: i]
            seg[seg == 0] = i
    unset = spf == 0
    spf[unset] = np.arange(limit + 1, dtype=np.int64)[unset]
    spf[:2] = (0, 1)
    return spf


@pytest.mark.parametrize("limit", [1, 2, 3, 4, 97, 1000, 65_536, 123_457])
def test_spf_table_equals_arange_construction(limit):
    spf = spf_table(limit)
    assert spf.dtype == np.int32    # every sieve bound is below 2^31
    assert np.array_equal(spf, _spf_by_arange(limit))


@settings(max_examples=50)
@given(st.lists(st.tuples(st.integers(0, 10**12), st.integers(0, 10**12)),
                max_size=40))
def test_xgcd_array_equals_xgcd(pairs):
    a = np.array([p[0] for p in pairs], dtype=np.int64)
    b = np.array([p[1] for p in pairs], dtype=np.int64)
    g, s, t = xgcd_array(a, b)
    assert [tuple(map(int, r)) for r in zip(g, s, t)] == \
        [xgcd(x, y) for x, y in pairs]


@given(st.integers(min_value=1, max_value=10**12))
@settings(max_examples=300, deadline=None)
def test_factorize_roundtrip(n):
    f = factorize(n)
    assert math.prod(p**e for p, e in f) == n
    for p, e in f:
        assert e >= 1 and is_probable_prime(p)


def test_factorize_random_large_sample():
    rng = random.Random(7)
    for _ in range(2000):
        n = rng.randrange(1, 10**5)
        f = factorize(n)
        assert math.prod(p**e for p, e in f) == n


def test_sqrt_mod_prime_power_pinned():
    assert sqrt_mod_prime_power(5, 11, 1) == [4, 7]
    assert sqrt_mod_prime_power(5, 2, 2) == [1, 3]
    assert sqrt_mod_prime_power(5, 3, 1) == []


@pytest.mark.parametrize("D", [5, 13, 17, 21, 65, -3, -7, -15])
def test_sqrt_mod_prime_power_vs_brute(D):
    for p in [2, 3, 5, 7, 11, 13]:
        for e in range(1, 5 if p > 2 else 7):
            pe = p**e
            if pe > 3000:
                continue
            assert sqrt_mod_prime_power(D, p, e) == brute_sqrt_mod(D, pe), (
                D,
                p,
                e,
            )


def test_crt_combine_pinned():
    assert crt_combine([([1, 3], 4), ([0], 5)]) == ([5, 15], 20)
    assert crt_combine([([2, 9], 13)]) == ([2, 9], 13)
    assert crt_combine([]) == ([0], 1)
    assert crt_combine([([0], 1)]) == ([0], 1)


def test_crt_combine_empty_part():
    assert crt_combine([([], 9), ([1], 4)]) == ([], 36)


@given(
    st.lists(
        st.sampled_from([(3, 3), (4, 4), (5, 5), (7, 7), (11, 11)]),
        unique_by=lambda t: t[0],
        max_size=3,
    ),
    st.randoms(),
)
@settings(max_examples=100, deadline=None)
def test_crt_combine_vs_brute(mods, rnd):
    parts = []
    for _, m in mods:
        k = rnd.randint(0, min(3, m))
        parts.append((sorted(rnd.sample(range(m), k)), m))
    rs, M = crt_combine(parts)
    expect = [
        x
        for x in range(M)
        if all(x % m in set(r) for r, m in parts)
    ]
    assert rs == expect


# ----------------------------------------------------------------------
# sqrt(D) through the Zagier cycle of the principal form x^2 - D y^2

def minus_period(period):
    """Minus continued fraction period from the regular one of sqrt(D):
    a_odd gives a_odd - 1 twos, a_even gives a_even + 2 (an odd-length
    period is taken twice)."""
    if len(period) % 2:
        period = period * 2
    out = []
    for i, a in enumerate(period):
        out += [2] * (a - 1) if i % 2 == 0 else [a + 2]
    return out


def cycle_quotients(D):
    """Step quotients k around the cycle: g' = (C, 2Ck - B, ...)."""
    cycle, _, _ = zagier_cycle(principal_form(4 * D))
    return [(g[1] + f[1]) // (2 * f[2])
            for f, g in zip(cycle, cycle[1:] + cycle[:1])]


def is_rotation(xs, ys):
    return len(xs) == len(ys) and any(xs[i:] + xs[:i] == ys
                                      for i in range(len(xs)))


def test_cf_sqrt_pinned():
    """Regular periods sqrt(5) = [2; 4], sqrt(17) = [4; 8] and
    sqrt(13) = [3; 1, 1, 1, 1, 6], as minus continued fractions."""
    assert minus_period([4]) == [2, 2, 2, 6]
    for D, period in ((5, [4]), (17, [8]), (13, [1, 1, 1, 1, 6])):
        assert is_rotation(cycle_quotients(D), minus_period(period))


def test_cf_sqrt_rejects_squares():
    with pytest.raises(ValueError):
        zagier_reduce(principal_form(16))
    with pytest.raises(ValueError):
        zagier_reduced_forms(16)


@pytest.mark.parametrize("D", [5, 13, 17, 21, 29, 33, 37, 41, 65])
def test_convergent_quality(D):
    """The cone edges u = (p, q) of x^2 - D y^2 around a cycle approximate
    sqrt(D) from outside: 0 < p^2 - D q^2 = f(u) < 2D, as a + c < disc/2
    on every reduced form, so 0 < |p/q| - sqrt(D) < sqrt(D)/q^2, decided
    in integers; the walk closes on the automorph E of the cycle."""
    f = principal_form(4 * D)
    U0, g = zagier_reduce(f)
    cycle, _, E = zagier_cycle(f)
    U = U0
    for _ in cycle:
        p, q = U[0], U[2]
        assert 0 < p * p - D * q * q == g[0] < 2 * D
        if q:
            assert p * p * q * q < D * (q * q + 1) ** 2
        U, g = zagier_step(U, g)
    assert U == mat_mul(E, U0)


@pytest.mark.parametrize("D", [5, 13, 17, 21, 29, 33, 37, 41, 65])
def test_pell_fundamental(D):
    """The least solution of x^2 - D y^2 = +-1 (by search) gives the
    totally positive unit of Z[sqrt(D)]: x + y sqrt(D), squared if n = -1."""
    y, hits = 0, []
    while not hits:
        y += 1
        hits = [n for n in (1, -1)
                if math.isqrt(D * y * y + n) ** 2 == D * y * y + n]
    n = hits[0]
    x = math.isqrt(D * y * y + n)
    eps = QuadNum(D, x, y)
    want = eps * eps if n == -1 else eps
    got = totally_positive_fundamental_unit(D, OrderTag.O1)
    assert got == (want.a, want.b, want.c)
