import argparse
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from georoots import InputError
from georoots.arith import factorize, spf_table, sqrt_mod
from georoots.cli import _first_n_points
from georoots.negdisc import sieve_roots_neg
import georoots.roots as roots
from georoots.roots import (
    OrderTag,
    RootFilter,
    RootSequence,
    SequenceExhausted,
    _sieve,
    first_n,
    sieve_roots,
    take_n,
)
from oracles import fits_order, subset


def brute(D, M, n=1, nu=0):
    out = []
    for m in range(1, M + 1):
        if m % n:
            continue
        for mu in range(m):
            if (mu * mu - D) % m == 0 and mu % n == nu:
                out.append((m, mu))
    return out


def test_roots_mod_m_pinned():
    assert sqrt_mod(5, 11) == [4, 7]
    assert sqrt_mod(5, 3) == []
    assert sqrt_mod(5, 1) == [0]


@pytest.mark.parametrize("D", [5, 13, 17, 21, 65])
def test_roots_mod_m_brute(D):
    for m in range(1, 400):
        assert sqrt_mod(D, m) == [mu for mu in range(m)
                                     if (mu * mu - D) % m == 0]


def test_classify_root_pinned():
    assert fits_order(5, 10, 5, OrderTag.O2)
    assert fits_order(17, 8, 3, OrderTag.O1)
    assert fits_order(17, 8, 1, OrderTag.O2)
    s = sieve_roots(17, 8)
    tags = dict(zip(zip(s.ms.tolist(), s.mus.tolist()), s.class_tags()))
    assert tags[8, 3] and not tags[8, 1]


def test_classify_shortcut_5_mod_8():
    for D in (5, 13, 29):
        s = sieve_roots(D, 500)
        assert (s.class_tags() == (s.ms % 4 != 2)).all()
        for m, mu in zip(s.ms, s.mus):
            want = OrderTag.O1 if m % 4 != 2 else OrderTag.O2
            assert fits_order(D, int(m), int(mu), want)


@pytest.mark.parametrize("D,n,nu", [(5, 1, 0), (5, 4, 1), (5, 2, 1),
                                    (13, 1, 0), (13, 4, 1), (13, 2, 1),
                                    (17, 1, 0), (17, 4, 1), (17, 2, 1),
                                    (21, 1, 0), (21, 4, 1), (21, 2, 1),
                                    (65, 1, 0), (65, 4, 1), (65, 2, 1)])
def test_sieve_matches_brute(D, n, nu):
    M = 800
    s = sieve_roots(D, M, RootFilter(n, nu))
    assert list(zip(s.ms.tolist(), s.mus.tolist())) == brute(D, M, n, nu)


def test_sieve_ordering_and_range():
    s = sieve_roots(17, 3000)
    key = s.ms * (s.ms.max() + 1) + s.mus
    assert (np.diff(key) > 0).all()           # strictly (m, mu)-ascending
    assert (s.mus >= 0).all() and (s.mus < s.ms).all()
    x = s.mus / s.ms
    assert (x >= 0).all() and (x < 1).all()


def test_sieve_empty_and_tiny():
    assert len(sieve_roots(5, 0)) == 0
    s = sieve_roots(5, 1)
    assert list(zip(s.ms, s.mus)) == [(1, 0)]


def test_filter_validation():
    with pytest.raises(ValueError):
        sieve_roots(5, 100, RootFilter(3, 1))   # 1 != 5 mod 3
    with pytest.raises(ValueError):
        RootFilter(0, 0)
    with pytest.raises(ValueError):
        sieve_roots(6, 100)                      # D = 2 mod 4
    with pytest.raises(ValueError):
        sieve_roots(45, 100)                     # not squarefree


def test_take_n_pinned():
    seq = take_n(5, 8)
    assert [Fraction(int(mu), int(m)) for m, mu in zip(seq.ms, seq.mus)] == [
        Fraction(0), Fraction(1, 2), Fraction(1, 4), Fraction(3, 4),
        Fraction(0), Fraction(1, 2), Fraction(4, 11), Fraction(7, 11)]
    assert len(take_n(5, 1)) == 1
    assert take_n(5, 1).mus.tolist() == [0]


def test_take_n_first_four_d17():
    # brute-force small-m scan: m=1:(0); m=2:(1); m=4:(1,3)
    seq = take_n(17, 4)
    assert list(zip(seq.ms.tolist(), seq.mus.tolist())) == \
        [(1, 0), (2, 1), (4, 1), (4, 3)]


def test_take_n_filtered():
    filt = RootFilter(4, 1)
    seq = take_n(5, 10, filt)
    assert (seq.ms % 4 == 0).all() and (seq.mus % 4 == 1).all()
    assert len(seq) == 10
    first = brute(5, 200, 4, 1)[:10]
    assert list(zip(seq.ms.tolist(), seq.mus.tolist())) == first
    # one rule for scalars and arrays
    full = sieve_roots(5, 200)
    mask = filt.accepts(full.ms, full.mus)
    assert mask.dtype == bool
    assert mask.tolist() == [filt.accepts(int(m), int(mu))
                             for m, mu in zip(full.ms, full.mus)]
    assert list(zip(full.ms[mask].tolist(), full.mus[mask].tolist())) == \
        brute(5, 200, 4, 1)


def _records(seq):
    return list(zip(seq.ms.tolist(), seq.mus.tolist(),
                    seq.class_labels().tolist()))


def test_root_records():
    s = sieve_roots(5, 12)
    recs = _records(s)
    assert recs[0] == (1, 0, "O1")
    assert (10, 5, "O2") in recs
    assert all(c == "O1" for m, _, c in recs if m % 2 == 1)
    assert [c == "O1" for _, _, c in recs] == \
        [fits_order(5, m, mu, OrderTag.O1) for m, mu, _ in recs]


def test_class_labels():
    rows = _records(sieve_roots(5, 5))
    assert rows == [(1, 0, "O1"), (2, 1, "O2"), (4, 1, "O1"), (4, 3, "O1"),
                    (5, 0, "O1")]


def test_class_partition_counts():
    s = sieve_roots(13, 2000)
    tags = s.class_tags()
    assert tags.sum() + (~tags).sum() == len(s)
    # D = 5 mod 8: O1 roots outnumber O2 roots 3:1 asymptotically
    ratio = tags.sum() / (~tags).sum()
    assert 2.7 < ratio < 3.3


# D = 1 and 5 (mod 8), both signs, and D with two or three ramified primes
SWEEP_D = (5, 13, 17, 41, 65, 105, -3, -7, -15, -39)


@st.composite
def sieve_cases(draw):
    D = draw(st.sampled_from(SWEEP_D))
    M = draw(st.integers(0, 3000))
    n = draw(st.sampled_from((1, 1, 2, 3, 4, 5, 8, 12)))
    nus = [nu for nu in range(n) if (nu * nu - D) % n == 0] or [None]
    nu = draw(st.sampled_from(nus))
    return D, M, (RootFilter() if nu is None else RootFilter(n, nu))


@given(sieve_cases())
@settings(max_examples=200)
def test_sieve_matches_sqrt_mod(case):
    D, M, filt = case
    seq = _sieve(D, M, filt)
    assert seq.ms.dtype == seq.mus.dtype == np.int64
    want = [(m, mu) for m in range(filt.n, M + 1, filt.n)
            for mu in sqrt_mod(D, m) if mu % filt.n == filt.nu]
    assert list(zip(seq.ms.tolist(), seq.mus.tolist())) == want


@pytest.mark.parametrize("D", [5, 17, 65, -3, -15])
@pytest.mark.parametrize("M", [0, 1, 2, 3, 4, 8])
def test_sieve_tiny_bounds(D, M):
    seq = _sieve(D, M, RootFilter())
    assert list(zip(seq.ms.tolist(), seq.mus.tolist())) == brute(D, M)


@pytest.mark.parametrize("D,M,digest", [
    (5, 600_000,
     "435e5f45a331194957deaa8f20a4fc8f6d9e98b95425077007eedd7ddd8df63f"),
    (-15, 200_000,
     "9997e84494691803af56200f64ca145b068162266e3495e9c923ed8fe4456239"),
])
def test_sieve_digest_pinned(D, M, digest):
    # SHA-256 of ms || mus as little-endian int64: the exact arrays at
    # sizes the sweep above does not reach
    seq = _sieve(D, M, RootFilter())
    data = seq.ms.astype("<i8").tobytes() + seq.mus.astype("<i8").tobytes()
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("D", [5, 17, -15])
@pytest.mark.parametrize("cls", ["O1", "O2"])
def test_first_n_points_is_class_prefix(D, cls):
    N = 5000
    got = _first_n_points(argparse.Namespace(D=D, N=N, n=1, nu=0,
                                             class_filter=cls))
    pool = (sieve_roots_neg if D < 0 else sieve_roots)(D, 200_000)
    tags = pool.class_tags()
    want = subset(pool, tags if cls == "O1" else ~tags)
    assert len(want) >= N
    assert np.array_equal(got.ms, want.ms[:N])
    assert np.array_equal(got.mus, want.mus[:N])
    # one call for both classes hands back the same prefix
    both = dict(zip(("O1", "O2"), first_n(D, N, classes=("O1", "O2"))))
    assert np.array_equal(both[cls].ms, want.ms[:N])
    assert np.array_equal(both[cls].mus, want.mus[:N])


@pytest.mark.parametrize("D,n,nu", [(5, 2, 1), (17, 4, 1)])
def test_first_n_classes_at_level_n(D, n, nu):
    # every name of one call against an independent sieve and subset
    N = 2000
    filt = RootFilter(n, nu)
    classes = ("O2", "total", "O1")
    got = first_n(D, N, filt, classes)
    pool = sieve_roots(D, 400_000, filt)
    tags = pool.class_tags()
    for cls, seq in zip(classes, got):
        want = {"total": pool, "O1": subset(pool, tags),
                "O2": subset(pool, ~tags)}[cls]
        assert len(want) >= N
        assert np.array_equal(seq.ms, want.ms[:N])
        assert np.array_equal(seq.mus, want.mus[:N])
        assert (seq.ms % n == 0).all() and (seq.mus % n == nu).all()


def test_first_n_rejects_unknown_classes():
    for classes in ((), ("O3",), ("total", "o1")):
        with pytest.raises(ValueError):
            first_n(5, 10, classes=classes)


def test_first_n_validates_by_sign():
    assert len(first_n(-15, 10)[0]) == 10
    with pytest.raises(ValueError):
        take_n(-15, 10)
    for D in (-4, 45, 6):
        with pytest.raises(ValueError):
            first_n(D, 10)
    with pytest.raises(ValueError):
        first_n(5, 0)


@pytest.mark.parametrize("D,n,nu", [(5, 4, 1), (17, 8, 3), (-3, 4, 1),
                                    (-11, 4, 3)])
def test_first_n_unreachable_class_fails_before_sieve(D, n, nu, monkeypatch):
    # n even and (D - nu^2)/n odd: no O2 root meets the filter, so the
    # doubling search would never end; it must fail before any sieve
    def no_sieve(*args):
        raise AssertionError("_sieve called")

    monkeypatch.setattr(roots, "_sieve", no_sieve)
    for classes in (("O2",), ("total", "O2"), ("O1", "O2")):
        with pytest.raises(InputError, match="no O2 root"):
            first_n(D, 10, RootFilter(n, nu), classes)


def test_first_n_doubles_only_below_2_to_the_31(monkeypatch):
    # a sieve that never finds enough roots: the bound doubles while it
    # stays below 2^31, and then first_n gives up with SequenceExhausted
    bounds = []

    def empty(D, M, filt):
        bounds.append(M)
        return RootSequence(D, np.empty(0, np.int64), np.empty(0, np.int64))

    monkeypatch.setattr(roots, "_sieve", empty)
    with pytest.raises(SequenceExhausted, match="fewer than 10 roots"):
        first_n(5, 10)
    assert bounds == [32 << k for k in range(26)]


# ------------------------------------------- vectorised number theory

def _primes_above_root(M):
    """The primes p with sqrt(M) < p <= M, as the sieve solves them."""
    spf = spf_table(M)
    s = math.isqrt(M)
    return np.flatnonzero(spf[s + 1:] > s) + (s + 1)


# primes with a large 2-adic valuation of p - 1 (2^16, 2^18, 2^27, 2^25)
# and the largest below 2^31, whose products come closest to 2^62; the
# least non-squares of the last three need more than the table primes
SPECIAL_PRIMES = [65537, 786433, 2013265921, 2113929217, 2147483647,
                  48473881, 120293879, 175244281]


def _least_non_square(p):
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    return z


def _check_sqrt_mod_primes(D, p):
    a = roots._mod_each(D, p)
    assert a.tolist() == [D % int(q) for q in p]
    r = roots._sqrt_mod_primes(a, p)
    for ai, ri, pi in zip(a.tolist(), r.tolist(), p.tolist()):
        if ri == -1:
            assert pow(ai, (pi - 1) // 2, pi) == pi - 1
        else:
            assert 0 <= ri < pi and ri * ri % pi == ai


@pytest.mark.parametrize("D", [5, 17, -15, -3, 2**64 + 13, -(2**63 + 7)])
def test_sqrt_mod_primes_against_euler(D):
    _check_sqrt_mod_primes(D, _primes_above_root(200_000))
    _check_sqrt_mod_primes(D, np.array(SPECIAL_PRIMES, dtype=np.int64))


def test_sqrt_mod_primes_on_large_primes_and_residues():
    p = np.repeat(np.array(SPECIAL_PRIMES, dtype=np.int64), 64)
    rng = np.random.default_rng(5)
    a = rng.integers(0, 2**62, len(p)) % p
    a[::64] = 0
    r = roots._sqrt_mod_primes(a, p)
    for ai, ri, pi in zip(a.tolist(), r.tolist(), p.tolist()):
        if ri == -1:
            assert pow(ai, (pi - 1) // 2, pi) == pi - 1
        else:
            assert ri * ri % pi == ai


def test_non_squares_are_least(monkeypatch):
    p = np.concatenate([_primes_above_root(200_000)[:4000],
                        np.array(SPECIAL_PRIMES, dtype=np.int64),
                        np.array([3, 5, 7, 11, 61, 67], dtype=np.int64)])
    want = [_least_non_square(q) for q in p.tolist()]
    assert roots._non_squares(p).tolist() == want
    assert max(want) > roots._TABLE_PRIMES[-1]     # the Euler fallback ran
    # with a short table most primes go through the Euler fallback
    monkeypatch.setattr(roots, "_TABLE_PRIMES", (2, 3))
    assert roots._non_squares(p).tolist() == want


def _mask_off(D, p):
    return np.ones(len(p), bool)


# D of both signs with one to four primes.  The mask is skipped where a
# prime of D exceeds the primes above sqrt(M): D = -7919 at M <= 10^4
# (1204 primes), and D = 13, 17, 65, 1105 at M = 50 (11 primes)
@pytest.mark.parametrize("D", [5, 13, 17, 21, 65, 1105, -3, -7, -15, -35,
                               -1155, -7919])
def test_square_mask_keeps_the_sieve_bytes(D, monkeypatch):
    for M in (50, 10_000, 100_000):
        p = _primes_above_root(M)
        mask = roots._square_mask(D, p)
        if max(q for q, _ in factorize(abs(D))) > len(p):
            assert mask.all()
        else:   # exactly Euler's criterion: D is a square or 0 mod p
            assert mask.tolist() == [pow(D, q // 2, q) != q - 1
                                     for q in p.tolist()]
            assert not mask.all()
        got = _sieve(D, M, RootFilter())
        with monkeypatch.context() as mp:   # the kernel without the mask
            mp.setattr(roots, "_square_mask", _mask_off)
            want = _sieve(D, M, RootFilter())
        assert got.ms.tobytes() == want.ms.tobytes()
        assert got.mus.tobytes() == want.mus.tobytes()
