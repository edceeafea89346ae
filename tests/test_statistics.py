import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import kstest

from georoots import statistics
from georoots.roots import (
    RootFilter,
    RootSequence,
    first_n,
    take_n,
)
from georoots.statistics import Histogram, PairCorrResult, pair_correlation
from oracles import pair_correlation_by_block


def bin_index(delta: float, lo: float, width: float) -> int:
    """The binning rule: floor((delta-lo)/width) in doubles.

    Values landing exactly on a representable bin edge go to the bin
    starting there (to the right).
    """
    return int(math.floor((delta - lo) / width))


def brute_pair_correlation(seq, lo, hi, bins):
    """O(N^2) oracle in Python integers, sharing no code with
    `pair_correlation` and not vectorised.

    For the ordered pair i != j, x_i - x_j = num/den with num = mu_i m_j
    - mu_j m_i and den = m_i m_j.  The integers k with N(num/den - k) in
    [lo, hi) lie in [floor(num/den - hi/N), ceil(num/den - lo/N)], found
    by floor division with hi and lo as exact integer ratios and widened
    by one on each side.  Each translate is binned at N * ((num - k den)
    / den): int/int division is correctly rounded, as float(Fraction)
    is, so this bins the doubles `fraction_pair_correlation` does.
    """
    N = len(seq)
    width = (hi - lo) / bins
    hp, hq = hi.as_integer_ratio()
    lp, lq = lo.as_integer_ratio()
    roots = list(zip(seq.ms.tolist(), seq.mus.tolist()))
    counts = [0] * bins
    for i, (m_i, mu_i) in enumerate(roots):
        for j, (m_j, mu_j) in enumerate(roots):
            if i == j:
                continue
            num, den = mu_i * m_j - mu_j * m_i, m_i * m_j
            k_lo = (num * hq * N - hp * den) // (den * hq * N) - 1
            k_hi = -((lp * den - num * lq * N) // (den * lq * N)) + 1
            for k in range(k_lo, k_hi + 1):
                t = bin_index(N * ((num - k * den) / den), lo, width)
                if 0 <= t < bins:
                    counts[t] += 1
    return counts


def fraction_pair_correlation(seq, lo, hi, bins):
    """O(N^2) oracle in Fractions: exact circle differences, same final
    binning."""
    N = len(seq)
    points = [Fraction(int(mu), int(m)) for m, mu in zip(seq.ms, seq.mus)]
    counts = [0] * bins
    width = (hi - lo) / bins
    for i in range(N):
        for j in range(N):
            if i == j:
                continue
            d = points[i] - points[j]
            # integers k with N(d - k) possibly inside [lo, hi)
            k_lo = math.floor(d - Fraction(hi) / N) - 1
            k_hi = math.ceil(d - Fraction(lo) / N) + 1
            for k in range(k_lo, k_hi + 1):
                delta = N * float(d - k)
                t = bin_index(delta, lo, width)
                if 0 <= t < bins:
                    counts[t] += 1
    return counts


RANGES = [(0.0, 5.0, 100), (-5.0, 5.0, 200), (-1.3, 2.7, 11)]


# ------------------------------------------------------------ pinned cases

def test_first_four_points_single_bin():
    seq = take_n(5, 4)
    res = pair_correlation(seq, lo=-1.1, hi=1.1, bins=1)
    assert res.histogram.counts.tolist() == [8]
    assert res.n_points == 4


def test_antipodal_pair_empty():
    # (1, 0) and (2, 1) of D = 5 sit at x = 0 and 1/2: N (x_i - x_j) = +-1
    seq = RootSequence(5, np.array([1, 2]), np.array([0, 1]))
    res = pair_correlation(seq, lo=-0.5, hi=0.5, bins=1)
    assert res.histogram.counts.sum() == 0
    assert pair_correlation(seq, lo=-1.0, hi=1.5, bins=1).histogram \
        .counts.sum() == 4


def test_empty_interval_counts_nothing():
    res = pair_correlation(take_n(5, 3), lo=2.0, hi=2.0, bins=5)
    assert res.histogram.counts.sum() == 0


# ------------------------------------------------------------ oracle match

@pytest.mark.parametrize("D,n,nu,N", [(5, 1, 0, 400), (17, 1, 0, 300),
                                      (5, 4, 1, 150), (13, 1, 0, 250)])
def test_matches_brute_force_on_roots(D, n, nu, N):
    seq = take_n(D, N, RootFilter(n, nu))
    for lo, hi, bins in RANGES:
        fast = pair_correlation(seq, lo, hi, bins)
        assert fast.histogram.counts.tolist() == \
            brute_pair_correlation(seq, lo, hi, bins)


@pytest.mark.parametrize("lo,hi,bins", [(-4.0, -1.5, 5), (-5.0, 0.0, 20),
                                         (-5.0, 0.0, 29)])
def test_matches_brute_force_left_of_zero(lo, hi, bins):
    seq = take_n(5, 120)
    assert pair_correlation(seq, lo, hi, bins).histogram.counts.tolist() \
        == brute_pair_correlation(seq, lo, hi, bins)


# distinct fractions with m near 2^30 that round to one double, the
# first above the second
SHARED_DOUBLE = [(1073741827, 357913942), (1073741776, 357913925)]


@pytest.mark.parametrize("first", [0, 1])
def test_distinct_fractions_sharing_a_double(first):
    # whichever comes first, the kernel walks their pair from the exactly
    # smaller one, so on [0, 5) the pair lands once, as N times its
    # positive difference
    pair = [SHARED_DOUBLE[first], SHARED_DOUBLE[1 - first]]
    ms, mus = np.array(pair + [(1, 0), (2, 1), (5, 2)], dtype=np.int64).T
    seq = RootSequence(5, ms, mus)
    assert mus[0] / ms[0] == mus[1] / ms[1]
    for lo, hi, bins in [(0.0, 5.0, 20), (-5.0, 0.0, 29), (-1.0, 1.0, 2)]:
        got = pair_correlation(seq, lo, hi, bins)
        want = pair_correlation_by_block(seq, lo, hi, bins)
        assert got.histogram.counts.tolist() == \
            want.histogram.counts.tolist()


@pytest.mark.parametrize("D,n,nu,N", [(5, 1, 0, 60), (17, 4, 1, 40)])
def test_integer_oracle_matches_fraction_oracle(D, n, nu, N):
    seq = take_n(D, N, RootFilter(n, nu))
    for lo, hi, bins in RANGES + [(-0.5, 60.0, 7)]:
        assert brute_pair_correlation(seq, lo, hi, bins) == \
            fraction_pair_correlation(seq, lo, hi, bins)


CHUNK = 64
# (n, N, lo, hi, bins): n around one and three chunks; windows on both
# sides, to the right only, away from 0, and reaching several translates.
# A case with N set gives its window in units of N (x_i - x_j), and the
# test scales lo and hi by n/N, so the windows reach the same translates.
BLOCK_ORACLE_CASES = [
    (CHUNK - 1, None, -5.0, 5.0, 100),
    (CHUNK, None, 0.0, 5.0, 100),
    (CHUNK + 1, None, 1.5, 4.0, 7),
    (3 * CHUNK + 5, None, -5.0, 5.0, 100),
    (3 * CHUNK + 5, 50, 0.0, 400.0, 37),       # windows [0, 8) in x
    (3 * CHUNK + 5, None, -50.0, 3 * (3 * CHUNK + 5), 61),
    (3 * CHUNK, None, -2.0, 3.0, 1),
    (CHUNK + 1, None, 2.0, 2.0, 5),
    # tiny N: windows reach a point's own translates
    (2, None, -5.0, 5.0, 10),
    (3, None, 0.0, 7.0, 14),
    (3, 1, -3.0, 3.0, 12),                     # windows [-3, 3) in x
    # windows left of 0 and ending at 0, which bin only -delta; at 29
    # bins +0.0 rounds into the last bin of [-5, 0), so ties count there
    (CHUNK + 1, None, -4.0, -1.5, 7),
    (CHUNK, None, -5.0, 0.0, 100),
    (CHUNK, None, -5.0, 0.0, 29),
    (3, 1, -3.0, -0.5, 10),                    # windows [-3, -0.5) in x
]

# distinct roots of D = 5 with equal x, each next to its twin
TIED_ROOTS = [(1, 0), (5, 0), (4, 1), (20, 5), (2, 1), (10, 5), (4, 3),
              (20, 15)]


def _points(kind, n):
    if kind == "roots":
        return take_n(5, n)
    if kind == "O2":
        return first_n(5, n, classes=("O2",))[0]
    if kind == "tied_roots":
        seq = take_n(5, n + len(TIED_ROOTS))
        rest = [r for r in zip(seq.ms.tolist(), seq.mus.tolist())
                if r not in TIED_ROOTS]
        ms, mus = np.array((TIED_ROOTS + rest)[:n], dtype=np.int64).T
        return RootSequence(5, ms, mus)
    # tied_floats: random points of the grid of 1/8, as the exact
    # fractions k/8, so equal points repeat and differences land on bin
    # edges.  pair_correlation reads only (m, mu), so these need not be
    # roots of the sequence's D.
    rng = np.random.default_rng(n)
    mus = np.sort(np.round(rng.random(n) * 8).astype(np.int64) % 8)
    return RootSequence(5, np.full(n, 8, dtype=np.int64), mus)


# chunks of CHUNK // split sources: the chunk histograms sum to the same
# counts wherever the chunk boundaries fall
@pytest.mark.parametrize("split", [1, 2, 4])
@pytest.mark.parametrize("kind", ["roots", "O2", "tied_roots",
                                  "tied_floats"])
@pytest.mark.parametrize("n,N,lo,hi,bins", BLOCK_ORACLE_CASES)
def test_matches_block_oracle(monkeypatch, n, N, lo, hi, bins, kind,
                              split):
    if N is not None:
        lo, hi = lo * n / N, hi * n / N
    monkeypatch.setattr(statistics, "_CHUNK", CHUNK // split)
    pts = _points(kind, n)
    got = pair_correlation(pts, lo, hi, bins)
    want = pair_correlation_by_block(pts, lo, hi, bins)
    assert got.n_points == want.n_points == n
    assert got.histogram.counts.tolist() == want.histogram.counts.tolist()


def test_memory_is_linear_in_points():
    # The kernel holds n-length arrays (sorted xs, ms, mus; the cut
    # translates' xs, ms, mus and origin indices; while building them a
    # translate xs + k, the pieces of one concatenation and one k*ms
    # temporary): at most 10 of 8 bytes each.  A chunk holds its ends,
    # counts, order, sources, ms, mus, histogram and the transients of its
    # one search, and an offset step at most 8 more: 16 arrays of
    # _CHUNK int64/float64.  Pairs, about 2rn for the window [-r, r), are
    # never held, so the bound does not depend on r.
    n = 10**5
    seq = first_n(5, n)[0]
    bound = 8 * (10 * n + 16 * statistics._CHUNK)
    for r in (5.0, 50.0):
        tracemalloc.start()
        try:
            pair_correlation(seq, -r, r, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, r


# ------------------------------------------------------------ properties

def test_symmetry_on_symmetric_range():
    # bin edges chosen off the rationals so delta = 0 sits mid-bin
    seq = take_n(5, 1500)
    res = pair_correlation(seq, lo=-5.025, hi=5.025, bins=201)
    c = res.histogram.counts
    assert c.tolist() == c[::-1].tolist()


def test_coincident_pairs_land_in_first_bin():
    # x = 0 twice in the D=5 sequence: roots (1,0) and (5,0); the tie
    # counts in both orders, as +0.0 and -0.0, when lo == 0
    seq = take_n(5, 6)
    res = pair_correlation(seq, 0.0, 5.0, 100)
    assert res.histogram.counts.tolist() == \
        brute_pair_correlation(seq, 0.0, 5.0, 100)
    assert res.histogram.counts[0] >= 2


def test_histogram_merge_rules():
    # histograms no longer merge; what remains is the shape rule and the
    # per-result normalization a merge relied on
    with pytest.raises(ValueError):
        Histogram(0.0, 5.0, 50, counts=np.zeros(100, dtype=np.int64))
    h = Histogram(0.0, 5.0, 100)
    h.counts[3] = 5
    r = PairCorrResult(h, 10)
    assert r.values()[3] == pytest.approx(5 / (10 * 0.05))
    assert r.values().sum() * h.width == pytest.approx(0.5)


def test_pair_correlation_requires_two_points():
    with pytest.raises(ValueError):
        pair_correlation(take_n(5, 1))


# ------------------------------------------------------------ equidistribution

def test_ks_roots_sequence_decays():
    seq = take_n(5, 100_000)
    assert kstest(seq.mus / seq.ms, "uniform").statistic < 0.02
