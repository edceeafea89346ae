import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from georoots import statistics
from georoots.roots import (
    RootFilter,
    RootSequence,
    first_n,
    sieve_roots,
    take_n,
)
from georoots.statistics import (
    Histogram,
    PairCorrResult,
    bin_index,
    count_distribution,
    counting_function,
    ks_uniform,
    pair_correlation,
)
from oracles import pair_correlation_by_block


def brute_pair_correlation(points_exact, lo, hi, bins, N):
    """O(N^2) oracle: exact circle differences, same final binning."""
    counts = [0] * bins
    width = (hi - lo) / bins
    n = len(points_exact)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = points_exact[i] - points_exact[j]
            # integers k with N(d - k) possibly inside [lo, hi)
            k_lo = math.floor(d - Fraction(hi) / N) - 1
            k_hi = math.ceil(d - Fraction(lo) / N) + 1
            for k in range(k_lo, k_hi + 1):
                delta = N * float(d - k)
                t = bin_index(delta, lo, width)
                if 0 <= t < bins:
                    counts[t] += 1
    return np.array(counts, dtype=np.int64)


# ------------------------------------------------------------ pinned cases

def test_first_four_points_single_bin():
    seq = take_n(5, 4)
    res = pair_correlation(seq, lo=-1.1, hi=1.1, bins=1)
    assert res.histogram.counts.tolist() == [8]
    assert res.r2_total() == pytest.approx(2.0)


def test_antipodal_pair_empty():
    res = pair_correlation([0.0, 0.5], lo=-0.5, hi=0.5, bins=1)
    assert res.r2_total() == 0.0


def test_empty_interval_counts_nothing():
    res = pair_correlation([0.1, 0.2, 0.7], lo=2.0, hi=2.0, bins=5)
    assert res.histogram.counts.sum() == 0


# ------------------------------------------------------------ oracle match

@pytest.mark.parametrize("D,n,nu,N", [(5, 1, 0, 400), (17, 1, 0, 300),
                                      (5, 4, 1, 150), (13, 1, 0, 250)])
def test_matches_brute_force_on_roots(D, n, nu, N):
    seq = take_n(D, N, RootFilter(n, nu))
    exact = [Fraction(int(mu), int(m)) for m, mu in zip(seq.ms, seq.mus)]
    for lo, hi, bins in [(0.0, 5.0, 100), (-5.0, 5.0, 200), (-1.3, 2.7, 11)]:
        fast = pair_correlation(seq, lo, hi, bins)
        assert fast.histogram.counts.tolist() == \
            brute_pair_correlation(exact, lo, hi, bins, N).tolist()


def test_matches_brute_force_on_floats():
    rng = np.random.default_rng(42)
    pts = rng.random(300)
    exact = [Fraction(p).limit_denominator(10**12) for p in pts]
    # use exactly representable points so both paths agree bitwise
    pts = np.array([float(e) for e in exact])
    fast = pair_correlation(pts, 0.0, 5.0, 100)
    res = np.zeros(100, dtype=np.int64)
    n = len(pts)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = pts[i] - pts[j]
            for k in (math.floor(d) - 1, math.floor(d), math.floor(d) + 1):
                t = bin_index(n * (d - k), 0.0, 0.05)
                if 0 <= t < 100:
                    res[t] += 1
    assert fast.histogram.counts.tolist() == res.tolist()


CHUNK = 64
# (n, N, lo, hi, bins): n around one and three chunks; windows on both
# sides, to the right only, away from 0, and reaching several translates
BLOCK_ORACLE_CASES = [
    (CHUNK - 1, None, -5.0, 5.0, 100),
    (CHUNK, None, 0.0, 5.0, 100),
    (CHUNK + 1, None, 1.5, 4.0, 7),
    (3 * CHUNK + 5, None, -5.0, 5.0, 100),
    (3 * CHUNK + 5, 50, 0.0, 400.0, 37),
    (3 * CHUNK + 5, None, -50.0, 3 * (3 * CHUNK + 5), 61),
    (3 * CHUNK, None, -2.0, 3.0, 1),
    (CHUNK + 1, None, 2.0, 2.0, 5),
    # tiny N: windows reach a point's own translates
    (2, None, -5.0, 5.0, 10),
    (3, None, 0.0, 7.0, 14),
    (3, 1, -3.0, 3.0, 12),
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
    rng = np.random.default_rng(n)
    if kind == "tied_floats":   # on a grid of 1/8: duplicates, exact edges
        return np.round(rng.random(n) * 8) / 8 % 1.0
    return rng.random(n)


# chunks of CHUNK // split sources: the chunk histograms sum to the same
# counts wherever the chunk boundaries fall
@pytest.mark.parametrize("split", [1, 2, 4])
@pytest.mark.parametrize("kind", ["roots", "O2", "floats", "tied_roots",
                                  "tied_floats"])
@pytest.mark.parametrize("n,N,lo,hi,bins", BLOCK_ORACLE_CASES)
def test_matches_block_oracle(monkeypatch, n, N, lo, hi, bins, kind,
                              split):
    monkeypatch.setattr(statistics, "_CHUNK", CHUNK // split)
    pts = _points(kind, n)
    got = pair_correlation(pts, lo, hi, bins, N=N)
    want = pair_correlation_by_block(pts, lo, hi, bins, N=N)
    assert got.n_points == want.n_points
    assert got.histogram.counts.tolist() == want.histogram.counts.tolist()


def test_memory_is_linear_in_points():
    # The kernel holds n-length arrays (sorted xs, ms, mus; the cut
    # translates' xs, ms, mus and origin indices; while building them a
    # translate xs + k, the pieces of one concatenation and one k*ms
    # temporary): at most 10 of 8 bytes each.  A chunk holds its starts,
    # counts, order, sources, ms, mus, histogram and the transients of the
    # two searches, and an offset step at most 8 more: 16 arrays of
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

def test_shift_invariance_on_dyadics():
    rng = np.random.default_rng(3)
    pts = rng.integers(0, 1024, 500) / 1024.0
    shifted = (pts + 0.25) % 1.0
    a = pair_correlation(pts, -5.0, 5.0, 200)
    b = pair_correlation(shifted, -5.0, 5.0, 200)
    assert a.histogram.counts.tolist() == b.histogram.counts.tolist()
    assert ks_uniform(pts) == pytest.approx(ks_uniform(shifted), abs=0.1)


def test_symmetry_on_symmetric_range():
    # bin edges chosen off the rationals so delta = 0 sits mid-bin
    seq = take_n(5, 1500)
    res = pair_correlation(seq, lo=-5.025, hi=5.025, bins=201)
    c = res.histogram.counts
    assert c.tolist() == c[::-1].tolist()


def test_coincident_pairs_land_in_first_bin():
    # x = 0 twice in the D=5 sequence: roots (1,0) and (5,0)
    seq = take_n(5, 6)
    res = pair_correlation(seq, 0.0, 5.0, 100)
    assert res.histogram.counts[0] >= 2


def test_histogram_merge_rules():
    # histograms no longer merge; what remains is the shape rule and the
    # per-result normalization a merge relied on
    with pytest.raises(ValueError):
        Histogram(0.0, 5.0, 50, counts=np.zeros(100, dtype=np.int64))
    h = Histogram(0.0, 5.0, 100)
    h.counts[3] = 5
    r = PairCorrResult(h, 10)
    assert r.r2_total() == 0.5
    assert r.values()[3] == pytest.approx(5 / (10 * 0.05))
    assert r.values().sum() * h.width == pytest.approx(r.r2_total())


def test_pair_correlation_requires_two_points():
    with pytest.raises(ValueError):
        pair_correlation([0.5])


# ------------------------------------------------------------ counting

def test_counting_function_examples():
    pts = [0.0, 0.5, 0.25, 0.75]
    assert counting_function(pts, 0.0, 4, (0.0, 1.0)) == 1
    assert counting_function(pts, 0.0, 4, (0.0, 4.0)) == 4
    assert counting_function(pts, 0.0, 4, (1.0, 1.0)) == 0


def test_counting_function_on_sequence():
    seq = take_n(5, 50)
    total = counting_function(seq, 0.25, 50, (-25.0, 25.0))
    assert total == 50  # the slab covers the whole circle once


def test_count_distribution_unit_interval_mean():
    seq = take_n(5, 4000)
    probs = count_distribution(seq, 4000, (0.0, 1.0), 3000, seed=11)
    assert probs.sum() == pytest.approx(1.0)
    mean = float(np.dot(np.arange(len(probs)), probs))
    assert abs(mean - 1.0) < 0.1


def test_count_distribution_trivial_cases():
    assert count_distribution([0.3], 1, (0.0, 0.0), 100).tolist() == [1.0]
    probs = count_distribution([0.3], 1, (0.0, 1.0), 64, seed=5)
    assert probs.tolist() == [0.0, 1.0]   # width-1 window always holds it


def test_count_distribution_deterministic_by_seed():
    seq = take_n(17, 500)
    a = count_distribution(seq, 500, (0.0, 2.0), 400, seed=9)
    b = count_distribution(seq, 500, (0.0, 2.0), 400, seed=9)
    assert a.tolist() == b.tolist()


# ------------------------------------------------------------ KS statistic

def test_ks_equispaced_and_degenerate():
    n = 1000
    assert ks_uniform(np.arange(n) / n) <= 1.0 / n + 1e-12
    assert ks_uniform(np.zeros(50)) == pytest.approx(1.0)


def test_ks_roots_sequence_decays():
    seq = take_n(5, 100_000)
    assert ks_uniform(seq) < 0.02
