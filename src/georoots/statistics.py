"""Empirical fine-scale statistics of sequences mod 1.

The central object is the pair correlation of the first N points: the
histogram of N * (x_i - x_j) over ordered pairs i != j, with differences
taken on the circle.  When the points arrive as roots (mu, m) the
differences are formed from exact integer cross products, so which pairs
land in which bin is reproducible bit for bit; only the final binning
happens in double precision.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .roots import RootSequence

# window inflation, in units of x, when pre-selecting candidate pairs;
# generous relative to double rounding error, harmless when too wide
# because every candidate is re-binned exactly afterwards
_WINDOW_EPS = 1e-12

_BLOCK = 1 << 16


@dataclass
class Histogram:
    lo: float
    hi: float
    bins: int
    counts: np.ndarray = None          # raw pair counts, int64
    normalization: str = "RawPairs"    # or "PairCorrelation"

    def __post_init__(self):
        if self.counts is None:
            self.counts = np.zeros(self.bins, dtype=np.int64)
        if len(self.counts) != self.bins:
            raise ValueError("counts length != bins")

    @property
    def width(self) -> float:
        return (self.hi - self.lo) / self.bins

    def centers(self) -> np.ndarray:
        return self.lo + (np.arange(self.bins) + 0.5) * self.width


@dataclass
class PairCorrResult:
    histogram: Histogram
    n_points: int

    def values(self) -> np.ndarray:
        """Per-bin density: pairs / (N * bin width)."""
        return self.histogram.counts / (self.n_points * self.histogram.width)

    def r2_total(self) -> float:
        """Plain pair-count measure of the whole range: #pairs / N."""
        return float(self.histogram.counts.sum()) / self.n_points


def bin_index(delta: float, lo: float, width: float) -> int:
    """The shared binning rule: floor((delta-lo)/width) in doubles.

    Values landing exactly on a representable bin edge go to the bin
    starting there (to the right).
    """
    return int(math.floor((delta - lo) / width))


def _point_data(points):
    """(xs sorted, exact (ms, mus) or None, n)."""
    if isinstance(points, RootSequence):
        ms = points.ms.astype(np.int64)
        mus = points.mus.astype(np.int64)
        xs = mus / ms
        order = np.argsort(xs, kind="stable")
        return xs[order], (ms[order], mus[order]), len(xs)
    xs = np.asarray(points, dtype=np.float64) % 1.0
    order = np.argsort(xs, kind="stable")
    return xs[order], None, len(xs)


def pair_correlation(points, lo: float = 0.0, hi: float = 5.0,
                     bins: int = 100, N: int = None,
                     threads: int = None) -> PairCorrResult:
    """Histogram of N*(x_i - x_j) mod N over ordered pairs i != j.

    `points` is a RootSequence (exact integer differences) or an array
    of floats in [0, 1).  N defaults to the number of points and is both
    the difference scale and the normalization.  Pair counting is exact;
    see bin_index for the edge rule.
    """
    xs, exact, n = _point_data(points)
    if n < 2:
        raise ValueError("need at least two points")
    if N is None:
        N = n
    hist = Histogram(lo, hi, bins, normalization="PairCorrelation")
    if not (hi > lo) or bins < 1:
        return PairCorrResult(hist, N)

    width = (hi - lo) / bins
    wlo, whi = lo / N - _WINDOW_EPS, hi / N + _WINDOW_EPS
    # integer translates of the point set covering every window
    # [x + wlo, x + whi] with x in [0, 1)
    shifts = range(math.floor(wlo), math.floor(whi) + 2)
    xs_ext = np.concatenate([xs + k for k in shifts])
    if exact is not None:
        ms, mus = exact
        ms_ext = np.tile(ms, len(shifts))
        mus_ext = np.concatenate([mus + k * ms for k in shifts])

    def do_block(b0):
        b1 = min(b0 + _BLOCK, n)
        src = np.arange(b0, b1)
        starts = np.searchsorted(xs_ext, xs[b0:b1] + wlo, side="left")
        ends = np.searchsorted(xs_ext, xs[b0:b1] + whi, side="left")
        counts = ends - starts
        total = int(counts.sum())
        if total == 0:
            return np.zeros(bins, dtype=np.int64)
        rep_src = np.repeat(src, counts)
        offs = np.arange(total) - np.repeat(
            np.concatenate([[0], np.cumsum(counts)[:-1]]), counts)
        tgt = np.repeat(starts, counts) + offs
        # x_i - x_j with i the found neighbor and j the block source
        if exact is not None:
            num = mus_ext[tgt] * ms[rep_src] - mus[rep_src] * ms_ext[tgt]
            den = ms_ext[tgt] * ms[rep_src]
            delta = N * (num / den)
        else:
            delta = N * (xs_ext[tgt] - xs[rep_src])
        idx = np.floor((delta - lo) / width)
        keep = (idx >= 0) & (idx < bins) & ((tgt % n) != rep_src)
        return np.bincount(idx[keep].astype(np.int64), minlength=bins)

    blocks = range(0, n, _BLOCK)
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            parts = list(ex.map(do_block, blocks))
    else:
        parts = [do_block(b) for b in blocks]
    hist.counts = np.sum(parts, axis=0, dtype=np.int64)
    return PairCorrResult(hist, N)


def counting_function(points, x: float, N: int, interval) -> int:
    """#{j: N*(x_j - x - k) in [lo, hi) for some integer k}."""
    lo, hi = interval
    if not hi > lo:
        return 0
    if isinstance(points, RootSequence):
        d = points.mus / points.ms - x
    else:
        d = np.asarray(points, dtype=np.float64) - x
    # integers k in the half-open slab (d - hi/N, d - lo/N]
    return int(np.sum(np.floor(d - lo / N) - np.floor(d - hi / N)))


def count_distribution(points, N: int, interval, sample_count: int,
                       seed: int = 0) -> np.ndarray:
    """Empirical P(count = k) over equispaced windows with random offset.

    Slides the interval x + I/N over sample_count positions x =
    (i + u)/sample_count, u uniform from the seed, and tabulates how
    many points fall inside each time.  Returns the probability vector.
    """
    lo, hi = interval
    if isinstance(points, RootSequence):
        pts = np.sort(points.mus / points.ms)
    else:
        pts = np.sort(np.asarray(points, dtype=np.float64) % 1.0)
    npts = len(pts)
    u = np.random.default_rng(seed).random()
    xs = (np.arange(sample_count) + u) / sample_count
    if not hi > lo:
        return np.array([1.0])
    whole, frac = divmod(hi - lo, N)
    base = int(whole) * npts
    a = (xs + lo / N) % 1.0
    b = a + frac / N
    ins = np.searchsorted(pts, b % 1.0) - np.searchsorted(pts, a)
    ins = np.where(b >= 1.0, ins + npts, ins)   # window wrapped past 1
    counts = base + ins
    return np.bincount(counts) / sample_count


def ks_uniform(points) -> float:
    """Kolmogorov-Smirnov statistic against the uniform law on [0,1)."""
    if isinstance(points, RootSequence):
        pts = np.sort(points.mus / points.ms)
    else:
        pts = np.sort(np.asarray(points, dtype=np.float64) % 1.0)
    n = len(pts)
    if n == 0:
        raise ValueError("need at least one point")
    grid = np.arange(n) / n
    return float(max(np.max(grid + 1.0 / n - pts), np.max(pts - grid)))
