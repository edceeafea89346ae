"""Empirical fine-scale statistics of sequences mod 1.

The central object is the pair correlation of the first N points: the
histogram of N * (x_i - x_j) over ordered pairs i != j, with differences
taken on the circle.  When the points arrive as roots (mu, m) the
differences are formed from exact integer cross products, so which pairs
land in which bin is reproducible bit for bit; only the final binning
happens in double precision.

The pairs are never listed.  With the points sorted, the neighbours of
each point within the window form one run of the translated point set,
and `pair_correlation` walks all runs offset by offset, so it holds
O(n) data however many pairs there are.
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

# sources per chunk; bounds the length of every per-offset array
_CHUNK = 1 << 15


@dataclass
class Histogram:
    lo: float
    hi: float
    bins: int
    counts: np.ndarray = None          # raw pair counts, int64

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
        ms = np.asarray(points.ms, dtype=np.int64)
        mus = np.asarray(points.mus, dtype=np.int64)
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

    The neighbours of source j are the points of the integer translates
    in its window [x_j + lo/N, x_j + hi/N) (widened by _WINDOW_EPS), and
    as the points are sorted they form one run [start_j, end_j) of the
    translated array.  The sources are taken _CHUNK at a time, ordered by
    run length, and walked offset by offset: at offset t every source
    whose run is longer than t is paired with its neighbour start_j + t,
    so the sources still walking are a shrinking prefix and the pairs
    are never held all at once.  Of each translate only the points some
    window reaches are kept, n plus the wrapped neighbours.  So the
    memory is O(n), plus O(_CHUNK) per thread, whatever the number of
    pairs, and the work is O(pairs + n).  Chunk histograms are summed
    as integers, so the counts do not depend on `threads`.
    """
    xs, exact, n = _point_data(points)
    if n < 2:
        raise ValueError("need at least two points")
    if N is None:
        N = n
    hist = Histogram(lo, hi, bins)
    if not (hi > lo) or bins < 1:
        return PairCorrResult(hist, N)

    width = (hi - lo) / bins
    wlo, whi = lo / N - _WINDOW_EPS, hi / N + _WINDOW_EPS
    # each translate xs + k, k in shifts, cut to the points in
    # [xs[0] + wlo, xs[-1] + whi), the union of all windows (float
    # addition is monotone); `orig` holds their indices into xs
    reach = (xs[0] + wlo, xs[-1] + whi)
    shifts = range(math.floor(wlo), math.floor(whi) + 2)
    cuts = [(k, *np.searchsorted(xs + k, reach)) for k in shifts]
    orig = np.concatenate([np.arange(a, b) for _, a, b in cuts])
    xs_ext = np.concatenate([xs[a:b] + k for k, a, b in cuts])
    if exact is not None:
        ms, mus = exact
        ms_ext = ms[orig]
        mus_ext = np.concatenate([mus[a:b] + k * ms[a:b]
                                  for k, a, b in cuts])

    def do_chunk(c0):
        c1 = min(c0 + _CHUNK, n)
        starts = np.searchsorted(xs_ext, xs[c0:c1] + wlo, side="left")
        counts = np.searchsorted(xs_ext, xs[c0:c1] + whi,
                                 side="left") - starts
        # longest runs first: the sources still walking at offset t
        # are the first live[t]
        order = np.argsort(counts)[::-1]
        src, starts = order + c0, starts[order]
        live = len(order) - np.cumsum(np.bincount(counts))[:-1]
        if exact is not None:
            ms_src, mus_src = ms[src], mus[src]
        else:
            xs_src = xs[src]
        out = np.zeros(bins, dtype=np.int64)
        for t, walking in enumerate(live):
            j = slice(walking)
            tgt = starts[j] + t
            # x_i - x_j with i the found neighbor and j the source
            if exact is not None:
                num = mus_ext[tgt] * ms_src[j] - mus_src[j] * ms_ext[tgt]
                den = ms_ext[tgt] * ms_src[j]
                delta = N * (num / den)
            else:
                delta = N * (xs_ext[tgt] - xs_src[j])
            idx = np.floor((delta - lo) / width)
            keep = (idx >= 0) & (idx < bins) & (orig[tgt] != src[j])
            out += np.bincount(idx[keep].astype(np.int64), minlength=bins)
        return out

    chunks = range(0, n, _CHUNK)
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            parts = list(ex.map(do_chunk, chunks))
    else:
        parts = [do_chunk(c) for c in chunks]
    hist.counts = np.sum(parts, axis=0, dtype=np.int64)
    return PairCorrResult(hist, N)


def counting_function(points, x: float, N: int, interval) -> int:
    """#{j: N*(x_j - x - k) in [lo, hi) for some integer k}."""
    lo, hi = interval
    if not hi > lo:
        return 0
    if isinstance(points, RootSequence):
        d = points.normalized() - x
    else:
        d = np.asarray(points, dtype=np.float64) - x
    # integers k in the half-open slab (d - hi/N, d - lo/N]
    return int(np.sum(np.floor(d - lo / N) - np.floor(d - hi / N)))


def _sorted_x(points) -> np.ndarray:
    """The points x in [0, 1), sorted: mu/m for a RootSequence, else the
    floats mod 1."""
    if isinstance(points, RootSequence):
        return np.sort(points.normalized())
    return np.sort(np.asarray(points, dtype=np.float64) % 1.0)


def count_distribution(points, N: int, interval, sample_count: int,
                       seed: int = 0) -> np.ndarray:
    """Empirical P(count = k) over equispaced windows with random offset.

    Slides the interval x + I/N over sample_count positions x =
    (i + u)/sample_count, u uniform from the seed, and tabulates how
    many points fall inside each time.  Returns the probability vector.
    """
    lo, hi = interval
    pts = _sorted_x(points)
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
    pts = _sorted_x(points)
    n = len(pts)
    if n == 0:
        raise ValueError("need at least one point")
    grid = np.arange(n) / n
    return float(max(np.max(grid + 1.0 / n - pts), np.max(pts - grid)))
