"""Empirical fine-scale statistics of root sequences mod 1.

The central object is the pair correlation of the first N roots: the
histogram of N * (x_i - x_j) over ordered pairs i != j of the
normalized roots x = mu/m, with differences taken on the circle.  The
differences are formed from exact integer cross products, so which
pairs land in which bin is reproducible bit for bit; only the final
binning happens in double precision.

The pairs are never listed.  With the points sorted, the neighbours of
each point within the window form one run of the translated point set,
and `pair_correlation` walks all runs offset by offset, so it holds
O(N) data however many pairs there are.
"""

import math
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


def pair_correlation(points: RootSequence, lo: float = 0.0, hi: float = 5.0,
                     bins: int = 100) -> PairCorrResult:
    """Histogram of N*(x_i - x_j) mod N over ordered pairs i != j of the
    N roots `points`, x = mu/m.

    N is both the difference scale and the normalization.  Pair
    counting is exact: x_i + k - x_j is formed as the integer fraction
    ((mu_i + k m_i) m_j - mu_j m_i) / (m_i m_j), and only then divided
    out and scaled by N in doubles, to delta, which goes to bin
    floor((delta - lo) / width) in doubles.  So a delta exactly on a
    representable bin edge goes to the bin starting there (to the
    right).

    The neighbours of source j are the points of the integer translates
    in its window [x_j + lo/N, x_j + hi/N) (widened by _WINDOW_EPS), and
    as the points are sorted they form one run [start_j, end_j) of the
    translated array.  The sources are taken _CHUNK at a time, ordered by
    run length, and walked offset by offset: at offset t every source
    whose run is longer than t is paired with its neighbour start_j + t,
    so the sources still walking are a shrinking prefix and the pairs
    are never held all at once.  Of each translate only the points some
    window reaches are kept, N plus the wrapped neighbours.  So the
    memory is O(N + _CHUNK), whatever the number of pairs, and the work
    is O(pairs + N).  Chunk histograms are summed as integers.

    The walk pairs each source with every point of its run, its own
    copies x_j + k included.  Those self pairs are taken out afterwards:
    the copy of source j in the translate by k sits at a known index of
    the translated array, and it is in j's run exactly when that index
    lies in [start_j, end_j); each such copy is binned by the same
    arithmetic as the walk and subtracted from the chunk's histogram.

    The counts do not depend on the order that sorting gives to equal
    x.  The run of j is the set of indices whose translated x lies in
    j's window, a condition on values only, and a pair's difference is
    formed from the two points' own (m, mu).  Swapping two points with
    equal x permutes the indices of the sorted and the translated
    arrays, and with them the sources and the members of every run, but
    not the multiset of (source, neighbour) point pairs that are binned,
    nor which of them are self pairs.  Each pair is binned once in
    either order, so the histogram is the same.
    """
    ms = np.asarray(points.ms, dtype=np.int64)
    mus = np.asarray(points.mus, dtype=np.int64)
    xs = mus / ms
    order = np.argsort(xs)
    xs, ms, mus = xs[order], ms[order], mus[order]
    N = len(xs)
    if N < 2:
        raise ValueError("need at least two points")
    hist = Histogram(lo, hi, bins)
    if not (hi > lo) or bins < 1:
        return PairCorrResult(hist, N)

    width = (hi - lo) / bins
    wlo, whi = lo / N - _WINDOW_EPS, hi / N + _WINDOW_EPS
    # each translate xs + k, k in shifts, cut to the points xs[a:b] in
    # [xs[0] + wlo, xs[-1] + whi), the union of all windows (float
    # addition is monotone); it starts at index `at` of the translated
    # array
    reach = (xs[0] + wlo, xs[-1] + whi)
    shifts = range(math.floor(wlo), math.floor(whi) + 2)
    cuts = [(k, *np.searchsorted(xs + k, reach)) for k in shifts]
    ats = np.cumsum([0] + [b - a for _, a, b in cuts])
    xs_ext = np.concatenate([xs[a:b] + k for k, a, b in cuts])
    ms_ext = np.concatenate([ms[a:b] for _, a, b in cuts])
    mus_ext = np.concatenate([mus[a:b] + k * ms[a:b] for k, a, b in cuts])

    def binned(tgt, m_s, mu_s):
        """Histogram, with an outer bin on each side, of the pairs of
        neighbours tgt (indices into the translated arrays) and sources
        (m_s, mu_s)."""
        # x_i - x_j with i the neighbour tgt and j the source
        m_t = ms_ext[tgt]
        num = mus_ext[tgt]
        num *= m_s
        num -= mu_s * m_t
        m_t *= m_s
        delta = num / m_t
        delta *= N
        return histogram(delta)

    def histogram(delta):
        """bincount of floor((delta - lo) / width) + 1, clipped to
        [0, bins + 1]; overwrites delta."""
        delta -= lo
        delta /= width
        np.floor(delta, out=delta)
        np.clip(delta, -1, bins, out=delta)
        delta += 1
        return np.bincount(delta.astype(np.intp), minlength=bins + 2)

    # the source itself, its copy by 0: num = 0 and delta = 0.0 exactly
    zero = histogram(np.zeros(1))

    def do_chunk(c0):
        c1 = min(c0 + _CHUNK, N)
        starts = np.searchsorted(xs_ext, xs[c0:c1] + wlo, side="left")
        ends = np.searchsorted(xs_ext, xs[c0:c1] + whi, side="left")
        # self pairs: source j's copy in the cut (k, a, b) is at
        # at + j - a, if a <= j < b, and the walk pairs it with j when
        # it lies in j's run
        src = np.arange(c0, c1)
        out = np.zeros(bins + 2, dtype=np.int64)
        for (k, a, b), at in zip(cuts, ats):
            own = at + src - a
            hit = (a <= src) & (src < b) & (starts <= own) & (own < ends)
            if k == 0:
                out -= np.count_nonzero(hit) * zero
            else:
                hit = np.flatnonzero(hit)
                out -= binned(own[hit], ms[src[hit]], mus[src[hit]])
        # longest runs first: the sources still walking at offset t
        # are the first live[t]
        counts = ends - starts
        order = np.argsort(counts)[::-1]
        src, starts = order + c0, starts[order]
        live = len(order) - np.cumsum(np.bincount(counts))[:-1]
        m_src, mu_src = ms[src], mus[src]
        for t, walking in enumerate(live):
            out += binned(starts[:walking] + t, m_src[:walking],
                          mu_src[:walking])
        return out[1:-1]

    parts = [do_chunk(c) for c in range(0, N, _CHUNK)]
    hist.counts = np.sum(parts, axis=0, dtype=np.int64)
    return PairCorrResult(hist, N)
