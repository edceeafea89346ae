"""Empirical fine-scale statistics of root sequences mod 1.

The central object is the pair correlation of the first N roots: the
histogram of N * (x_i - x_j) over ordered pairs i != j of the
normalized roots x = mu/m, with differences taken on the circle.  The
differences are formed from exact integer cross products, so which
pairs land in which bin is reproducible bit for bit; only the final
binning happens in double precision.

The pairs are never listed.  With the points sorted, the later
neighbours of each point within the window form one forward run of the
translated point set, and `pair_correlation` walks all runs offset by
offset, so it holds O(N) data however many pairs there are.  Each
unordered pair is met once, from its left end, and binned as delta and
as -delta: its reversal's double is exactly -delta, as the integer
numerator changes sign and every float step is odd.
"""

import math
from typing import NamedTuple

import numpy as np

from . import InputError
from .roots import RootSequence

# window inflation, in units of x, when pre-selecting candidate pairs;
# generous relative to double rounding error, harmless when too wide
# because every candidate is re-binned exactly afterwards
_WINDOW_EPS = 1e-12

# sources per chunk; bounds the length of every per-offset array
_CHUNK = 1 << 15


class Histogram:
    """bins equal bins on [lo, hi); counts holds the raw pair counts
    (int64, zeros when not given)."""

    __slots__ = ("lo", "hi", "bins", "counts")

    def __init__(self, lo: float, hi: float, bins: int,
                 counts: np.ndarray = None):
        if counts is None:
            counts = np.zeros(bins, dtype=np.int64)
        if len(counts) != bins:
            raise ValueError("counts length != bins")
        self.lo, self.hi, self.bins, self.counts = lo, hi, bins, counts

    @property
    def width(self) -> float:
        return (self.hi - self.lo) / self.bins

    def centers(self) -> np.ndarray:
        return self.lo + (np.arange(self.bins) + 0.5) * self.width


class PairCorrResult(NamedTuple):
    histogram: Histogram
    n_points: int

    def values(self) -> np.ndarray:
        """Per-bin density: pairs / (N * bin width)."""
        return self.histogram.counts / (self.n_points * self.histogram.width)


def _sorted_exactly(ms: np.ndarray, mus: np.ndarray):
    """x = mu/m, ms and mus sorted by the exact fractions mu/m.

    Rounding is monotone, so sorting the doubles orders the fractions up
    to runs of equal x.  With m < 2^31, distinct fractions differ by at
    least 1/(m_i m_j) > 2^-62, so they share a double only when m_i m_j
    exceeds 2^53, and the integers floor(mu 2^64 / m) order them
    exactly; each run that holds a neighbouring pair out of exact order
    is sorted by them."""
    xs = mus / ms
    order = np.argsort(xs)
    xs, ms, mus = xs[order], ms[order], mus[order]
    tied = np.flatnonzero(xs[1:] == xs[:-1])
    tied = tied[mus[tied + 1] * ms[tied] < mus[tied] * ms[tied + 1]]
    for a in set(np.searchsorted(xs, xs[tied]).tolist()):
        b = np.searchsorted(xs, xs[a], side="right")
        run = sorted(range(a, b),
                     key=lambda i: (int(mus[i]) << 64) // int(ms[i]))
        ms[a:b], mus[a:b] = ms[run], mus[run]
    return xs, ms, mus


def pair_correlation(points: RootSequence, lo: float = 0.0, hi: float = 5.0,
                     bins: int = 100) -> PairCorrResult:
    """Histogram of N*(x_i - x_j) mod N over ordered pairs i != j of the
    N roots `points`, x = mu/m in [0, 1).

    N is both the difference scale and the normalization.  Pair
    counting is exact: x_i + k - x_j is formed as the integer fraction
    ((mu_i + k m_i) m_j - mu_j m_i) / (m_i m_j), and only then divided
    out and scaled by N in doubles, to delta, which goes to bin
    floor((delta - lo) / width) in doubles.  So a delta exactly on a
    representable bin edge goes to the bin starting there (to the
    right).  Non-finite lo or hi, bins < 1 and fewer than two points
    raise InputError; lo >= hi counts nothing.

    Each unordered pair is walked once, from its left end, and binned as
    delta and as -delta.  The points are sorted by their exact fractions
    (`_sorted_exactly`) and laid end to end with their translates by k = 1,
    2, ..., so the translated array is sorted and source j is its own copy
    at index j.  The pairs of j are its forward run j+1 .. end_j - 1, the
    points after it below x_j + W, with W = max(hi, -lo, 0)/N + _WINDOW_EPS:
    up to rounding, a pair can land as delta only when delta < hi, and as
    -delta only when delta <= -lo.  The widening by _WINDOW_EPS covers the
    rounding generously, and a wider run is harmless, as every pair found is
    binned exactly.  Of each translate only the points some run reaches are
    kept, those below x_max + W.  Source j's own copies x_j + k, k >= 1, may
    lie in its run; the copy by k sits at a known index of the translated
    array, and each one in the run is binned by the same arithmetic, for
    both signs, and subtracted.

    A forward pair has exact difference >= 0, so num >= 0 and
    delta >= +0.0, and the binning is monotone in delta.  So delta is
    binned unless +0.0 already lands past the last bin, and -delta
    (<= -0.0) when lo < 0.  When lo > 0, -0.0 - lo = -lo lands before
    the first bin, and so does every -delta.  When lo == 0, -delta lands
    only if -delta / width floors to 0, that is for the ties, delta = 0,
    whose -0.0 goes to bin 0 (a nonzero delta is at least
    N/(m_i m_j) > 2^-62, far from underflow); they are counted, not
    binned, so a one-sided window bins each pair once.

    This bins the multiset of doubles that pairing each point with every
    neighbour in both orders bins.  Reverse a pair (neighbour i at
    translate k, source j): the pair (j at translate -k, source i) has
    integer numerator exactly -num and the same denominator m_i m_j.
    int64 -> float64 conversion, IEEE division and the product with N
    are odd functions, so its double is exactly -delta.  Every ordered
    pair i != j at translate k is one order of an unordered pair of
    distinct translated points, and translating that pair so its left
    end (the earlier in the translate-major sorted order) has k = 0
    gives exactly one forward pair.

    The sources are taken _CHUNK at a time, ordered by run length, and
    walked offset by offset: at offset t every source whose run is
    longer than t is paired with its neighbour j + 1 + t, so the sources
    still walking are a shrinking prefix and the pairs are never held
    all at once.  The memory is O(N + _CHUNK), whatever the number of
    pairs, and the work is O(pairs + N).  Chunk histograms are summed as
    integers.

    The counts do not depend on the order that sorting gives to equal
    fractions.  Swapping two of them permutes the indices of the sorted
    and the translated arrays, and with them the sources and the
    members of every forward run.  A run is the set of later indices
    whose translated x is below x_j + W, a condition on values only, and
    a pair's delta is formed from the two points' own (m, mu).  The pair
    of the two equal fractions has delta = +0.0 from either end, and
    every other pair keeps its left end, so the multiset of binned
    doubles, and with it the histogram, is the same.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InputError("lo and hi must be finite")
    if bins < 1:
        raise InputError("bins must be >= 1")
    N = len(points)
    if N < 2:
        raise InputError("need N >= 2 for pair statistics")
    hist = Histogram(lo, hi, bins)
    if not hi > lo:
        return PairCorrResult(hist, N)

    xs, ms, mus = _sorted_exactly(np.asarray(points.ms, dtype=np.int64),
                                  np.asarray(points.mus, dtype=np.int64))
    width = (hi - lo) / bins
    W = max(hi, -lo, 0.0) / N + _WINDOW_EPS
    # each translate xs + k, k >= 0, cut to the points xs[:b] below
    # xs[-1] + W, the end of the last run (float addition is monotone);
    # it starts at index `at` of the translated array, and the cut by 0
    # is the whole of xs
    cuts = [(k, np.searchsorted(xs + k, xs[-1] + W))
            for k in range(math.floor(W) + 2)]
    ats = np.cumsum([0] + [b for _, b in cuts])
    xs_ext = np.concatenate([xs[:b] + k for k, b in cuts])
    ms_ext = np.concatenate([ms[:b] for _, b in cuts])
    mus_ext = np.concatenate([mus[:b] + k * ms[:b] for k, b in cuts])

    # +0.0 is the least forward delta, so delta is binned unless +0.0
    # already lands past the last bin (the binning is monotone)
    plus = math.floor(-lo / width) < bins

    def binned(tgt, m_s, mu_s):
        """Histogram, with an outer bin on each side, of the pairs of
        neighbours tgt (indices into the translated arrays) and sources
        (m_s, mu_s), each as delta and as -delta."""
        # x_i - x_j with i the neighbour tgt and j the source
        m_t = ms_ext[tgt]
        num = mus_ext[tgt]
        num *= m_s
        num -= mu_s * m_t
        m_t *= m_s
        delta = num / m_t
        delta *= N
        if lo < 0:
            out = histogram(-delta)
        else:
            out = np.zeros(bins + 2, dtype=np.int64)
            if lo == 0:
                out[1] = np.count_nonzero(delta == 0)
        if plus:
            out += histogram(delta)
        return out

    def histogram(delta):
        """bincount of floor((delta - lo) / width) + 1, clipped to
        [0, bins + 1]; overwrites delta."""
        delta -= lo
        delta /= width
        np.floor(delta, out=delta)
        np.clip(delta, -1, bins, out=delta)
        delta += 1
        return np.bincount(delta.astype(np.intp), minlength=bins + 2)

    def do_chunk(c0):
        c1 = min(c0 + _CHUNK, N)
        src = np.arange(c0, c1)
        ends = np.searchsorted(xs_ext, xs[c0:c1] + W, side="left")
        # self pairs: source j's copy in the cut (k, b), k >= 1, is at
        # at + j if j < b, and lies in j's run when it is below end_j
        out = np.zeros(bins + 2, dtype=np.int64)
        for (_, b), at in zip(cuts[1:], ats[1:]):
            hit = np.flatnonzero((src < b) & (at + src < ends))
            out -= binned(at + src[hit], ms[src[hit]], mus[src[hit]])
        # longest runs first: the sources still walking at offset t
        # are the first live[t]
        counts = ends - src - 1
        order = np.argsort(counts.astype(np.min_scalar_type(counts.max())),
                           kind="stable")[::-1]
        src = order + c0
        live = len(order) - np.cumsum(np.bincount(counts))[:-1]
        m_src, mu_src = ms[src], mus[src]
        for t, walking in enumerate(live):
            out += binned(src[:walking] + (1 + t), m_src[:walking],
                          mu_src[:walking])
        return out[1:-1]

    parts = [do_chunk(c) for c in range(0, N, _CHUNK)]
    hist.counts = np.sum(parts, axis=0, dtype=np.int64)
    return PairCorrResult(hist, N)
