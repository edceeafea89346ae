#!/usr/bin/env python3
"""Spacing statistics of the root sequences at moderate N."""

import argparse
import sys

import numpy as np

from georoots.roots import take_n
from georoots.statistics import pair_correlation

FAILS = 0


def ok_line(ok, label, detail=""):
    global FAILS
    if not ok:
        FAILS += 1
    print(f"{'PASS' if ok else 'FAIL':4}  {label.ljust(58)}"
          f"{('  ' + detail) if detail else ''}")


def bar(x, scale=40):
    return "#" * max(0, int(round(x * scale)))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--D", type=int, default=5)
    ap.add_argument("--N", type=int, default=50_000)
    args = ap.parse_args()
    D, N = args.D, args.N

    pts = take_n(D, N)
    print(f"first {N} roots for D = {D} (largest modulus {int(pts.ms[-1])})")

    # Kolmogorov-Smirnov distance of the sorted x = mu/m to the uniform law
    xs = np.sort(pts.mus / pts.ms)
    grid = np.arange(N) / N
    ks = float(max(np.max(grid + 1.0 / N - xs), np.max(xs - grid)))
    ok_line(ks < 0.02, "KS distance to the uniform law",
            f"{ks:.5f} at N = {N}")

    res = pair_correlation(pts, lo=0.0, hi=5.0, bins=25)
    vals = res.values()
    print()
    print("pair correlation on [0, 5], 25 bins  (flat = Poisson at height 1)")
    for c, v in zip(res.histogram.centers(), vals):
        print(f"  {c:5.2f}  {v:7.4f}  {bar(v / 2)}")
    r2_total = float(res.histogram.counts.sum()) / N
    ok_line(abs(r2_total - float(vals.sum()) * 0.2) < 1e-9,
            "r2 total = sum of bins * width")
    # the density dips below 1 near zero (repulsion) and recovers
    ok_line(vals[:2].mean() < vals[-5:].mean(),
            "repulsion near zero relative to the tail",
            f"{vals[:2].mean():.3f} vs {vals[-5:].mean():.3f}")

    # windows [x, x + L/N) catch L points on average: count them at 4000
    # equispaced x with a random offset
    L = 2.0
    u = np.random.default_rng(1).random()
    starts = (np.arange(4000) + u) / 4000
    ends = starts + L / N
    counts = np.searchsorted(xs, ends % 1.0) - np.searchsorted(xs, starts)
    counts = np.where(ends >= 1.0, counts + N, counts)  # wrapped past 1
    dist = np.bincount(counts) / 4000
    mean = float(np.dot(np.arange(len(dist)), dist))
    ok_line(abs(mean - L) < 0.15, "mean window count = window length",
            f"{mean:.3f} vs {L}")
    x = 0.3217
    # the k with x_j - k in [x, x + L/N), summed over j
    d = xs - x
    k = int(np.sum(np.floor(d) - np.floor(d - L / N)))
    print(f"\n  window of length {L}/N at x = {x}: {k} roots")

    print()
    print("Result: COMPLETE" if FAILS == 0 else f"Result: {FAILS} FAIL(S)")
    return 0 if FAILS == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
