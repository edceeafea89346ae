#!/usr/bin/env python3
"""The limiting pair-correlation density, from exact invariants to a
side-by-side comparison with an empirical histogram.

The theoretical density at v is a truncated sum over double cosets of
base-geodesic stabilizers.  Each term needs two exact rational
invariants (q and a sign) plus one float evaluation of a piecewise
closed form H.  Truncation is by |q| <= q_max; the neglected tail is
estimated and folded in.  At the end the script writes the figure-1
data files through the command line entry point into a scratch
directory, the same files `georoots figure 1` produces.
"""

import argparse
import math
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

from georoots.cli import main as cli_main
from georoots.density import (
    H,
    _pairing,
    enumerate_coset_terms,
    kappa_and_vol,
    omega,
)
from georoots.geodesics import base_geodesic_set
from georoots.roots import take_n
from georoots.statistics import pair_correlation

LINE = "=" * 76
FAILS = 0


def ok_line(ok: bool, label: str, detail: str = "") -> None:
    global FAILS
    if not ok:
        FAILS += 1
    tag = "PASS" if ok else "FAIL"
    tail = f"  {detail}" if detail else ""
    print(f"{tag:4}  {label.ljust(60)}{tail}")


def h_samples() -> None:
    print(LINE)
    print("The H building block: two signed flavours, piecewise in q")
    print(LINE)
    # H(sign, q, v) takes a whole array of v, as omega's grid sum does
    at_q0 = H(+1, 0.0, np.array([2.0, 1.0]))    # H+(0, 2) and H+(0, 1)
    print(f"  H+(0, 2)    = {at_q0[0]:.12f}   (log 3 = "
          f"{math.log(3.0):.12f})")
    print(f"  H+(2, 1)    = {H(+1, 2.0, np.array([1.0]))[0]:.12f}")
    print(f"  H-(0, -2)   = {H(-1, 0.0, np.array([-2.0]))[0]:.12f}")
    ok_line(abs(at_q0[0] - math.log(3.0)) < 1e-15, "H+(0,2) = log 3")
    ok_line(at_q0[1] == 0.0, "H+ vanishes below the threshold")
    v = np.linspace(-4.0, 4.0, 81)
    ok_line(np.array_equal(H(+1, 3.0, v), H(-1, 3.0, v)),
            "the two flavours coincide for q > 1")


def invariants(D: int) -> None:
    print(LINE)
    print(f"Exact pair invariants for the base geodesics of D = {D}")
    print(LINE)
    base = base_geodesic_set(D)
    kappa, vol = kappa_and_vol(base)
    print(f"  kappa = {kappa:.12f}, volume factor = {vol:.12f}")
    print(f"  geodesic lengths: {[f'{x:.6f}' for x in base.lengths()]}")
    if D == 5:
        closed = 12.0 * math.log((3 + math.sqrt(5)) / 2) / math.pi ** 2
        ok_line(abs(kappa - closed) < 1e-12, "kappa(5) closed form",
                f"{closed:.12f}")
    # q = B/(s1 s2 D), B the polar form of the discriminant at the two
    # forms, s_i^2 D their discriminants (s = 2 on the I side, 1 on J)
    c1, c2 = base.geodesics[0], base.geodesics[1]
    s1, s2 = 2 // c1.mult, 2 // c2.mult
    q = Fraction(_pairing(c1.form, c2.form), s1 * s2 * D)
    print(f"  forms {c1.form} and {c2.form}: q(c1, c2) = {q}")
    ok_line(abs(q) != 1, "q is exact; the geodesics share no endpoint",
            f"value {q}")


def truncated_sum(D: int, q_max: float) -> None:
    print(LINE)
    print(f"Coset terms for D = {D} up to |q| <= {q_max}")
    print(LINE)
    base = base_geodesic_set(D)
    terms, skipped = enumerate_coset_terms(base, q_max)
    qs = sorted(t.q for t in terms)
    print(f"  {len(terms)} terms ({skipped} boundary hits); "
          f"q ranges {qs[0]:.3f} .. {qs[-1]:.3f}")
    ok_line(all(abs(t.q) <= q_max for t in terms), "truncation respected")
    # evenness: the density below uses each term at +v and -v
    grid = np.array([-2.0, -1.0, 1.0, 2.0])
    tab = omega(base, grid, q_max=q_max)
    ok_line(abs(tab.omega[0] - tab.omega[3]) < 1e-9 and
            abs(tab.omega[1] - tab.omega[2]) < 1e-9,
            "omega is even", f"tail estimate {tab.tail_estimate:.5f}")


def empirical_vs_theory(D: int, N: int, q_max: float) -> None:
    print(LINE)
    print(f"Empirical (N = {N}) vs theoretical density, D = {D}")
    print(LINE)
    pts = take_n(D, N)
    res = pair_correlation(pts, lo=0.0, hi=5.0, bins=50)
    emp = res.values()
    centers = res.histogram.centers()
    base = base_geodesic_set(D)
    tab = omega(base, centers, q_max=q_max)
    print("      v    empirical     theory       diff")
    for i in range(2, 50, 9):
        d = emp[i] - tab.omega[i]
        print(f"  {centers[i]:5.2f}   {emp[i]:9.4f}  {tab.omega[i]:9.4f}"
              f"   {d:+8.4f}")
    dev = np.abs(emp - tab.omega)
    ok_line(dev.max() < 0.12, "max deviation small already at this N",
            f"max {dev.max():.4f}, mean {dev.mean():.4f}")


def figure_files(N: int) -> None:
    print(LINE)
    print("Figure-1 data files via the CLI entry point")
    print(LINE)
    with tempfile.TemporaryDirectory() as tmp:
        code = cli_main(["figure", "1", "--N", str(N), "--outdir", tmp])
        ok_line(code == 0, "figure command exits 0")
        emp = Path(tmp) / "georoots_fig1_empirical.csv"
        th = Path(tmp) / "georoots_fig1_theory.csv"
        ok_line(emp.exists() and th.exists(), "both files written",
                f"{emp.stat().st_size} + {th.stat().st_size} bytes")
        again = Path(tmp) / "again"
        again.mkdir()
        cli_main(["figure", "1", "--N", str(N), "--outdir", str(again)])
        same = (again / emp.name).read_bytes() == emp.read_bytes()
        ok_line(same, "byte-identical on a second run")
    print("  plot recipe (matplotlib):")
    print("    data = np.genfromtxt('georoots_fig1_empirical.csv',")
    print("                         delimiter=',', names=True)")
    print("    plt.bar(data['center'], data['density_total'], width=0.05)")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--N", type=int, default=100_000)
    ap.add_argument("--qmax", type=float, default=40.0)
    args = ap.parse_args()

    h_samples()
    invariants(5)
    invariants(17)
    truncated_sum(5, args.qmax)
    empirical_vs_theory(5, args.N, args.qmax)
    figure_files(2000)

    print(LINE)
    print("Result: COMPLETE" if FAILS == 0 else f"Result: {FAILS} FAIL(S)")
    return 0 if FAILS == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
