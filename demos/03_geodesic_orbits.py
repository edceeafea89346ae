#!/usr/bin/env python3
"""From roots to geodesics and back.

Every root (m, mu) marks the top of a semicircular geodesic with
endpoints (mu - sqrt D)/m and (mu + sqrt D)/m, the roots of the integral
form of (m, mu); matrices move the geodesic by acting on the form, and
the top is read back off its coefficients.  Conversely, sweeping the
modular-group orbit of a handful of base geodesics and recording each
translate's top recovers the full root sequence.  This script walks the
correspondence in both directions at small scale, then does the same
for a negative discriminant, where tops become single orbit points.
"""

import argparse
import sys
from fractions import Fraction

from georoots.forms import MAT_S, MAT_T, act, disc
from georoots.geodesics import base_geodesic_set, enumerate_tops
from georoots.negdisc import enumerate_orbit_points, sieve_roots_neg
from georoots.orders import form_of_root, root_of_form
from georoots.roots import OrderTag, RootFilter, is_invertible, sieve_roots

LINE = "-" * 74
FAILS = 0


def ok_line(ok: bool, label: str, detail: str = "") -> None:
    global FAILS
    if not ok:
        FAILS += 1
    tag = "PASS" if ok else "FAIL"
    tail = f"  {detail}" if detail else ""
    print(f"{tag:4}  {label.ljust(60)}{tail}")


def one_geodesic(D: int, m: int, mu: int) -> None:
    print(LINE)
    print(f"The geodesic of root ({m}, {mu}) for D = {D}")
    print(LINE)
    order = OrderTag.O1 if is_invertible(D, m, mu) else OrderTag.O2
    mult = 1 if order is OrderTag.O1 else 2
    f = form_of_root(D, m, mu, order)
    print(f"  form (a, b, c) = {f} of {order.value}, discriminant {disc(f)}")
    print("  endpoints: its roots (-b -+ sqrt(disc))/(2a)")
    x = Fraction(-f[1], 2 * f[0])
    print(f"  top at x = -b/(2a) = {x}, modulus {mult * f[0]}")
    ok_line(root_of_form(f, mult) == (m, mu), "top recovers the root")
    # a translate by T = [[1,1],[0,1]] shifts the top by one
    moved = act(MAT_T, f)
    ok_line(Fraction(-moved[1], 2 * moved[0]) == x + 1,
            "T-translate shifts the top by 1")
    swapped = act(MAT_S, f)
    new = root_of_form(swapped, mult)
    ok_line(swapped[0] > 0 and new != (m, mu),
            "S-translate lands on another orbit member", f"new root {new}")


def orbit_vs_sieve(D: int, n: int, nu: int, M: int) -> None:
    print(LINE)
    print(f"Orbit sweep = sieve at D = {D}, level n = {n}, nu = {nu}, "
          f"m <= {M}")
    print(LINE)
    base = base_geodesic_set(D, n, nu)
    srcs = ", ".join(f"{g.source[0]}{g.source[1]}" for g in base.geodesics)
    print(f"  base set: {len(base.geodesics)} geodesics [{srcs}], "
          f"O2 copies s = {base.s}")
    got = enumerate_tops(base, M)
    seq = sieve_roots(D, M, RootFilter(n, nu))
    sieved = set(zip(seq.ms.tolist(), seq.mus.tolist()))
    ok_line(got.roots == sieved, "tops of the orbit = sieved roots",
            f"{len(sieved)} roots, {got.visited} candidates examined")
    ok_line(got.duplicates == 0, "each root appears exactly once")


def negative_orbit(D: int, M: int) -> None:
    print(LINE)
    print(f"Negative discriminant D = {D}: orbit points, m <= {M}")
    print(LINE)
    got = enumerate_orbit_points(D, M)
    seq = sieve_roots_neg(D, M)
    sieved = set(zip(seq.ms.tolist(), seq.mus.tolist()))
    ok_line(got.roots == sieved, "orbit points = sieved roots",
            f"{len(sieved)} roots")
    ok_line(got.duplicates == 0, "no point is produced twice")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--M", type=int, default=400)
    args = ap.parse_args()

    one_geodesic(5, 11, 4)
    one_geodesic(17, 8, 5)
    orbit_vs_sieve(5, 1, 0, args.M)
    orbit_vs_sieve(17, 1, 0, args.M)
    orbit_vs_sieve(5, 4, 1, args.M)
    negative_orbit(-15, args.M)

    print(LINE)
    print("Result: COMPLETE" if FAILS == 0 else f"Result: {FAILS} FAIL(S)")
    return 0 if FAILS == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
