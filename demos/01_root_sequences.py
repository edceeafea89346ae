#!/usr/bin/env python3
"""Tour of the root sequences: enumerate solutions of mu^2 = D (mod m),
split them into the two order classes, and apply congruence filters.
"""

import argparse
import sys
from fractions import Fraction

from georoots.negdisc import sieve_roots_neg
from georoots.roots import RootFilter, sieve_roots, take_n

LINE = "=" * 72
FAILS = 0


def ok_line(ok: bool, label: str, detail: str = "") -> None:
    global FAILS
    if not ok:
        FAILS += 1
    tag = "PASS" if ok else "FAIL"
    tail = f"  {detail}" if detail else ""
    print(f"{tag:4}  {label.ljust(58)}{tail}")


def opening_sequence(D: int) -> None:
    print(LINE)
    print(f"First roots for D = {D}, as fractions mu/m in [0, 1)")
    print(LINE)
    seq = sieve_roots(D, 11)
    frs = [f"{mu}/{m}" for m, mu in zip(seq.ms, seq.mus)]
    print("  " + ", ".join(frs))
    if D == 5:
        want = ["0/1", "1/2", "1/4", "3/4", "0/5", "5/10", "4/11", "7/11"]
        ok_line(frs == want, "opening sequence for D=5", " ".join(want))
    # note 1/2 and 5/10 both appear: the sequence lives on moduli, not
    # on reduced fractions, so equal values recur at different m.
    vals = [Fraction(int(mu), int(m)) if mu else Fraction(0)
            for m, mu in zip(seq.ms, seq.mus)]
    ok_line(len(set(vals)) < len(vals), "repeated values at distinct m")


def class_split(D: int, M: int) -> None:
    print(LINE)
    print(f"Order-class split up to m = {M} (D = {D})")
    print(LINE)
    seq = sieve_roots(D, M)
    tags = seq.class_tags()
    n1, n2 = int(tags.sum()), int((~tags).sum())
    print(f"  {len(seq)} roots: {n1} in the Z[sqrt(D)] class, "
          f"{n2} in the half-integer class")
    # the split is decided by parity: m odd or (D - mu^2)/m odd -> O1
    for i in range(len(seq)):
        m, mu = int(seq.ms[i]), int(seq.mus[i])
        expect = m % 2 == 1 or ((D - mu * mu) // m) % 2 == 1
        if expect != bool(tags[i]):
            ok_line(False, f"parity rule at (m, mu) = ({m}, {mu})")
            return
    ok_line(True, "parity rule decides the class for every root",
            f"{len(seq)} roots")
    if D % 8 == 5:
        even = [m % 4 for m in seq.ms[~tags].tolist()]
        ok_line(all(r == 2 for r in even),
                "D = 5 (mod 8): second class means m = 2 (mod 4)")


def filtered(D: int, n: int, nu: int, M: int) -> None:
    print(LINE)
    print(f"Congruence filter m = 0 (mod {n}), mu = {nu} (mod {n})")
    print(LINE)
    seq = sieve_roots(D, M, RootFilter(n, nu))
    head = ", ".join(f"{mu}/{m}" for m, mu in zip(seq.ms[:8], seq.mus[:8]))
    print(f"  first rows: {head}")
    ok_line(all(m % n == 0 and mu % n == nu
                for m, mu in zip(seq.ms.tolist(), seq.mus.tolist())),
            "all rows honor the filter", f"{len(seq)} rows")
    first = take_n(D, 5, RootFilter(n, nu))
    ok_line(list(first.ms) == list(seq.ms[:5]),
            "take_n agrees with the sieve prefix")


def negative_disc(D: int, M: int) -> None:
    print(LINE)
    print(f"Negative discriminant D = {D}: points instead of fractions")
    print(LINE)
    seq = sieve_roots_neg(D, M)
    rows = list(zip(seq.ms.tolist(), seq.mus.tolist()))
    print(f"  {len(rows)} roots up to m = {M}; first few:")
    for m, mu in rows[:5]:
        x = Fraction(mu, m)
        print(f"    (m, mu) = ({m}, {mu})  ->  x = {x}, height sqrt({-D})/{m}")
    ok_line(all((mu * mu - D) % m == 0 for m, mu in rows),
            "every row solves mu^2 = D (mod m)")
    # z = x + i sqrt(|D|)/m has m |z|^2 = (mu^2 - D)/m: z is the root of
    # the definite form (m, -2 mu, (mu^2 - D)/m)
    ok_line(all((m * (Fraction(mu, m) ** 2 + Fraction(-D, m * m)))
                .denominator == 1 for m, mu in rows[:50]),
            "m |z|^2 is an integer at every point")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--D", type=int, default=5)
    ap.add_argument("--M", type=int, default=300)
    args = ap.parse_args()

    opening_sequence(args.D)
    class_split(args.D, args.M)
    filtered(args.D, 4, 1, 40 * args.M)
    negative_disc(-15, args.M)

    print(LINE)
    print("Result: COMPLETE" if FAILS == 0 else f"Result: {FAILS} FAIL(S)")
    return 0 if FAILS == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
