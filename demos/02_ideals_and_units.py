#!/usr/bin/env python3
"""Roots as ideals: norms, invertibility, units, narrow classes."""

import argparse
import sys
from fractions import Fraction

from georoots.forms import content
from georoots.orders import (
    form_of_root,
    narrow_class_group,
    unit_relation,
    unit_str,
)
from georoots.roots import OrderTag, is_invertible, sieve_roots

FAILS = 0


def ok_line(ok, label, detail=""):
    global FAILS
    if not ok:
        FAILS += 1
    print(f"{'PASS' if ok else 'FAIL':4}  {label.ljust(56)}"
          f"{('  ' + detail) if detail else ''}")


def cube(p, q, r, D):
    # ((p + q sqrt D)/r)^3 as an exact pair of Fractions
    return (Fraction(p ** 3 + 3 * p * q * q * D, r ** 3),
            Fraction(3 * p * p * q + q ** 3 * D, r ** 3))


def show_units(discs):
    print("=" * 70)
    print("Totally positive fundamental units of the two orders")
    print("=" * 70)
    for D in discs:
        u = unit_relation(D)
        print(f"  D={D:3}  eps1 = {unit_str(D, u.eps1):22}  "
              f"eps2 = {unit_str(D, u.eps2):18}  {u.relation}")
        if u.relation == "Cube":
            a1, b1, c1 = u.eps1
            ok_line(cube(*u.eps2, D) == (Fraction(a1, c1), Fraction(b1, c1)),
                    f"eps1 = eps2^3 for D={D} (exact)")
        else:
            ok_line(u.eps1 == u.eps2, f"eps1 = eps2 for D={D}")
    ok_line(unit_relation(5).relation == "Cube", "D=5 is the cube case",
            "eps2 = (3+sqrt 5)/2")


def show_invertibility(D, M):
    print("=" * 70)
    print(f"Invertibility of root ideals in Z[sqrt({D})], m <= {M}")
    print("=" * 70)
    seq = sieve_roots(D, M)
    good = bad = 0
    witness = None
    for m, mu in zip(seq.ms.tolist(), seq.mus.tolist()):
        # I * conj(I) = m (Z g + Z (mu + sqrt D)), g the content of the
        # form (m, -2 mu, c) of I (proof in `roots.is_invertible`)
        g = content(form_of_root(D, m, mu, OrderTag.O1))
        is_m_o1 = g == 1
        if is_m_o1 != is_invertible(D, m, mu):
            ok_line(False, f"norm test disagrees at ({m}, {mu})")
            return
        if is_m_o1:
            good += 1
        else:
            bad += 1
            if witness is None:
                witness = (m, mu, g)
    ok_line(True, "I * conj(I) = m O1 exactly when the parity rule says",
            f"{good} invertible, {bad} not")
    if witness:
        m, mu, g = witness
        print(f"  e.g. ({m}, {mu}): the product has HNF scalar {m},"
              f" basis point ({g}, {mu % g}) - not the full m O1")


def show_classes(discs):
    print("=" * 70)
    print("Narrow class representatives (lex-smallest invertible roots)")
    print("=" * 70)
    for D in discs:
        g1 = narrow_class_group(D, OrderTag.O1)
        g2 = narrow_class_group(D, OrderTag.O2)
        r1 = " ".join(f"({m},{mu})" for m, mu in g1)
        r2 = " ".join(f"({m},{mu})" for m, mu in g2)
        print(f"  D={D:3}  h1+ = {len(g1)} [{r1}]   h2+ = {len(g2)} [{r2}]")
    ok_line(len(narrow_class_group(65, OrderTag.O1)) == 2, "h1+(65) = 2")
    ok_line(len(narrow_class_group(5, OrderTag.O2)) == 1, "h2+(5) = 1")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--M", type=int, default=120)
    args = ap.parse_args()
    show_units((5, 13, 17, 21, 29, 33, 41))
    show_invertibility(5, args.M)
    show_invertibility(17, args.M)
    show_classes((5, 17, 65))
    print("=" * 70)
    print("Result: COMPLETE" if FAILS == 0 else f"Result: {FAILS} FAIL(S)")
    return 0 if FAILS == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
