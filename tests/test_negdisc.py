"""Negative discriminants: point orbits, definite class groups, sieve reuse."""

from fractions import Fraction

import numpy as np
import pytest

from georoots.forms import act, is_primitive, reduced_forms_definite
from georoots.geodesics import BudgetExceeded
from georoots.negdisc import (
    class_forms,
    enumerate_orbit_points,
    sieve_roots_neg,
    validate_negative_discriminant,
)
from georoots.roots import OrderTag, RootFilter
from oracles import TopPoint, point_of_root


def as_pairs(seq):
    return {(int(m), int(mu)) for m, mu in zip(seq.ms, seq.mus)}


def test_validation():
    for D in (-6, -4, 0, 5, -75, -27):
        with pytest.raises(ValueError):
            validate_negative_discriminant(D)
    for D in (-3, -7, -11, -15, -163):
        validate_negative_discriminant(D)


def test_sieve_worked_examples():
    seq = sieve_roots_neg(-3, 7)
    assert list(seq.mus[seq.ms == 7]) == [2, 5]
    assert list(seq.mus[seq.ms == 2]) == [1]
    assert list(seq.mus[seq.ms == 5]) == []
    assert list(seq.mus[seq.ms == 4]) == [1, 3]


def test_sieve_classification_parity():
    # same parity split as the positive case: O1 when m or (D-mu^2)/m odd
    seq = sieve_roots_neg(-3, 8)
    tags = dict(zip(map(tuple, np.c_[seq.ms, seq.mus].tolist()),
                    seq.class_tags()))
    assert tags[(1, 0)] and tags[(3, 0)] and tags[(4, 1)] and tags[(4, 3)]
    assert not tags[(2, 1)] and not tags[(6, 3)]


def test_sieve_brute_force():
    D, M = -15, 60
    got = as_pairs(sieve_roots_neg(D, M))
    want = {(m, mu) for m in range(1, M + 1) for mu in range(m)
            if (mu * mu - D) % m == 0}
    assert got == want


def test_class_numbers_pinned():
    # classical values: disc -3, -7 -> 1; -15 -> 2; -23 -> 3; -47 -> 5
    for D, h1, h2 in ((-3, 1, 1), (-7, 1, 1), (-15, 2, 2),
                      (-23, 3, 3), (-47, 5, 5)):
        assert len(class_forms(D, OrderTag.O1)) == h1
        assert len(class_forms(D, OrderTag.O2)) == h2
    assert class_forms(-3, OrderTag.O2) == [(1, 1, 1)]
    assert class_forms(-15, OrderTag.O1) == [(1, 0, 15), (3, 0, 5)]


_GENS = [(1, 1, 0, 1), (1, -1, 0, 1), (0, -1, 1, 0)]


def _brute_class_count(delta, cap_factor=20):
    """Partition a complete covering set (|b| <= a <= c, primitive) into
    orbits by explicit capped BFS over generator moves."""
    cands = []
    a = 1
    while 3 * a * a <= -delta:
        for b in range(-a, a + 1):
            num = b * b - delta
            if num % (4 * a) == 0:
                c = num // (4 * a)
                if c >= a and is_primitive((a, b, c)):
                    cands.append((a, b, c))
        a += 1
    cap = cap_factor * -delta
    key = lambda F: (F[0], F[2], abs(F[1]), F[1])
    groups = set()
    for f in cands:
        seen = {f}
        stack = [f]
        best = f
        while stack:
            F = stack.pop()
            if key(F) < key(best):
                best = F
            for g in _GENS:
                G = act(g, F)
                if max(G[0], G[2]) <= cap and G not in seen:
                    seen.add(G)
                    stack.append(G)
        groups.add(best)
    return len(groups)


def test_class_count_matches_brute_equivalence():
    for D in range(-3, -201, -4):
        if any(D % (p * p) == 0 for p in (2, 3, 5, 7, 11, 13)):
            continue
        assert len(class_forms(D, OrderTag.O1)) == _brute_class_count(4 * D)
        assert len(class_forms(D, OrderTag.O2)) == _brute_class_count(D)


def test_orbit_examples():
    assert enumerate_orbit_points(-3, 1).roots == {(1, 0)}
    got = enumerate_orbit_points(-3, 7)
    assert got.roots == as_pairs(sieve_roots_neg(-3, 7))
    assert {(1, 0), (2, 1), (4, 1), (4, 3), (7, 2), (7, 5)} <= got.roots
    got15 = enumerate_orbit_points(-15, 20)
    assert got15.roots == as_pairs(sieve_roots_neg(-15, 20))


def test_orbit_class_orbits_are_disjoint():
    got = enumerate_orbit_points(-15, 300)
    assert got.duplicates == 0
    assert got.roots == as_pairs(sieve_roots_neg(-15, 300))


def test_orbit_filtered_levels():
    for D, n, nu in ((-3, 2, 1), (-7, 4, 1), (-15, 5, 0)):
        filt = RootFilter(n, nu)
        got = enumerate_orbit_points(D, 200, filt)
        assert got.roots == as_pairs(sieve_roots_neg(D, 200, filt))


def test_orbit_guards():
    with pytest.raises(ValueError):
        enumerate_orbit_points(-3, 0)
    with pytest.raises(ValueError):
        enumerate_orbit_points(-6, 10)
    with pytest.raises(BudgetExceeded):
        enumerate_orbit_points(-3, 100, budget=10)


def test_point_round_trip():
    p = point_of_root(-3, 7, 5)
    assert p == TopPoint(Fraction(5, 7), 7)
    assert p.root() == (7, 5)
    with pytest.raises(ValueError):
        point_of_root(-3, 5, 1)


def test_class_forms_have_right_discriminant():
    for D in (-7, -23, -47):
        for f in class_forms(D, OrderTag.O1):
            assert f[1] ** 2 - 4 * f[0] * f[2] == 4 * D
            assert is_primitive(f)
        for f in class_forms(D, OrderTag.O2):
            assert f[1] ** 2 - 4 * f[0] * f[2] == D
