"""End-to-end checks of the package's headline behaviors.

Each test pins one externally visible promise: the opening root
sequence, orbit/sieve agreement, the ideal-invertibility parity rule,
unit relations, the closed-form H functions, and the match between
empirical million-point pair correlations and the theoretical density.
Runtime bounds are asserted where the behavior is part of the promise.
"""

import math
import time
from fractions import Fraction

import numpy as np
from scipy.stats import kstest

from georoots.cli import main
from georoots.density import H, omega
from georoots.geodesics import base_geodesic_set, enumerate_tops
from georoots.negdisc import enumerate_orbit_points, sieve_roots_neg
from georoots.orders import unit_relation
from georoots.roots import OrderTag, RootFilter, is_invertible, sieve_roots
from georoots.statistics import pair_correlation
from oracles import ideal_conjugate, ideal_from_root, ideal_mul

MILLION = 1_000_000

# empirical-vs-theory tolerances for the million-point histograms
BIN_TOL = 0.05
MEAN_TOL = 0.02


def _rows(capsys):
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    return lines[1:]   # drop the header row


def test_opening_root_sequence_via_cli(capsys):
    t0 = time.perf_counter()
    code = main(["roots", "--D", "5", "--M", "11"])
    elapsed = time.perf_counter() - t0
    assert code == 0
    got = [tuple(r.split(",")) for r in _rows(capsys)]
    expected = [("1", "0"), ("2", "1"), ("4", "1"), ("4", "3"),
                ("5", "0"), ("10", "5"), ("11", "4"), ("11", "7")]
    assert [(m, mu) for m, mu, _ in got] == expected
    # as fractions mu/m: 0/1, 1/2, 1/4, 3/4, 0/5, 5/10, 4/11, 7/11
    assert [Fraction(int(mu), int(m)) if int(mu) else Fraction(0)
            for m, mu, _ in got] == \
        [Fraction(0), Fraction(1, 2), Fraction(1, 4), Fraction(3, 4),
         Fraction(0), Fraction(1, 2), Fraction(4, 11), Fraction(7, 11)]
    assert elapsed < 1.0


def test_orbit_enumeration_matches_sieve():
    cases = [(5, 1, 0), (17, 1, 0), (13, 1, 0), (21, 1, 0),
             (5, 4, 1), (65, 1, 1)]
    t0 = time.perf_counter()
    for D, n, nu in cases:
        base = base_geodesic_set(D, n, nu)
        got = enumerate_tops(base, 2000)
        seq = sieve_roots(D, 2000, RootFilter(n, nu))
        sieved = set(zip(seq.ms.tolist(), seq.mus.tolist()))
        assert got.roots == sieved, (D, n, nu)
        assert got.duplicates == 0, (D, n, nu)
    assert time.perf_counter() - t0 < 120.0


def test_ideal_norm_invertibility_parity():
    for D in (5, 13, 17, 21, 65):
        seq = sieve_roots(D, 500)
        for m, mu in zip(seq.ms.tolist(), seq.mus.tolist()):
            ideal = ideal_from_root(D, m, mu, OrderTag.O1)
            prod = ideal_mul(ideal, ideal_conjugate(ideal))
            inv = is_invertible(D, m, mu)
            assert (prod == ideal_from_root(D, 1, 0, OrderTag.O1, m)) == inv
            parity = m % 2 == 1 or ((D - mu * mu) // m) % 2 == 1
            assert inv == parity
            if D % 8 == 5:
                assert inv == (m % 4 != 2)


def test_fundamental_unit_relations():
    t0 = time.perf_counter()
    for D in (17, 33, 41):
        assert unit_relation(D).relation == "Equal"
    for D in (5, 13, 21, 29):
        assert unit_relation(D).relation in ("Equal", "Cube")
    u = unit_relation(5)
    assert u.relation == "Cube"
    assert u.eps2 == (3, 1, 2)     # (3 + sqrt 5)/2
    assert u.eps1 == (9, 4, 1)     # 9 + 4 sqrt 5
    # the cube relation in exact integer arithmetic:
    # ((3 + sqrt5)/2)^3 = (27 + 3*9*sqrt5 + 3*3*5 + 5*sqrt5)/8
    num_rat = 3 ** 3 + 3 * 3 * 1 * 1 * 5
    num_irr = 3 * 3 * 3 * 1 + 1 * 5
    assert Fraction(num_rat, 8) == 9 and Fraction(num_irr, 8) == 4
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------
# the H identity: naive transcription vs shipped closed forms

LD = np.longdouble    # x86 extended precision for the reference side


def _h_ref(q, s):
    return np.log((s + q) / (LD(1) - s * s))


def _raw_plus_row(q, v):
    out = np.zeros_like(v)
    if q < -1:
        return out
    if abs(q) < 1:
        on = v > np.sqrt(LD(2) - LD(2) * q)
        vm = v[on]
        y = np.sqrt(vm * vm + q * q - LD(1))
        out[on] = _h_ref(q, (-q + y) / (vm + LD(1))) - _h_ref(q, vm - q - y)
        return out
    y = np.sqrt(v * v + q * q - LD(1))
    s0 = -q + np.sqrt(q * q - LD(1))
    return _h_ref(q, (-q + y) / (v + LD(1))) - np.log((s0 + q) / (LD(1) - s0 * s0))


def _raw_minus_row(q, v):
    out = np.zeros_like(v)
    if q > 1:
        y = np.sqrt(v * v + q * q - LD(1))
        s0 = -q - np.sqrt(q * q - LD(1))
        return np.log((s0 + q) / (LD(1) - s0 * s0)) - _h_ref(q, v - q - y)
    thr = np.sqrt(LD(2) - LD(2) * q)
    on = (np.abs(v) > thr) if q < -1 else (v < -thr)
    vm = v[on]
    y = np.sqrt(vm * vm + q * q - LD(1))
    out[on] = _h_ref(q, (-q + y) / (vm + LD(1))) - _h_ref(q, vm - q - y)
    return out


def test_h_closed_forms_match_raw_formulas():
    """Grid sweep of both signed flavours against the unsimplified forms.

    The reference side is evaluated in extended precision: near |q| = 1
    with |v| large, s2 + q suffers float64 cancellation (~1e-12) that
    would measure the transcription's conditioning, not the identity.
    """
    t0 = time.perf_counter()
    qs = np.linspace(-5.0, 5.0, 1001)      # step 0.01
    vs = np.linspace(-10.0, 10.0, 2001)    # step 0.01
    vs_ld = vs.astype(LD)
    worst = 0.0
    for q in qs:
        if abs(abs(q) - 1.0) < 1e-6:
            continue
        keep = np.abs(vs + 1.0) >= 1e-6    # pole of s1 in the raw form
        if q < 1.0:
            thr = math.sqrt(2.0 - 2.0 * q)
            keep &= np.abs(vs - thr) >= 1e-6
            keep &= np.abs(vs + thr) >= 1e-6
        v64 = vs[keep]
        vld = vs_ld[keep]
        dp = _raw_plus_row(LD(q), vld).astype(np.float64) - H(+1, q, v64)
        dm = _raw_minus_row(LD(q), vld).astype(np.float64) - H(-1, q, v64)
        worst = max(worst, np.abs(dp).max(), np.abs(dm).max())
    assert worst < 1e-12
    assert time.perf_counter() - t0 < 10.0


def test_density_evenness_and_truncation_stability():
    pos = np.round(np.arange(0.2, 5.0 + 1e-9, 0.05), 10)
    grid = np.concatenate([-pos[::-1], pos])
    base = base_geodesic_set(5)
    tab50 = omega(base, grid, q_max=50.0)
    assert np.max(np.abs(tab50.omega - tab50.omega[::-1])) < 1e-9
    tab100 = omega(base, grid, q_max=100.0)
    assert np.max(np.abs(tab100.omega - tab50.omega)) < 1e-3


# ---------------------------------------------------------------------
# million-point histograms against the limiting density

def _empirical(points):
    res = pair_correlation(points, lo=0.0, hi=5.0, bins=100)
    return res.histogram.centers(), res.values()


def _side_mask(base, side):
    return [i for i, g in enumerate(base.geodesics) if g.source[0] == side]


def test_pair_correlation_matches_density_total(pool_d5):
    t0 = time.perf_counter()
    centers, emp = _empirical(pool_d5.head(MILLION))
    tab = omega(base_geodesic_set(5), centers, q_max=60.0)
    dev = np.abs(emp - tab.omega)
    assert dev.max() <= BIN_TOL
    assert dev.mean() <= MEAN_TOL
    assert time.perf_counter() - t0 < 600.0


def test_pair_correlation_matches_density_split_d5(pool_d5):
    """Subsequences split by m mod 4 against the per-class densities."""
    base = base_geodesic_set(5)
    m_mod4 = pool_d5.ms % 4
    for side, keep, qmax in (("I", m_mod4 != 2, 60.0),
                             ("J", m_mod4 == 2, 180.0)):
        sub = pool_d5.subset(keep).head(MILLION)
        assert len(sub) == MILLION
        centers, emp = _empirical(sub)
        tab = omega(base, centers, q_max=qmax, mask=_side_mask(base, side))
        dev = np.abs(emp - tab.omega)
        assert dev.max() <= BIN_TOL, side
        assert dev.mean() <= MEAN_TOL, side


def test_pair_correlation_matches_density_split_d17(pool_d17):
    """Split by the parity rule (both m and (D-mu^2)/m even or not)."""
    base = base_geodesic_set(17)
    tags = pool_d17.class_tags()
    for side, keep in (("I", tags), ("J", ~tags)):
        sub = pool_d17.subset(keep).head(MILLION)
        assert len(sub) == MILLION
        centers, emp = _empirical(sub)
        tab = omega(base, centers, q_max=60.0, mask=_side_mask(base, side))
        dev = np.abs(emp - tab.omega)
        assert dev.max() <= BIN_TOL, side
        assert dev.mean() <= MEAN_TOL, side


def test_root_sequences_equidistribute(pool_d5, pool_d17):
    for pool in (pool_d5, pool_d17):
        head = pool.head(MILLION)
        assert kstest(head.mus / head.ms, "uniform").statistic < 0.01


def test_negative_disc_orbit_matches_sieve():
    for D in (-3, -7, -15):
        got = enumerate_orbit_points(D, 500)
        seq = sieve_roots_neg(D, 500)
        sieved = set(zip(seq.ms.tolist(), seq.mus.tolist()))
        assert got.roots == sieved, D
        assert got.duplicates == 0, D
