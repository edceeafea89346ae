"""Theoretical pair-correlation density: H functions, pair invariants,
double-coset enumeration, and the assembled density table."""

import functools
import hashlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import georoots.density as density

from georoots.cli import _class_mask, main
from georoots.density import (
    CosetTerm,
    DomainError,
    H,
    _SigmaFrame,
    _canon,
    _geodesic_data,
    _linear_form,
    _normalizes,
    _pq,
    _surd_sign,
    default_grid,
    enumerate_coset_terms,
    gamma0_index,
    kappa_and_vol,
    omega,
)
from georoots.forms import act, mat_mul
from georoots.geodesics import BudgetExceeded, base_geodesic_set
from georoots.orders import form_of_root
from georoots.roots import OrderTag
from georoots.statistics import Histogram
from oracles import (
    Geodesic,
    H_row,
    SharedEndpoint,
    apply_gamma,
    cross_ratio_q,
    form_pair_q,
    gamma0_generators,
    geodesic_from_root,
    mat_pow,
    omega_by_rows,
    sigma_canonical,
)
from quadnum import QuadNum


def qn(x, D=5):
    return QuadNum.from_fraction(D, Fraction(x))


# ----------------------------------------------------------------------
# H functions

def H_plus(q, v):
    """The kernel's H_+ at one v, through a one-element array."""
    return H(+1, q, np.array([v]))[0]


def H_minus(q, v):
    return H(-1, q, np.array([v]))[0]


# Oracle: the raw transcription of the H formulas, before simplification.

def _y(q, v):
    return math.sqrt(v * v + q * q - 1.0)


def _check_off_boundary(q, v):
    if abs(q) == 1.0:
        raise DomainError("|q| = 1")
    if q < 1.0 and v * v == 2.0 - 2.0 * q:
        raise DomainError("v = +-sqrt(2-2q)")


def h_raw(q, s):
    """log((s+q)/(1-s^2)), the building block of the raw H formulas."""
    den = 1.0 - s * s
    if den == 0.0:
        raise DomainError("1 - s^2 = 0")
    val = (s + q) / den
    if val <= 0.0:
        raise DomainError("log of a nonpositive value")
    return math.log(val)


def _s1(q, v):
    if v == -1.0:
        raise DomainError("s1 undefined at v = -1")
    return (-q + _y(q, v)) / (v + 1.0)


def _s2(q, v):
    return v - q - _y(q, v)


def H_raw_plus(q, v):
    _check_off_boundary(q, v)
    if q < -1.0:
        return 0.0
    if abs(q) < 1.0:
        if v < math.sqrt(2.0 - 2.0 * q):
            return 0.0
        return h_raw(q, _s1(q, v)) - h_raw(q, _s2(q, v))
    return h_raw(q, _s1(q, v)) - h_raw(q, -q + math.sqrt(q * q - 1.0))


def H_raw_minus(q, v):
    _check_off_boundary(q, v)
    if q < -1.0:
        if abs(v) < math.sqrt(2.0 - 2.0 * q):
            return 0.0
        return h_raw(q, _s1(q, v)) - h_raw(q, _s2(q, v))
    if abs(q) < 1.0:
        if v > -math.sqrt(2.0 - 2.0 * q):
            return 0.0
        return h_raw(q, _s1(q, v)) - h_raw(q, _s2(q, v))
    return h_raw(q, -q - math.sqrt(q * q - 1.0)) - h_raw(q, _s2(q, v))


def test_H_pinned_values():
    assert H_plus(0.0, 2.0) == pytest.approx(math.log(3.0), abs=1e-14)
    assert H_minus(0.0, -2.0) == pytest.approx(math.log(3.0), abs=1e-14)
    assert H_plus(2.0, 1.0) == pytest.approx(
        math.log(4.0 * (2.0 - math.sqrt(3.0))), abs=1e-14)


def test_H_zero_branches():
    assert H_plus(-2.0, 0.5) == 0.0
    assert H_plus(-2.0, 100.0) == 0.0
    assert H_plus(0.5, 0.5) == 0.0          # below the sqrt(2-2q)=1 threshold
    assert H_plus(0.5, -3.0) == 0.0
    assert H_minus(0.0, 2.0) == 0.0
    assert H_minus(-3.0, 1.0) == 0.0        # |v| below sqrt(8)
    assert H_minus(0.5, 0.0) == 0.0


def test_H_flavours_agree_for_disjoint():
    rng = random.Random(7)
    for _ in range(200):
        q = 1.0 + 10.0 * rng.random()
        v = -8.0 + 16.0 * rng.random()
        assert H_plus(q, v) == H_minus(q, v)


def test_H_even_beyond_crossing():
    rng = random.Random(8)
    for _ in range(200):
        q = rng.choice([1, -1]) * (1.0 + 10.0 * rng.random())
        v = 8.0 * rng.random()
        assert H_plus(q, v) == H_plus(q, -v)
        assert H_minus(q, v) == H_minus(q, -v)


def test_H_continuous_at_threshold():
    for q in (-0.7, 0.0, 0.6):
        thr = math.sqrt(2.0 - 2.0 * q)
        assert abs(H_plus(q, thr + 1e-9)) < 1e-6
        assert abs(H_minus(q, -thr - 1e-9)) < 1e-6


def test_H_zero_at_threshold():
    """At v = +-sqrt(2 - 2q) both flavours are exactly 0.0, and the log
    branch one float beyond is 0 up to rounding (q + y = 1 there)."""
    for q in (-3.0, -1.5, -0.7, 0.0, 0.5, 0.6, 0.9):
        thr = math.sqrt(2.0 - 2.0 * q)
        for sign in (+1, -1):
            assert H(sign, q, np.array([thr, -thr])).tolist() == [0.0, 0.0]
        out = np.nextafter(thr, math.inf)
        assert abs(H_plus(q, out)) < 1e-12
        assert abs(H_minus(q, -out)) < 1e-12


def test_H_domain_errors():
    for f in (H_plus, H_minus, H_raw_plus, H_raw_minus):
        with pytest.raises(DomainError):
            f(1.0, 2.0)
        with pytest.raises(DomainError):
            f(-1.0, 2.0)
    for q in (1.0, -1.0):
        for sign in (+1, -1):
            with pytest.raises(DomainError):
                H(sign, q, np.linspace(-5.0, 5.0, 11))
            with pytest.raises(DomainError):
                H([1, sign, 1], [0.5, q, 3.0], np.linspace(-5.0, 5.0, 11))
    q = 0.5
    with pytest.raises(DomainError):
        H_raw_plus(q, math.sqrt(2.0 - 2.0 * q))
    with pytest.raises(DomainError):
        H_raw_minus(0.9, -1.0)       # s1 blows up at v = -1
    with pytest.raises(DomainError):
        H_raw_plus(2.0, -1.0)
    with pytest.raises(DomainError):
        h_raw(0.0, 1.0)
    with pytest.raises(DomainError):
        h_raw(0.0, -0.5)             # log argument not positive


def test_raw_matches_simplified_sample():
    """The dense-grid sweep lives in the end-to-end suite; spot-check here."""
    rng = random.Random(11)
    checked = 0
    while checked < 500:
        q = -4.0 + 8.0 * rng.random()
        v = -9.0 + 18.0 * rng.random()
        if abs(abs(q) - 1.0) < 1e-3 or abs(v + 1.0) < 1e-3:
            continue
        if q < 1.0 and abs(v * v - (2.0 - 2.0 * q)) < 1e-3:
            continue
        assert H_raw_plus(q, v) == pytest.approx(H_plus(q, v), abs=1e-12)
        assert H_raw_minus(q, v) == pytest.approx(H_minus(q, v), abs=1e-12)
        checked += 1


@st.composite
def h_terms(draw):
    """(signs, qs, v): a few terms away from |q| = 1, drawn from a few q
    values so that equal terms often follow each other, and a v array
    that holds +-sqrt(2 - 2q) of each q < 1 exactly, with its
    neighbours, so the strict masks and the run bounds meet at their
    edges, and may hold NaN and +-inf, which sort to the ends."""
    pool = draw(st.lists(st.floats(-12.0, 12.0).filter(
        lambda q: abs(q) != 1.0), min_size=1, max_size=4))
    n = draw(st.integers(1, 8))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    qs = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    v = draw(st.lists(st.floats(-15.0, 15.0)
                      | st.sampled_from((math.nan, math.inf, -math.inf)),
                      max_size=40))
    for q in pool:
        if q < 1.0:
            thr = math.sqrt(2.0 - 2.0 * q)
            for x in (thr, -thr):
                v += [x, np.nextafter(x, math.inf), np.nextafter(x, -math.inf)]
    v = draw(st.permutations(v))
    return signs, qs, np.array(v, dtype=np.float64)


@given(h_terms())
def test_H_rows_match_the_oracle_bitwise(case):
    """Each term's row is the row-per-term oracle's, byte for byte, and a
    call with several terms is the in-order sum of their single rows."""
    signs, qs, v = case
    total = np.zeros_like(v)
    for sign, q in zip(signs, qs):
        row = H(sign, q, v)
        assert row.tobytes() == H_row(sign, q, v).tobytes()
        total += row
    assert H(signs, qs, v).tobytes() == total.tobytes()


# ----------------------------------------------------------------------
# cross ratio and pair invariant

VERT = Geodesic(5, qn(0), None)     # 0 -> infinity


def test_cross_ratio_worked_examples():
    q, s = cross_ratio_q(VERT, Geodesic(5, qn(1), qn(3)))
    assert q == 2 and s == +1
    q, s = cross_ratio_q(VERT, Geodesic(5, qn(-1), qn(2)))
    assert q == Fraction(1, 3) and s == -1
    q, s = cross_ratio_q(VERT, Geodesic(5, qn(Fraction(1, 3)), qn(1)))
    assert q == 2 and s == +1


def test_cross_ratio_reversal_negates_q():
    c2 = Geodesic(5, qn(1), qn(3))
    q, s = cross_ratio_q(VERT, c2)
    qr, sr = cross_ratio_q(VERT, c2.reversed())
    assert qr == -q and sr == +1          # backward endpoint still positive
    qf, sf = cross_ratio_q(VERT.reversed(), c2)
    assert qf == -q and sf == -s


def test_cross_ratio_shared_endpoint():
    with pytest.raises(SharedEndpoint):
        cross_ratio_q(VERT, Geodesic(5, qn(0), qn(3)))
    with pytest.raises(SharedEndpoint):
        cross_ratio_q(VERT, Geodesic(5, qn(2), None))
    with pytest.raises(SharedEndpoint):
        cross_ratio_q(Geodesic(5, qn(-1), qn(1)),
                      Geodesic(5, qn(1), qn(4)))


def test_cross_ratio_mobius_invariance():
    rng = random.Random(3)
    c1 = geodesic_from_root(5, 1, 0)
    c2 = apply_gamma((1, 1, 0, 1), geodesic_from_root(5, 2, 1))
    q0, s0 = cross_ratio_q(c1, c2)
    gens = [(0, -1, 1, 0), (1, 1, 0, 1), (0, 1, -1, 0), (1, -1, 0, 1)]
    for _ in range(50):
        g = (1, 0, 0, 1)
        for _ in range(rng.randrange(1, 12)):
            g = mat_mul(g, rng.choice(gens))
        q1, s1 = cross_ratio_q(apply_gamma(g, c1), apply_gamma(g, c2))
        assert q1 == q0 and s1 == s0


def test_cross_ratio_agrees_with_form_pairing():
    rng = random.Random(5)
    D = 5
    f1 = form_of_root(D, 1, 0, OrderTag.O1)       # sqrt scale 2
    f2 = form_of_root(D, 2, 1, OrderTag.O2)       # sqrt scale 1
    gens = [(0, -1, 1, 0), (1, 1, 0, 1), (0, 1, -1, 0), (1, -1, 0, 1)]
    for f, s in ((f1, 2), (f2, 1)):
        for _ in range(30):
            G = f
            for _ in range(rng.randrange(1, 10)):
                G = act(rng.choice(gens), G)
            a, b, _ = G
            geo = Geodesic(D, QuadNum(D, -b, -s, 2 * a),
                           QuadNum(D, -b, s, 2 * a))
            q_cr, _ = cross_ratio_q(geodesic_from_root(D, 1, 0), geo)
            assert q_cr.is_rational()
            assert q_cr.as_fraction() == form_pair_q(f1, 2, G, s, D)


# ----------------------------------------------------------------------
# kappa, volume, index

def test_gamma0_index_values():
    expect = {1: 1, 2: 3, 3: 4, 4: 6, 5: 6, 6: 12, 8: 12, 12: 24, 16: 24}
    for n, idx in expect.items():
        assert gamma0_index(n) == idx


def test_kappa_and_vol_closed_forms():
    base5 = base_geodesic_set(5)
    kappa, vol = kappa_and_vol(base5)
    assert vol == pytest.approx(math.pi / 3.0, abs=1e-15)
    eps2 = (3.0 + math.sqrt(5.0)) / 2.0
    assert kappa == pytest.approx(12.0 * math.log(eps2) / math.pi ** 2,
                                  abs=1e-12)
    base17 = base_geodesic_set(17)
    kappa17, _ = kappa_and_vol(base17)
    eps17 = 33.0 + 8.0 * math.sqrt(17.0)
    assert kappa17 == pytest.approx(6.0 * math.log(eps17) / math.pi ** 2,
                                    abs=1e-12)
    # restricting to one geodesic scales kappa by its length share
    kappa_j, _ = kappa_and_vol(base5, mask=[1])
    assert kappa_j == pytest.approx(3.0 * math.log(eps2) / math.pi ** 2,
                                    abs=1e-12)


# ----------------------------------------------------------------------
# double-coset enumeration

def test_coset_terms_match_brute_force():
    """Independent enumeration: expand the whole orbit of c_l with a
    coefficient cap, canonicalize every member, compare sets."""
    D = 5
    base = base_geodesic_set(D)
    data = _geodesic_data(base)
    gens = [(0, -1, 1, 0), (1, 1, 0, 1), (0, 1, -1, 0), (1, -1, 0, 1)]
    q_max = 6.0
    terms, skipped = enumerate_coset_terms(base, q_max)
    assert skipped == 0
    for k, l in ((0, 0), (0, 1), (1, 1)):
        fk, sk, (sig_k, sig_k_inv) = data[k]
        fl, sl, _ = data[l]
        den = sk * sl * D
        ak, bk, ck = fk
        canon_self = sigma_canonical(fk, sig_k, sig_k_inv)
        canon_rev = sigma_canonical((-fk[0], -fk[1], -fk[2]),
                                     sig_k, sig_k_inv)
        seen = {fl}
        frontier = [fl]
        while frontier:
            nxt = []
            for F in frontier:
                for g in gens:
                    F2 = act(g, F)
                    if max(map(abs, F2)) <= 2500 and F2 not in seen:
                        seen.add(F2)
                        nxt.append(F2)
            frontier = nxt
        brute = set()
        for F in seen:
            if abs(bk * F[1] - 2 * ak * F[2] - 2 * F[0] * ck) <= q_max * den:
                C = sigma_canonical(F, sig_k, sig_k_inv)
                if C not in (canon_self, canon_rev):
                    brute.add(C)
        mine = {t.state for t in terms if (t.k, t.l) == (k, l)}
        assert mine == brute


GENS = [(0, -1, 1, 0), (1, 1, 0, 1), (0, 1, -1, 0), (1, -1, 0, 1)]


def _windowed_canonical(G, sig, sig_inv, window=16):
    """The earlier canonicalizer, kept as an oracle: the coefficient-size
    minimum along the stabilizer orbit, walked until `window` consecutive
    non-improvements in each direction."""
    def size_key(f):
        a, b, c = f
        return (a * a + b * b + c * c, f)

    best, bestk = G, size_key(G)
    for mat in (sig, sig_inv):
        cur, bad = G, 0
        while bad < window:
            cur = act(mat, cur)
            k = size_key(cur)
            if k < bestk:
                best, bestk, bad = cur, k, 0
            else:
                bad += 1
    return best


@st.composite
def orbit_cases(draw):
    """(sigma pair of a base geodesic, a short Gamma word applied to a
    base form, a stabilizer power t)."""
    D = draw(st.sampled_from([5, 13, 17, 21, 65]))
    data = _geodesic_data(base_geodesic_set(D))
    k = draw(st.integers(0, len(data) - 1))
    G = data[draw(st.integers(0, len(data) - 1))][0]
    for g in draw(st.lists(st.sampled_from(GENS), max_size=8)):
        G = act(g, G)
    return data[k][2], G, draw(st.integers(-12, 12))


@given(orbit_cases())
def test_sigma_canonical_is_a_unique_orbit_representative(case):
    (sig, sig_inv), G, t = case
    C = sigma_canonical(G, sig, sig_inv)
    moved = act(mat_pow(sig, t), G)
    assert sigma_canonical(moved, sig, sig_inv) == C
    assert sigma_canonical(C, sig, sig_inv) == C
    assert _windowed_canonical(C, sig, sig_inv) == \
        _windowed_canonical(G, sig, sig_inv)
    # a wrong step-count guess costs correction steps, never exactness
    for factor in (0.6, 1.7):
        fr = _SigmaFrame(sig, sig_inv)
        fr.log_lam *= factor
        assert _canon(moved, fr) == C


@given(orbit_cases())
def test_sigma_frame_step_scales_pq_by_omega(case):
    """One up step multiplies P + Q sqrt(disc) by (u + v sqrt(disc))/2,
    the identity _canon's exact correction steps rest on."""
    (sig, sig_inv), G, _ = case
    fr = _SigmaFrame(sig, sig_inv)
    P, Q = _pq(G, fr.A, fr.B, fr.disc)
    P1, Q1 = _pq(act(fr.power(1), G), fr.A, fr.B, fr.disc)
    assert (2 * P1, 2 * Q1) == (fr.u * P + fr.v * Q * fr.disc,
                                fr.u * Q + fr.v * P)
    assert fr.u * fr.u - fr.v * fr.v * fr.disc == 4 and fr.v > 0
    assert fr.power(-3) == mat_pow(fr.power(-1), 3)


@pytest.mark.parametrize("D", [5, 13, 17, 21, 65])
def test_sigma_canonical_fixes_the_reference_forms(D):
    for f, _, (sig, sig_inv) in _geodesic_data(base_geodesic_set(D)):
        assert act(sig, f) == f
        fr = _SigmaFrame(sig, sig_inv)
        C = (fr.B * fr.B - fr.disc) // (4 * fr.A)
        assert f in {(fr.A, fr.B, C), (-fr.A, -fr.B, -C)}
        assert sigma_canonical(f, sig, sig_inv) == f
        # the frame depends only on the group <-sigma, sigma>
        neg = tuple(-x for x in sig)
        for pair in ((sig_inv, sig), (neg, tuple(-x for x in sig_inv))):
            fr2 = _SigmaFrame(*pair)
            assert (fr2.A, fr2.B, fr2.disc, fr2.u, fr2.v) == \
                (fr.A, fr.B, fr.disc, fr.u, fr.v)


def _terms_digest(terms):
    rows = sorted((t.q, t.sign, t.k, t.l) for t in terms)
    return hashlib.sha256("".join(f"{q!r},{s},{k},{l}\n"
                                  for q, s, k, l in rows).encode()).hexdigest()


# (count, SHA-256) of the sorted (q, sign, k, l) multisets at q_max = 10,
# recorded with the earlier size-minimizing canonicalizer
PINNED_TERMS = {
    5: (384,
        "56e641edfcc801906cea4570fcd1e2ba2ab9441a7edb09ab8de39a6de48b92dd"),
    13: (1434,
         "648d3dfc9a9ce8c8e17540bb55c7987b99940adf9da41e4ced7932ad55a55c3d"),
    17: (1546,
         "6a1ca0e405594a79a2d8f55e101bec521d743f2cc11b387983f9e622bbbc7e6e"),
    21: (3312,
         "75ecc1c6d7a6a2f8d41c599f0cbc24588e26d5720e66dc2f421c6cfd14bead90"),
    65: (8626,
         "19da3bd461a180b61af91519142f559b2a6f19233f773999f7735e49c777c50f"),
}


@pytest.mark.parametrize("D", sorted(PINNED_TERMS))
def test_coset_term_multisets_pinned(D):
    terms, skipped = enumerate_coset_terms(base_geodesic_set(D), 10.0)
    count, digest = PINNED_TERMS[D]
    assert (len(terms), skipped) == (count, 0)
    assert _terms_digest(terms) == digest



@pytest.mark.xfail(strict=True, reason=(
    "FOUND line in CHANGES.md: the coset walk prunes states at "
    "|q| > margin*q_max + 25 and loses genuine double cosets"))
def test_coset_terms_complete_at_q_max_10():
    """The complete term counts, reached by widening the pruning margin
    (_MARGIN = 20 gives 1728 and 3856) and by an exact construction."""
    for D, complete in ((17, 1728), (21, 3856)):
        terms, _ = enumerate_coset_terms(base_geodesic_set(D), 10.0)
        assert len(terms) == complete


def test_density_with_a_324_digit_unit(capsys):
    """D = 100057 has eps1 = eps2 with 324 digits: the unit's logs and
    the walk's probes take it without a float overflow."""
    assert main(["density", "--D", "100057", "--qmax", "2",
                 "--range", "1", "--step", "0.5"]) == 0
    assert "# terms = 4602\n" in capsys.readouterr().out


def _full_scan(base, calls):
    """A stand-in for density._translates: every neighbor act(g, sigma^t G)
    with |t| <= 20 and |q| <= prune, q computed from act(g, .) and the
    reference form (not from ell), with no three-miss stop and no
    normalizer shortcut.  Each call is counted in calls."""
    ref = {}
    for f, _, (sig, _) in _geodesic_data(base):
        assert ref.setdefault(sig, f) in (f, tuple(-x for x in f))

    def scan(chains, g, ell, normal, den, prune):
        calls.append(g)
        (up, sig), (_, sig_inv) = chains
        ak, bk, ck = ref[sig]
        out = []
        for mat, first in ((sig, True), (sig_inv, False)):
            cur = up[0]
            for t in range(21):
                if t > 0 or first:
                    cand = act(g, cur)
                    B = bk * cand[1] - 2 * ak * cand[2] - 2 * cand[0] * ck
                    if abs(B / den) <= prune:
                        out.append(cand)
                cur = act(mat, cur)
        return out
    return scan


@pytest.mark.parametrize("D,mask", [(5, None), (13, None), (17, None),
                                    (21, [0, 2]), (65, [0, 2])])
def test_stab_translates_window_misses_nothing(D, mask, monkeypatch):
    """The three-miss rule and the normalizer shortcut find the same terms
    as a scan of every stabilizer translate with |t| <= 20."""
    base = base_geodesic_set(D)
    windowed, _ = enumerate_coset_terms(base, 4.0, mask)
    calls = []
    monkeypatch.setattr(density, "_translates", _full_scan(base, calls))
    scanned, _ = enumerate_coset_terms(base, 4.0, mask)
    assert len(calls) > 0 and set(calls) == set(density._GENERATORS)
    assert _terms_digest(windowed) == _terms_digest(scanned)


def test_coset_terms_monotone_in_q_max():
    base = base_geodesic_set(5)
    small, _ = enumerate_coset_terms(base, 12.0)
    large, _ = enumerate_coset_terms(base, 25.0)
    key = lambda t: (t.k, t.l, t.state)
    filtered = {key(t) for t in large if abs(t.q) <= 12.0}
    assert {key(t) for t in small} == filtered
    qs = {key(t): (t.q, t.sign) for t in large}
    for t in small:
        assert qs[key(t)] == (t.q, t.sign)


def test_coset_terms_budget():
    base = base_geodesic_set(5)
    with pytest.raises(BudgetExceeded):
        enumerate_coset_terms(base, 40.0, budget=50)


def test_coset_terms_require_wide_cut():
    with pytest.raises(ValueError):
        enumerate_coset_terms(base_geodesic_set(5), 1.0)


@pytest.mark.parametrize("q_max", [math.nan, math.inf, -math.inf])
def test_coset_terms_require_finite_q_max(q_max):
    with pytest.raises(ValueError, match="finite"):
        enumerate_coset_terms(base_geodesic_set(5), q_max)


def test_coset_terms_require_level_one():
    with pytest.raises(ValueError):
        enumerate_coset_terms(base_geodesic_set(17, 2, 1), 5.0)


def test_coset_walk_generators_are_level_one_schreier_generators():
    """The fixed generators are the Schreier generators of Gamma_0(1), in
    the same order: the order fixes the order of the walk's terms."""
    assert list(density._GENERATORS) == list(gamma0_generators(1))


def _walk_digest(terms, skipped):
    """SHA-256 of the walk's ordered term list, states included, and of
    skipped: it changes if the walk visits its states in another order."""
    h = hashlib.sha256()
    for t in terms:
        h.update(f"{t.q!r},{t.sign},{t.k},{t.l},{t.state}\n".encode())
    h.update(f"skipped={skipped}\n".encode())
    return h.hexdigest()


# (D, q_max, class) -> (term count, _walk_digest), recorded with a walk
# that computed each translate's q from act(g, sigma^t G); the O2 and O1
# rows are the benchmark's `density` commands
PINNED_WALKS = {
    (5, 10.0, "total"): (
        384,
        "ab09137ab450a24b572f8be86f10a62c837e4e2588d4888f9ef0d1f8f74dd094"),
    (13, 10.0, "total"): (
        1434,
        "cd19a8128b50b52db5adbd445f0d3683038da54b9f29d3d504d05c582306ae4c"),
    (17, 10.0, "total"): (
        1546,
        "d6a913dabba91108d8f5e88fd6bc08d4f41a596709889fc879804a754a7b4c28"),
    (21, 10.0, "total"): (
        3312,
        "c88d29bb64569c991987113e731c08b64e6e7de95e81b237848c8026bffe4c6e"),
    (65, 10.0, "total"): (
        8626,
        "5392e24e98aef5c3ee593b64467590b6c5755860b5b03b94bde5193da2dd5fe1"),
    (5, 10.0, "O2"): (
        24,
        "acfac186aa58bb73b1cdc10c5523f60f4a5a915acd0d8eb666735e73e3569be1"),
    (17, 60.0, "O1"): (
        1916,
        "9c22ff07726126e1c7a19c5f07f16af5f942bd2b984542b66ade025b4803bf7f"),
}


@pytest.mark.parametrize("D,q_max,cls", sorted(PINNED_WALKS))
def test_coset_walk_order_pinned(D, q_max, cls):
    base = base_geodesic_set(D)
    terms, skipped = enumerate_coset_terms(base, q_max,
                                           _class_mask(base, cls))
    assert (len(terms), skipped) == (PINNED_WALKS[D, q_max, cls][0], 0)
    assert _walk_digest(terms, skipped) == PINNED_WALKS[D, q_max, cls][1]


def test_coset_walk_budget_counts_popped_states():
    """D = 5 at q_max 10 pops exactly 1336 states over its four pairs; the
    budget is cumulative, and the message names the pair it ran out at."""
    base = base_geodesic_set(5)
    terms, _ = enumerate_coset_terms(base, 10.0, budget=1336)
    assert len(terms) == 384
    with pytest.raises(BudgetExceeded,
                       match=r"budget = 1335 .*over all pairs.*pair \(1,1\)"):
        enumerate_coset_terms(base, 10.0, budget=1335)


@functools.lru_cache(maxsize=None)
def _pinned_data(D):
    return _geodesic_data(base_geodesic_set(D))


def _b_of(fk, H):
    """The numerator B of q for the reference form fk and the form H."""
    ak, bk, ck = fk
    return bk * H[1] - 2 * ak * H[2] - 2 * ck * H[0]


@given(st.tuples(*[st.integers(-10**9, 10**9)] * 3))
def test_linear_form_is_B_after_the_move(G):
    for D in sorted(PINNED_TERMS):
        for fk, *_ in _pinned_data(D):
            for g in density._GENERATORS:
                ell = _linear_form(fk, g)
                assert sum(x * y for x, y in zip(ell, G)) == \
                    _b_of(fk, act(g, G))


def test_only_S_inverse_on_the_D5_O2_geodesic_normalizes_sigma():
    """For D = 5, k = 1 and g = S^-1 all 129 translates act(g, sigma^t G),
    |t| <= 64, have one q and canonicalize to one state, so the walk tries
    t = 0 only; no other (D, k, g) of the pinned D takes the shortcut, and
    there the translates reach more than one state."""
    s_inv = density._GENERATORS[0]
    for D in sorted(PINNED_TERMS):
        for k, (_, _, (sig, sig_inv)) in enumerate(_pinned_data(D)):
            for g in density._GENERATORS:
                assert _normalizes(g, sig, sig_inv) == \
                    ((D, k, g) == (5, 1, s_inv))
    base = base_geodesic_set(5)
    terms, _ = enumerate_coset_terms(base, 10.0, [1])
    for k, g in ((1, s_inv), (0, s_inv), (1, density._GENERATORS[2])):
        fk, _, (sig, sig_inv) = _pinned_data(5)[k]
        fr = _SigmaFrame(sig, sig_inv)
        for t in terms[:8]:
            moved = [act(g, act(mat_pow(sig if e >= 0 else sig_inv, abs(e)),
                                t.state)) for e in range(-64, 65)]
            states = {_canon(H, fr) for H in moved}
            bs = {_b_of(fk, H) for H in moved}
            if _normalizes(g, sig, sig_inv):
                assert len(states) == len(bs) == 1
            else:
                assert len(states) > 1


def test_translate_probe_tests_the_float_q():
    """A probe hits exactly when the float q = B/den of act(g, G) is at
    most prune, as when q was computed from act(g, G).  Comparing |B| with
    den * prune instead decides some of these cases the other way."""
    data = _pinned_data(13)
    disagree = 0
    for fk, sk, (sig, sig_inv) in data:
        for den in sorted({sk * sl * 13 for _, sl, *_ in data}):
            for G in itertools.product(range(-4, 5), repeat=3):
                for g in density._GENERATORS:
                    B = _b_of(fk, act(g, G))
                    if B == 0:
                        continue
                    q = abs(B / den)
                    ell = _linear_form(fk, g)
                    for prune, hit in ((q, True),
                                       (math.nextafter(q, 0.0), False)):
                        chains = (([G], sig), ([G], sig_inv))
                        got = list(density._translates(chains, g, ell, True,
                                                       den, prune))
                        assert got == ([act(g, G)] if hit else [])
                        disagree += (abs(B) <= den * prune) != hit
    assert disagree > 0


def test_coset_term_q_is_exact_pair_invariant():
    """Every emitted term's q equals the cross-ratio invariant of the
    reference geodesic and the state's geodesic, via exact arithmetic."""
    D = 5
    base = base_geodesic_set(5)
    data = _geodesic_data(base)
    terms, _ = enumerate_coset_terms(base, 8.0)
    for t in terms:
        fk, sk, _ = data[t.k]
        sl = data[t.l][1]
        a, b, _ = t.state
        geo_k = Geodesic(D, QuadNum(D, -fk[1], -sk, 2 * fk[0]),
                         QuadNum(D, -fk[1], sk, 2 * fk[0]))
        geo = Geodesic(D, QuadNum(D, -b, -sl, 2 * a),
                       QuadNum(D, -b, sl, 2 * a))
        q_cr, s_cr = cross_ratio_q(geo_k, geo)
        q_exact = form_pair_q(fk, sk, t.state, sl, D)
        assert q_cr.as_fraction() == q_exact
        assert t.q == float(q_exact)
        assert s_cr == t.sign


def _sign_by_isqrt(x, y, D):
    """Sign of x + y sqrt(D), D > 0 not a square, by the bound
    s < |y| sqrt(D) < s + 1 with s = isqrt(D y^2) (strict for y != 0)."""
    if y == 0:
        return (x > 0) - (x < 0)
    s = math.isqrt(D * y * y)
    if y > 0:
        return 1 if -x <= s else -1
    return 1 if x > s else -1


@st.composite
def _surds(draw):
    """(x, y, D): D not a square, up to past 2^63; |x|, |y| up to 2^200,
    with zeros, both sign mixes, and x within 2 of -y sqrt(D), where
    x^2 - D y^2 is smallest."""
    D = draw(st.one_of(st.integers(2, 10**4), st.integers(2**63, 2**66))
             .filter(lambda d: math.isqrt(d) ** 2 != d))
    y = draw(st.one_of(st.just(0), st.integers(-60, 60),
                       st.integers(-2**200, 2**200)))
    near = math.isqrt(D * y * y) * (-1 if y > 0 else 1)
    x = draw(st.one_of(st.just(0), st.integers(-60, 60),
                       st.integers(-2**200, 2**200),
                       st.integers(near - 2, near + 2)))
    return x, y, D


@settings(max_examples=500)
@given(_surds())
def test_surd_sign_matches_oracles(xyD):
    x, y, D = xyD
    want = _sign_by_isqrt(x, y, D)
    assert _surd_sign(x, y, D) == want == QuadNum(D, x, y).sign()


def test_surd_sign_near_units():
    """x^2 - D y^2 = +-1 or +-4 at the units of Z[sqrt 5] and Z[sqrt 17],
    with both sign mixes: the hardest inputs for the comparison."""
    for D, x, y in ((5, 9, 4), (5, 161, 72), (5, 2, 1), (5, 3, 1),
                    (17, 33, 8), (17, 4, 1), (5, 1, 0), (5, 0, 1)):
        for sx, sy in itertools.product((1, -1), repeat=2):
            a, b = sx * x, sy * y
            assert _surd_sign(a, b, D) == QuadNum(D, a, b).sign() \
                == _sign_by_isqrt(a, b, D)
    assert _surd_sign(0, 0, 5) == 0


# ----------------------------------------------------------------------
# the assembled density

def test_omega_is_even():
    base = base_geodesic_set(5)
    v = np.arange(0.05, 5.0, 0.05)
    grid = np.concatenate([-v[::-1], v])
    tab = omega(base, grid, q_max=25.0)
    left = tab.omega[: len(v)][::-1]
    right = tab.omega[len(v):]
    assert np.max(np.abs(left - right)) < 1e-9


def test_omega_mean_near_one():
    base = base_geodesic_set(5)
    grid = np.arange(0.025, 5.0, 0.05)
    tab = omega(base, grid, q_max=50.0)
    mean = float(np.mean(tab.omega))
    assert abs(mean - 1.0) < 0.1


def test_omega_guards():
    base17 = base_geodesic_set(17, 2, 1)
    with pytest.raises(ValueError):
        omega(base17, np.array([1.0]), q_max=5.0)
    base5 = base_geodesic_set(5)
    with pytest.raises(ValueError):
        omega(base5, np.array([0.0, 1.0]), q_max=5.0)


def test_omega_accepts_precomputed_terms():
    base = base_geodesic_set(5)
    grid = np.array([0.5, 1.0, 2.0])
    terms, _ = enumerate_coset_terms(base, 20.0)
    a = omega(base, grid, q_max=20.0)
    b = omega(base, grid, q_max=20.0, terms=terms)
    assert np.array_equal(a.omega, b.omega)
    assert a.terms_used == b.terms_used == len(terms)


def test_omega_independent_of_term_order():
    base = base_geodesic_set(5)
    grid = np.array([-2.0, -0.5, 0.5, 1.0, 2.0, 4.0])
    terms, _ = enumerate_coset_terms(base, 20.0)
    shuffled = list(terms)
    random.Random(4).shuffle(shuffled)
    a = omega(base, grid, q_max=20.0, terms=terms)
    b = omega(base, grid, q_max=20.0, terms=shuffled)
    assert a.omega.tobytes() == b.omega.tobytes()


def _sweep_grids():
    fine = default_grid(-5.0, 5.0, 0.001, v_min=0.001)
    coarse = default_grid(-5.0, 5.0, 0.01, v_min=0.01)
    return {"step 0.001": fine, "step 0.01": coarse,
            "figure bins": Histogram(0.0, 5.0, 100).centers(),
            "shuffled": np.random.default_rng(22).permutation(coarse),
            "negative": default_grid(-5.0, -0.01, 0.01)}


@pytest.mark.parametrize("D", [5, 13, 17, 21, 65])
def test_omega_matches_row_per_term_sum_bitwise(D):
    """The in-place H sum gives the bytes of one fresh row per term, for
    every class and on sorted, shuffled and one-sided grids."""
    base = base_geodesic_set(D)
    for cls in ("total", "O1", "O2"):
        mask = _class_mask(base, cls)
        terms, _ = enumerate_coset_terms(base, 10.0, mask)
        for name, grid in _sweep_grids().items():
            got = omega(base, grid, q_max=10.0, mask=mask, terms=terms)
            want = omega_by_rows(base, grid, 10.0, mask, terms)
            assert got.omega.tobytes() == want.tobytes(), (cls, name)


def test_omega_mask_uses_restricted_kappa():
    base = base_geodesic_set(5)
    grid = np.array([1.0, 2.0])
    tab = omega(base, grid, q_max=20.0, mask=[1])
    assert tab.class_mask == (1,)
    kappa_j, _ = kappa_and_vol(base, mask=[1])
    assert tab.kappa == kappa_j
    total = omega(base, grid, q_max=20.0)
    assert tab.terms_used < total.terms_used


def test_default_grid_shape():
    g = default_grid()
    assert np.min(np.abs(g)) >= 0.01 - 1e-12
    assert g[0] == -5.0 and g[-1] == pytest.approx(5.0)
    steps = np.diff(g)
    assert np.max(steps) <= 0.02 + 1e-12   # only gap is across v=0
