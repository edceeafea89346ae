import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from georoots.arith import factorize
from georoots.forms import (
    MAT_ID,
    MAT_S,
    MAT_T,
    act,
    mat_det,
    mat_inv,
    mat_mul,
)
from georoots.geodesics import (
    BudgetExceeded,
    _check_base_tops,
    base_geodesic_set,
    cone_roots,
    enumerate_tops,
    extra_coset_copies,
    log_surd,
    symmetry,
)
from georoots.orders import form_of_root, unit_relation
from georoots.roots import OrderTag, RootFilter, is_invertible, sieve_roots
from oracles import (
    Geodesic,
    NotRootGeodesic,
    apply_gamma,
    class_of_root,
    cones_closing_on,
    form_geodesic,
    gamma0_coset_transversal,
    gamma0_generators,
    geodesic_from_root,
    stabilizer_by_unit,
    top_of,
    xgcd,
)
from quadnum import QuadNum


def sieve_pairs(D, M, n=1, nu=0):
    seq = sieve_roots(D, M, RootFilter(n, nu))
    return set(zip(seq.ms.tolist(), seq.mus.tolist()))


def rational_geodesic(D, lo, hi):
    return Geodesic(D, QuadNum.from_fraction(D, lo), QuadNum.from_fraction(D, hi))


# ---------------------------------------------------------------- endpoints

def test_geodesic_from_root_endpoints():
    c = geodesic_from_root(5, 11, 4)
    assert c.minus == QuadNum(5, 4, -1, 11)
    assert c.plus == QuadNum(5, 4, 1, 11)
    assert c.is_positively_oriented()

    c0 = geodesic_from_root(5, 1, 0)
    assert c0.minus == -QuadNum.sqrt(5) and c0.plus == QuadNum.sqrt(5)

    c17 = geodesic_from_root(17, 8, 3)
    assert float(c17.minus) == pytest.approx((3 - 17 ** 0.5) / 8)
    assert float(c17.plus) == pytest.approx((3 + 17 ** 0.5) / 8)


def test_geodesic_rejects_non_root():
    with pytest.raises(ValueError):
        geodesic_from_root(5, 3, 1)


def test_apply_gamma_identity_and_translation():
    c = geodesic_from_root(5, 11, 4)
    assert apply_gamma(MAT_ID, c) == c
    seg = rational_geodesic(5, 0, 1)
    moved = apply_gamma(MAT_T, seg)
    assert moved.minus.as_fraction() == 1 and moved.plus.as_fraction() == 2


def test_apply_gamma_inversion_flips_orientation():
    c = geodesic_from_root(5, 1, 0)   # (-sqrt5, sqrt5)
    img = apply_gamma(MAT_S, c)
    assert img.minus == QuadNum(5, 0, 1, 5)    # sqrt(5)/5
    assert img.plus == QuadNum(5, 0, -1, 5)
    assert not img.is_positively_oriented()


def test_apply_gamma_infinity_handling():
    vert = Geodesic(5, None, QuadNum.from_fraction(5, 0))
    assert apply_gamma(MAT_T, vert).minus is None
    img = apply_gamma(MAT_S, vert)            # infinity -> 0, 0 -> infinity
    assert img.minus == 0 and img.plus is None


# ---------------------------------------------------------------- tops

def test_top_of_basic():
    t = top_of(geodesic_from_root(5, 11, 4))
    assert t.x == Fraction(4, 11) and t.m == 11
    assert t.root() == (11, 4)


def test_top_of_none_cases():
    assert top_of(Geodesic(5, None, QuadNum.from_fraction(5, 0))) is None
    assert top_of(geodesic_from_root(5, 11, 4).reversed()) is None


def test_top_of_rejects_wrong_widths():
    s5 = QuadNum.sqrt(5)
    third = Fraction(1, 3)
    with pytest.raises(NotRootGeodesic):   # half-width 2*sqrt(5)/3
        top_of(Geodesic(5, (1 - 2 * s5) * third, (1 + 2 * s5) * third))
    with pytest.raises(NotRootGeodesic):   # mu = 1/2 not integral
        top_of(Geodesic(5, Fraction(1, 2) - s5, Fraction(1, 2) + s5))
    with pytest.raises(NotRootGeodesic):   # (3, 1) is not a root of 5
        top_of(Geodesic(5, (1 - s5) * third, (1 + s5) * third))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([5, 13, 17, 21, 65]), st.integers(1, 400),
       st.integers(-400, 400))
def test_top_recovers_root(D, m, mu):
    if (mu * mu - D) % m:
        return
    assert top_of(geodesic_from_root(D, m, mu)).root() == (m, mu % m)


# ---------------------------------------------------------------- stabilizers

def root_form(D, m, mu):
    """The form of the root (m, mu) in the order it belongs to."""
    order = OrderTag.O1 if is_invertible(D, m, mu) else OrderTag.O2
    return form_of_root(D, m, mu, order)


def test_stabilizer_pinned_matrices():
    g, j, _ = symmetry(root_form(5, 1, 0))
    assert g == (9, 20, 4, 9) and j == 1
    assert g[0] + g[3] == 18

    g, j, _ = symmetry(root_form(17, 2, 1))
    assert g == (41, 64, 16, 25) and j == 1
    assert g[0] + g[3] == 66

    # narrow-order unit, trace 3
    g, j, _ = symmetry(root_form(5, 2, 1))
    assert g == (2, 1, 1, 1) and j == 1


def test_stabilizer_needs_cube_in_gamma0_2():
    g, j, _ = symmetry(root_form(5, 2, 1), n=2)
    assert j == 3
    assert g == (13, 8, 8, 5)
    assert g[2] % 2 == 0


def test_stabilizer_fixes_endpoints_in_order():
    for D, m, mu, n in [(5, 1, 0, 1), (17, 2, 1, 1), (5, 2, 1, 2),
                        (13, 3, 4, 3), (65, 10, 5, 5)]:
        c = geodesic_from_root(D, m, mu)
        g, _, _ = symmetry(root_form(D, m, mu), n)
        assert apply_gamma(g, c) == c


# ---------------------------------------------------------------- Gamma_0(n)

def test_transversal_sizes_match_index():
    # index of Gamma_0(n) = n * prod(1 + 1/p)
    for n, idx in [(1, 1), (2, 3), (3, 4), (4, 6), (5, 6), (6, 12), (8, 12)]:
        assert len(gamma0_coset_transversal(n)) == idx


def test_generators_live_in_gamma0():
    for n in (1, 2, 3, 4, 6, 8):
        gens = gamma0_generators(n)
        assert gens
        for g in gens:
            assert mat_det(g) == 1 and g[2] % n == 0


def test_extra_coset_copies_distinct():
    for n, count in [(2, 2), (4, 1), (6, 2), (8, 1)]:
        copies = extra_coset_copies(n)
        assert len(copies) == count
        for g in copies:
            assert mat_det(g) == 1
            assert g[2] % (n // 2) == 0 and g[2] % n != 0
        if count == 2:
            w = mat_mul(copies[1], mat_inv(copies[0]))
            assert w[2] % n != 0   # genuinely different cosets


def test_extra_coset_copies_are_the_xgcd_ones():
    # the closed forms are the (u, -v, h, d) of u d + v h = 1 that
    # extended Euclid gives for (d, h), so the base sets keep their bytes
    for h in range(1, 5000):
        want = [(u, -v, h, d) for d in ((1, 2) if h % 2 else (1,))
                for _, u, v in [xgcd(d, h)]]
        assert extra_coset_copies(2 * h) == want, h


def _gamma0_index(n):
    # [SL2(Z) : Gamma_0(n)] = n * prod(1 + 1/p)
    for p, _ in factorize(n):
        n = n // p * (p + 1)
    return n


def test_extra_coset_copies_are_the_cosets():
    # with the identity, the copies form a transversal of Gamma_0(n) in
    # Gamma_0(n/2): each lies in Gamma_0(n/2), no two share a right coset
    # of Gamma_0(n), and there are as many as the index says
    for n in range(2, 401, 2):
        copies = extra_coset_copies(n)
        for g in copies:
            assert mat_det(g) == 1 and g[2] % (n // 2) == 0
        reps = [MAT_ID] + copies
        for i, a in enumerate(reps):
            for b in reps[:i]:
                assert mat_mul(a, mat_inv(b))[2] % n != 0, (n, a, b)
        index = _gamma0_index(n) // _gamma0_index(n // 2)
        assert len(copies) == index - 1 == (1 if n % 4 == 0 else 2)


def test_filter_is_gamma0_invariant():
    rng = random.Random(7)
    for D, n, nu in [(5, 4, 1), (17, 2, 1), (13, 3, 1)]:
        gens = gamma0_generators(n)
        filt = RootFilter(n, nu)
        seq = sieve_roots(D, 60, filt)
        for _ in range(60):
            m, mu = map(int, rng.choice(list(zip(seq.ms, seq.mus))))
            g = (1, 0, 0, 1)
            for _ in range(rng.randrange(1, 6)):
                g = mat_mul(g, rng.choice(gens))
            img = apply_gamma(g, geodesic_from_root(D, m, mu))
            t = top_of(img)
            if t is not None:
                assert filt.accepts(*t.root())


# ---------------------------------------------------------------- base sets

def test_base_set_counts_and_lengths():
    b = base_geodesic_set(5, 1, 0)
    assert len(b.geodesics) == 2 and b.unit_relation == "Cube"
    assert sorted(g.length_mult for g in b.geodesics) == [1, 3]

    b17 = base_geodesic_set(17, 1, 0)
    assert len(b17.geodesics) == 2 and b17.unit_relation == "Equal"
    assert [g.length_mult for g in b17.geodesics] == [1, 1]

    # total length vs unit: 2 log eps1 + 2 log eps2
    assert b.eps2 == (3, 1, 2) and b17.eps2 == (33, 8, 1)
    eps2 = float(QuadNum(5, *b.eps2))
    assert sum(b.lengths()) == pytest.approx(8 * math.log(eps2))
    assert sum(b17.lengths()) == pytest.approx(
        4 * math.log(float(QuadNum(17, *b17.eps2))))


def test_lengths_of_a_324_digit_unit_match_mpmath():
    """D = 100057: eps2 has 324 digits, past the float range, and
    `lengths` still agrees with a 50-digit log."""
    import mpmath
    b = base_geodesic_set(100057)
    a, bb, c = b.eps2
    assert a.bit_length() > 1024
    with mpmath.workdps(50):
        want = 2 * mpmath.log((a + bb * mpmath.sqrt(b.D)) / c)
        for g, got in zip(b.geodesics, b.lengths()):
            assert got == pytest.approx(float(want * g.length_mult),
                                        rel=1e-15)


def test_log_surd_across_the_shift():
    """log_surd against mpmath for b of 990 to 1098 bits and a within 2
    of b sqrt d, so a runs across 2^1000, where the shift starts, and
    2^1024, where the plain float expression would overflow."""
    import mpmath
    rng = random.Random(7)
    for d in (5, 17, 100057):
        root = d ** 0.5
        for bits in range(990, 1100, 3):
            b = rng.getrandbits(bits) | 1 << (bits - 1)
            a = math.isqrt(d * b * b) + rng.randrange(3)
            c = rng.choice((1, 2))
            with mpmath.workdps(50):
                want = float(mpmath.log((a + b * mpmath.sqrt(d)) / c))
            assert log_surd(a, b, root, c) == pytest.approx(want, rel=1e-15)


# Real D whose unit eps2 = (a + b sqrt D)/c has an a of 999, 1002, 1023,
# 1024 and 1026 bits: across 2^1000, where log_surd starts to shift, and
# across 2^1024, past which a float overflows (eps2 itself is about
# 2^1023.8 for D = 68713 and 2^1024.6 for D = 65089).  A scan over D
# found them in under 5 s.
REAL_BIG_UNITS = {75193: 999, 48073: 1002, 68713: 1023, 65089: 1024,
                  42793: 1026}


def test_log_surd_on_real_units_across_the_shift():
    import mpmath
    for D, bits in REAL_BIG_UNITS.items():
        u = unit_relation(D)
        assert u.eps2[0].bit_length() == bits
        for a, b, c in (u.eps1, u.eps2):
            with mpmath.workdps(50):
                want = float(mpmath.log((a + b * mpmath.sqrt(D)) / c))
            assert log_surd(a, b, D ** 0.5, c) == pytest.approx(want,
                                                                rel=1e-15)


@pytest.mark.parametrize("D", [68713, 65089])
def test_lengths_on_each_side_of_2_to_the_1024(D):
    import mpmath
    b = base_geodesic_set(D)
    a, bb, c = b.eps2
    with mpmath.workdps(50):
        want = 2 * mpmath.log((a + bb * mpmath.sqrt(D)) / c)
        for g, got in zip(b.geodesics, b.lengths()):
            assert got == pytest.approx(float(want * g.length_mult),
                                        rel=1e-15)


def test_base_set_splitting_cases():
    # narrow-side copies for even n: two when 4 | n, three otherwise,
    # folded to one tripled geodesic when the unit relation is a cube
    cases = {
        (17, 2, 1): (4, 3),    # 1 + 3*1
        (17, 4, 1): (3, 2),    # 1 + 2*1
        (5, 2, 1): (2, 1),     # 1 + 1 (tripled length)
        (65, 2, 1): (8, 3),    # 2 + 3*2
        (5, 4, 1): (1, 2),     # no narrow-side roots at all
        (17, 8, 3): (1, 2),    # quotient odd: narrow side empty again
    }
    for (D, n, nu), (h, s) in cases.items():
        b = base_geodesic_set(D, n, nu)
        assert (len(b.geodesics), b.s) == (h, s), (D, n, nu)


def test_base_set_tripled_length_case():
    b = base_geodesic_set(5, 2, 1)
    js = {g.source[0]: g.j_stab for g in b.geodesics}
    assert js["J"] == 3
    mults = {g.source[0]: g.length_mult for g in b.geodesics}
    assert mults == {"I": 3, "J": 3}   # equal lengths, one geodesic each


# SHA-256 of (D, n, nu, source, m, mu, conjugator, stabilizer, j_stab,
# length_mult) over every base geodesic of the 1,879 base sets with
# squarefree 5 <= D <= 200, D = 1 (mod 4), n <= 48 and every nu with
# nu^2 = D (mod n), and over the 38 of those sets with n = 1.
# BASE_SETS_SHA256 was recorded when each base geodesic started at its
# class's least filtered root, read off the class's Zagier cones.  The
# n = 1 digest was recorded from the construction before it, which
# multiplied a carrier ideal of the filter by an auxiliary ideal found by
# a bounded search; at n = 1 both start at the class's least root.  The
# stabilizers and cones were first pinned from a construction that
# conjugated diag(eps, 1/eps) by hand.
BASE_SETS_SHA256 = \
    "3be68606aa176f34f489ee47ee6a7be5c2fe4f2c10888b8b37a1b8173c5d3143"
BASE_SETS_N1_SHA256 = \
    "3c967574e70e2c4a209ab09d6f94e03c87d9150cbbb074c2cb98e2d7ce9cb8a9"


def test_base_sets_pinned():
    h, h1 = hashlib.sha256(), hashlib.sha256()
    count = 0
    for D in range(5, 201, 4):
        if any(e > 1 for _, e in factorize(D)):
            continue
        for n in range(1, 49):
            for nu in range(n):
                if (nu * nu - D) % n:
                    continue
                count += 1
                for g in base_geodesic_set(D, n, nu).geodesics:
                    assert act(g.stabilizer, g.form) == g.form
                    assert symmetry(g.form, n) == (g.stabilizer, g.j_stab,
                                                   g.cones)
                    # the unit oracle builds the same stabilizer and cones
                    assert (g.stabilizer, g.j_stab) == stabilizer_by_unit(
                        D, g.form, n)
                    assert cones_closing_on(g.form, g.stabilizer) == \
                        list(g.cones)
                    # the endpoint oracle builds the same geodesic
                    assert form_geodesic(D, g.form, g.mult) == apply_gamma(
                        g.conjugator, geodesic_from_root(D, g.m, g.mu))
                    line = repr((D, n, nu, g.source, g.m, g.mu,
                                 g.conjugator, g.stabilizer, g.j_stab,
                                 g.length_mult)).encode() + b"\n"
                    h.update(line)
                    if n == 1:
                        h1.update(line)
    assert count == 1879
    assert h.hexdigest() == BASE_SETS_SHA256
    assert h1.hexdigest() == BASE_SETS_N1_SHA256


def test_base_roots_are_least_filtered_roots():
    """Each base geodesic starts at the first root of its order and
    class that the filtered sieve meets, over the 575 base sets with
    squarefree D <= 120, n <= 24 and every nu."""
    sets = 0
    for D in range(5, 121, 4):
        if any(e > 1 for _, e in factorize(D)):
            continue
        orders = {"I": OrderTag.O1, "J": OrderTag.O2}
        for n in range(1, 25):
            for nu in range(n):
                if (nu * nu - D) % n:
                    continue
                sets += 1
                base = base_geodesic_set(D, n, nu)
                wanted = {g.source for g in base.geodesics}
                seq = sieve_roots(D, max(g.m for g in base.geodesics),
                                  RootFilter(n, nu))
                first = {}
                for m, mu, o1 in zip(seq.ms.tolist(), seq.mus.tolist(),
                                     seq.class_tags().tolist()):
                    side = "I" if o1 else "J"
                    k = class_of_root(D, orders[side], m, mu)
                    first.setdefault((side, k), (m, mu))
                    if wanted <= first.keys():
                        break
                for g in base.geodesics:
                    assert (g.m, g.mu) == first[g.source], (D, n, nu, g.source)
    assert sets == 575


def test_base_set_rejects_bad_filter():
    with pytest.raises(ValueError):
        base_geodesic_set(5, 3, 1)


def test_check_base_tops_rejects_top_outside_filter():
    base = base_geodesic_set(5, 4, 1)
    _check_base_tops(base, RootFilter(4, 1))
    with pytest.raises(RuntimeError, match="violates"):
        _check_base_tops(base, RootFilter(4, 3))


def test_check_base_tops_rejects_foreign_stabilizer():
    base = base_geodesic_set(5, 1, 0)
    g0, *rest = base.geodesics
    bad = base._replace(geodesics=(g0._replace(stabilizer=MAT_T), *rest))
    with pytest.raises(RuntimeError, match="stabilizer does not fix"):
        _check_base_tops(bad, RootFilter(1, 0))


# ---------------------------------------------------------------- enumeration

def test_enumerate_tops_pinned_small():
    got = enumerate_tops(base_geodesic_set(5, 1, 0), 11)
    assert got.roots == {(1, 0), (2, 1), (4, 1), (4, 3), (5, 0), (10, 5),
                         (11, 4), (11, 7)}
    assert got.duplicates == 0
    assert got.produced == 8


def test_enumerate_tops_matches_sieve_plain():
    for D in (5, 13, 17, 21, 65):
        got = enumerate_tops(base_geodesic_set(D, 1, 0), 300)
        assert got.duplicates == 0, D
        assert got.roots == sieve_pairs(D, 300), D


@pytest.mark.parametrize("D,n,nu", [
    (5, 2, 1), (5, 4, 1), (5, 5, 0), (13, 2, 1), (13, 3, 1),
    (17, 2, 1), (17, 4, 1), (17, 8, 1), (17, 8, 3),
    (21, 2, 1), (21, 3, 0), (65, 2, 1),
])
def test_enumerate_tops_matches_sieve_filtered(D, n, nu):
    got = enumerate_tops(base_geodesic_set(D, n, nu), 400)
    assert got.duplicates == 0
    assert got.roots == sieve_pairs(D, 400, n, nu)


def test_enumerate_tops_budget_guard():
    with pytest.raises(BudgetExceeded):
        enumerate_tops(base_geodesic_set(5, 1, 0), 50, budget=10)


def test_enumerate_tops_rejects_bad_M():
    with pytest.raises(ValueError):
        enumerate_tops(base_geodesic_set(5, 1, 0), 0)


# ------------------------------------------------- coset parametrization

def readout(D, mk, muk, order, gamma):
    """(m, mu) that `cone_roots` reads off the top of gamma applied to the
    root geodesic of (mk, muk), or None when that image has no top.

    The state form act(gamma, f0) has leading coefficient f0(v) with
    v = (s, -r), the first column of gamma^-1.  Shifting the second
    column by j v (a left T^j, which leaves the top alone) until the
    cone's form has B > 0 and C > A makes v its only candidate."""
    f0 = form_of_root(D, mk, muk, order)
    mult = 1 if order is OrderTag.O1 else 2
    A, B, C = act(gamma, f0)
    if A <= 0:
        return None
    j = 0
    while B + 2 * A * j <= 0 or (A * j + B) * j + C <= A:
        j += 1
    U = mat_mul(mat_inv(gamma), (1, j, 0, 1))
    ms, mus, examined = cone_roots([(f0, U, mult)], mult * A, 1, 10)
    assert examined == 1
    return int(ms[0]), int(mus[0])


def test_coset_parametrization_pinned():
    assert readout(5, 1, 0, OrderTag.O1, MAT_ID) == (1, 0)
    assert readout(5, 1, 0, OrderTag.O1, MAT_T) == (1, 0)
    assert readout(5, 2, 1, OrderTag.O2, MAT_ID) == (2, 1)
    assert readout(5, 2, 1, OrderTag.O2, MAT_S) is None
    assert top_of(apply_gamma(MAT_S, geodesic_from_root(5, 2, 1))) is None


def test_coset_parametrization_agrees_with_geometry():
    rng = random.Random(13)
    cases = [(5, 1, 0, OrderTag.O1), (5, 2, 1, OrderTag.O2),
             (17, 2, 1, OrderTag.O2), (13, 3, 4, OrderTag.O1),
             (65, 10, 5, OrderTag.O2)]
    checked = 0
    for _ in range(1000):
        D, mk, muk, order = rng.choice(cases)
        g = (1, 0, 0, 1)
        for _ in range(rng.randrange(1, 9)):
            g = mat_mul(g, rng.choice([MAT_S, MAT_T, mat_inv(MAT_T)]))
        if max(map(abs, g)) > 50:
            continue
        t = top_of(apply_gamma(g, geodesic_from_root(D, mk, muk)))
        got = readout(D, mk, muk, order, g)
        if got is None:
            assert t is None
            continue
        assert t is not None
        assert t.root() == got
        checked += 1
    assert checked > 400


def test_gamma_element_algebra():
    g = (1, 1, 0, 1)
    assert mat_mul(g, mat_inv(g)) == MAT_ID
    assert mat_det(mat_mul(g, MAT_S)) == 1
    assert mat_det((1, 1, 1, 1)) == 0
    with pytest.raises(ValueError):
        mat_inv((1, 1, 1, 1))
