import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import georoots.forms as forms
from georoots.forms import (
    MAT_ID,
    MAT_S,
    MAT_T,
    act,
    disc,
    form_value,
    is_primitive,
    is_zagier_reduced,
    mat_det,
    mat_inv,
    mat_mul,
    principal_form,
    reduced_forms_definite,
    zagier_cycle,
    zagier_cycles,
    zagier_reduce,
    zagier_reduced_forms,
    zagier_step,
)
from oracles import (
    automorph,
    is_reduced_definite,
    mat_pow,
    mobius_apply,
    reduce_definite,
    tshift,
    tshift_canonical,
    zagier_reduce_stepwise,
)
from quadnum import QuadNum


def word(bits):
    g = MAT_ID
    for b in bits:
        g = mat_mul(g, MAT_T if b else MAT_S)
    return g


words = st.lists(st.booleans(), min_size=0, max_size=14).map(word)


def first_root(f, D, scale):
    """(-b + scale*sqrt(D)) / (2a), where disc(f) = scale^2 * D."""
    a, b, _ = f
    return QuadNum(D, -b, scale, 2 * a)


def test_matrix_helpers():
    assert mat_mul(MAT_S, MAT_S) == (-1, 0, 0, -1)
    assert mat_det(MAT_T) == 1
    g = (2, 1, 1, 1)
    assert mat_mul(g, mat_inv(g)) == MAT_ID
    assert mat_pow(MAT_T, 5) == (1, 5, 0, 1)
    assert mat_pow(MAT_T, -3) == (1, -3, 0, 1)
    with pytest.raises(ValueError):
        mat_inv((2, 0, 0, 2))


@given(words, words)
@settings(max_examples=150, deadline=None)
def test_act_is_left_action(g, h):
    f = (1, 4, -1)
    assert act(mat_mul(g, h), f) == act(g, act(h, f))


@given(words)
@settings(max_examples=150, deadline=None)
def test_act_preserves_disc_and_content(g):
    for f in [(1, 4, -1), (2, 5, -5), (3, 1, -9), (2, 2, -2)]:
        assert disc(act(g, f)) == disc(f)
        assert is_primitive(act(g, f)) == is_primitive(f)


@given(words)
@settings(max_examples=120, deadline=None)
def test_act_moves_first_root_by_mobius(g):
    f = (1, 4, -1)  # disc 20 = 4*5
    img = act(g, f)
    if img[0] == 0:
        return
    w = first_root(f, 5, 2)
    assert mobius_apply(g, w) == first_root(img, 5, 2)


def test_tshift_matches_action():
    f = (3, 1, -9)
    for j in range(-4, 5):
        assert tshift(f, j) == act(mat_pow(MAT_T, j), f)


@given(st.integers(-40, 40), st.integers(-40, 40))
@settings(max_examples=150, deadline=None)
def test_tshift_canonical(b, j):
    for a in (1, -2, 3, 7):
        c = -1 - a  # arbitrary; disc irrelevant to the shift
        f = tshift((a, b, c), j)
        g = tshift_canonical(f)
        assert -abs(a) < g[1] <= abs(a)
        assert g == tshift_canonical((a, b, c))


def test_principal_form():
    assert principal_form(20) == (1, 0, -5)
    assert principal_form(5) == (1, 1, -1)
    assert principal_form(-4) == (1, 0, 1)
    with pytest.raises(ValueError):
        principal_form(6)


def test_reduced_enumeration_pinned():
    # b = a + c + k: disc 20 by hand, k = 1 with a - c = +-1, +-3;
    # (2, 6, 2) at k = 2 is not primitive
    assert zagier_reduced_forms(20) == [(1, 6, 4), (4, 6, 1), (4, 10, 5),
                                        (5, 10, 4)]
    assert zagier_reduced_forms(5) == [(1, 3, 1)]
    assert len(zagier_cycles(20)) == 1
    assert len(zagier_cycles(5)) == 1
    assert len(zagier_cycles(17)) == 1
    assert len(zagier_cycles(65)) == 2
    assert len(zagier_cycles(4 * 65)) == 2


def test_cycle_structure():
    for delta in (20, 5, 17, 13, 65, 84, 4 * 17):
        cycles = zagier_cycles(delta)
        all_forms = set(zagier_reduced_forms(delta))
        assert set().union(*map(set, cycles)) == all_forms
        assert sum(map(len, cycles)) == len(all_forms)
        for cyc in cycles:
            for f in cyc:
                assert is_zagier_reduced(f) and is_primitive(f)
                assert disc(f) == delta
            assert len(set(cyc)) == len(cyc)
            # each step stays on the cycle and the last one closes it
            for f, g in zip(cyc, cyc[1:] + cyc[:1]):
                assert zagier_step(MAT_ID, f)[1] == g


def brute_reduced_forms(delta):
    a, c = np.mgrid[1:delta + 1, 1:delta + 1]
    b2 = delta + 4 * a * c
    b = np.sqrt(b2).round().astype(np.int64)
    ok = (b * b == b2) & (b > a + c) & (np.gcd(np.gcd(a, b), c) == 1)
    return sorted(zip(a[ok].tolist(), b[ok].tolist(), c[ok].tolist()))


def test_reduced_enumeration_matches_brute_force():
    """The (k, a - c) enumeration against every a, c <= delta.

    b > a + c forces delta > (a - c)^2 + 2(a + c), so a, c < delta."""
    for delta in range(5, 301):
        if delta % 4 in (2, 3) or math.isqrt(delta) ** 2 == delta:
            continue
        assert zagier_reduced_forms(delta) == brute_reduced_forms(delta)


def test_zagier_rejects_definite_and_square_discriminants():
    for f in ((1, 0, -16), (2, 5, 2), (1, 1, 1), (1, 0, 0)):
        with pytest.raises(ValueError):
            zagier_reduce(f)
    for delta in (16, 0, -3):
        with pytest.raises(ValueError):
            zagier_reduced_forms(delta)


@given(words, st.sampled_from([(1, 4, -1), (2, 5, -5), (1, 1, -1),
                               (2, 1, -2), (5, 5, -2)]))
@settings(max_examples=200, deadline=None)
def test_reduction_finds_equivalence(g, f):
    """f and act(g, f) fall in the same class: both reduce onto f's cycle,
    and the reducing basis U satisfies act(U^-1, h) = f o U = the form."""
    h = act(g, f)
    U, r = zagier_reduce(h)
    assert mat_det(U) == 1 and act(mat_inv(U), h) == r
    cycle, _, E = zagier_cycle(f)
    assert r in cycle
    assert mat_det(E) == 1 and act(E, f) == f


@pytest.mark.parametrize("f", [(1, 4, -1), (2, 5, -5), (1, 1, -1),
                               (5, 5, -2), (-3, 7, 11), (1, 0, -157)])
def test_zagier_cycle_bases_carry_its_forms(f):
    """The walk's bases U_i give its forms, g_i = f o U_i, start at the
    reducing basis, follow one another by a Zagier step, and the step
    after the last is E U_0."""
    cycle, bases, E = zagier_cycle(f)
    assert len(bases) == len(cycle)
    assert bases[0] == zagier_reduce(f)[0]
    for U, g in zip(bases, cycle):
        assert mat_det(U) == 1 and act(mat_inv(U), f) == g
    steps = [zagier_step(U, g)[0] for U, g in zip(bases, cycle)]
    assert steps[:-1] == list(bases[1:])
    assert steps[-1] == mat_mul(E, bases[0])


def _long_run_form(rng, max_run):
    """A random form of positive non-square discriminant moved by a random
    word in T^j, S and the quotient-2 step P^k, k up to max_run."""
    while True:
        f = (rng.randint(-9, 9), rng.randint(-20, 20), rng.randint(-9, 9))
        if disc(f) > 0 and math.isqrt(disc(f)) ** 2 != disc(f):
            break
    g = MAT_ID
    for _ in range(rng.randint(0, 12)):
        k = rng.randint(1, max_run)
        g = mat_mul(g, rng.choice([(1, rng.randint(-50, 50), 0, 1), MAT_S,
                                   (1 - k, -k, k, 1 + k),
                                   (1 + k, k, -k, 1 - k)]))
    return act(g, f)


def test_zagier_reduce_matches_stepwise_oracle():
    """Skipping runs of quotient 2 lands on the stepwise (U, g) exactly."""
    rng = random.Random(11)
    for _ in range(1500):
        f = _long_run_form(rng, 300)
        assert zagier_reduce(f) == zagier_reduce_stepwise(f), f


def test_zagier_reduce_turns_are_logarithmic(monkeypatch):
    """At most two loop turns per quotient other than 2, and those follow
    every second partial quotient of the ordinary continued fraction (at
    most about 1.44 per bit of the coefficients), so 2 bits + 8 turns
    bound every input."""
    turns = []
    reduced = forms.is_zagier_reduced
    monkeypatch.setattr(forms, "is_zagier_reduced",
                        lambda f: turns.append(f) or reduced(f))
    P = (2, -1, 1, 0)
    big = act(mat_pow(P, 100_000), (1, 1, -1))
    assert zagier_reduce(big)[1] == (1, 3, 1)
    assert len(turns) - 1 <= 3           # once 99,999 single steps
    rng = random.Random(12)
    for _ in range(300):
        f = _long_run_form(rng, 10**6)
        turns.clear()
        U, g = zagier_reduce(f)
        assert is_zagier_reduced(g) and act(mat_inv(U), f) == g
        bits = max(abs(c) for c in f).bit_length()
        assert len(turns) - 1 <= 2 * bits + 8, f


def test_inequivalent_classes_disc_65():
    c1, c2 = zagier_cycles(65)
    assert not set(c1) & set(c2)
    for cyc, other in ((c1, c2), (c2, c1)):
        for f in cyc:
            assert set(zagier_cycle(f)[0]) == set(cyc)
            for g in (MAT_S, MAT_T, (2, 1, 1, 1), (5, -3, -3, 2)):
                assert zagier_reduce(act(g, f))[1] not in other


def test_automorph_fixes_form():
    f = (1, 4, -1)  # disc 20; t^2 - 20 u^2 = 4 at (t,u) = (18,4)
    m = automorph(f, 18, 4)
    assert mat_det(m) == 1
    assert act(m, f) == f
    assert m[0] + m[3] == 18
    g = (1, 1, -1)  # disc 5; (t,u) = (3,1)
    m2 = automorph(g, 3, 1)
    assert mat_det(m2) == 1 and act(m2, g) == g


def test_definite_enumeration_pinned():
    assert reduced_forms_definite(-3) == [(1, 1, 1)]
    assert reduced_forms_definite(-4) == [(1, 0, 1)]
    assert reduced_forms_definite(-7) == [(1, 1, 2)]
    assert reduced_forms_definite(-12) == [(1, 0, 3)]
    assert reduced_forms_definite(-15) == [(1, 1, 4), (2, 1, 2)]
    assert reduced_forms_definite(-28) == [(1, 0, 7)]
    assert reduced_forms_definite(-60) == [(1, 0, 15), (3, 0, 5)]


@given(words, st.sampled_from([(1, 1, 1), (1, 0, 3), (2, 1, 2), (1, 0, 7)]))
@settings(max_examples=200, deadline=None)
def test_definite_reduction(g, f):
    h = act(g, f)
    assert h[0] > 0  # SL2 keeps positive definite forms positive definite
    r = reduce_definite(h)
    assert is_reduced_definite(r)
    assert disc(r) == disc(f)
    assert r == f  # one class per seed here, so reduction recovers the seed


def test_form_value():
    assert form_value((1, 4, -1), 1, 0) == 1
    assert form_value((1, 4, -1), 0, 1) == -1
    assert form_value((2, 5, -5), 3, 2) == 28
