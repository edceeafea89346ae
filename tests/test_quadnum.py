import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import is_totally_positive, mobius_apply
from quadnum import QuadNum


def test_normalization():
    x = QuadNum(5, 2, 4, -6)
    assert (x.a, x.b, x.c) == (-1, -2, 3)
    assert QuadNum(5, 0, 0, 7) == QuadNum(5, 0, 0, 1)


def test_rejects_bad_D():
    with pytest.raises(ValueError):
        QuadNum(16, 1, 1)
    with pytest.raises(ValueError):
        QuadNum(1, 1, 1)


def test_unit_identities():
    eps2 = QuadNum(5, 3, 1, 2)        # (3+sqrt5)/2
    eps1 = QuadNum(5, 9, 4)           # 9+4*sqrt5
    assert eps2 ** 3 == eps1
    assert eps2.norm() == 1 and eps1.norm() == 1
    assert is_totally_positive(eps2) and is_totally_positive(eps1)
    gold = QuadNum(5, 1, 1, 2)        # (1+sqrt5)/2, norm -1
    assert gold.norm() == -1
    assert not is_totally_positive(gold)
    assert gold * gold == eps2


def test_exact_comparisons():
    r5 = QuadNum.sqrt(5)
    assert Fraction(2) < r5 < Fraction(9, 4)
    assert r5 > 2 and r5 < 3
    # near-tie decided exactly: 161/72 vs sqrt(5)  (161^2=25921, 5*72^2=25920)
    assert r5 < Fraction(161, 72)
    assert QuadNum(5, -161, 72, 1).sign() == -1
    assert QuadNum(5, 161, -72, 1).sign() == 1


def test_conjugate_and_inverse():
    x = QuadNum(17, 33, 8)
    assert x * x.conjugate() == int(x.norm())
    assert x * x.inverse() == 1
    assert (1 / x) * x == 1
    assert x.inverse() == x.conjugate()  # norm 1


qn = st.builds(
    QuadNum,
    st.sampled_from([5, 13, 17, 21, 65]).flatmap(
        lambda D: st.tuples(st.just(D),
                            st.integers(-50, 50),
                            st.integers(-50, 50),
                            st.integers(1, 30))
    ).map(lambda t: t[0]),
)


@st.composite
def quads(draw, D=None):
    d = D or draw(st.sampled_from([5, 13, 17, 21, 65]))
    return QuadNum(d, draw(st.integers(-60, 60)), draw(st.integers(-60, 60)),
                   draw(st.integers(1, 25)))


@given(quads(D=5), quads(D=5), quads(D=5))
@settings(max_examples=200, deadline=None)
def test_ring_axioms(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    assert (x - y) + y == x


@given(quads())
@settings(max_examples=200, deadline=None)
def test_norm_conj_float_agree(x):
    assert x.norm() == (x * x.conjugate()).as_fraction()
    assert math.isclose(float(x) + float(x.conjugate()), float(x.trace()),
                        abs_tol=1e-9)
    fx = float(x)
    if abs(fx) > 1e-6:
        assert (x.sign() > 0) == (fx > 0)
    if x != 0:
        assert x * x.inverse() == 1


@given(quads(D=13), quads(D=13))
@settings(max_examples=150, deadline=None)
def test_order_consistent_with_floats(x, y):
    if abs(float(x) - float(y)) > 1e-6:
        assert (x < y) == (float(x) < float(y))


def test_mobius():
    r5 = QuadNum.sqrt(5)
    assert mobius_apply((1, 1, 0, 1), r5) == r5 + 1
    assert mobius_apply((0, -1, 1, 0), r5) == -r5.inverse()
    # group action: g then h equals h*g composed
    g = (2, 1, 1, 1)
    h = (1, -1, 3, -2)
    hg = (h[0] * g[0] + h[1] * g[2], h[0] * g[1] + h[1] * g[3],
          h[2] * g[0] + h[3] * g[2], h[2] * g[1] + h[3] * g[3])
    assert mobius_apply(h, mobius_apply(g, r5)) == mobius_apply(hg, r5)
