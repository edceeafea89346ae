import json
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest

from georoots.arith import factorize, sqrt_mod
from georoots.cli import main
from georoots.forms import (
    act,
    content,
    disc,
    is_primitive,
    mat_det,
    principal_form,
    zagier_cycle,
)
from georoots.geodesics import BaseGeodesicSet, least_filtered_root
from georoots.orders import (
    OrderMismatch,
    form_of_root,
    narrow_class_group,
    totally_positive_fundamental_unit,
    unit_relation,
    unit_str,
)
from georoots.roots import (
    OrderTag,
    RootFilter,
    _sieve,
    filter_reaches_order,
    is_invertible,
    validate_discriminant,
    validate_negative_discriminant,
)
from oracles import (
    IdealHNF,
    class_of_root,
    class_reps_by_search,
    class_shift_representative,
    fits_order,
    ideal_conjugate,
    ideal_from_root,
    ideal_mul,
    is_totally_positive,
)
from quadnum import QuadNum

O1, O2 = OrderTag.O1, OrderTag.O2


def unit_root(order):
    return (1, 0) if order is O1 else (2, 1)


def unit_ideal(D, order):
    return ideal_from_root(D, *unit_root(order), order)


def all_roots(D, mmax):
    for m in range(1, mmax + 1):
        for mu in sqrt_mod(D, m):
            yield m, mu


def test_validate_discriminant():
    for D in (5, 13, 17, 21, 65, 4001):
        validate_discriminant(D)
    for bad in (6, 9, 45, 25, 8, 1):
        with pytest.raises(ValueError):
            validate_discriminant(bad)


def test_ideal_from_root_pinned():
    I = ideal_from_root(5, 11, 4 - 33, O1)
    assert (I.m, I.mu, I.norm()) == (11, 4, 11)
    J = ideal_from_root(5, 2, 1, O2)
    assert (J.m, J.mu, J.norm()) == (2, 1, 1)
    u = ideal_from_root(5, 1, 0, O1)
    assert u == IdealHNF(5, O1, 1, 0) and u.norm() == 1
    with pytest.raises(OrderMismatch):
        ideal_from_root(5, 11, 4, O2)
    with pytest.raises(ValueError):
        ideal_from_root(5, 7, 1, O1)  # 1 != 5 mod 7


def test_root_round_trip():
    for D in (5, 13, 17, 21, 65):
        for m, mu in all_roots(D, 60):
            order = O1 if is_invertible(D, m, mu) else O2
            for shift in (0, m, -3 * m):
                ideal = ideal_from_root(D, m, mu + shift, order)
                assert (ideal.m, ideal.mu) == (m, mu)


def test_is_invertible_pinned():
    assert is_invertible(5, 11, 4)
    assert not is_invertible(5, 2, 1)
    assert is_invertible(5, 1, 0)


def test_every_root_fits_exactly_one_order():
    for D in (5, 13, 17, 21, 65):
        for m, mu in all_roots(D, 80):
            assert fits_order(D, m, mu, O1) != fits_order(D, m, mu, O2)


def test_ideal_mul_pinned():
    A = ideal_from_root(5, 11, 4, O1)
    B = ideal_from_root(5, 11, 7, O1)
    P = ideal_mul(A, B)
    assert (P.m, P.mu, P.scalar) == (1, 0, 11)
    assert ideal_mul(A, unit_ideal(5, O1)) == A
    I0 = ideal_from_root(5, 2, 1, O1)
    Q = ideal_mul(I0, I0)
    assert (Q.m, Q.mu, Q.scalar) == (2, 1, 2)  # I0^2 = 2*I0
    with pytest.raises(OrderMismatch):
        ideal_mul(A, ideal_from_root(5, 2, 1, O2))


def test_ideal_conjugate():
    assert ideal_conjugate(ideal_from_root(5, 11, 4, O1)).mu == 7
    u = ideal_from_root(5, 1, 0, O1)
    assert ideal_conjugate(u) == u
    assert ideal_conjugate(ideal_from_root(5, 4, 1, O1)).mu == 3


def test_invertibility_against_mul_oracle():
    """I * conj(I) = m * O1 exactly for the invertible roots."""
    for D in (5, 13, 17, 21, 65):
        unit = unit_ideal(D, O1)
        for m, mu in all_roots(D, 200):
            I = ideal_from_root(D, m, mu, O1)
            P = ideal_mul(I, ideal_conjugate(I))
            is_norm_ideal = (P.m, P.mu, P.scalar) == (1, 0, m)
            assert is_norm_ideal == is_invertible(D, m, mu), (D, m, mu)
            assert ideal_mul(I, unit) == I


# the 16 squarefree D = 1 (mod 4) below 89
CLOSED_FORM_DS = [D for D in range(5, 89, 4)
                  if all(e == 1 for _, e in factorize(D))]


def test_norm_ideal_closed_form_matches_oracle(capsys):
    """I conj(I) = m (Z g + Z (mu + sqrt(D))), g the content of the form
    (m, -2 mu, c) of I (proof in `roots.is_invertible`), is the product
    the HNF oracle computes, and g = 1 exactly for the invertible roots.
    `verify`'s ideal_norm_parity check reads the same content."""
    assert len(CLOSED_FORM_DS) == 16
    total = invertible = 0
    for D in CLOSED_FORM_DS:
        for m, mu in all_roots(D, 600):
            I = ideal_from_root(D, m, mu, O1)
            g = content(form_of_root(D, m, mu, O1))
            assert ideal_mul(I, ideal_conjugate(I)) == \
                IdealHNF(D, O1, g, mu % g, m), (D, m, mu)
            assert (g == 1) == is_invertible(D, m, mu), (D, m, mu)
            total += 1
            invertible += g == 1
        assert main(["verify", "--D", str(D), "--M", "500"]) == 0
        check = {c["name"]: c for c in
                 json.loads(capsys.readouterr().out)["checks"]}
        assert check["ideal_norm_parity"]["pass"], D
        assert check["ideal_norm_parity"]["detail"] == {
            "roots_checked": sum(1 for _ in all_roots(D, 500)),
            "exceptions": 0}, D
    assert (total, invertible) == (8116, 5328)


def test_invertibility_shortcut_5_mod_8():
    for D in (5, 13, 29, 37):
        for m, mu in all_roots(D, 3000):
            assert is_invertible(D, m, mu) == (m % 4 != 2), (D, m, mu)


def test_o2_ideals_always_invertible():
    """J * conj(J) = (m/2) * O2 for every O2 root (the order is maximal)."""
    for D in (5, 17, 65):
        for m, mu in all_roots(D, 120):
            if is_invertible(D, m, mu):
                continue
            J = ideal_from_root(D, m, mu, O2)
            P = ideal_mul(J, ideal_conjugate(J))
            assert (P.m, P.mu) == (2, 1) and P.scalar == Fraction(m, 2)


def test_ideal_mul_commutative_associative():
    roots = [(m, mu) for m, mu in all_roots(13, 40)]
    ideals = [ideal_from_root(13, m, mu, O1) for m, mu in roots][:12]
    for A in ideals[:6]:
        for B in ideals[6:]:
            assert ideal_mul(A, B) == ideal_mul(B, A)
    for A in ideals[:4]:
        for B in ideals[4:8]:
            for C in ideals[8:12]:
                assert ideal_mul(ideal_mul(A, B), C) == \
                    ideal_mul(A, ideal_mul(B, C))


def test_norm_multiplicative_with_invertible_factor():
    for D in (5, 17):
        for m, mu in all_roots(D, 50):
            I = ideal_from_root(D, m, mu, O1)
            for m2, mu2 in [(1, 0), (11, sqrt_mod(D, 11)[0] if sqrt_mod(D, 11) else None)]:
                if mu2 is None:
                    continue
                J = ideal_from_root(D, m2, mu2, O1)
                assert ideal_mul(I, J).norm() == I.norm() * J.norm()


def test_units_pinned():
    assert totally_positive_fundamental_unit(5, O1) == (9, 4, 1)
    assert totally_positive_fundamental_unit(5, O2) == (3, 1, 2)
    assert totally_positive_fundamental_unit(17, O2) == (33, 8, 1)
    assert totally_positive_fundamental_unit(13, O2) == (11, 3, 2)
    assert totally_positive_fundamental_unit(21, O2) == (5, 1, 2)


def test_unit_properties():
    for D in (5, 13, 17, 21, 29, 33, 37, 41, 65, 73, 89, 101):
        for order in (O1, O2):
            eps = totally_positive_fundamental_unit(D, order)
            e = QuadNum(D, *eps)
            assert (e.a, e.b, e.c) == eps    # already in lowest terms
            assert e.norm() == 1
            assert e > 1
            assert is_totally_positive(e)
            if order is O1:
                assert eps[2] == 1  # lies in Z[sqrt(D)]


@pytest.mark.parametrize("order", [O1, O2])
def test_units_against_diop_dn(order):
    """Every squarefree D = 1 (mod 4) in [5, 500]: the unit read off the
    Zagier cycle is (t + u sqrt(Delta))/2 for the least t, u > 0 with
    t^2 - Delta u^2 = 4, from sympy's independent solver."""
    from sympy.solvers.diophantine.diophantine import diop_DN

    biggest = 0
    for D in range(5, 501, 4):
        if any(e > 1 for _, e in factorize(D)):
            continue
        delta = 4 * D if order is O1 else D
        t, u = min((t, u) for t, u in diop_DN(delta, 4) if t > 0 and u > 0)
        assert t * t - delta * u * u == 4
        want = QuadNum(D, t, 2 * u if order is O1 else u, 2)
        got = totally_positive_fundamental_unit(D, order)
        assert got == (want.a, want.b, want.c), D
        f = principal_form(delta)
        _, _, E = zagier_cycle(f)
        assert mat_det(E) == 1 and act(E, f) == f
        assert E[0] + E[3] == t
        biggest = max(biggest, t)
    assert biggest > 10**9     # D = 61, 109, 157 are in range


def test_unit_relation():
    for D, rel in [(5, "Cube"), (13, "Cube"), (21, "Cube"), (29, "Cube"),
                   (17, "Equal"), (33, "Equal"), (37, "Equal"),
                   (41, "Equal"), (65, "Equal")]:
        u = unit_relation(D)
        assert u.relation == rel, D
        if rel == "Cube":
            assert QuadNum(D, *u.eps2)**3 == QuadNum(D, *u.eps1)
            assert D % 8 == 5
        else:
            assert u.eps1 == u.eps2
    assert unit_relation(5).eps2 == (3, 1, 2)
    assert unit_relation(5).eps1 == (9, 4, 1)


# every squarefree D = 1 (mod 4) in [5, 2000], and the larger D of
# tests/test_cli.py's units byte pins
PARITY_DS = [D for D in range(5, 2001, 4)
             if all(e == 1 for _, e in factorize(D))] + [10001]


def test_unit_triples_match_quadnum():
    """The integer triples, their strings, their floats (bitwise, through
    `BaseGeodesicSet.lengths`) and the relation equal what the QuadNum
    oracle gives for the unit (t + u sqrt(Delta))/2 of the Zagier cycle."""
    for D in PARITY_DS:
        units = {}
        for order in (O1, O2):
            delta = 4 * D if order is O1 else D
            _, _, E = zagier_cycle(principal_form(delta))
            t, u = E[0] + E[3], abs(E[2])
            want = QuadNum(D, t, 2 * u if order is O1 else u, 2)
            got = totally_positive_fundamental_unit(D, order)
            assert got == (want.a, want.b, want.c), (D, order)
            assert unit_str(D, got) == repr(want), (D, order)
            one = BaseGeodesicSet(D, 1, 0, 1,
                                  (SimpleNamespace(length_mult=1),), got,
                                  "Equal")
            assert one.lengths() == [2.0 * math.log(float(want))], (D, order)
            units[order] = want
        if units[O1] == units[O2]:
            want_rel = "Equal"
        else:
            assert units[O2]**3 == units[O1], D
            want_rel = "Cube"
        assert unit_relation(D).relation == want_rel, D


def test_narrow_class_numbers():
    for D, order, h in [(5, O1, 1), (5, O2, 1), (17, O1, 1), (17, O2, 1),
                        (13, O1, 1), (13, O2, 1), (65, O1, 2), (65, O2, 2),
                        (21, O1, 2), (21, O2, 2), (37, O1, 3), (37, O2, 1)]:
        reps = narrow_class_group(D, order)
        assert len(reps) == h
        assert reps[0] == unit_root(order)
        for i, rep in enumerate(reps):
            assert class_of_root(D, order, *rep) == i
            assert fits_order(D, *rep, order)


@pytest.mark.parametrize("order", [O1, O2])
def test_class_reps_read_off_cycles_match_root_search(order):
    """Each rep, the least root over its cycle's forms, is the first root
    of its class that a search by m, then mu, meets, and the classes are
    numbered as the search meets them."""
    for D in range(5, 1000, 4):
        try:
            validate_discriminant(D)
        except ValueError:
            continue
        reps = narrow_class_group(D, order)
        assert list(reps) == class_reps_by_search(D, order), D
        assert [class_of_root(D, order, *r) for r in reps] == \
            list(range(len(reps)))


def test_class_count_relation_between_orders():
    # counts tie to the unit relation: equal when D=1 mod 8 or relation
    # is Cube; ratio 3 when D=5 mod 8 with equal units
    for D in (5, 13, 17, 21, 29, 33, 37, 41, 65):
        h1 = len(narrow_class_group(D, O1))
        h2 = len(narrow_class_group(D, O2))
        rel = unit_relation(D).relation
        if D % 8 == 1 or rel == "Cube":
            assert h1 == h2, D
        else:
            assert h1 == 3 * h2, D


def test_cayley_totality():
    for D, order in [(65, O1), (65, O2), (37, O1), (21, O1)]:
        reps = [ideal_from_root(D, *r, order)
                for r in narrow_class_group(D, order)]
        h = len(reps)
        products = [[ideal_mul(a, b) for b in reps] for a in reps]
        table = [[class_of_root(D, order, ab.m, ab.mu) for ab in row]
                 for row in products]
        assert table[0] == list(range(h))
        for row in table:
            assert sorted(row) == list(range(h))
        for j in range(h):
            assert sorted(t[j] for t in table) == list(range(h))


def test_form_dictionary_round_trip():
    for D in (5, 17, 65):
        for m, mu in all_roots(D, 60):
            order = O1 if is_invertible(D, m, mu) else O2
            f = form_of_root(D, m, mu, order)
            assert disc(f) == (4 * D if order is O1 else D)
            assert is_primitive(f)
            # m = a (O1) or 2a (O2), mu = -b/2 (O1) or -b (O2)
            mult = 1 if order is O1 else 2
            assert (mult * f[0], -mult * f[1] // 2) == (m, mu)


def least_and_oracle(D, order, reps, k, n, nu):
    """The least filtered root of class k and the search oracle's root,
    each checked to lie in class k, meet the filter and fit the order."""
    new = least_filtered_root(D, order, reps[k], RootFilter(n, nu))
    out = class_shift_representative(D, order, reps[k], n, nu)
    old = (out.m, out.mu)
    assert out.scalar == 1
    for m, mu in (new, old):
        assert class_of_root(D, order, m, mu) == k
        assert m % n == 0 and (mu - nu) % n == 0
        assert fits_order(D, m, mu, order)
    assert new <= old
    return new, old


def test_class_shift_spec_examples():
    reps1 = narrow_class_group(5, O1)
    assert least_and_oracle(5, O1, reps1, 0, 1, 0) == ((1, 0), (1, 0))
    assert least_and_oracle(5, O1, reps1, 0, 4, 1) == ((4, 1), (4, 1))

    reps2 = narrow_class_group(5, O2)
    assert least_and_oracle(5, O2, reps2, 0, 2, 1) == ((2, 1), (2, 1))

    # the search's product of ideals need not be the least filtered root
    reps = narrow_class_group(37, O1)
    assert least_and_oracle(37, O1, reps, 2, 3, 1) == ((9, 1), (12, 1))
    reps = narrow_class_group(65, O2)
    assert least_and_oracle(65, O2, reps, 0, 7, 3) == ((28, 3), (28, 17))


@pytest.mark.parametrize("D,order,n,nu", [
    (17, O1, 4, 1),    # n even, (D-nu^2)/n even: carrier is widened
    (17, O2, 4, 1),
    (17, O1, 8, 3),    # n even, quotient odd
    (5, O1, 2, 1),
    (5, O2, 5, 0),     # odd n, even nu
    (65, O1, 4, 1),
    (65, O2, 7, 3),    # 9 = 65 mod 7? 65 mod 7 = 2; 3^2=9=2 mod 7
    (37, O1, 3, 1),
    (21, O2, 3, 0),
])
def test_class_shift_all_classes(D, order, n, nu):
    reps = narrow_class_group(D, order)
    seen = set()
    for k in range(len(reps)):
        new, _ = least_and_oracle(D, order, reps, k, n, nu)
        seen.add(new)
    assert len(seen) == len(reps)  # distinct classes give distinct roots


def test_class_shift_empty_filter():
    rep = narrow_class_group(17, O2)[0]
    assert not filter_reaches_order(17, O2, 8, 3)
    with pytest.raises(OrderMismatch):
        least_filtered_root(17, O2, rep, RootFilter(8, 3))
    with pytest.raises(OrderMismatch):
        class_shift_representative(17, O2, rep, 8, 3)


def test_filter_reaches_order_matches_sieve():
    """Both signs of D with |D| < 120, n <= 24 and every nu: a filtered
    root of the order lies below 4000 exactly when the predicate says
    one exists.  Every witness of its proof, n 2^s or 2n, is below 4000,
    so the sieve tests the construction, and its absence is proved."""
    cases = 0
    for D in range(-119, 120):
        try:
            (validate_discriminant if D > 0
             else validate_negative_discriminant)(D)
        except ValueError:
            continue
        seq = _sieve(D, 4000, RootFilter())
        tags = seq.class_tags()
        for n in range(1, 25):
            for nu in range(n):
                if (nu * nu - D) % n:
                    continue
                cases += 1
                inside = (seq.ms % n == 0) & (seq.mus % n == nu)
                for order, members in ((O1, tags), (O2, ~tags)):
                    assert bool((inside & members).any()) == \
                        filter_reaches_order(D, order, n, nu), \
                        (D, order, n, nu)
                assert filter_reaches_order(D, O1, n, nu)
    assert cases == 1352


def test_class_shift_mismatch_is_the_predicate():
    for D in (5, 17, 65):
        for order in (O1, O2):
            reps = narrow_class_group(D, order)
            for n in range(1, 17):
                for nu in range(n):
                    if (nu * nu - D) % n:
                        continue
                    if filter_reaches_order(D, order, n, nu):
                        least_and_oracle(D, order, reps, 0, n, nu)
                    else:
                        with pytest.raises(OrderMismatch):
                            least_filtered_root(D, order, reps[0],
                                                RootFilter(n, nu))
                        with pytest.raises(OrderMismatch):
                            class_shift_representative(D, order, reps[0],
                                                       n, nu)
