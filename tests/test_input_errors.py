"""The input-error contract: each domain rule has one owner, which raises
georoots.InputError before any sieve, orbit walk or coset walk, and the
CLI reports it as `error: ...` with exit code 2."""

import math

import pytest

from georoots import InputError, density, geodesics, negdisc, roots
from georoots.cli import main
from georoots.density import enumerate_coset_terms
from georoots.geodesics import base_geodesic_set, enumerate_tops
from georoots.negdisc import (
    class_forms,
    enumerate_orbit_points,
    sieve_roots_neg,
    take_n_neg,
)
from georoots.orders import narrow_class_group, unit_relation
from georoots.roots import OrderTag, RootFilter, first_n, sieve_roots, take_n
from georoots.statistics import pair_correlation


@pytest.fixture
def work(monkeypatch):
    """The names of the sieves and walks started; each stops at once.
    `_sieve` checks its filter and bound itself, so the sieve is caught
    at its first step, the smallest-prime-factor table."""
    started = []

    def spy(name):
        def stop(*args, **kwargs):
            started.append(name)
            raise RuntimeError(f"{name} started")
        return stop

    for module, name in [(roots, "spf_table"), (geodesics, "cone_roots"),
                         (negdisc, "cone_roots"),
                         (density, "enumerate_coset_terms")]:
        monkeypatch.setattr(module, name, spy(name))
    return started


POS_D = "error: D must be a squarefree integer > 1 with D = 1 mod 4\n"
NEG_D = "error: D must be a squarefree integer < 0 with D = 1 mod 4\n"
SQUARE = "error: D must be squarefree\n"
NU = "error: nu^2 = D (mod n) fails for RootFilter(n=4, nu=2)\n"
N_LEVEL = "error: need n >= 1\n"
M_BIG = "error: M must be below 2^31 (64-bit root arithmetic)\n"
N_BIG = ("error: N too large: its first modulus bound reaches 2^31 "
         "(64-bit root arithmetic)\n")
N_PAIRS = "error: need N >= 2 for pair statistics\n"
NO_O2 = "error: no O2 root has m = 0 (mod 4) and mu = 1 (mod 4)\n"
BIG = str(2**31)

# One fault per argv, with the exit code and stderr recorded from the CLI
# that checked every input twice (its own copy of each layer's rule).
# One line differs from that record: the filter is reduced mod n before
# the unreachable-class message, so `--nu 5 --n 4` prints mu = 1 where
# the record has mu = 5.
SINGLE_ERRORS = [
    ("roots --D 6 --M 10", POS_D),
    ("roots --D -5 --M 10", NEG_D),
    ("roots --D 0 --M 10", POS_D),
    ("roots --D 1 --M 10", POS_D),
    ("roots --D 45 --M 10", SQUARE),
    ("roots --D -27 --M 10", SQUARE),
    ("roots --D 5 --M 10 --n 0", N_LEVEL),
    ("roots --D 5 --M 10 --n 4 --nu 2", NU),
    ("roots --D -15 --M 10 --n 4 --nu 2", NU),
    ("roots --D 5 --M 0", "error: M must be >= 1\n"),
    (f"roots --D 5 --M {BIG}", M_BIG),
    (f"verify --D 5 --M {BIG}", M_BIG),
    ("verify --D 5 --M 0", "error: M must be >= 1\n"),
    ("verify --D 6", POS_D),
    ("verify --D 0", POS_D),
    ("verify --D -5", NEG_D),
    ("verify --D 5 --n 0", N_LEVEL),
    ("verify --D 5 --n 4 --nu 2", NU),
    ("verify --D -15 --n 4 --nu 2", NU),
    ("paircorr --D 6 --N 10", POS_D),
    ("paircorr --D 45 --N 10", SQUARE),
    ("paircorr --D 5 --N 0", "error: N must be >= 1\n"),
    ("paircorr --D 5 --N 1", N_PAIRS),
    ("paircorr --D 5 --N 10 --bins 0", "error: bins must be >= 1\n"),
    (f"paircorr --D 5 --N {2**30}", N_BIG),
    (f"paircorr --D 5 --N {2**29} --class O2", N_BIG),
    ("paircorr --D 5 --N 10 --n 0", N_LEVEL),
    ("paircorr --D 5 --N 10 --n 4 --nu 2", NU),
    ("paircorr --D 5 --N 10 --n 4 --nu 1 --class O2", NO_O2),
    ("paircorr --D 5 --N 10 --n 4 --nu 5 --class O2", NO_O2),
    ("paircorr --D -3 --N 10 --n 4 --nu 1 --class O2", NO_O2),
    ("paircorr --D 5 --N 10 --range nan", "error: range must be finite\n"),
    ("paircorr --D 5 --N 10 --range 0",
     "error: range and step must be positive\n"),
    (f"figure 1 --N {2**30}", N_BIG),
    (f"figure 2 --N {2**29}", N_BIG),
    ("figure 1 --N 0", "error: N must be >= 1\n"),
    ("figure 1 --N 1", N_PAIRS),
    ("figure 1 --N 100 --outdir /dev/null/georoots",
     "error: outdir '/dev/null/georoots' is not a directory\n"),
    ("density --D -15", "error: the theoretical density needs D > 0\n"),
    ("density --D 6", POS_D),
    ("density --D 0", POS_D),
    ("density --D 5 --qmax 1", "error: qmax must exceed 1\n"),
    ("density --D 5 --qmax inf", "error: qmax must be finite\n"),
    ("density --D 5 --qmax nan", "error: qmax must be finite\n"),
    ("density --D 5 --range 1 --step 3",
     "error: range and step leave no nonzero v on the grid\n"),
    ("density --D 5 --step 0", "error: range and step must be positive\n"),
    ("density --D 5 --step nan", "error: step must be finite\n"),
    ("units --D -15", "error: unit relation diagnostics need D > 0\n"),
    ("units --D 6", POS_D),
    ("units --D 0", POS_D),
    ("classgroup --D 0", POS_D),
    ("classgroup --D 1", POS_D),
    ("classgroup --D 6", POS_D),
    ("classgroup --D -5", NEG_D),
    ("classgroup --D 45", SQUARE),
]


@pytest.mark.parametrize("argv,err", SINGLE_ERRORS,
                         ids=[a for a, _ in SINGLE_ERRORS])
def test_single_error_exit_code_and_stderr(argv, err, work, capsys):
    assert main(argv.split()) == 2
    cap = capsys.readouterr()
    assert (cap.out, cap.err) == ("", err)
    assert work == []


# built before any spy is installed: its least filtered roots run
# `cone_roots`, and the roots run the sieve, which the `work` fixture
# forbids
BASE5 = base_geodesic_set(5)
ONE_ROOT, ROOTS = take_n(5, 1), take_n(5, 10)

LIBRARY_ERRORS = [
    (lambda: RootFilter(0), "n >= 1"),
    (lambda: sieve_roots(6, 10), "> 1"),
    (lambda: sieve_roots(-5, 10), "< 0"),
    (lambda: sieve_roots(5, 10, RootFilter(4, 2)), "nu\\^2"),
    (lambda: sieve_roots(5, 2**31), "2\\^31"),
    (lambda: first_n(45, 10), "squarefree"),
    (lambda: first_n(5, 0), "N >= 1"),
    (lambda: first_n(5, 10, classes=("O3",)), "total, O1 or O2"),
    (lambda: first_n(5, 10, RootFilter(4, 2)), "nu\\^2"),
    (lambda: first_n(5, 10, RootFilter(4, 1), ("O1", "O2")), "no O2 root"),
    (lambda: first_n(-3, 10, RootFilter(4, 1), ("O2",)), "no O2 root"),
    (lambda: first_n(5, 2**30), "N too large"),
    (lambda: take_n(-15, 10), "> 1"),
    (lambda: take_n(5, 10, RootFilter(4, 2)), "nu\\^2"),
    (lambda: sieve_roots_neg(5, 10), "< 0"),
    (lambda: sieve_roots_neg(-15, 10, RootFilter(4, 2)), "nu\\^2"),
    (lambda: sieve_roots_neg(-15, 2**31), "2\\^31"),
    (lambda: take_n_neg(-27, 10), "squarefree"),
    (lambda: take_n_neg(5, 10), "< 0"),
    (lambda: base_geodesic_set(6), "> 1"),
    (lambda: base_geodesic_set(-15), "> 1"),
    (lambda: base_geodesic_set(5, 4, 2), "nu\\^2"),
    (lambda: base_geodesic_set(5, 0), "n >= 1"),
    (lambda: narrow_class_group(-15, OrderTag.O1), "> 1"),
    (lambda: narrow_class_group(45, OrderTag.O2), "squarefree"),
    (lambda: unit_relation(1), "> 1"),
    (lambda: unit_relation(-15), "> 1"),
    (lambda: class_forms(5, OrderTag.O1), "< 0"),
    (lambda: class_forms(-27, OrderTag.O2), "squarefree"),
    (lambda: enumerate_orbit_points(5, 10), "< 0"),
    (lambda: enumerate_orbit_points(-15, 10, RootFilter(4, 2)), "nu\\^2"),
    (lambda: enumerate_orbit_points(-15, 0), "M must be >= 1"),
    (lambda: enumerate_tops(BASE5, 0), "M must be >= 1"),
    (lambda: enumerate_coset_terms(BASE5, math.inf), "qmax must be finite"),
    (lambda: enumerate_coset_terms(BASE5, 1.0), "qmax must exceed 1"),
    (lambda: pair_correlation(ONE_ROOT), "need N >= 2 for pair statistics"),
    (lambda: pair_correlation(ROOTS, bins=0), "bins must be >= 1"),
    (lambda: pair_correlation(ROOTS, bins=-3), "bins must be >= 1"),
    (lambda: pair_correlation(ROOTS, lo=-math.inf), "must be finite"),
    (lambda: pair_correlation(ROOTS, hi=math.inf), "must be finite"),
    (lambda: pair_correlation(ROOTS, lo=math.nan), "must be finite"),
    (lambda: pair_correlation(ROOTS, -math.inf, math.inf), "must be finite"),
]


@pytest.mark.parametrize("call,match", LIBRARY_ERRORS)
def test_layers_raise_input_error_before_work(call, match, work):
    with pytest.raises(InputError, match=match):
        call()
    assert work == []
