"""The orbit walks' result and the `verify` check built on it.

`geodesics.EnumerationResult.from_arrays` keeps the distinct roots as
int64 arrays sorted by (m, mu), behind the read-only set
`geodesics.RootSet`; `cli._check_orbit_equals_sieve` compares those
arrays with the sieve's.  The tests hold both to a set-of-tuples
reference: the same distinct roots and counts, the same set behaviour,
and the same verdict and detail numbers on broken orbit results.  A
memory test bounds both by a few int64 words per root.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from georoots.cli import _check_orbit_equals_sieve
from georoots.geodesics import (
    EnumerationResult,
    base_geodesic_set,
    enumerate_tops,
)
from georoots.negdisc import enumerate_orbit_points
from georoots.roots import M_LIMIT, sieve_roots


def from_pairs(pairs, visited=0):
    ms = np.array([m for m, _ in pairs], dtype=np.int64)
    mus = np.array([mu for _, mu in pairs], dtype=np.int64)
    return EnumerationResult.from_arrays(ms, mus, visited)


# moduli up to 2^31 - 1, and small ones that repeat often
moduli = st.integers(1, 12) | st.integers(1, M_LIMIT - 1)
roots = moduli.flatmap(lambda m: st.tuples(st.just(m),
                                           st.integers(0, m - 1)))


@given(st.lists(roots, max_size=40), st.data())
@example([], None)
@example([(M_LIMIT - 1, M_LIMIT - 2), (1, 0), (M_LIMIT - 1, 0)], None)
def test_from_arrays_matches_a_set_of_pairs(distinct, data):
    repeats = []
    if data is not None and distinct:
        repeats = data.draw(st.lists(st.sampled_from(distinct), max_size=20))
    rows = distinct + repeats
    if data is not None:
        rows = data.draw(st.permutations(rows))
    got = from_pairs(rows, visited=7)
    ref = set(rows)
    assert list(got.roots) == sorted(ref)
    assert got.produced == len(rows)
    assert got.duplicates == len(rows) - len(ref)
    assert got.visited == 7
    assert got.roots.ms.dtype == got.roots.mus.dtype == np.int64


def test_root_set_behaves_as_a_set():
    ref = {(1, 0), (4, 1), (4, 3), (11, 4), (11, 7), (M_LIMIT - 1, 5)}
    got = from_pairs(sorted(ref, reverse=True) + [(4, 3)]).roots
    assert len(got) == len(ref)
    assert list(got) == sorted(ref)
    assert all(type(v) is int for root in got for v in root)
    probes = [*ref, (4, 2), (4, 0), (3, 1), (11, 5), (12, 4), (0, 0),
              (M_LIMIT, 5), (M_LIMIT - 1, 4), (2**70, 1), (-1, 0),
              (4.0, 1), (4.5, 1), (1,), (1, 0, 0), "ab", None]
    for probe in probes:
        assert (probe in got) == (probe in ref), probe
    bigger, smaller = ref | {(5, 0)}, ref - {(4, 1)}
    assert got == ref and ref == got and not got != ref
    assert got <= ref and got >= ref and ref <= got and ref >= got
    assert got <= bigger and not got >= bigger and bigger >= got
    assert got != bigger and bigger != got
    assert got >= smaller and not got <= smaller and smaller <= got
    assert got != smaller and smaller != got
    assert from_pairs([]).roots == set() and set() == from_pairs([]).roots


# ----------------------------------------------------------------------
# the verify check on broken orbit results

def orbit_result(D, M):
    if D > 0:
        return enumerate_tops(base_geodesic_set(D), M)
    return enumerate_orbit_points(D, M)


def _non_root(sieved, m):
    """The least (m, mu) with mu < m that is not in sieved."""
    return next((m, mu) for mu in range(m) if (m, mu) not in sieved)


def _mutations(rows, sieved):
    """Broken copies of the root list rows: one root dropped, one added,
    one mu changed, one root repeated."""
    k = len(rows) // 2
    i = next(i for i in range(k, len(rows)) if rows[i][0] > 2)
    return {
        "drop": rows[:k] + rows[k + 1:],
        "add": rows + [_non_root(sieved, 9)],
        "change_mu": rows[:i] + [_non_root(sieved, rows[i][0])] + rows[i + 1:],
        "repeat": rows + [rows[k]],
    }


@pytest.mark.parametrize("D", [5, -15])
def test_orbit_equals_sieve_fails_on_each_broken_orbit(D):
    M = 2000
    got, seq = orbit_result(D, M), sieve_roots(D, M)
    rows = list(got.roots)
    sieved = set(zip(seq.ms.tolist(), seq.mus.tolist()))
    checks = []
    _check_orbit_equals_sieve(checks, from_pairs(rows[::-1]), seq)
    assert checks[0]["pass"]
    for name, broken in _mutations(rows, sieved).items():
        distinct = set(broken)
        # the detail numbers of a set-of-pairs comparison
        expected = {"orbit": len(distinct), "sieve": len(sieved),
                    "duplicates": len(broken) - len(distinct)}
        assert distinct != sieved or expected["duplicates"], name
        checks = []
        _check_orbit_equals_sieve(checks, from_pairs(broken), seq)
        assert checks == [{"name": "orbit_equals_sieve", "pass": False,
                           "detail": expected}], name


# ----------------------------------------------------------------------
# memory

WORD = 8              # bytes of an int64
SLACK = 64 * 1024     # Python objects and allocator rounding


def test_from_arrays_and_the_check_cost_a_few_words_per_root():
    """tracemalloc peaks of `from_arrays` on the D = -15, M = 50000 roots
    in shuffled order, and of the comparison with the sieve.

    from_arrays holds the packed keys (one word per root), the mask of
    distinct keys (one byte), the distinct keys (one word), and then the
    moduli unpacked from them (one word), with the mask freed first: at
    most 2 words and a byte per root, bounded here by 3 words.  The
    comparison holds one bool per root, bounded by one word.  A set of
    (m, mu) tuples costs over 100 bytes per root, past both bounds.
    """
    seq = sieve_roots(-15, 50_000)
    n = len(seq)
    order = np.random.default_rng(0).permutation(n)
    ms, mus = seq.ms[order], seq.mus[order]
    checks = []
    tracemalloc.start()
    try:
        got = EnumerationResult.from_arrays(ms, mus, 0)
        build = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        _check_orbit_equals_sieve(checks, got, seq)
        check = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert checks[0]["pass"] and n > 30_000
    assert build <= 3 * WORD * n + SLACK, (build, n)
    assert check <= WORD * n + SLACK, (check, n)
