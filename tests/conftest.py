"""Shared fixtures.

The million-point statistics tests all draw from the same two sieved
sequences, so those are built once per session.  The bounds are sized so
that the smaller order-class subsequence still holds 10**6 roots.

Property tests run under one profile: derandomized, so every run draws
the same examples, and without hypothesis' per-example deadline, which
the sieve and walk sizes here would trip on a loaded machine.
"""

import pytest
from hypothesis import settings

from georoots.roots import sieve_roots

settings.register_profile("georoots", derandomize=True, deadline=None,
                          max_examples=100)
settings.load_profile("georoots")


@pytest.fixture(scope="session")
def pool_d5():
    return sieve_roots(5, 9_000_000)


@pytest.fixture(scope="session")
def pool_d17():
    return sieve_roots(17, 3_600_000)
