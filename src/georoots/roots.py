"""Enumeration of normalized roots x = mu/m of mu^2 = D (mod m).

The sequence is ordered by modulus m ascending (mu ascending within a
modulus), optionally filtered by congruences m = 0 (mod n) and
mu = nu (mod n), and every root is tagged with the order it belongs to:
O1 when the ideal (m, mu + sqrt(D)) is invertible in Z[sqrt(D)], O2 when
both m and (D - mu^2)/m are even.

The sieve is vectorised with numpy and keeps the roots of all m <= M in
one CSR layout: mus[off[m]:off[m + 1]] are the sorted roots mod m, with
off = cumsum(rho) and rho(m) the number of roots.  Each m > 1 splits as
m = q * m2, q = p^e the full power of its smallest prime p, every prime
of m2 above p; so rho(m) = rho(q) rho(m2), and the roots mod m are the
CRT combinations of the roots mod q and mod m2.  An odd prime p > sqrt(M)
only occurs as m = p; all of those are solved at once by a vectorised
Euler test and Tonelli-Shanks.  The primes p <= sqrt(M), and 2, are
walked in descending order, so the roots mod m2 are always known first:

1. pass one fills rho (the groups m = q * m2 come from the
   smallest-prime-factor table as m2 <= M/q with spf(m2) > p);
2. pass two takes the cofactors of one group with the same rho(m2)
   together, gathers their roots, CRT-combines them with the roots mod q,
   sorts each m's row and scatters the rows into place.

Every residue is below M < 2^31, so each product of two residues (the
CRT step, the modular powers) is below 2^62 and exact in int64.
"""

import math
from dataclasses import dataclass

import numpy as np

from .arith import SpfTable, sqrt_mod_prime_power
from .orders import (
    OrderTag,
    filter_reaches_order,
    validate_discriminant,
    validate_negative_discriminant,
)


M_LIMIT = 2**31   # every modulus bound M stays below this


class SequenceExhausted(RuntimeError):
    """first_n could not reach N roots (empty, finite or absurdly sparse
    sequence)."""


@dataclass(frozen=True)
class RootFilter:
    n: int = 1
    nu: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need n >= 1")
        object.__setattr__(self, "nu", self.nu % self.n)

    def accepts(self, m: int, mu: int) -> bool:
        return m % self.n == 0 and mu % self.n == self.nu

    def validate_for(self, D: int):
        if (self.nu * self.nu - D) % self.n:
            raise ValueError(f"nu^2 = D (mod n) fails for {self}")


@dataclass(frozen=True, eq=False)
class RootSequence:
    """Roots ordered by (m, mu), held columnwise for bulk statistics."""

    D: int
    ms: np.ndarray    # int64, ascending
    mus: np.ndarray   # int64

    def __len__(self):
        return len(self.ms)

    def normalized(self) -> np.ndarray:
        """x_j = mu_j / m_j as float64 in [0, 1)."""
        return self.mus / self.ms

    def class_tags(self) -> np.ndarray:
        """True where the root belongs to O1."""
        tags = self.ms % 2 == 1
        even = np.flatnonzero(~tags)     # q = (D - mu^2)/m only where needed
        mu = self.mus[even]
        tags[even] = (self.D - mu * mu) // self.ms[even] % 2 != 0
        return tags

    def head(self, N: int) -> "RootSequence":
        return RootSequence(self.D, self.ms[:N], self.mus[:N])

    def subset(self, keep) -> "RootSequence":
        """Subsequence selected by a boolean mask (order preserved)."""
        keep = np.asarray(keep, dtype=bool)
        return RootSequence(self.D, self.ms[keep], self.mus[keep])

    def class_labels(self) -> np.ndarray:
        """'O1' or 'O2' per root, the order it belongs to."""
        return np.where(self.class_tags(), "O1", "O2")


def sieve_roots(D: int, M: int,
                filt: RootFilter = RootFilter()) -> RootSequence:
    """All filtered roots with modulus m <= M, ordered by (m, mu)."""
    validate_discriminant(D)
    return _sieve(D, M, filt)


def _sieve(D, M, filt):
    # sign-agnostic core: the local solvers take D mod p^e, so the
    # negative-discriminant module reuses this directly
    filt.validate_for(D)
    if M >= M_LIMIT:
        raise ValueError("modulus bound too large for 64-bit root math")
    if M < 1:
        return RootSequence(D, np.empty(0, np.int64), np.empty(0, np.int64))
    spf = SpfTable(max(M, 2)).spf[:M + 1]
    s = max(math.isqrt(M), 2)

    # pass 1: root counts.  Odd primes above sqrt(M) occur only as m = p.
    big = np.flatnonzero(spf[s + 1:] > s) + (s + 1)
    r = _sqrt_mod_primes(_mod_each(D, big), big)
    rho = np.zeros(M + 1, np.int16)   # at most 4 * 2^8 roots below 2^31
    rho[1] = 1
    rho[big] = np.sign(r) + 1         # r = -1: no root, r = 0: p | D
    groups = []
    for p in range(min(s, M), 1, -1):
        if spf[p] != p:
            continue
        q, e = p, 1
        while q <= M:
            loc = sqrt_mod_prime_power(D, p, e)
            if not loc:
                break   # no root mod p^e, so none mod any higher power
            m2 = np.flatnonzero(spf[:M // q + 1] > p).astype(np.int32)
            m2 = m2[rho[m2] > 0]
            rho[q] = len(loc)
            rho[q * m2] = len(loc) * rho[m2]
            groups.append((p, q, np.array(loc, np.int64), m2))
            q, e = q * p, e + 1

    # pass 2: roots, in CSR order.  Every group's cofactors m2 have their
    # prime factors above p, so their roots are in place before use.
    total = int(rho.sum(dtype=np.int64))
    off = np.zeros(M + 2, np.int32 if total < 2**31 else np.int64)
    np.cumsum(rho, dtype=off.dtype, out=off[1:])
    mus = np.empty(total, np.int64)
    mus[0] = 0                         # the root of m = 1
    found = r >= 0
    at, big, r = off[big[found]], big[found], r[found]
    mus[at] = np.minimum(r, big - r)
    mus[at[r > 0] + 1] = np.maximum(r, big - r)[r > 0]
    for p, q, loc, m2 in groups:
        mus[off[q]:off[q] + len(loc)] = loc
        if not len(m2):
            continue
        inv = _powmod(m2.astype(np.int64) % q, q // p * (p - 1) - 1, q)
        k2 = rho[m2]
        for k in np.flatnonzero(np.bincount(k2)):
            sel = k2 == k
            j = m2[sel]
            r2 = mus[off[j][:, None] + np.arange(k)][:, :, None]
            t = (loc - r2 % q) % q * inv[sel][:, None, None] % q
            rows = (r2 + j[:, None, None] * t).reshape(len(j), -1)
            rows.sort(axis=1)
            mus[off[q * j][:, None] + np.arange(rows.shape[1])] = rows
    del off, groups                    # freed before ms is built

    nz = np.flatnonzero(rho)
    ms = np.repeat(nz, rho[nz])
    if filt.n > 1:
        keep = (ms % filt.n == 0) & (mus % filt.n == filt.nu)
        ms, mus = ms[keep], mus[keep]
    return RootSequence(D, ms, mus)


def _mod_each(D, p):
    """D mod p for an int64 array of moduli p < 2^31, exact for any int D."""
    a = np.zeros_like(p)
    n = abs(D)
    for k in range((n.bit_length() - 1) // 31, -1, -1):
        a = ((a << 31) + ((n >> (31 * k)) & (2**31 - 1))) % p
    return a if D > 0 else -a % p


def _powmod(b, e, m):
    """b^e mod m elementwise (int64 arrays or scalars, m < 2^31)."""
    b = b % m
    e = np.asarray(e)
    r = np.ones_like(b)
    while True:
        r = r * ((b - 1) * (e & 1) + 1) % m   # branch-free r *= b if e odd
        e = e >> 1
        if not e.any():
            return r
        b = b * b % m


def _sqrt_mod_primes(a, p):
    """r with r^2 = a (mod p) per odd prime p, or -1 where a is no square.

    Vectorised Tonelli-Shanks.  With p - 1 = q 2^s, q odd, r = a^((q+1)/2)
    and t = a^q satisfy r^2 = a t, and t has order 2^k, k <= s; k = s
    exactly when a is no square.  Each round multiplies r by an element b
    of order 2^(k+1), which lowers k, until t = 1.
    """
    q, s = p - 1, np.zeros_like(p)
    while (q & 1 == 0).any():
        even = q & 1 == 0
        q, s = np.where(even, q >> 1, q), s + even
    x = _powmod(a, q >> 1, p)
    r = x * a % p
    t = np.where(a == 0, 1, x * r % p)
    k = _two_order(t, p)
    r[k == s] = -1
    i = np.flatnonzero((0 < k) & (k < s))
    p, m, t, k = p[i], s[i], t[i], k[i]
    c = _powmod(_non_squares(p), q[i], p)   # order 2^m
    while i.size:
        b = c
        for step in range(int((m - k - 1).max())):
            b = np.where(m - k - 1 > step, b * b % p, b)
        c = b * b % p
        t = t * c % p
        r[i] = r[i] * b % p
        m, k = k, _two_order(t, p)
        live = k > 0
        i, p, m, t, k, c = i[live], p[live], m[live], t[live], k[live], c[live]
    return r


def _two_order(t, p):
    """Least k >= 0 with t^(2^k) = 1 (mod p), for t of 2-power order."""
    k = np.zeros_like(t)
    i = np.flatnonzero(t != 1)
    u = t[i]
    while i.size:
        k[i] += 1
        u = u * u % p[i]
        live = u != 1
        i, u = i[live], u[live]
    return k


def _non_squares(p):
    """The least non-square mod p per odd prime p."""
    z = np.full_like(p, 2)
    i = np.arange(len(p))
    while i.size:
        pi = p[i]
        i = i[_powmod(z[i], pi >> 1, pi) != pi - 1]
        z[i] += 1
    return z


def first_n(D: int, N: int, filt: RootFilter = None,
            classes=("total",)) -> tuple:
    """The first N filtered roots (ordered by modulus) of either sign of D,
    one RootSequence per name in `classes`.

    "total" names the whole sequence; "O1" and "O2" name the roots of
    each order (`RootSequence.class_tags`), order preserved.  One sieve
    per bound serves every class: the bound M starts at
    first_sieve_bound and doubles, at most 24 times, until each class has
    N roots.  The roots of m <= M are the prefix m <= M of the sequence,
    so each class's first N roots do not depend on the M that finds them.
    A class that no filtered root reaches (`orders.filter_reaches_order`)
    raises SequenceExhausted before any sieve.
    """
    if N < 1:
        raise ValueError("N >= 1 required")
    if not classes or not set(classes) <= {"total", "O1", "O2"}:
        raise ValueError(f"classes {classes} are not total, O1 or O2")
    if D < 0:
        validate_negative_discriminant(D)
    else:
        validate_discriminant(D)
    if filt is None:
        filt = RootFilter()
    filt.validate_for(D)
    for c in set(classes) - {"total"}:
        if not filter_reaches_order(D, OrderTag(c), filt.n, filt.nu):
            raise SequenceExhausted(f"no {c} root of D={D} meets {filt}")
    M = first_sieve_bound(N, filt.n, classes)
    for _ in range(24):
        seq = _sieve(D, M, filt)
        heads = _class_heads(seq, classes, N)
        del seq                        # freed before the next bound
        if heads is not None:
            return heads
        M *= 2
    raise SequenceExhausted(
        f"fewer than {N} roots of {classes} below m = {M} for D={D}, "
        f"filter {filt}")


def _class_heads(seq, classes, N):
    """The first N roots of each named class of seq, or None if one has
    fewer.  A class gathers only its first N rows, so no full class
    subset is built; "total" is a view of seq."""
    tags = seq.class_tags() if set(classes) != {"total"} else None
    o1 = 0 if tags is None else int(np.count_nonzero(tags))
    have = {"total": len(seq), "O1": o1, "O2": len(seq) - o1}
    if min(have[c] for c in classes) < N:
        return None
    heads = []
    for c in classes:
        rows = (slice(N) if c == "total"
                else np.flatnonzero(tags == (c == "O1"))[:N])
        heads.append(RootSequence(seq.D, seq.ms[rows], seq.mus[rows]))
    return tuple(heads)


def first_sieve_bound(N: int, n: int, classes) -> int:
    """The bound M of first_n's first sieve for N roots of each of
    `classes` at level n (twice as far when one order's class is asked)."""
    return max(32, (2 if set(classes) == {"total"} else 4) * N * n)


def take_n(D: int, N: int, filt: RootFilter = None) -> RootSequence:
    """The first N filtered roots (ordered by modulus), however far that is."""
    validate_discriminant(D)
    return first_n(D, N, filt)[0]
