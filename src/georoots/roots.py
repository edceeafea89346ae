"""Enumeration of normalized roots x = mu/m of mu^2 = D (mod m).

The sequence is ordered by modulus m ascending (mu ascending within a
modulus), optionally filtered by congruences m = 0 (mod n) and
mu = nu (mod n), and every root is tagged with the order it belongs to:
O1 when the ideal (m, mu + sqrt(D)) is invertible in Z[sqrt(D)], O2 when
both m and (D - mu^2)/m are even.  That parity rule is decided here
alone, with its proof (`is_invertible`, whose array form is
`RootSequence.class_tags`), beside the discriminant checks and
`filter_reaches_order`, which tells whether a filter holds any root of
an order.  The module imports no other georoots layer than `arith`, so
the empirical path (`roots`, `statistics`, `csvio`) loads neither forms
nor class groups.

The sieve is vectorised with numpy and keeps the roots of all m <= M in
one CSR layout: mus[off[m]:off[m + 1]] are the sorted roots mod m, with
off = cumsum(rho) and rho(m) the number of roots.  Each m > 1 splits as
m = q * m2, q = p^e the full power of its smallest prime p, every prime
of m2 above p; so rho(m) = rho(q) rho(m2), and the roots mod m are the
CRT combinations of the roots mod q and mod m2.  An odd prime p > sqrt(M)
only occurs as m = p; all of those are solved at once by a vectorised
Euler test and Tonelli-Shanks, whose non-squares come from quadratic
reciprocity: (c/p) for a small prime c is a table lookup on p mod 4c
(`_non_squares`).  The primes p <= sqrt(M), and 2, are walked in
descending order, so rho(m2) is always known first:

1. pass one fills rho and omega(m), the number of distinct primes of m.
   The cofactors m2 of every power of p come from one scan of the
   smallest-prime-factor table (spf(m2) > p and rho(m2) > 0); the powers
   take prefixes of it, m2 <= M/q.
2. pass two writes the roots of the prime powers, then combines every
   m = q * m2 at once per (omega(m2), rho(q), rho(m2)), in ascending
   omega(m2), so the roots mod m2 are in place when they are read.  The
   inverses 1/m2 mod q come from one vectorised Euler power, through a
   table of all residues mod q where q is no longer than its list of
   cofactors (`_inverses`).  The roots come in pairs x, m - x, so half of
   the roots mod q (or mod m2) are combined and the rest mirrored; each
   m's row is sorted and scattered into place.

Every residue is below M < 2^31, so each product of two residues (the
CRT step, the modular powers) is below 2^62 and exact in int64.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .arith import factorize, spf_table, sqrt_mod_prime_power


class OrderTag(Enum):
    O1 = "O1"  # Z[sqrt(D)]
    O2 = "O2"  # Z[(1+sqrt(D))/2]


def validate_discriminant(D: int):
    """Require squarefree D > 1 with D = 1 (mod 4)."""
    if D <= 1 or D % 4 != 1:
        raise ValueError("D must be a squarefree integer > 1 with D = 1 mod 4")
    if any(e > 1 for _, e in factorize(D)):
        raise ValueError("D must be squarefree")


def validate_negative_discriminant(D: int):
    """Require squarefree D < 0 with D = 1 (mod 4)."""
    if D >= 0 or D % 4 != 1:
        raise ValueError("D must be a squarefree integer < 0 with D = 1 mod 4")
    if any(e > 1 for _, e in factorize(-D)):
        raise ValueError("D must be squarefree")


def is_invertible(D: int, m: int, mu: int) -> bool:
    """Invertibility of the O1 ideal I = (m, mu + sqrt(D)).

    True iff m is odd or c = (mu^2 - D)/m is odd.  The complementary
    roots (both c and m even) are exactly the ones belonging to O2.

    Proof.  I is invertible iff I conj(I) = N(I) O1 = m O1.  conj(I) has
    Z-basis {m, mu - sqrt(D)}, so I conj(I) is spanned by the four
    products m^2, m (mu + sqrt(D)), m (mu - sqrt(D)) and mu^2 - D = m c,
    that is by m times {m, c, mu + sqrt(D), mu - sqrt(D)}.  The rational
    integers in the span of those four are g Z with g = gcd(m, 2 mu, c)
    (a combination of the two irrational ones is rational only as a
    multiple of their sum 2 mu), and mu + sqrt(D) is in it, so
    I conj(I) = m (Z g + Z (mu + sqrt(D))).  This is m O1 exactly when
    g = 1, and g is the content of the form (m, -2 mu, c) of I
    (`orders.form_of_root`).  An odd prime p dividing g divides m, c and
    mu, so p^2 divides mu^2 - m c = D, which is squarefree; so g = 1 iff
    g is odd, that is iff m or c is odd.
    """
    if (mu * mu - D) % m:
        raise ValueError("mu^2 = D (mod m) violated")
    return m % 2 == 1 or ((D - mu * mu) // m) % 2 == 1


def filter_reaches_order(D: int, order: OrderTag, n: int, nu: int) -> bool:
    """Does some root of the order meet the filter m = 0, mu = nu (mod n)?

    Needs nu^2 = D (mod n).  Always true for O1; for O2 true unless n is
    even and (D - nu^2)/n is odd.

    Proof.  Let n be even and (D - nu^2)/n odd, and let (m, mu) be a
    filtered root, mu = nu + k n.  Then (D - mu^2)/n =
    (D - nu^2)/n - 2 k nu - k^2 n is odd, and it equals
    (m/n) (D - mu^2)/m, so (D - mu^2)/m is odd and the root is of O1.
    In every other case the filter holds a root (m, mu) of the order:
    - O1, n odd: (n, nu), m odd.  O1, n even: (n 2^s, nu), 2^s the
      power of 2 in (D - nu^2)/n, so (D - nu^2)/(n 2^s) is odd.
    - O2, n even: (n, nu), with m and (D - nu^2)/n even.  O2, n odd:
      (2n, nu') for nu' the odd one of nu, nu + n; D = 1 (mod 4) makes
      D - nu'^2 a multiple of 4, and of n, so (D - nu'^2)/(2n) is even.
    These carriers are the witnesses of the termination proof in
    `geodesics.least_filtered_root`.
    """
    return order is OrderTag.O1 or n % 2 == 1 or (D - nu * nu) // n % 2 == 0


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

    def accepts(self, m, mu):
        """m = 0 and mu = nu (mod n), for ints or elementwise for arrays."""
        return (m % self.n == 0) & (mu % self.n == self.nu)

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

    def class_tags(self) -> np.ndarray:
        """True where the root belongs to O1 (`is_invertible` per root)."""
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
    spf = spf_table(max(M, 2))[:M + 1]
    s = max(math.isqrt(M), 2)

    # pass 1: root counts.  Odd primes above sqrt(M) occur only as m = p.
    big = np.flatnonzero(spf[s + 1:] > s) + (s + 1)
    r = _sqrt_mod_primes(_mod_each(D, big), big)
    rho = np.zeros(M + 1, np.int16)   # at most 4 * 2^8 roots below 2^31
    rho[1] = 1
    rho[big] = np.sign(r) + 1         # r = -1: no root, r = 0: p | D
    omega = np.zeros(M + 1, np.int8)  # distinct primes of m, where rho > 0
    omega[big] = 1
    groups = []
    for p in range(min(s, M), 1, -1):
        if spf[p] != p or not (loc := sqrt_mod_prime_power(D, p, 1)):
            continue
        # the cofactors of every power of p: m2 > 1 with roots and every
        # prime above p; rho(m2) stays put, as only multiples of p change
        m2 = np.flatnonzero(spf[:M // p + 1] > p)
        m2 = m2[rho[m2] > 0]
        q, e = p, 1
        while loc:   # no root mod p^e: none mod any higher power
            m2 = m2[:np.searchsorted(m2, M // q, "right")]
            rho[q], omega[q] = len(loc), 1
            rho[q * m2] = len(loc) * rho[m2]
            omega[q * m2] = omega[m2] + 1
            groups.append((p, q, loc, m2))
            q, e = q * p, e + 1
            loc = sqrt_mod_prime_power(D, p, e) if q <= M else []

    # pass 2: roots, in CSR order: the prime powers, then every
    # m = q * m2 at once per (omega(m2), rho(q), rho(m2)) in ascending
    # omega(m2), so the roots mod m2 are in place before they are read.
    del spf
    total = int(rho.sum(dtype=np.int64))
    off = np.zeros(M + 2, np.int32 if total < 2**31 else np.int64)
    np.cumsum(rho, dtype=off.dtype, out=off[1:])
    mus = np.empty(total, np.int64)
    mus[0] = 0                         # the root of m = 1
    found = r >= 0
    at, big, r = off[big[found]], big[found], r[found]
    mus[at] = np.minimum(r, big - r)
    mus[at[r > 0] + 1] = np.maximum(r, big - r)[r > 0]
    for _, q, loc, _ in groups:
        mus[off[q]:off[q] + len(loc)] = loc
    groups = [g for g in groups if len(g[3])]
    if groups:
        j = np.concatenate([m2 for *_, m2 in groups])
        q = np.repeat([g[1] for g in groups], [len(g[3]) for g in groups])
        inv = _inverses(groups)
        key = (rho[j].astype(np.int64) * 16 + omega[j]) * 8 + rho[q]
        keys = np.flatnonzero(np.bincount(key))
        for kk in keys[np.argsort(keys // 8 % 16, kind="stable")]:
            sel = np.flatnonzero(key == kk)
            js, qs, c = j[sel], q[sel], q[sel][:, None, None]
            nq, k = kk % 8, kk // 128
            # the roots pair up as x, m - x, and so do the sorted roots
            # mod q (or mod m2) when there are evenly many: combine the
            # lower half of them and mirror
            hq, hk = (nq // 2, k) if nq % 2 == 0 else (1, k // 2 or 1)
            r2 = mus[off[js][:, None] + np.arange(hk)][:, :, None]
            rq = mus[off[qs][:, None] + np.arange(hq)][:, None, :]
            x = rq - r2                # x = r2 + m2 ((rq - r2)/m2 mod q)
            x %= c
            x *= inv[sel][:, None, None]
            x %= c
            x *= js[:, None, None]
            x += r2
            x = x.reshape(len(js), -1)
            m = qs * js
            if hq * hk < nq * k:
                x = np.concatenate([x, m[:, None] - x], axis=1)
            x.sort(axis=1)
            mus[off[m][:, None] + np.arange(nq * k)] = x
    del off, groups                    # freed before ms is built

    nz = np.flatnonzero(rho)
    ms = np.repeat(nz, rho[nz])
    if filt.n > 1:
        keep = filt.accepts(ms, mus)
        ms, mus = ms[keep], mus[keep]
    return RootSequence(D, ms, mus)


def _inverses(groups):
    """1/m2 mod q for every cofactor m2 of the groups (p, q, loc, m2), in
    group order.  A group with q <= len(m2) inverts every residue mod q
    once and reads its m2 off that table; the others invert each m2.
    Both go through one Euler power u^(phi(q) - 1) mod q over all groups.
    """
    u, e, mod, pick = [], [], [], []
    n = 0
    for p, q, _, m2 in groups:
        if q <= len(m2):
            u.append(np.arange(q))
            pick.append(n + m2 % q)
        else:
            u.append(m2 % q)
            pick.append(n + np.arange(len(m2)))
        e.append(np.full(len(u[-1]), q // p * (p - 1) - 1))
        mod.append(np.full(len(u[-1]), q))
        n += len(u[-1])
    inv = _powmod(*(np.concatenate(v) for v in (u, e, mod)))
    return inv[np.concatenate(pick)]


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
    low = (p - 1) & (1 - p)            # 2^s, the lowest set bit of p - 1
    s = np.frexp(low)[1].astype(p.dtype) - 1
    q = (p - 1) >> s
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


# the primes c whose character (c/p) _non_squares reads off p mod 4c
_TABLE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                 53, 59, 61)


def _non_squares(p):
    """The least non-square mod p per odd prime p.

    The least non-square z is prime: were z = u v with 1 < u, v < z, both
    factors would be squares and so would z.  So the candidates are the
    primes c in turn.  By quadratic reciprocity (c/p) depends only on
    p mod 4c: (2/p) = -1 exactly when p = 3, 5 (mod 8), and for odd c,
    (c/p) = (p/c) (-1)^((c-1)/2 (p-1)/2), where (p/c) = (p mod c)^((c-1)/2)
    mod c by Euler's criterion and the sign depends on p mod 4.  Each c of
    _TABLE_PRIMES settles, by one lookup in its table of the 4c residues,
    every p still open for which it is a non-square; (c/c) = 0 leaves p = c
    open.  The few p that all of them leave open (48473881, whose least
    non-square is 67, is one) fall back to the Euler test of z = 62, 63,
    ..., where the composites are squares and pass.
    """
    z = np.zeros_like(p)
    i = np.arange(len(p))
    for c in _TABLE_PRIMES:
        if not i.size:
            return z
        r = np.arange(4 * c)
        if c == 2:
            table = (r == 3) | (r == 5)
        else:   # (p/c), negated when p = c = 3 (mod 4)
            leg = _powmod(r % c, c // 2, c)          # 0, 1 or c - 1
            flip = (c % 4 == 3) & (r % 4 == 3)
            table = np.where(flip, leg == 1, leg == c - 1)
        hit = table[p[i] % (4 * c)]
        z[i[hit]] = c
        i = i[~hit]
    z[i] = _TABLE_PRIMES[-1] + 1
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
    A class that no filtered root reaches (`filter_reaches_order`)
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
