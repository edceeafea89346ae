"""Integer and modular arithmetic kernels.

Factorization (smallest-prime-factor table, trial division, Pollard rho with
a deterministic Miller-Rabin backstop), square roots modulo prime powers,
and CRT combination of residue lists.
Everything here is exact integer arithmetic; residue lists are always sorted.
"""

from __future__ import annotations

import math

import numpy as np

Factorization = list[tuple[int, int]]  # [(prime, exponent)], primes ascending

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (full witness set)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    # Brent's cycle variant; n must be odd, composite, not a prime power check
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1


def spf_table(limit: int) -> np.ndarray:
    """Smallest-prime-factor table for 2..limit < 2^31, as int32.

    spf starts as the identity (0, 1 and the primes are their own
    entries), and each prime p <= sqrt(limit), taken from the table of
    sqrt(limit), writes p over its multiples from p^2 on in descending
    order of p, so the smallest prime factor writes last.  Every
    composite m has spf(m)^2 <= m, so it is overwritten.
    """
    if limit >= 2**31:
        raise ValueError("spf_table holds int32: limit must be < 2^31")
    spf = np.arange(max(limit, 1) + 1, dtype=np.int32)
    r = math.isqrt(limit) if limit > 0 else 0
    if r >= 2:
        small = spf_table(r)
        primes = np.flatnonzero(small == np.arange(r + 1))[2:]
        for p in primes[::-1].tolist():
            spf[p * p::p] = p
    return spf


def factorize(n: int) -> Factorization:
    """Exact factorization of n >= 1 as a sorted list of (prime, exponent).

    Trial division by small primes, then Miller-Rabin with Pollard rho
    for what remains.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    if n == 1:
        return []
    counts: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    f = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)  # 7,11,13,17,19,23,29,31 mod 30 steps
    i = 0
    while f * f <= n and f < (1 << 16):
        while n % f == 0:
            counts[f] = counts.get(f, 0) + 1
            n //= f
        f += wheel[i]
        i = (i + 1) % 8
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        s = math.isqrt(m)
        if s * s == m:
            stack += [s, s]
            continue
        d = _pollard_rho(m)
        stack += [d, m // d]
    return sorted(counts.items())


def _sqrt_mod_odd_prime(a: int, p: int) -> list[int]:
    """Roots of x^2 = a (mod p) for odd prime p, via Tonelli-Shanks."""
    a %= p
    if a == 0:
        return [0]
    if pow(a, (p - 1) // 2, p) != 1:
        return []
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    else:
        # Tonelli-Shanks
        q = p - 1
        s = 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            t2 = t
            i = 0
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, r = t * c % p, r * b % p
    return sorted({r, p - r})


def sqrt_mod_prime_power(D: int, p: int, e: int) -> list[int]:
    """Sorted solutions of x^2 = D (mod p^e). D may be negative.

    D is assumed squarefree when p divides D (the ramified branch relies on
    p^2 not dividing D).
    """
    if e < 1:
        raise ValueError("e >= 1 required")
    pe = p**e
    a = D % pe
    if p == 2:
        # explicit case analysis at 2
        if e == 1:
            return [a % 2]
        if a % 2 == 0:
            # squarefree D: D = 2 mod 4, no solutions mod 4 or higher
            return [0, 2] if (e == 2 and a % 4 == 0) else []
        if e == 2:
            return [1, 3] if a % 4 == 1 else []
        if D % 8 != 1:
            return []
        roots = [1, 3, 5, 7]
        mod = 8
        while mod < pe:
            mod *= 2
            roots = sorted(
                x
                for r in roots
                for x in (r, r + mod // 2)
                if (x * x - D) % mod == 0
            )
        return roots
    if D % p == 0:
        if e == 1:
            return [0]
        return []  # needs p^2 | D, impossible for squarefree D
    base = _sqrt_mod_odd_prime(D, p)
    if not base:
        return []
    # Hensel: 2x invertible mod p, each root lifts uniquely
    out = []
    for r in base:
        mod = p
        while mod < pe:
            mod_next = min(mod * mod, pe) if mod * mod <= pe else pe
            # lift r from mod to mod_next: r -= (r^2-D) * (2r)^-1
            inv = pow(2 * r % mod_next, -1, mod_next)
            r = (r - (r * r - D) * inv) % mod_next
            mod = mod_next
        out.append(r)
    return sorted(out)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s a + t b (extended Euclid)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def xgcd_array(a: np.ndarray, b: np.ndarray):
    """Elementwise xgcd of int64 arrays: the (g, s, t) that xgcd returns.

    Runs the same Euclid steps on every pair at once and retires a pair
    when its remainder reaches zero, so each pair costs its own number of
    steps.
    """
    g, s, t = (np.empty(len(a), dtype=np.int64) for _ in range(3))
    live = np.arange(len(a))
    r0, r1 = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    s0, s1 = np.ones_like(r0), np.zeros_like(r0)
    t0, t1 = np.zeros_like(r0), np.ones_like(r0)
    while live.size:
        done = r1 == 0
        out = live[done]
        g[out], s[out], t[out] = r0[done], s0[done], t0[done]
        keep = ~done
        live, r0, r1, s0, s1, t0, t1 = (
            v[keep] for v in (live, r0, r1, s0, s1, t0, t1))
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return g, s, t


def crt_combine(parts: list[tuple[list[int], int]]) -> tuple[list[int], int]:
    """Combine residue lists: parts [(residues_i, mod_i)] with coprime mods.

    Returns (sorted residues, product modulus). An empty parts list is the
    trivial congruence mod 1, i.e. ([0], 1).
    """
    total = math.prod(m for _, m in parts)
    if any(not rs for rs, _ in parts):
        return ([], total)
    residues = [0]
    modulus = 1
    for rs, m in parts:
        if m == 1:
            continue
        inv = pow(modulus % m, -1, m)
        residues = [
            x + modulus * ((r - x) * inv % m) for x in residues for r in rs
        ]
        modulus *= m
    return (sorted(residues), modulus)


def sqrt_mod(D: int, m: int) -> list[int]:
    """All x in [0, m) with x^2 = D (mod m), via factor / local-solve / CRT."""
    if m < 1:
        raise ValueError("modulus must be positive")
    if m == 1:
        return [0]
    parts = [(sqrt_mod_prime_power(D, p, e), p**e)
             for p, e in factorize(m)]
    return crt_combine(parts)[0]
