"""Output checks for the benchmark's commands.

Every check appends (name, passed, detail) to a `Checks` list; the
benchmark's error rate is failed checks over checks attempted.  The
oracles are independent of the code paths they check: root sets are
compared with `arith.sqrt_mod` (factor, local solve, CRT) at sampled
moduli and every root is tested against mu^2 = D (mod m); coset terms are
compared with a multiset recorded from a reviewed commit; the density is
recomputed from the captured terms with this file's own H closed forms.
"""

import hashlib
import json
import math
import random

import numpy as np

from workloads import options

REL_TOL = 1e-9


class Checks:
    def __init__(self):
        self.results = []

    def add(self, name, ok, detail=""):
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    def failed(self):
        return [r for r in self.results if not r[1]]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def parse_csv(text: str):
    """(meta dict, header, data lines) of a georoots CSV table."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    meta = {}
    i = 0
    while i < len(lines) and lines[i].startswith("# "):
        key, _, value = lines[i][2:].partition(" = ")
        meta[key] = value
        i += 1
    header = lines[i].split(",") if i < len(lines) else []
    return meta, header, lines[i + 1:]


def close(a, b, rel=REL_TOL, abs_tol=0.0):
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)


# ----------------------------------------------------------------------
# root sets

def order_o1(D, ms, mus):
    """True where (m, mu) belongs to the order Z[sqrt D]: m or
    (D - mu^2)/m odd."""
    return (ms % 2 == 1) | (((D - mus * mus) // ms) % 2 != 0)


def check_roots(c, prefix, D, ms, mus, *, n=1, nu=0, cls=None,
                m_max=None, m_complete, rng, samples=48):
    """Roots (ms, mus) in (m, mu) order: each a root passing the filter,
    and complete at sampled moduli up to m_complete."""
    ms = np.asarray(ms, dtype=np.int64)
    mus = np.asarray(mus, dtype=np.int64)
    if len(ms) == 0:
        c.add(f"{prefix}.nonempty", False, "no roots")
        return
    key = ms * (int(ms.max()) + 1) + mus
    c.add(f"{prefix}.order", np.all(np.diff(key) > 0),
          "rows not strictly increasing in (m, mu)")
    in_range = (ms >= 1) & (mus >= 0) & (mus < ms)
    if m_max is not None:
        in_range &= ms <= m_max
    c.add(f"{prefix}.range", np.all(in_range), "m or mu out of range")
    c.add(f"{prefix}.congruence", np.all((mus * mus - D) % ms == 0),
          "a row fails mu^2 = D (mod m)")
    c.add(f"{prefix}.filter", np.all((ms % n == 0) & (mus % n == nu % n)),
          f"a row fails m = 0, mu = {nu} (mod {n})")
    if cls is not None:
        c.add(f"{prefix}.class", np.all(order_o1(D, ms, mus) == (cls == "O1")),
              f"a root outside {cls}")

    # imported here: run.py puts src/ on sys.path once it has found it
    from georoots.arith import sqrt_mod
    present = np.unique(ms[ms <= m_complete])
    picks = {rng.randint(1, m_complete) for _ in range(samples // 2)}
    if len(present):
        picks |= {int(present[rng.randrange(len(present))])
                  for _ in range(samples - samples // 2)}
    bad = []
    for m in sorted(picks):
        want = [mu for mu in sqrt_mod(D, m)
                if m % n == 0 and mu % n == nu % n]
        if cls is not None:
            o1 = cls == "O1"
            want = [mu for mu in want
                    if bool(order_o1(D, np.int64(m), np.int64(mu))) == o1]
        lo, hi = np.searchsorted(ms, [m, m + 1])
        if mus[lo:hi].tolist() != want:
            bad.append(m)
    c.add(f"{prefix}.complete_at_samples", not bad,
          f"root sets differ from sqrt_mod at m = {bad[:5]}")


# ----------------------------------------------------------------------
# per command

def check_roots_table(c, argv, text, ref, rng):
    opt = options(argv)
    D, M = int(opt["--D"]), int(opt["--M"])
    meta, header, lines = parse_csv(text)
    c.add("roots.header", header == ["m", "mu", "class"], str(header))
    c.add("roots.meta", meta.get("command") == "roots"
          and meta.get("D") == str(D) and meta.get("M") == str(M)
          and meta.get("count") == str(len(lines)) == str(ref["count"]),
          f"meta {meta}, {len(lines)} rows, reference {ref['count']}")
    if not lines:
        return
    cells = ",".join(lines).split(",")
    if len(cells) != 3 * len(lines):
        c.add("roots.format", False, "rows without exactly three cells")
        return
    ms = np.array(cells[0::3]).astype(np.int64)
    mus = np.array(cells[1::3]).astype(np.int64)
    classes = np.array(cells[2::3])
    c.add("roots.class_column",
          np.array_equal(classes == "O1", order_o1(D, ms, mus))
          and np.all((classes == "O1") | (classes == "O2")),
          "class column disagrees with the parity rule")
    check_roots(c, "roots", D, ms, mus, m_max=M, m_complete=M, rng=rng)


def check_paircorr(c, argv, text, points, pairs_binned, rng):
    opt = options(argv)
    D, N, bins = int(opt["--D"]), int(opt["--N"]), int(opt["--bins"])
    rng_hi = float(opt["--range"])
    cls = opt.get("--class", "total")
    meta, header, lines = parse_csv(text)
    c.add("paircorr.header", header == ["center", "count", "r2", "density"],
          str(header))
    c.add("paircorr.meta", meta.get("command") == "paircorr"
          and meta.get("D") == str(D) and meta.get("N") == str(N)
          and meta.get("class") == cls and meta.get("bins") == str(bins)
          and float(meta.get("lo", "nan")) == -rng_hi
          and float(meta.get("hi", "nan")) == rng_hi, str(meta))
    rows = [line.split(",") for line in lines]
    width = 2 * rng_hi / bins
    ok = len(rows) == bins
    total = 0
    for i, row in enumerate(rows if ok else []):
        center, count, r2, dens = float(row[0]), int(row[1]), float(row[2]), \
            float(row[3])
        total += count
        ok &= (count >= 0 and close(center, -rng_hi + (i + 0.5) * width,
                                    abs_tol=1e-12)
               and close(r2, count / N)
               and close(dens, count / (N * width)))
    c.add("paircorr.rows", ok, "histogram rows inconsistent")
    c.add("paircorr.pairs_counted", total == pairs_binned,
          f"histogram holds {total} pairs, pair_correlation binned "
          f"{pairs_binned}")
    ms, mus = points
    c.add("paircorr.points", len(ms) == N,
          f"{len(ms)} roots delivered for N = {N}")
    check_roots(c, "paircorr.points", D, ms, mus,
                cls=None if cls == "total" else cls,
                m_complete=max(1, int(ms[-1]) - 1) if len(ms) else 1, rng=rng)


def terms_digest(terms) -> str:
    """SHA-256 of the sorted multiset of (q, sign, k, l)."""
    rows = sorted((float(q), int(s), int(k), int(l)) for q, s, k, l in terms)
    return sha256("".join(f"{q!r},{s},{k},{l}\n"
                          for q, s, k, l in rows).encode())


def H_grid(sign, q, v):
    """H_sign(q, v) on an array v, from the closed forms:
    q > 1:      log((q + y)(q - sqrt(q^2 - 1)))
    |q| < 1:    2 log(q + y) where sign*v > sqrt(2 - 2q), else 0
    q < -1:     2 log(q + y) where |v| > sqrt(2 - 2q) and sign < 0, else 0
    with y = sqrt(v^2 + q^2 - 1)."""
    y = np.sqrt(np.maximum(v * v + q * q - 1.0, 0.0))
    if q > 1.0:
        return np.log((q + y) * (q - math.sqrt(q * q - 1.0)))
    thr = math.sqrt(2.0 - 2.0 * q)
    if q < -1.0:
        on = (np.abs(v) > thr) & (sign < 0)
    else:
        on = sign * v > thr
    return np.where(on, 2.0 * np.log(np.where(on, q + y, 1.0)), 0.0)


def density_from_terms(terms, grid, kappa, vol, q_max):
    """(omega on the grid, tail estimate), recomputed from the terms."""
    total = np.zeros_like(grid)
    vk = grid / kappa
    for q, sign, _, _ in terms:
        total += H_grid(sign, q, vk)
    total /= 2.0 * math.pi * vol * grid * grid
    edge = sum(1 for t in terms if t[0] >= q_max / 2)
    tail = edge / (q_max / 2) / (8.0 * math.pi * vol * kappa * kappa * q_max)
    return total + tail, tail


def check_density(c, argv, text, captured, ref):
    opt = options(argv)
    D, q_max = int(opt["--D"]), float(opt["--qmax"])
    r, step = float(opt["--range"]), float(opt["--step"])
    terms, skipped = captured["terms"], captured["skipped"]
    meta, header, lines = parse_csv(text)
    c.add("density.header", header == ["v", "omega"], str(header))
    c.add("density.meta", meta.get("command") == "density"
          and meta.get("D") == str(D)
          and meta.get("class") == opt.get("--class", "total")
          and float(meta.get("q_max", "nan")) == q_max
          and meta.get("terms") == str(len(terms))
          and meta.get("skipped") == str(skipped)
          and close(float(meta.get("kappa", "nan")), ref["kappa"])
          and close(float(meta.get("vol", "nan")), math.pi / 3), str(meta))
    c.add("density.terms_count", len(terms) == ref["terms"],
          f"{len(terms)} terms, reference {ref['terms']}")
    c.add("density.terms_multiset", terms_digest(terms) == ref["terms_sha256"],
          "coset terms (q, sign, k, l) differ from the reference multiset")
    rows = np.array([line.split(",") for line in lines], dtype=np.float64)
    grid = np.arange(-r, r + step / 2, step)
    grid = grid[np.abs(grid) >= step - 1e-12]
    if rows.shape != (len(grid), 2):
        c.add("density.grid", False, f"table shape {rows.shape}")
        return
    c.add("density.grid", np.allclose(rows[:, 0], grid, rtol=0, atol=1e-9),
          "v column is not the requested grid")
    omega, tail = density_from_terms(terms, grid, ref["kappa"], math.pi / 3,
                                     q_max)
    c.add("density.tail", close(float(meta.get("tail_estimate", "nan")), tail),
          f"recomputed tail {tail!r}")
    err = np.abs(rows[:, 1] - omega) / np.maximum(np.abs(omega), 1e-300)
    c.add("density.omega", np.all(err <= REL_TOL),
          f"max relative error {float(err.max()):.3g} against the "
          "recomputed density")


def check_verify(c, argv, text, orbit_roots, ref, rng):
    opt = options(argv)
    D, M = int(opt["--D"]), int(opt["--M"])
    n, nu = int(opt.get("--n", 1)), int(opt.get("--nu", 0))
    try:
        report = json.loads(text)
    except ValueError:
        c.add("verify.json", False, "report is not JSON")
        return
    c.add("verify.all_pass", report.get("all_pass") is True,
          str([k["name"] for k in report.get("checks", []) if not k["pass"]]))
    match = [k for k in report.get("checks", [])
             if k["name"] == "orbit_equals_sieve"]
    detail = match[0]["detail"] if match else {}
    c.add("verify.orbit_equals_sieve", bool(match) and match[0]["pass"]
          and detail["orbit"] == detail["sieve"] == ref["roots"]
          and detail["duplicates"] == 0,
          f"{detail}, reference {ref['roots']} roots")
    ms, mus = orbit_roots
    c.add("verify.orbit_count", len(ms) == ref["roots"],
          f"orbit walk found {len(ms)} roots, reference {ref['roots']}")
    check_roots(c, "verify.orbit", D, ms, mus, n=n, nu=nu, m_max=M,
                m_complete=M, rng=rng)


def check_command(c, argv, rc, stdout, captures, counters, ref, sample_seed):
    """All checks of one command's first run.  `captures` maps capture
    names (as saved by the tracer) to loaded data."""
    kind = argv[0]
    needs = {"roots": None, "paircorr": "pair_correlation-0",
             "density": "coset_terms-0", "verify": "orbit_roots-0"}[kind]
    if not c.add("exit_code", rc == 0, f"exit code {rc}"):
        return
    if needs is not None and not c.add(f"{kind}.captured", needs in captures,
                                       f"no {needs} captured"):
        return
    rng = random.Random(sample_seed)
    text = stdout.decode("utf-8", "replace")
    if kind in ("roots", "paircorr"):
        c.add("stdout_sha256", sha256(stdout) == ref["sha256"],
              "output bytes differ from the reference")
    try:
        if kind == "roots":
            check_roots_table(c, argv, text, ref, rng)
        elif kind == "paircorr":
            check_paircorr(c, argv, text, captures[needs],
                           counters.get("statistics.pairs_binned", 0), rng)
        elif kind == "density":
            check_density(c, argv, text, captures[needs], ref)
        else:
            check_verify(c, argv, text, captures[needs], ref, rng)
    except (ValueError, KeyError, IndexError) as e:
        c.add(f"{kind}.parse", False, f"malformed output: {e!r}")
