"""Limiting pair-correlation density of root sequences.

The density is a sum over pairs of base geodesics and double cosets of
their stabilizers: each coset contributes (1/v^2) H(q, v/kappa), where q
is a projective invariant of the two geodesics (a normalized cross
ratio) and H comes in two signed flavours with explicit piecewise
closed forms.  A geodesic is its integral form (`geodesics`), and both
invariants are read off pairs of forms by integer arithmetic.  For
forms f_i = (a_i, b_i, c_i) of discriminant s_i^2 D,

    q = (b_1 b_2 - 2 a_1 c_2 - 2 c_1 a_2) / (s_1 s_2 D)

(`_pairing`, the polar form of the discriminant), which is (r+1)/(r-1)
for the cross ratio r of the endpoints (plus_2, minus_1; minus_2,
plus_1): |q| < 1 when the geodesics cross, |q| > 1 when they are
disjoint, and q = +-1 when they share an endpoint.  The sign picks the
H flavour: +1 when the backward endpoint of the second geodesic lies on
the positive side of the first, once the first is moved to the
vertical geodesic from 0 to infinity; it is the sign of an integer
combination x + y sqrt(D), decided by `_surd_sign`.

Floats enter at these places only:
- q = B/den, each term's invariant, which the walk compares with q_max
  (keep) and with the prune bound (expand, here and in `_translates`'
  probes); so the prune test, a float test, decides which states are
  walked;
- the H evaluations on the grid;
- kappa, from log eps2 (`BaseGeodesicSet.lengths`, `kappa_and_vol`);
- `_SigmaFrame.log_lam`, read only by `_canon`'s step guess, which
  exact integer sign tests then correct, so it decides nothing.
No float conversion of a unit remains: both logs go through
`geodesics.log_surd`, which shifts a unit above 2^1000 into the float
range first and adds the shift back as a multiple of log 2 (its error
bound is in its docstring), and a probe compares |B| exactly with twice
the prune bound before it forms the float q.  So a totally positive
unit above 10^308 (D = 100057 has one of 324 digits) is walked like any
other, and below 2^1000 every float is the one computed before.

`H` is the one evaluator of both flavours: it takes a term's (sign, q),
or the terms' signs and qs in summation order, and an array of v, and
`omega` calls it once with all its terms.  It allocates no grid-sized
array per term, so the heap is not trimmed and faulted back in term by
term: v^2 is computed once, and on the sorted grid the mask of each
piecewise form is one or two runs (found by searchsorted), on which
alone a term is evaluated in place into one scratch row, reused by the
equal terms that follow it, and added to one running total.  The floats
cannot move: each element sees the operations of the whole-row formula
in the same order, and a skipped element would have added 0.0, which
changes no value the total can hold (see `H`).  It
raises DomainError only at |q| = 1 (shared endpoints), which the walk
counts as skipped instead of keeping.

The double cosets are those of the full modular group SL_2(Z); for
proper congruence levels the status of the sum is unsettled (see
`omega`), so only level n = 1 is supported, and the double-coset walk
moves by the fixed generators S^-1, T^-1 and T of SL_2(Z).  It reads
the q of a candidate neighbour off the current state by one precomputed
integer linear form per reference geodesic k, generator and stabilizer
translate t, built once for all of k's walks, and applies a generator
only to the neighbours it keeps.  Its pruning constants
_MARGIN and _T_CAP are a heuristic, not a proof of completeness; an
exact double-coset construction would delete them.
"""

import math
from typing import NamedTuple

import numpy as np

from . import InputError
from .forms import MAT_ID, act, mat_inv, mat_mul
from .geodesics import BaseGeodesicSet, BudgetExceeded, log_surd


class DomainError(ValueError):
    """H evaluated at |q| = 1, where neither closed form applies."""


# ----------------------------------------------------------------------
# the H functions: simplified closed forms

def H(sign, q, v: np.ndarray) -> np.ndarray:
    """The sum of H_+ (sign > 0) or H_- (sign < 0) at q over terms, on
    an array of v.

    sign and q are one term's flavour and invariant, which gives that
    term's row, or two sequences of them, whose rows are added in the
    order given.  With y = sqrt(v^2 + q^2 - 1):
    - q > 1: both flavours are log((q + y)(q - sqrt(q^2 - 1)));
    - |q| < 1: H_+ is 2 log(q + y) for v > sqrt(2 - 2q), H_- is the
      same for v < -sqrt(2 - 2q), and both are 0 elsewhere;
    - q < -1: H_+ is 0, and H_- is 2 log(q + y) for |v| > sqrt(2 - 2q)
      and 0 elsewhere.
    The unsimplified original and the one-row-per-term sum are test
    oracles.

    Any |q| = 1 raises DomainError.  The threshold needs no error: at
    v^2 = 2 - 2q (q < 1), v^2 + q^2 - 1 = (1 - q)^2, so q + y = 1 and the
    log branch is log 1 = 0, the value of the zero branch; the strict
    masks give exactly 0.0 there.

    The sum runs on v sorted, so each mask is one or two runs of it: v >
    thr from searchsorted(thr, "right"), v < -thr up to searchsorted(-thr,
    "left"), as strict as the masks (a NaN sorts last, past `end`, and
    no mask holds it).  A term's runs are evaluated into one scratch row
    by the operations of its formula in their order, from v^2 computed
    once, and added into the running total; no grid-sized array is
    allocated per term.  A term equal to the one before reuses the row:
    sorted terms repeat often (omega's D = 17 O1 sum at q_max 60 has 406
    distinct rows among its 1916 terms).  The floats are those of adding
    each term's full row: outside its runs a row is 0.0, and x + 0.0 = x
    for every x but -0.0, which the total never holds (it starts at +0.0,
    and a sum is -0.0 only when both addends are).
    """
    if np.ndim(q) == 0:
        sign, q = (sign,), (q,)
    if any(abs(x) == 1.0 for x in q):
        raise DomainError("|q| = 1")
    v = np.asarray(v, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    vs = v[order]
    v2 = vs * vs
    row = np.empty_like(vs)
    total = np.zeros_like(vs)
    end = int(np.searchsorted(vs, math.inf, side="right"))
    last = None
    for s, x in zip(sign, q):
        # a term equal to the one before has its row in `row` already
        if (s, x) != last:
            last = (s, x)
            runs = _eval_row(s, x, vs, v2, end, row)
        for a, b in runs:
            t = total[a:b]
            np.add(t, row[a:b], out=t)
    row[order] = total      # the scratch row becomes the result
    return row


def _eval_row(sign, q, vs, v2, end, row):
    """One term's nonzero runs [a, b) of the sorted grid vs (v2 = vs * vs,
    vs[end:] the NaNs), with its values on them written into row."""
    qq = q * q
    if q > 1.0:
        runs, c = ((0, len(vs)),), q - math.sqrt(qq - 1.0)
    else:
        thr = math.sqrt(2.0 - 2.0 * q)
        lo = int(np.searchsorted(vs, -thr, side="left"))
        hi = int(np.searchsorted(vs, thr, side="right"))
        if q > -1.0:
            runs = ((hi, end),) if sign > 0 else ((0, lo),)
        else:
            runs = ((0, lo), (hi, end)) if sign < 0 else ()
        c = None
    runs = tuple((a, b) for a, b in runs if a < b)
    for a, b in runs:
        # v * v + q * q - 1.0, sqrt, q + y, then the branch's factor and
        # log in the order of its closed form
        r = row[a:b]
        np.add(v2[a:b], qq, out=r)
        np.subtract(r, 1.0, out=r)
        np.sqrt(r, out=r)
        np.add(r, q, out=r)
        if c is None:
            np.log(r, out=r)
            np.multiply(r, 2.0, out=r)
        else:
            np.multiply(r, c, out=r)
            np.log(r, out=r)
    return runs


# ----------------------------------------------------------------------
# kappa and volume

def kappa_and_vol(base: BaseGeodesicSet, mask=None):
    """(kappa, vol): vol of the quotient surface and the length scale
    kappa = (total length of the selected geodesics)/(2 pi vol).

    The density is defined at level 1 only (see `omega`), where the
    surface is SL_2(Z)\\H and vol = pi/3; a base set of level n > 1
    raises ValueError.
    """
    if base.n != 1:
        raise ValueError("density validated for n=1 only")
    vol = math.pi / 3.0
    lengths = base.lengths()
    if mask is not None:
        lengths = [lengths[i] for i in mask]
    return sum(lengths) / (2.0 * math.pi * vol), vol


# ----------------------------------------------------------------------
# double-coset enumeration

class CosetTerm(NamedTuple):
    q: float
    sign: int       # which H flavour the term feeds
    k: int          # index of the reference base geodesic
    l: int          # index of the translated base geodesic
    state: tuple    # canonical form triple of gamma c_l (dedup witness)


class _SigmaFrame:
    """The stabilizer <sigma> of one geodesic, set up for _canon.

    (A, B, C) is the primitive form fixed by sigma = (p, q, r, s),
    normalized to A > 0: its roots are sigma's fixed points, which solve
    r w^2 + (s - p) w - q = 0.  disc = B^2 - 4AC.  up is whichever of
    sigma^{+-1} raises |R| (see _canon): it multiplies P + Q sqrt(disc)
    by omega = (u + v sqrt(disc))/2 with u = tr^2 - 2, v > 0, and down
    by the conjugate 1/omega.  log_lam = log Lambda = 2 log omega.
    Only the group <-sigma, sigma> enters, so sig and sig_inv may be
    swapped or negated.  Powers of up and down are kept as they are
    asked for, so build one frame per stabilizer and reuse it.
    """

    __slots__ = ("A", "B", "disc", "u", "v", "log_lam", "_up", "_down")

    def __init__(self, sig, sig_inv):
        p, q, r, s = sig
        g = math.gcd(r, s - p, q)
        A, B, C = r // g, (s - p) // g, -q // g
        if A < 0:
            A, B, C = -A, -B, -C
        tr = p + s
        # sigma^{-1} scales (alpha_+, 1) by lambda = p - r alpha_+ =
        # (A tr - r sqrt disc)/(2A), and r^2 disc = A^2 (tr^2 - 4), so
        # omega = lambda^2 = (tr^2 - 2 - tr (r/A) sqrt disc)/2
        v = -tr * (r // A)
        up, down = (sig, sig_inv) if v > 0 else (sig_inv, sig)
        self.A, self.B, self.disc = A, B, B * B - 4 * A * C
        self.u, self.v = tr * tr - 2, abs(v)
        self.log_lam = 2.0 * log_surd(self.u, self.v, math.sqrt(self.disc),
                                      2.0)
        self._up = [MAT_ID, up]
        self._down = [MAT_ID, down]

    def power(self, j):
        """up^j as a matrix, for any integer j."""
        pows = self._up if j >= 0 else self._down
        j = abs(j)
        while len(pows) <= j:
            pows.append(mat_mul(pows[-1], pows[1]))
        return pows[j]


def _canon(G, fr):
    """Unique representative of {sigma^t G : t in Z}, exactly, in O(1).

    Coordinates.  Let f = (A, B, C) be the form of the frame fr, with
    discriminant Delta (not a square) and roots alpha_+- = (-B +-
    sqrt Delta)/(2A).  For G = (a, b, c) put

        P = a (B^2 + Delta) - 2 A B b + 4 A^2 c,    Q = 2 (A b - a B),

    so that 4 A^2 G(alpha_+, 1) = P + Q sqrt Delta and G(alpha_-, 1) is
    its conjugate.  P = Q = 0 only when G vanishes at both roots, i.e.
    G is a multiple of f, and sigma fixes those.

    Invariant.  sigma fixes alpha_+ and alpha_- and (sigma . G)(x, y) =
    G(sigma^{-1}(x, y)), so sigma . G takes the value lambda_+-^2
    G(alpha_+-, 1) at alpha_+-, where lambda_+ lambda_- = 1 are the
    eigenvalues of sigma^{-1}.  Hence R = G(alpha_+, 1)/G(alpha_-, 1),
    finite and nonzero unless P = Q = 0, is multiplied by lambda_+^4 =
    Lambda^{+-1} per step, and log|R| runs through an arithmetic
    progression of step log Lambda > 0 along the orbit.  Since
    (P + Q sqrt Delta)^2 - (P - Q sqrt Delta)^2 = 4 P Q sqrt Delta,
    |R| >= 1 exactly when P Q >= 0.

    Representative.  Walking the orbit in the direction up that raises
    |R|, log|R| is strictly increasing, so exactly one orbit member H has
    P Q >= 0 (log|R| >= 0) while down . H has P Q < 0 (log|R| < 0): the
    one with log|R| in [0, log Lambda).  The condition refers only to
    the orbit, so sigma^t G and G get the same H, and H is canonical.

    Finding it.  log|R| = +-(2 log(|P| + |Q| sqrt Delta) - log|P^2 -
    Q^2 Delta|), + when P Q >= 0, gives the step count from one float
    log; exact integer sign tests of P Q then move the guess until the
    defining condition holds, so rounding costs steps, never exactness.
    A step multiplies P + Q sqrt Delta by omega^{+-1} (see _SigmaFrame),
    so the tests need no further forms.
    """
    A, B, disc, u, v = fr.A, fr.B, fr.disc, fr.u, fr.v
    P, Q = _pq(G, A, B, disc)
    if P == 0 and Q == 0:
        return G
    log_r = (2.0 * math.log(abs(P) + math.isqrt(Q * Q * disc))
             - math.log(abs(P * P - Q * Q * disc)))
    if P * Q < 0:
        log_r = -log_r
    j = math.ceil(-log_r / fr.log_lam)
    if j:
        G = act(fr.power(j), G)
        P, Q = _pq(G, A, B, disc)
    while P * Q < 0:
        G = act(fr.power(1), G)
        P, Q = (u * P + v * Q * disc) // 2, (u * Q + v * P) // 2
    while True:
        Pd, Qd = (u * P - v * Q * disc) // 2, (u * Q - v * P) // 2
        if Pd * Qd < 0:
            return G
        G, P, Q = act(fr.power(-1), G), Pd, Qd


def _pq(G, A, B, disc):
    """(P, Q) of G in the coordinates of _canon."""
    a, b, c = G
    return (a * (B * B + disc) - 2 * A * B * b + 4 * A * A * c,
            2 * (A * b - a * B))


def _surd_sign(x, y, D):
    """The sign of x + y sqrt(D) for integers x, y and D > 0, exactly.

    When x and y do not have opposite signs, the nonzero one of them (if
    any) decides.  Otherwise x + y sqrt(D) has the sign of x exactly
    when |x| > |y| sqrt(D), that is when x^2 > D y^2."""
    sx, sy = (x > 0) - (x < 0), (y > 0) - (y < 0)
    if sx * sy >= 0:
        return sx or sy
    d = x * x - D * y * y
    return sx * ((d > 0) - (d < 0))


def _geodesic_data(base):
    """Per base geodesic: (form, sqrt scale s, stabilizer pair), where
    disc(form) = s^2 D."""
    return [(g.form, 2 if g.mult == 1 else 1,
             (g.stabilizer, mat_inv(g.stabilizer))) for g in base.geodesics]


# S^-1, T^-1 and T: they generate SL_2(Z), and the walk moves by each in
# this order (S^-1 = -S acts on forms as S does)
_GENERATORS = ((0, 1, -1, 0), (1, -1, 0, 1), (1, 1, 0, 1))

# the walk expands a state while |q| <= _MARGIN * q_max + 25, and tries
# at most _T_CAP stabilizer translates each way (see _translates)
_MARGIN = 2.0
_T_CAP = 64


def _pairing(f, G):
    """b b' - 2 a c' - 2 c a', the polar form of the discriminant: the
    numerator B of q for the pair (f, G)."""
    a, b, c = f
    return b * G[1] - 2 * a * G[2] - 2 * c * G[0]


_UNIT_FORMS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _linear_form(f, g):
    """The integer vector l with l . G = _pairing(f, act(g, G)) for every
    form G (see enumerate_coset_terms)."""
    return tuple(_pairing(f, act(g, e)) for e in _UNIT_FORMS)


def _probes(f, g, sig):
    """The probe table of f, g and the direction sig: the rows
    [_linear_form(f, g)], to be grown by _next_row, and the columns
    act(sig, e) of the 3x3 integer matrix S of F -> sig . F, e the unit
    forms."""
    return [_linear_form(f, g)], tuple(act(sig, e) for e in _UNIT_FORMS)


def _next_row(row, cols):
    """row . S for the matrix S whose columns are cols: the linear form
    F -> row . (sig . F) (see _translates)."""
    l0, l1, l2 = row
    return tuple(l0 * a + l1 * b + l2 * c for a, b, c in cols)


def _normalizes(g, sig, sig_inv):
    """True when g sigma g^-1 = sigma^{+-1} (see enumerate_coset_terms)."""
    return mat_mul(mat_mul(g, sig), mat_inv(g)) in (sig, sig_inv)


def _translates(chains, g, probes, normal, den, prune):
    """Neighbours act(g, sigma^t G) with |B| / den <= prune, where B =
    _pairing(f_k, act(g, sigma^t G)).

    chains is ((up, sig), (down, sig_inv)): two lists that start at the
    state G and hold sigma^t G and sigma^-t G, grown here only as far as
    the hits of any generator reach and shared by all three.  probes is
    one pair (rows, cols) of _probes per direction, shared by every
    state of the reference geodesic k: rows[t] = l_{g,t} = l_g S^t, with
    l_g = _linear_form(f_k, g) and S the matrix of F -> sigma . F, is
    grown on demand by _next_row, so never past t = _T_CAP.

    A probe is one dot product, B = l_{g,t} . G, and a miss builds
    nothing: act is a left action, act(g, act(h, F)) = act(g h, F), and
    linear in F, so F -> _pairing(f_k, act(g, F)) is F -> l_g . F, and
    F -> sigma . F is F -> S F.  Hence l_{g,t} . G = l_g . (S^t G) =
    _pairing(f_k, act(g, sigma^t G)) as integers.  A hit yields
    act(g, sigma^t G), with sigma^t G read off the chain.

    t runs over 0 <= |t| <= _T_CAP, and a direction stops after three
    consecutive misses.  When g normalizes <sigma> (normal, see
    _normalizes), every translate has the q and the canonical state of
    act(g, G), so only t = 0 is tried: a hit yields the one state the
    whole scan would, a miss yields nothing, as three misses in each
    direction would.  A probe tests the float q = B/den itself, not B
    against den * prune, so it decides as the q of act(g, sigma^t G)
    would.  It first tests |B| <= 2 prune den (an int-float comparison,
    exact in Python): a B above that has a float q above prune, so the
    result is the same, and a B too large for a float never reaches the
    division."""
    a, b, c = chains[0][0][0]
    cap = 2 * prune * den
    stop = 1 if normal else _T_CAP + 1
    for (chain, mat), (rows, cols), t0 in zip(chains, probes, (0, 1)):
        misses = 0
        for t in range(t0, stop):
            if t == len(rows):
                rows.append(_next_row(rows[-1], cols))
            l0, l1, l2 = rows[t]
            B = l0 * a + l1 * b + l2 * c
            if abs(B) <= cap and abs(B / den) <= prune:
                misses = 0
                while t >= len(chain):
                    chain.append(act(mat, chain[-1]))
                yield act(g, chain[t])
            else:
                misses += 1
                if misses >= 3:
                    break


def enumerate_coset_terms(base: BaseGeodesicSet, q_max: float,
                          mask=None, budget: int = 2_000_000):
    """All double-coset terms with |q| <= q_max for pairs of base geodesics.

    For each ordered pair (k, l), walks the SL_2(Z)-orbit of c_l by the
    generators _GENERATORS, with states reduced modulo the stabilizer of
    c_k (so states are double cosets), keeping terms with |q| <= q_max
    and expanding while |q| stays under _MARGIN*q_max + 25.  The walk is
    level 1 only, like the density sum it feeds (see `omega`): a base set
    of level n > 1 raises ValueError, and q_max outside (1, inf) raises
    InputError.
    The pruning by _MARGIN and _T_CAP is heuristic; an exact double-coset
    construction would replace it.  Identity/reversal cosets (gamma c_l
    = c_k or its reverse) are excluded per the sum's side condition.
    Returns (terms, skipped) where skipped counts boundary hits |q| = 1
    (shared endpoints; none expected for distinct primitive geodesics).

    Expanding a state G tries act(g, sigma^t G) for each generator g
    and stabilizer translate sigma^t G (see _translates).  Two facts cut
    the arithmetic of a probe:

    - Linearity.  q = B/den with B = _pairing(f_k, .).  act(g, .) is
      linear in the coefficients of the form it acts on, and B is
      linear, so B(act(g, F)) = l_g . F with l_g = _linear_form(f_k, g),
      the values of the composite at the unit forms.  act is a left
      action, so act(g, sigma^t G) = act(g, act(sigma, .)^t G), and
      sigma^t G = S^t G for the integer matrix S of F -> sigma . F; so
      B = l_{g,t} . G with l_{g,t} = l_g S^t, exactly.  The rows l_{g,t}
      of each (k, direction, g) are built once, as far as any state
      asks, and shared by every l and every state of k (_probes).  A
      probe is one dot product with the state itself, so its B, its
      float q and its decision are those of act(g, sigma^t G); sigma^t G
      is built, on a chain shared by the state's three generators, and
      act(g, .) run, only for the translates kept.  The three-miss stop,
      the normalizer shortcut and the order of the yields depend on
      those decisions alone, so the ordered term list is that of a walk
      that formed every act(g, sigma^t G) it probed.
    - Normalizers.  Let g sigma g^-1 = sigma^e with e = +-1 (checked
      once per (k, g) by _normalizes; -sigma^e cannot occur, since
      conjugation keeps the trace and sigma is hyperbolic).  Then
      act(g, sigma^t G) = (g sigma g^-1)^t . act(g, G) = sigma^(e t) .
      act(g, G).  Every translate lies in the sigma-orbit of act(g, G),
      so it has the same canonical state, and the same B since sigma
      fixes f_k and _pairing is SL_2(Z)-invariant (as the discriminant
      is).  Trying t = 0 alone yields every state the scan of all
      translates would.

    A kept term's flavour sign is decided by integers.  For the state
    G = (a, b, c), of discriminant s_l^2 D, the sign (see the module
    docstring) is that of (beta - alpha_-)(alpha_+ - beta), flipped when
    A < 0, where beta = (-b - s_l sqrt D)/(2a) is the backward endpoint
    of G and alpha_+- the roots of f_k = (A, B, C).  Since f_k(x, 1) =
    A (x - alpha_+)(x - alpha_-), that product is -f_k(beta, 1)/A, so
    the flip cancels and the sign is -sign f_k(beta, 1).  With (P, Q) =
    _pq(f_k, a, b, s_l^2 D), 4 a^2 f_k(beta, 1) = P - s_l Q sqrt D
    (_canon's identity with beta the conjugate root of G).  A zero sign
    means beta is an endpoint of c_k; it counts as skipped.

    More than `budget` states popped, counted over all pairs together,
    raises BudgetExceeded.
    """
    if base.n != 1:
        raise ValueError("coset walk supports n=1 only")
    if not math.isfinite(q_max):
        raise InputError("qmax must be finite")
    if q_max <= 1:
        raise InputError("qmax must exceed 1")
    data = _geodesic_data(base)
    idx = range(len(data)) if mask is None else sorted(mask)
    prune = _MARGIN * q_max + 25.0
    terms = []
    skipped = 0
    visited_total = 0
    for k in idx:
        fk, sk, (sig_k, sig_k_inv) = data[k]
        frame = _SigmaFrame(sig_k, sig_k_inv)
        canon_self = _canon(fk, frame)
        canon_rev = _canon((-fk[0], -fk[1], -fk[2]), frame)
        moves = [(g, (_probes(fk, g, sig_k), _probes(fk, g, sig_k_inv)),
                  _normalizes(g, sig_k, sig_k_inv)) for g in _GENERATORS]
        for l in idx:
            fl, sl, _ = data[l]
            den_kl = sk * sl * base.D
            start = _canon(fl, frame)
            seen = {start}
            stack = [start]
            while stack:
                visited_total += 1
                if visited_total > budget:
                    raise BudgetExceeded(
                        f"coset walk popped more than budget = {budget} "
                        f"states, counted over all pairs; it ran out at "
                        f"pair ({k},{l})")
                G = stack.pop()
                B = _pairing(fk, G)
                q = B / den_kl
                if abs(q) <= q_max and G != canon_self and G != canon_rev:
                    if abs(B) == den_kl:
                        skipped += 1
                    else:
                        P, Q = _pq(fk, G[0], G[1], sl * sl * base.D)
                        sgn = -_surd_sign(P, -sl * Q, base.D)
                        if sgn == 0:
                            skipped += 1
                        else:
                            terms.append(CosetTerm(q, sgn, k, l, G))
                if abs(q) > prune:
                    continue
                chains = (([G], sig_k), ([G], sig_k_inv))
                for g, probes, normal in moves:
                    for Gt in _translates(chains, g, probes, normal, den_kl,
                                          prune):
                        C = _canon(Gt, frame)
                        if C not in seen:
                            seen.add(C)
                            stack.append(C)
    return terms, skipped


# ----------------------------------------------------------------------
# the density itself

class DensityTable(NamedTuple):
    """Density values on a v grid.  omega includes tail_estimate, a
    v-independent estimate of the mass beyond q_max."""

    grid: np.ndarray
    omega: np.ndarray
    kappa: float
    vol: float
    q_max: float
    terms_used: int
    class_mask: tuple
    tail_estimate: float
    skipped: int = 0


def default_grid(lo: float = -5.0, hi: float = 5.0, step: float = 0.01,
                 v_min: float = 0.01) -> np.ndarray:
    """The points lo + i step in [lo, hi] with |v| >= v_min.

    The arange runs to hi + step/2 so that rounding cannot drop hi
    itself; its points beyond hi + step * 1e-6 are off the grid."""
    g = np.arange(lo, hi + step / 2, step)
    return g[(g <= hi + step * 1e-6) & (np.abs(g) >= v_min - 1e-12)]


def omega(base: BaseGeodesicSet, grid: np.ndarray = None,
          q_max: float = 50.0, mask=None, terms=None) -> DensityTable:
    """Truncated density sum on a v grid, plus a tail estimate.

    mask selects a subset of base geodesics (indices): both the (k,l)
    pairs of the sum and the length scale kappa are restricted to it,
    which is how the partial densities of class subsequences arise.

    Convergence: a term with q > q_max still contributes ~1/(8 pi vol
    kappa^2 q^2) at every v, and terms with q < -q_max matter once
    |v| > kappa*sqrt(2+2*q_max).  Choose q_max of order (v_max/kappa)^2/2
    to resolve the whole grid; the flat positive-q remainder is
    estimated and folded into the returned values.

    Only the full modular group (n=1) is supported: for proper
    congruence levels the geodesic lengths entering kappa can differ
    between the two orders and the formula's status there is unsettled.
    `kappa_and_vol` owns that rule: a base set of level n > 1 raises
    ValueError there, after the grid is checked.
    """
    if grid is None:
        grid = default_grid()
    grid = np.asarray(grid, dtype=np.float64)
    if np.any(np.abs(grid) < 1e-9):
        raise ValueError("grid must exclude v = 0")
    kappa, vol = kappa_and_vol(base, mask)
    if terms is None:
        terms, skipped = enumerate_coset_terms(base, q_max, mask)
    else:
        skipped = 0
    # a fixed summation order, so the floats depend only on the multiset
    ordered = sorted(terms, key=lambda t: (t.q, t.sign, t.k, t.l))
    total = H([t.sign for t in ordered], [t.q for t in ordered],
              grid / kappa)
    # the sum normalizes by the volume of the unit tangent bundle,
    # 2 pi times the surface area
    total /= 2.0 * math.pi * vol * grid * grid
    # tail: H(q, v/kappa) ~ (v/kappa)^2/(4 q^2) for q beyond the cut, so
    # each missing term adds ~ 1/(8 pi vol kappa^2 q^2); extrapolate the
    # positive-q term density seen near the edge
    edge = [t for t in terms if t.q >= q_max / 2]
    dens = len(edge) / (q_max / 2)
    tail = dens / (8.0 * math.pi * vol * kappa * kappa * q_max)
    total += tail
    return DensityTable(grid, total, kappa, vol, q_max, len(terms),
                        None if mask is None else tuple(sorted(mask)),
                        tail, skipped)
