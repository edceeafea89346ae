"""Exact arithmetic in Q(sqrt(D)) for a fixed positive non-square D.

A QuadNum stores (a + b*sqrt(D))/c in lowest terms with c > 0, so equality
is structural and comparisons are decided by integer arithmetic alone --
no floating point is ever consulted for a sign.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


@dataclass(frozen=True)
class QuadNum:
    """(a + b*sqrt(D)) / c, normalized: gcd(a,b,c)=1 and c>0."""

    D: int
    a: int
    b: int
    c: int = 1

    def __post_init__(self):
        if self.D <= 1 or _is_square(self.D):
            raise ValueError("D must be a non-square integer > 1")
        if self.c == 0:
            raise ZeroDivisionError("zero denominator")
        a, b, c = self.a, self.b, self.c
        if c < 0:
            a, b, c = -a, -b, -c
        g = gcd(gcd(abs(a), abs(b)), c)
        if g > 1:
            a, b, c = a // g, b // g, c // g
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    # -- constructors ------------------------------------------------

    @staticmethod
    def sqrt(D: int) -> "QuadNum":
        return QuadNum(D, 0, 1, 1)

    @staticmethod
    def from_fraction(D: int, q) -> "QuadNum":
        q = Fraction(q)
        return QuadNum(D, q.numerator, 0, q.denominator)

    # -- ring structure ----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QuadNum):
            if other.D != self.D:
                raise ValueError("mixed radicands")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadNum.from_fraction(self.D, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadNum(self.D, self.a * o.c + o.a * self.c,
                       self.b * o.c + o.b * self.c, self.c * o.c)

    __radd__ = __add__

    def __neg__(self):
        return QuadNum(self.D, -self.a, -self.b, self.c)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        a = self.a * o.a + self.D * self.b * o.b
        b = self.a * o.b + self.b * o.a
        return QuadNum(self.D, a, b, self.c * o.c)

    __rmul__ = __mul__

    def inverse(self) -> "QuadNum":
        n = self.a * self.a - self.D * self.b * self.b
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return QuadNum(self.D, self.a * self.c, -self.b * self.c, n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = QuadNum(self.D, 1, 0, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- field invariants --------------------------------------------

    def conjugate(self) -> "QuadNum":
        return QuadNum(self.D, self.a, -self.b, self.c)

    def norm(self) -> Fraction:
        return Fraction(self.a * self.a - self.D * self.b * self.b,
                        self.c * self.c)

    def trace(self) -> Fraction:
        return Fraction(2 * self.a, self.c)

    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError("irrational")
        return Fraction(self.a, self.c)

    # -- exact order -------------------------------------------------

    def sign(self) -> int:
        """Sign of the real embedding with sqrt(D) > 0 (exact)."""
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with D b^2
        lhs, rhs = a * a, self.D * b * b
        if a > 0:  # b < 0
            return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
        return 1 if rhs > lhs else (-1 if rhs < lhs else 0)

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is NotImplemented:
            raise TypeError("cannot compare")
        return (self - o).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QuadNum.from_fraction(self.D, other)
        if not isinstance(other, QuadNum):
            return NotImplemented
        return (self.D, self.a, self.b, self.c) == (other.D, other.a,
                                                    other.b, other.c)

    def __hash__(self):
        return hash((self.D, self.a, self.b, self.c))

    def __float__(self):
        return (self.a + self.b * self.D ** 0.5) / self.c

    def __repr__(self):
        if self.b == 0:
            core = f"{self.a}"
        elif self.a == 0:
            core = f"{self.b}*sqrt({self.D})"
        else:
            core = f"{self.a} {'+' if self.b > 0 else '-'} {abs(self.b)}*sqrt({self.D})"
        return core if self.c == 1 else f"({core})/{self.c}"

