"""Coefficient arithmetic: exact rationals and a fixed real quadratic extension.

Every algebraic object in the package works over one `QuadField`, the field
Q(sqrt(d)) for a square-free integer d.  d = 1 means the field collapsed to
plain Q (the radicand requested at construction was a perfect square), in
which case every element keeps b = 0 and arithmetic stays on the fast
rational path.

`convolve` is the one exact product kernel for coefficient sequences: it
works on integer numerators and so needs the (a, b) layout of QuadNumber.
"""
from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

from .errors import FieldTooSmall

Rational = Fraction

_ZERO = Fraction(0)


def parse_rational(text) -> Fraction:
    """Parse "p/q" / "p" strings (or ints) into an exact Fraction."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        return Fraction(text.strip())
    raise TypeError(f"cannot parse rational from {text!r}")


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


def square_free_split(n: int) -> tuple[int, int]:
    """Write |n| = m^2 * s with s square-free; return (m, sign(n) * s).

    Trial division while p^3 <= the remaining cofactor.  What is left then
    has no prime factor below p and is below p^3, so it is 1, a prime, a
    prime square or a product of two distinct primes, and a perfect-square
    check settles it.  The work grows like the cube root of |n|, which is
    small for the conic coefficients this is used on.
    """
    if n == 0:
        return 0, 0
    sign = 1 if n > 0 else -1
    n = abs(n)
    m, s = 1, 1
    p = 2
    while p * p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            m *= p ** (e // 2)
            if e % 2:
                s *= p
        p += 1 if p == 2 else 2
    if n > 1:
        root = isqrt(n)
        if root * root == n:
            m *= root
        else:
            s *= n
    return m, sign * s


class QuadField:
    """The field Q(sqrt(d)), d a square-free integer (d = 1 collapses to Q)."""

    __slots__ = ("d", "_zero", "_one")
    _cache: dict[int, "QuadField"] = {}

    def __new__(cls, d: int):
        if d == 0:
            d = 1
        cached = cls._cache.get(d)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        self.d = d
        self._zero = None
        self._one = None
        cls._cache[d] = self
        return self

    @classmethod
    def rationals(cls) -> "QuadField":
        return cls(1)

    @classmethod
    def for_radicand(cls, radicand: Fraction) -> "QuadField":
        """Field containing sqrt(radicand); collapses to Q when it is a square."""
        radicand = Fraction(radicand)
        if radicand == 0:
            return cls(1)
        _, s = square_free_split(radicand.numerator * radicand.denominator)
        return cls(s)

    @property
    def is_rational(self) -> bool:
        return self.d == 1

    @property
    def zero(self) -> "QuadNumber":
        if self._zero is None:
            self._zero = QuadNumber(self, Fraction(0), Fraction(0))
        return self._zero

    @property
    def one(self) -> "QuadNumber":
        if self._one is None:
            self._one = QuadNumber(self, Fraction(1), Fraction(0))
        return self._one

    def __call__(self, a, b=0) -> "QuadNumber":
        return QuadNumber(self, Fraction(a), Fraction(b))

    def coerce(self, value) -> "QuadNumber":
        if isinstance(value, QuadNumber):
            if value.field is not self:
                if value.b == 0:
                    return QuadNumber(self, value.a, Fraction(0))
                raise ValueError(f"cannot coerce element of {value.field} into {self}")
            return value
        if isinstance(value, (int, Fraction)):
            return QuadNumber(self, Fraction(value), Fraction(0))
        raise TypeError(f"cannot coerce {value!r} into {self}")

    def sqrt(self, value: Fraction) -> "QuadNumber":
        """Square root of a rational inside this field, positive branch.

        "Positive" means: a positive rational, or a positive rational multiple
        of the canonical generator sqrt(d).  Raises FieldTooSmall otherwise.
        """
        value = Fraction(value)
        if value == 0:
            return self.zero
        num, den = value.numerator, value.denominator
        m, s = square_free_split(num * den)
        if s == 1:
            return QuadNumber(self, Fraction(m, den), Fraction(0))
        if s == self.d:
            return QuadNumber(self, Fraction(0), Fraction(m, den))
        raise FieldTooSmall(
            f"sqrt({value}) needs Q(sqrt({s})) but field is Q(sqrt({self.d}))"
        )

    def __eq__(self, other):
        return isinstance(other, QuadField) and other.d == self.d

    def __hash__(self):
        return hash(("QuadField", self.d))

    def __repr__(self):
        return "Q" if self.d == 1 else f"Q(sqrt({self.d}))"


class QuadNumber:
    """An element a + b*sqrt(d) of a QuadField, both components exact rationals."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field: QuadField, a: Fraction, b: Fraction = _ZERO):
        if not b:
            b = _ZERO          # one shared zero: most elements are rational
        elif field.d == 1:
            a = a + b
            b = _ZERO
        self.field = field
        self.a = a
        self.b = b

    def _coerced(self, other) -> "QuadNumber | None":
        if isinstance(other, QuadNumber):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("mixed quadratic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadNumber(self.field, Fraction(other))
        return None

    @property
    def is_zero(self) -> bool:
        return not self.a and not self.b

    @property
    def is_rational(self) -> bool:
        return not self.b

    def rational_value(self) -> Fraction:
        if self.b:
            raise ValueError(f"{self} has a nonzero surd part")
        return self.a

    def conjugate(self) -> "QuadNumber":
        if not self.b:
            return self
        return QuadNumber(self.field, self.a, -self.b)

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return QuadNumber(self.field, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return QuadNumber(self.field, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return QuadNumber(self.field, o.a - self.a, o.b - self.b)

    def __neg__(self):
        return QuadNumber(self.field, -self.a, -self.b)

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        if not self.b and not o.b:
            return QuadNumber(self.field, self.a * o.a)
        d = self.field.d
        return QuadNumber(
            self.field,
            self.a * o.a + self.b * o.b * d,
            self.a * o.b + self.b * o.a,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadNumber":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero field element")
        if not self.b:
            return QuadNumber(self.field, 1 / self.a)
        norm = self.a * self.a - self.field.d * self.b * self.b
        return QuadNumber(self.field, self.a / norm, -self.b / norm)

    def __truediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return not self.b and self.a == other
        if isinstance(other, QuadNumber):
            return self.field == other.field and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if not self.b:
            return hash(self.a)
        return hash((self.a, self.b, self.field.d))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        if not self.b:
            return str(self.a)
        if not self.a:
            return f"{self.b}*sqrt({self.field.d})"
        sign = "+" if self.b > 0 else "-"
        return f"{self.a} {sign} {abs(self.b)}*sqrt({self.field.d})"

    def to_float(self) -> float:
        if self.field.d < 0 and self.b:
            raise ValueError("no real embedding for negative discriminant")
        return float(self.a) + float(self.b) * (self.field.d ** 0.5 if self.b else 0.0)


def _numerators(field: QuadField, cs) -> tuple[list[int], list[int] | None, int]:
    """Integer numerators of the a and b parts of `cs` over one least common
    denominator; None in place of the b numerators when every b is zero."""
    parts = [c.a for c in cs]
    surd = field.d != 1 and any(c.b for c in cs)
    if surd:
        parts += [c.b for c in cs]
    dens = [f.denominator for f in parts]
    den = lcm(*dens)
    nums = [f.numerator * (den // q) for f, q in zip(parts, dens)]
    return nums[:len(cs)], (nums[len(cs):] if surd else None), den


def _int_convolution(xs: list[int], ys: list[int], length: int) -> list[int]:
    """Entries 0..length-1 of the convolution of two integer sequences, cut
    at the end of the full convolution."""
    n = max(0, min(length, len(xs) + len(ys) - 1))
    out = [0] * n
    for j, b in enumerate(ys[:n]):
        if b:
            for i, a in enumerate(xs[:n - j], j):
                out[i] += a * b
    return out


def convolve(field: QuadField, xs, ys, length: int) -> list[QuadNumber]:
    """Coefficients 0..length-1 of the product of two coefficient sequences.

    Output k is the sum of xs[i] * ys[k - i]; entries past the end of the
    full product are zero.  This is the one exact product kernel behind
    `Poly`, `LaurentSeries` and `mul_poly`.  Each operand's rational parts
    are written as integer numerators over that operand's least common
    denominator and the plain ints are convolved, so the gcd that
    normalises a Fraction runs once per output coefficient instead of once
    per multiply-add.  Over Q(sqrt d) the a and b parts give
    a*a + d*b*b and a*b + b*a.
    """
    xa, xb, x_den = _numerators(field, xs)
    ya, yb, y_den = _numerators(field, ys)
    a_part = _int_convolution(xa, ya, length)
    b_part = [0] * len(a_part)
    if xb and yb:
        d = field.d
        a_part = [s + d * t for s, t in zip(a_part, _int_convolution(xb, yb, length))]
    if yb:
        b_part = _int_convolution(xa, yb, length)
    if xb:
        b_part = [s + t for s, t in zip(b_part, _int_convolution(xb, ya, length))]
    den = x_den * y_den
    zero = field.zero
    out = [
        QuadNumber(field, Fraction(a, den), Fraction(b, den) if b else _ZERO)
        if a or b else zero
        for a, b in zip(a_part, b_part)
    ]
    return out + [zero] * (length - len(out))
