"""Dense univariate polynomials over Q.

Stored as integer numerators `nums`, ascending (index = degree), trailing
zeros trimmed, over one denominator `den` > 0 with gcd(den, *nums) = 1, so
equal polynomials have equal (nums, den); `__eq__` and `__hash__` read them.
Arithmetic runs on the integers with one gcd per result, and `coeffs`, the
Fractions, is formed on first read.  The zero polynomial is () over 1 and has
degree None, a deliberate sentinel: degree arithmetic on zero must fail
loudly instead of propagating -1.

Products and sums go through `fieldext._int_dot`, the one exact kernel:
`Poly.dot` forms a sum of products, each with an optional rational weight,
so that a result of several products, sums and scalings (one level of the
structure recursion) takes one lcm, one kernel call and one gcd; a product
of two polynomials is its one-term case, a sum or difference its two-term
case with constant factors 1 and +/-1.  No job divides by a polynomial
(`exact_div` serves `surd_exact_div`).
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable

from .errors import DivisionNotExact
from .fieldext import _int_dot, _reduced, parse_rational

_ZERO = Fraction(0)


class Poly:
    __slots__ = ("nums", "den", "_coeffs")

    def __init__(self, coeffs: Iterable = ()):
        cs = [c if c.__class__ is Fraction else parse_rational(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        # reduced Fractions over the lcm of their denominators need no gcd
        den = lcm(*(c.denominator for c in cs))
        self.nums, self.den = tuple(c.numerator * (den // c.denominator) for c in cs), den
        self._coeffs = tuple(cs)

    @classmethod
    def _from_ints(cls, nums: list[int], den: int) -> "Poly":
        """The polynomial sum_k nums[k] x^k / den, for den > 0."""
        while nums and not nums[-1]:
            nums.pop()
        nums, den = _reduced(nums, den)
        p = cls.__new__(cls)
        p.nums, p.den, p._coeffs = tuple(nums), den, None
        return p

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls((c,))

    # -- structure ---------------------------------------------------------
    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, ascending, formed on first read."""
        if self._coeffs is None:
            self._coeffs = tuple(Fraction(a, self.den) for a in self.nums)
        return self._coeffs

    @property
    def degree(self) -> int | None:
        return len(self.nums) - 1 if self.nums else None

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self):
        return bool(self.nums)

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.nums):
            return self.coeffs[k]
        return _ZERO

    def leading_coefficient(self) -> Fraction:
        if not self.nums:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.nums) and self.nums[-1] == self.den

    # -- ring operations ---------------------------------------------------
    @staticmethod
    def _coerce_operand(other) -> "Poly | None":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly._from_ints([other.numerator], other.denominator)
        return None

    def __add__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        return Poly.dot(((self, 1), (o, 1)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        return Poly.dot(((self, 1), (o, -1)))

    def __rsub__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Poly._from_ints([-a for a in self.nums], self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            num = other.numerator
            return Poly._from_ints([a * num for a in self.nums], self.den * other.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly._from_ints(_int_dot(((1, self.nums, other.nums),)), self.den * other.den)

    __rmul__ = __mul__

    @staticmethod
    def dot(terms) -> "Poly":
        """sum w a b over the terms (a, b) and (a, b, w), a a Poly, b a Poly
        or rational and w a rational weight, 1 when left out: over one
        denominator, with one `_int_dot` call and one gcd.  Terms of weight
        zero are dropped."""
        ints, dens = [], []
        for t in terms:
            w = t[2] if len(t) > 2 else 1
            if w:
                a, b = t[0], t[1]
                if b.__class__ is Poly:
                    ints.append((w.numerator, a.nums, b.nums))
                    dens.append(a.den * b.den * w.denominator)
                else:
                    ints.append((w.numerator * b.numerator, a.nums, (1,)))
                    dens.append(a.den * b.denominator * w.denominator)
        den = lcm(*dens)
        return Poly._from_ints(_int_dot([(den // d * w, xs, ys)
                                         for (w, xs, ys), d in zip(ints, dens)]), den)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "Poly"):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(o.coeffs)
        if dq < 0:
            return Poly.zero(), self
        inv_lead = 1 / o.coeffs[-1]
        quot = [_ZERO] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[k + len(o.coeffs) - 1] * inv_lead
            quot[k] = c
            if c:
                for j, b in enumerate(o.coeffs):
                    rem[k + j] = rem[k + j] - c * b
        return Poly(quot), Poly(rem[: len(o.coeffs) - 1])

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise DivisionNotExact(f"remainder {r} dividing {self} by {other}")
        return q

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        if isinstance(other, Poly):
            return self.exact_div(other)
        return NotImplemented

    # -- evaluation --------------------------------------------------------
    def __call__(self, point):
        """Horner evaluation; works for any point supporting * and + with
        rationals (int, Fraction, Poly, SurdPoly, LaurentSeries)."""
        number = isinstance(point, (int, Fraction))
        if not self.coeffs:
            return _ZERO if number else point * _ZERO
        acc = None
        for c in reversed(self.coeffs):
            if acc is None:
                acc = c if number else point * _ZERO + c
            else:
                acc = acc * point + c
        return acc

    # -- comparisons & display ----------------------------------------------
    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self):
        return hash((self.nums, self.den))

    def __repr__(self):
        return f"Poly({self})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                parts.append(f"{c}")
            elif k == 1:
                parts.append("x" if c == 1 else f"({c})*x")
            else:
                parts.append(f"x^{k}" if c == 1 else f"({c})*x^{k}")
        return " + ".join(parts)
