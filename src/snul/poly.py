"""Dense univariate polynomials over Q.

Coefficients are Fractions stored ascending (index = degree) with trailing
zeros trimmed.  The zero polynomial has degree None, a deliberate sentinel:
degree arithmetic on zero must fail loudly instead of propagating -1.

Products of two polynomials are computed by `fieldext.convolve`, the one
exact product kernel, reached from `SurdPoly` through `Poly.__mul__`; no
job divides by a polynomial (`exact_div` serves `surd_exact_div`).
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import DivisionNotExact
from .fieldext import convolve, parse_rational

_ZERO = Fraction(0)


class Poly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [c if c.__class__ is Fraction else parse_rational(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

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
    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return _ZERO

    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    # -- ring operations ---------------------------------------------------
    @staticmethod
    def _coerce_operand(other) -> "Poly | None":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.constant(other)
        return None

    def __add__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        out = [x - y for x, y in zip(a, b)]
        return Poly(out + list(a[len(out):]) + [-y for y in b[len(out):]])

    def __rsub__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly.zero()
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly.zero()
        n = len(self.coeffs) + len(other.coeffs) - 1
        return Poly(convolve(self.coeffs, other.coeffs, n))

    __rmul__ = __mul__

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
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

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
