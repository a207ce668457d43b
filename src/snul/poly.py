"""Dense univariate polynomials over a QuadField.

Coefficients are stored ascending (index = degree) with trailing zeros
trimmed.  The zero polynomial has degree None, a deliberate sentinel: degree
arithmetic on zero must fail loudly instead of propagating -1.

Products of two polynomials are computed by `fieldext.convolve`, the one
exact product kernel, which `SurdPoly` products and `surd_exact_div` reach
through `Poly.__mul__`.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import DivisionNotExact
from .fieldext import QuadField, QuadNumber, convolve


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: QuadField, coeffs: Iterable = ()):
        cs = [field.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, field: QuadField) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: QuadField) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def x(cls, field: QuadField) -> "Poly":
        return cls(field, (0, 1))

    @classmethod
    def constant(cls, field: QuadField, c) -> "Poly":
        return cls(field, (c,))

    @classmethod
    def monomial(cls, field: QuadField, c, k: int) -> "Poly":
        return cls(field, [0] * k + [c])

    # -- structure ---------------------------------------------------------
    @property
    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def coefficient(self, k: int) -> QuadNumber:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.field.zero

    def leading_coefficient(self) -> QuadNumber:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    # -- ring operations ---------------------------------------------------
    def _coerce_operand(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            if other.field != self.field:
                raise ValueError("mixed coefficient fields")
            return other
        if isinstance(other, (int, Fraction, QuadNumber)):
            return Poly.constant(self.field, other)
        return None

    def __add__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return Poly(
            self.field,
            [self.coefficient(k) + o.coefficient(k) for k in range(n)],
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return Poly(
            self.field,
            [self.coefficient(k) - o.coefficient(k) for k in range(n)],
        )

    def __rsub__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Poly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QuadNumber)):
            c = self.field.coerce(other)
            if c.is_zero:
                return Poly.zero(self.field)
            return Poly(self.field, [ci * c for ci in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        if other.field != self.field:
            raise ValueError("mixed coefficient fields")
        if not self.coeffs or not other.coeffs:
            return Poly.zero(self.field)
        n = len(self.coeffs) + len(other.coeffs) - 1
        return Poly(self.field, convolve(self.field, self.coeffs, other.coeffs, n))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one(self.field)
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
            return Poly.zero(self.field), self
        inv_lead = o.coeffs[-1].inverse()
        quot = [self.field.zero] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[k + len(o.coeffs) - 1] * inv_lead
            quot[k] = c
            if not c.is_zero:
                for j, b in enumerate(o.coeffs):
                    rem[k + j] = rem[k + j] - c * b
        return Poly(self.field, quot), Poly(self.field, rem[: len(o.coeffs) - 1])

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise DivisionNotExact(f"remainder {r} dividing {self} by {other}")
        return q

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, QuadNumber)):
            return self * self.field.coerce(other).inverse()
        if isinstance(other, Poly):
            return self.exact_div(other)
        return NotImplemented

    def shift(self, k: int) -> "Poly":
        """Multiply by x^k (k >= 0)."""
        if self.is_zero or k == 0:
            return self
        return Poly(self.field, [self.field.zero] * k + list(self.coeffs))

    # -- evaluation --------------------------------------------------------
    def __call__(self, point):
        """Horner evaluation; works for any point supporting * and + with
        coefficients (QuadNumber, Poly, SurdPoly, LaurentSeries)."""
        if not self.coeffs:
            if isinstance(point, QuadNumber):
                return self.field.zero
            return point * self.field.zero
        acc = None
        for c in reversed(self.coeffs):
            if acc is None:
                if isinstance(point, QuadNumber):
                    acc = c
                else:
                    acc = point * self.field.zero + c
            else:
                acc = acc * point + c
        return acc

    # -- comparisons & display ----------------------------------------------
    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QuadNumber)):
            other = Poly.constant(self.field, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return f"Poly({self})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c.is_zero:
                continue
            if k == 0:
                parts.append(f"{c}")
            elif k == 1:
                parts.append("x" if c == 1 else f"({c})*x")
            else:
                parts.append(f"x^{k}" if c == 1 else f"({c})*x^{k}")
        return " + ".join(parts)

    def to_fraction_list(self) -> list[Fraction]:
        """Ascending coefficients as plain rationals; fails on surd entries."""
        return [c.rational_value() for c in self.coeffs]
