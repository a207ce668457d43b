"""Truncated Laurent series at infinity over a QuadField.

A series stores the exponent of its first coefficient (`lowest_power`, which
is the *leading*, i.e. highest, exponent — coefficients run in descending
powers of x from there) and a truncation order N: coefficients of x^(-k) for
k > N are unknown, not zero.  Exponents above the leading one and exponents
between the last stored coefficient and -N are known zeros.

Window propagation is pessimistic by design: a product or inverse is only
claimed on exponents that are fully determined by the known coefficients of
the operands.  Equality questions therefore only ever compare the common
valid window.

Products (`__mul__` and `mul_poly`) are computed by `fieldext.convolve`, the
one exact product kernel, cut at the length of the result's window.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import FieldTooSmall, InsufficientTruncation
from .fieldext import QuadField, QuadNumber, convolve
from .poly import Poly


class LaurentSeries:
    __slots__ = ("field", "lowest_power", "coefficients", "truncation_order")

    def __init__(
        self,
        field: QuadField,
        lowest_power: int,
        coefficients: Iterable,
        truncation_order: int,
    ):
        cs = [field.coerce(c) for c in coefficients]
        top = lowest_power
        # Drop entries below the window, then leading and trailing zeros.
        max_len = top + truncation_order + 1
        if max_len < len(cs):
            cs = cs[: max(max_len, 0)]
        while cs and cs[0].is_zero:
            cs.pop(0)
            top -= 1
        while cs and cs[-1].is_zero:
            cs.pop()
        self.field = field
        self.lowest_power = top if cs else -truncation_order - 1
        self.coefficients = tuple(cs)
        self.truncation_order = truncation_order

    # -- constructors --------------------------------------------------------
    @classmethod
    def zero(cls, field: QuadField, order: int) -> "LaurentSeries":
        return cls(field, -order - 1, (), order)

    @classmethod
    def constant(cls, field: QuadField, c, order: int) -> "LaurentSeries":
        return cls(field, 0, (c,), order)

    @classmethod
    def from_poly(cls, p: Poly, order: int) -> "LaurentSeries":
        """Embed a polynomial; every coefficient down to x^(-order) is known."""
        if p.is_zero:
            return cls.zero(p.field, order)
        return cls(p.field, p.degree, list(reversed(p.coeffs)), order)

    @classmethod
    def from_moments(cls, field: QuadField, moments: Iterable) -> "LaurentSeries":
        """Sum of u_n x^(-n-1); the window is exactly the moments supplied."""
        ms = list(moments)
        return cls(field, -1, ms, len(ms))

    # -- access ----------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def known_exponent(self, e: int) -> bool:
        return e >= -self.truncation_order

    def coefficient(self, e: int) -> QuadNumber:
        if e < -self.truncation_order:
            raise InsufficientTruncation(required=-e, available=self.truncation_order)
        idx = self.lowest_power - e
        if 0 <= idx < len(self.coefficients):
            return self.coefficients[idx]
        return self.field.zero

    def _effective_top(self) -> int:
        """Leading exponent for window propagation; a window-zero series may
        first become nonzero just below the window."""
        return self.lowest_power if self.coefficients else -self.truncation_order - 1

    def leading_exponent(self) -> int:
        if not self.coefficients:
            raise ValueError("series is zero within its window")
        return self.lowest_power

    def leading_coefficient(self) -> QuadNumber:
        if not self.coefficients:
            raise ValueError("series is zero within its window")
        return self.coefficients[0]

    # -- arithmetic --------------------------------------------------------------
    def _coerce(self, other) -> "LaurentSeries | None":
        if isinstance(other, LaurentSeries):
            if other.field != self.field:
                raise ValueError("mixed coefficient fields")
            return other
        if isinstance(other, (int, Fraction, QuadNumber)):
            return LaurentSeries.constant(self.field, other, self.truncation_order)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        order = min(self.truncation_order, o.truncation_order)
        top = max(self._effective_top(), o._effective_top())
        if top < -order:
            return LaurentSeries.zero(self.field, order)
        cs = [
            self._padded(e) + o._padded(e)
            for e in range(top, -order - 1, -1)
        ]
        return LaurentSeries(self.field, top, cs, order)

    __radd__ = __add__

    def _padded(self, e: int) -> QuadNumber:
        idx = self.lowest_power - e
        if 0 <= idx < len(self.coefficients):
            return self.coefficients[idx]
        return self.field.zero

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        return LaurentSeries(
            self.field,
            self.lowest_power,
            [-c for c in self.coefficients],
            self.truncation_order,
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QuadNumber)):
            c = self.field.coerce(other)
            return LaurentSeries(
                self.field,
                self.lowest_power,
                [ci * c for ci in self.coefficients],
                self.truncation_order,
            )
        if isinstance(other, Poly):
            return self.mul_poly(other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        order = min(
            self.truncation_order - o._effective_top(),
            o.truncation_order - self._effective_top(),
        )
        if not self.coefficients or not o.coefficients:
            return LaurentSeries.zero(self.field, order)
        top = self.lowest_power + o.lowest_power
        if top < -order:
            return LaurentSeries.zero(self.field, order)
        out = convolve(self.field, self.coefficients, o.coefficients, top + order + 1)
        return LaurentSeries(self.field, top, out, order)

    __rmul__ = __mul__

    def mul_poly(self, p: Poly) -> "LaurentSeries":
        """Multiply by an exact polynomial: only the window shrinks by deg p."""
        if p.is_zero:
            return LaurentSeries.zero(self.field, self.truncation_order)
        order = self.truncation_order - p.degree
        if not self.coefficients:
            return LaurentSeries.zero(self.field, order)
        top = self.lowest_power + p.degree
        if top < -order:
            return LaurentSeries.zero(self.field, order)
        # p's coefficients in descending powers, like the series' own
        out = convolve(self.field, self.coefficients, p.coeffs[::-1], top + order + 1)
        return LaurentSeries(self.field, top, out, order)

    def inverse(self) -> "LaurentSeries":
        """Reciprocal series; the window deepens/shrinks by twice the leading
        exponent, so relative precision is preserved exactly."""
        if not self.coefficients:
            raise ZeroDivisionError("inverse of a series with no nonzero known coefficient")
        L = self.lowest_power
        order = self.truncation_order + 2 * L
        depth = self.truncation_order + L  # known coefficients of self past the leading one
        f0_inv = self.coefficients[0].inverse()
        g = [f0_inv]
        for m in range(1, depth + 1):
            acc = self.field.zero
            for i in range(1, m + 1):
                fi = self.coefficients[i] if i < len(self.coefficients) else self.field.zero
                if not fi.is_zero:
                    acc = acc + fi * g[m - i]
            g.append(-acc * f0_inv)
        return LaurentSeries(self.field, -L, g, order)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, QuadNumber)):
            return self * self.field.coerce(other).inverse()
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by x^k."""
        return LaurentSeries(
            self.field,
            self.lowest_power + k,
            self.coefficients,
            self.truncation_order - k,
        )

    def restrict(self, order: int) -> "LaurentSeries":
        if order > self.truncation_order:
            raise InsufficientTruncation(required=order, available=self.truncation_order)
        return LaurentSeries(self.field, self.lowest_power, self.coefficients, order)

    # -- comparison within windows -------------------------------------------
    def common_order(self, other: "LaurentSeries") -> int:
        return min(self.truncation_order, other.truncation_order)

    def first_disagreement(self, other: "LaurentSeries") -> int | None:
        """Highest exponent (within the common window) where the two differ."""
        o = self._coerce(other)
        order = self.common_order(o)
        top = max(self._effective_top(), o._effective_top())
        for e in range(top, -order - 1, -1):
            if self._padded(e) != o._padded(e):
                return e
        return None

    def agrees_with(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare series with {other!r}")
        return self.first_disagreement(o) is None

    def is_zero_within_window(self) -> bool:
        return not self.coefficients

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.field == other.field
            and self.truncation_order == other.truncation_order
            and self.lowest_power == other.lowest_power
            and self.coefficients == other.coefficients
        )

    def __hash__(self):
        return hash((self.field, self.lowest_power, self.coefficients, self.truncation_order))

    def __repr__(self):
        if not self.coefficients:
            return f"O(x^-{self.truncation_order + 1})"
        parts = []
        for i, c in enumerate(self.coefficients[:8]):
            if c.is_zero:
                continue
            e = self.lowest_power - i
            if e == 0:
                parts.append(f"{c}")
            else:
                parts.append(f"({c})*x^{e}")
        tail = " + ..." if len(self.coefficients) > 8 else ""
        return " + ".join(parts) + tail + f" + O(x^-{self.truncation_order + 1})"


def sqrt_series(r: Poly, order: int) -> LaurentSeries:
    """Expansion of sqrt(r) at infinity for a degree-2 polynomial r.

    The leading coefficient is the positive branch of sqrt(lc(r)) in the
    working field (FieldTooSmall if the field cannot express it); squaring the
    result reproduces r on the whole window.
    """
    if r.degree != 2:
        raise ValueError("sqrt_series needs a polynomial of degree exactly 2")
    field = r.field
    lc = r.leading_coefficient()
    if not lc.is_rational:
        raise FieldTooSmall(f"leading coefficient {lc} is not rational")
    s0 = field.sqrt(lc.rational_value())
    two_s0_inv = (s0 + s0).inverse()
    out = [s0]
    for j in range(1, order + 2):
        rj = r.coefficient(2 - j) if j <= 2 else field.zero
        acc = rj
        for i in range(1, j):
            acc = acc - out[i] * out[j - i]
        out.append(acc * two_s0_inv)
    return LaurentSeries(field, 1, out, order)
