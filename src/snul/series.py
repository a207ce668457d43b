"""Truncated Laurent series at infinity over Q.

A series stores the exponent of its first coefficient (`lowest_power`, which
is the *leading*, i.e. highest, exponent — coefficients run in descending
powers of x from there) and a truncation order N: coefficients of x^(-k) for
k > N are unknown, not zero.  Exponents above the leading one and exponents
between the last stored coefficient and -N are known zeros.

The coefficients are integer numerators `nums`, cut at the window, leading
and trailing zeros trimmed, over one denominator `den` > 0 with
gcd(den, *nums) = 1 (a series zero within its window is () over 1), so equal
series have equal stored values.  Arithmetic runs on the integers with one
gcd per result, and `coefficients`, the Fractions, is formed on first read.

Window propagation is pessimistic by design: a product or inverse is only
claimed on exponents that are fully determined by the known coefficients of
the operands.  Equality questions therefore only ever compare the common
valid window.

Sums, differences and products are cases of `dot`, a sum of products
formed by one call of `fieldext._int_dot`, the one exact product kernel, cut
at the length of the result's window.
"""
from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import Iterable

from .errors import InsufficientTruncation
from .fieldext import _int_dot, _reduced, parse_rational
from .poly import Poly

_ZERO = Fraction(0)


class LaurentSeries:
    __slots__ = ("lowest_power", "nums", "den", "truncation_order", "_coefficients")

    def __init__(self, lowest_power: int, coefficients: Iterable, truncation_order: int):
        cs = [c if c.__class__ is Fraction else parse_rational(c) for c in coefficients]
        # entries below the window must not reach the denominator
        del cs[max(lowest_power + truncation_order + 1, 0):]
        den = lcm(*(c.denominator for c in cs))
        self._set(lowest_power, [c.numerator * (den // c.denominator) for c in cs],
                  den, truncation_order)

    @classmethod
    def _from_ints(cls, top: int, nums: list[int], den: int, order: int) -> "LaurentSeries":
        """sum_i nums[i] x^(top-i) / den known down to x^-order, for den > 0."""
        s = cls.__new__(cls)
        s._set(top, nums, den, order)
        return s

    def _set(self, top: int, nums: list[int], den: int, order: int) -> None:
        """Cut nums at the window, trim its zeros and reduce it by one gcd."""
        end = max(min(len(nums), top + order + 1), 0)
        while end > 0 and not nums[end - 1]:
            end -= 1
        start = 0
        while start < end and not nums[start]:
            start += 1
        nums, den = _reduced(nums[start:end], den)
        self.lowest_power = top - start if nums else -order - 1
        self.nums, self.den, self.truncation_order = tuple(nums), den, order
        self._coefficients = None

    # -- constructors --------------------------------------------------------
    @classmethod
    def zero(cls, order: int) -> "LaurentSeries":
        return cls._from_ints(-order - 1, [], 1, order)

    @classmethod
    def constant(cls, c, order: int) -> "LaurentSeries":
        return cls(0, (c,), order)

    @classmethod
    def from_poly(cls, p: Poly, order: int) -> "LaurentSeries":
        """Embed a polynomial; every coefficient down to x^(-order) is known."""
        if p.is_zero:
            return cls.zero(order)
        return cls._from_ints(p.degree, list(p.nums[::-1]), p.den, order)

    @classmethod
    def from_moments(cls, moments: Iterable) -> "LaurentSeries":
        """Sum of u_n x^(-n-1); the window is exactly the moments supplied."""
        ms = list(moments)
        return cls(-1, ms, len(ms))

    # -- access ----------------------------------------------------------------
    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """The stored coefficients as Fractions, formed on first read."""
        if self._coefficients is None:
            self._coefficients = tuple(Fraction(a, self.den) for a in self.nums)
        return self._coefficients

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def coefficient(self, e: int) -> Fraction:
        if e < -self.truncation_order:
            raise InsufficientTruncation(required=-e, available=self.truncation_order)
        return self._padded(e)

    def _effective_top(self) -> int:
        """Leading exponent for window propagation; a window-zero series may
        first become nonzero just below the window."""
        return self.lowest_power if self.nums else -self.truncation_order - 1

    def leading_exponent(self) -> int:
        if not self.nums:
            raise ValueError("series is zero within its window")
        return self.lowest_power

    def leading_coefficient(self) -> Fraction:
        if not self.nums:
            raise ValueError("series is zero within its window")
        return self.coefficients[0]

    def _aligned(self, top: int, length: int) -> list[int]:
        """Numerators of x^top .. x^(top-length+1), zeros outside the stored
        range; top is at least the leading exponent."""
        out = [0] * (top - self.lowest_power) + list(self.nums) if self.nums else []
        del out[length:]
        return out + [0] * (length - len(out))

    # -- arithmetic --------------------------------------------------------------
    def _coerce(self, other) -> "LaurentSeries | None":
        if isinstance(other, LaurentSeries):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentSeries._from_ints(0, [other.numerator], other.denominator,
                                            self.truncation_order)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentSeries.dot(((self, 1), (o, 1)))

    __radd__ = __add__

    def _padded(self, e: int) -> Fraction:
        idx = self.lowest_power - e
        if 0 <= idx < len(self.nums):
            return self.coefficients[idx]
        return _ZERO

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentSeries.dot(((self, 1), (o, -1)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentSeries.dot(((o, 1), (self, -1)))

    def __neg__(self):
        return LaurentSeries._from_ints(self.lowest_power, [-a for a in self.nums],
                                        self.den, self.truncation_order)

    def __mul__(self, other):
        if not isinstance(other, (int, Fraction, Poly, LaurentSeries)):
            return NotImplemented
        return LaurentSeries.dot(((self, other),))

    __rmul__ = __mul__

    def mul_poly(self, p: Poly) -> "LaurentSeries":
        """Multiply by an exact polynomial: only the window shrinks by deg p."""
        return LaurentSeries.dot(((self, p),))

    @staticmethod
    def dot(pairs) -> "LaurentSeries":
        """sum s b over the pairs (series s, b a Poly, rational or series),
        over one denominator, with one `_int_dot` call and one gcd.

        The window is the one the chained products and differences give:
        s b is known down to the window of s less deg b for a nonzero Poly
        b, as deep as s for a rational or a zero Poly, and for a series b
        down to x^-min(N_s - top_b, N_b - top_s), with N the windows and top
        the leading exponents; the sum is known as deep as its shallowest
        term.
        """
        order, terms = None, []
        for s, b in pairs:
            if isinstance(b, LaurentSeries):
                window = min(s.truncation_order - b._effective_top(),
                             b.truncation_order - s._effective_top())
                ys, top, den = b.nums, b.lowest_power, b.den
            elif isinstance(b, Poly):
                window = s.truncation_order - (b.degree or 0)
                # b's coefficients in descending powers, like the series' own
                ys, top, den = b.nums[::-1], b.degree, b.den
            else:
                window = s.truncation_order
                ys, top, den = (b.numerator,), 0, b.denominator
            order = window if order is None else min(order, window)
            if s.nums and ys:
                terms.append((s.lowest_power + top, s.nums, ys, s.den * den))
        top = max((t for t, *_ in terms), default=-order - 1)
        if top < -order:
            return LaurentSeries.zero(order)
        den = lcm(*(d for *_, d in terms))
        # a term leading below the sum is shifted down by zeros before its
        # shorter factor, which the kernel's outer loop skips
        out = _int_dot([(den // d, xs, (0,) * (top - t) + ys) if len(ys) <= len(xs)
                        else (den // d, (0,) * (top - t) + xs, ys)
                        for t, xs, ys, d in terms], top + order + 1)
        return LaurentSeries._from_ints(top, out, den, order)

    def inverse(self) -> "LaurentSeries":
        """Reciprocal series; the window deepens/shrinks by twice the leading
        exponent, so relative precision is preserved exactly."""
        if not self.nums:
            raise ZeroDivisionError("inverse of a series with no nonzero known coefficient")
        L = self.lowest_power
        order = self.truncation_order + 2 * L
        depth = self.truncation_order + L  # known coefficients of self past the leading one
        f0_inv = 1 / self.coefficients[0]
        g = [f0_inv]
        for m in range(1, depth + 1):
            acc = _ZERO
            for i in range(1, min(m, len(self.coefficients) - 1) + 1):
                fi = self.coefficients[i]
                if fi:
                    acc = acc + fi * g[m - i]
            g.append(-acc * f0_inv)
        return LaurentSeries(-L, g, order)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def restrict(self, order: int) -> "LaurentSeries":
        if order > self.truncation_order:
            raise InsufficientTruncation(required=order, available=self.truncation_order)
        return LaurentSeries._from_ints(self.lowest_power, list(self.nums), self.den, order)

    # -- comparison within windows -------------------------------------------
    def common_order(self, other: "LaurentSeries") -> int:
        return min(self.truncation_order, other.truncation_order)

    def agrees_with(self, other) -> bool:
        """Equal on the common window."""
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare series with {other!r}")
        return (self - o).is_zero

    def is_zero_within_window(self) -> bool:
        return not self.nums

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.truncation_order == other.truncation_order
            and self.lowest_power == other.lowest_power
            and self.nums == other.nums
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.lowest_power, self.nums, self.den, self.truncation_order))

    def __repr__(self):
        if not self.nums:
            return f"O(x^-{self.truncation_order + 1})"
        parts = []
        for i, c in enumerate(self.coefficients[:8]):
            if not c:
                continue
            e = self.lowest_power - i
            if e == 0:
                parts.append(f"{c}")
            else:
                parts.append(f"({c})*x^{e}")
        tail = " + ..." if len(self.coefficients) > 8 else ""
        return " + ".join(parts) + tail + f" + O(x^-{self.truncation_order + 1})"


def sqrt_series(r: Poly, order: int) -> LaurentSeries:
    """Expansion of sqrt(r) at infinity for a degree-2 polynomial r whose
    leading coefficient is the square of a rational.

    The leading coefficient is the positive square root of lc(r); squaring
    the result reproduces r on the whole window.  Raises ValueError when
    lc(r) is not a rational square: sqrt(r) then has no expansion over Q.
    """
    if r.degree != 2:
        raise ValueError("sqrt_series needs a polynomial of degree exactly 2")
    lc = r.leading_coefficient()
    num, den = isqrt(max(lc.numerator, 0)), isqrt(lc.denominator)
    if lc <= 0 or num * num != lc.numerator or den * den != lc.denominator:
        raise ValueError(f"leading coefficient {lc} is not the square of a rational")
    s0 = Fraction(num, den)
    two_s0_inv = 1 / (2 * s0)
    out = [s0]
    for j in range(1, order + 2):
        acc = r.coefficient(2 - j) if j <= 2 else _ZERO
        for i in range(1, j):
            acc = acc - out[i] * out[j - i]
        out.append(acc * two_s0_inv)
    return LaurentSeries(1, out, order)
