"""Coefficient arithmetic: exact rationals in transit and in products.

Every coefficient in the package is a `Fraction`.  No computation needs
sqrt(r) as a number: D and M map Q[x] and Q((1/x)) into themselves, and a
sqrt(r) that appears stays symbolic, as v in a pair u + sqrt(r) v.

`convolve` is the one exact product kernel for coefficient sequences.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm

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


def _numerators(cs) -> tuple[list[int], int]:
    """Integer numerators of the rationals `cs` over their least common
    denominator, and that denominator."""
    dens = [c.denominator for c in cs]
    den = lcm(*dens)
    return [c.numerator * (den // q) for c, q in zip(cs, dens)], den


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


def convolve(xs, ys, length: int) -> list[Fraction]:
    """Coefficients 0..length-1 of the product of two coefficient sequences.

    Output k is the sum of xs[i] * ys[k - i]; entries past the end of the
    full product are zero.  This is the one exact product kernel behind
    `Poly`, `LaurentSeries` and `mul_poly`.  Each operand is written as
    integer numerators over its least common denominator and the plain ints
    are convolved, so the gcd that normalises a Fraction runs once per
    output coefficient instead of once per multiply-add.
    """
    x_nums, x_den = _numerators(xs)
    y_nums, y_den = _numerators(ys)
    den = x_den * y_den
    out = [Fraction(c, den) if c else _ZERO
           for c in _int_convolution(x_nums, y_nums, length)]
    return out + [_ZERO] * (length - len(out))
