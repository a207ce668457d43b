"""Coefficient arithmetic: exact rationals in transit, integers in the kernels.

Every coefficient in the package is rational.  No computation needs
sqrt(r) as a number: D and M map Q[x] and Q((1/x)) into themselves, and a
sqrt(r) that appears stays symbolic, as v in a pair u + sqrt(r) v.

`Poly` and `LaurentSeries` hold their coefficients as integer numerators
over one denominator; the kernels here work on those integers.
`_int_convolution` is the one exact product kernel, `_int_sum` the one sum
and `_reduced` the one normalisation, a single gcd per result.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


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


def _int_convolution(xs, ys, length: int) -> list[int]:
    """Entries 0..length-1 of the convolution of two integer sequences;
    entries past the end of the full convolution are zero."""
    n = max(0, min(length, len(xs) + len(ys) - 1))
    out = [0] * max(length, 0)
    for j, b in enumerate(ys[:n]):
        if b:
            for i, a in enumerate(xs[:n - j], j):
                out[i] += a * b
    return out


def _int_sum(xs, x_den: int, ys, y_den: int, sign: int = 1) -> tuple[list[int], int]:
    """Numerators over one denominator of xs / x_den + sign ys / y_den,
    entry by entry, the shorter sequence padded with zeros at its end."""
    den = lcm(x_den, y_den)
    sx, sy = den // x_den, sign * (den // y_den)
    out = [a * sx + b * sy for a, b in zip(xs, ys)]
    if len(xs) < len(ys):
        out += [b * sy for b in ys[len(xs):]]
    else:
        out += [a * sx for a in xs[len(ys):]]
    return out, den


def _reduced(nums: list[int], den: int) -> tuple[list[int], int]:
    """nums / den with gcd(den, *nums) = 1, for den > 0; all-zero numerators
    come back over 1."""
    g = gcd(den, *nums)
    if g == 1:
        return nums, den
    return [a // g for a in nums], den // g
