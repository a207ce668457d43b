"""Coefficient arithmetic: exact rationals in transit, integers in the kernels.

Every coefficient in the package is rational.  No computation needs
sqrt(r) as a number: D and M map Q[x] and Q((1/x)) into themselves, and a
sqrt(r) that appears stays symbolic, as v in a pair u + sqrt(r) v.

`Poly` and `LaurentSeries` hold their coefficients as integer numerators
over one denominator; the kernels here work on those integers.
`_int_dot`, a sum of weighted products cut at a length, is the one exact
product kernel, `_int_sum` the one sum and `_reduced` the one
normalisation, a single gcd per result.  `_nullspace` is the fit's
fraction-free elimination over the integers.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence


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


def _int_dot(terms, length: int | None = None) -> list[int]:
    """Entries 0..n-1 of sum w (xs * ys) over the int weights w and integer
    sequences xs, ys of the sequence terms: n is the longest full product's
    length, cut at `length` when given."""
    n = max((len(xs) + len(ys) - 1 for w, xs, ys in terms if w and xs and ys), default=0)
    n = n if length is None else max(min(n, length), 0)
    out = [0] * n
    for w, xs, ys in terms:
        if len(xs) < len(ys):
            xs, ys = ys, xs            # the shorter sequence in the outer loop
        for j, b in enumerate(ys[:n]):
            if b and w:
                b *= w
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


def _nullspace(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[list[int]]:
    """Primitive integer basis of the nullspace of a matrix over Q.

    Each row is scaled by the lcm of its denominators, which does not change
    the nullspace, and the integer matrix is brought to reduced row echelon
    form by fraction-free Gauss-Jordan elimination: with pivot value a, every
    other row with b in the pivot column becomes a*row - b*pivot_row, divided
    by the gcd of its entries, so the numbers stay near the size of the
    minors (as in Bareiss 1968, where the common factor is a known minor).
    No Fraction is formed.  The basis vector of free column c is
    the reduced-row-echelon one (1 at c, minus each pivot row's entry in
    column c at its pivot column), cleared to integers, divided by its content
    and signed so that its first nonzero entry is positive.  That vector is
    unique, so the basis depends neither on the row scaling nor on the choice
    of pivot rows.
    """
    m = []
    for row in rows:
        den = lcm(*(c.denominator for c in row))
        ints = [c.numerator * (den // c.denominator) for c in row]
        g = gcd(*ints)
        if g:
            m.append([v // g for v in ints] if g > 1 else ints)
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        found = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if found is None:
            continue
        m[rank], m[found] = m[found], m[rank]
        pivot_row = m[rank]
        a = pivot_row[col]
        for r, row in enumerate(m):
            b = row[col]
            if b and r != rank:
                new = [a * x - b * y for x, y in zip(row, pivot_row)]
                g = gcd(*new)
                m[r] = [v // g for v in new] if g > 1 else new
        pivots.append(col)
        # rows below the pivots that are now zero take no further part
        m[rank + 1:] = [row for row in m[rank + 1:] if any(row)]
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        entries = [(pc, m[i][pc], m[i][fc]) for i, pc in enumerate(pivots) if m[i][fc]]
        scale = lcm(*(abs(a) for _, a, _ in entries))
        vec = [0] * ncols
        vec[fc] = scale
        for pc, a, v in entries:
            vec[pc] = -v * (scale // a)
        g = gcd(*vec)
        sign = -1 if next(v for v in vec if v) < 0 else 1
        basis.append([sign * v // g for v in vec])
    return basis
