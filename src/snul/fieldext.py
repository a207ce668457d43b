"""Coefficient arithmetic: exact rationals in transit, integers in the kernels.

Every coefficient in the package is rational.  No computation needs
sqrt(r) as a number: D and M map Q[x] and Q((1/x)) into themselves, and a
sqrt(r) that appears stays symbolic, as v in a pair u + sqrt(r) v.

`Poly` and `LaurentSeries` hold their coefficients as integer numerators
over one denominator; the kernels here work on those integers.
`_int_dot`, a sum of weighted products cut at a length, is the one exact
kernel, of products and sums alike, and `_reduced` the one normalisation,
a single gcd per result.

`_nullspace` is the fit's exact nullspace: full column rank modulo one
word-size prime P proves the usual answer of a fit, an empty nullspace,
without keeping a number past P; else `_exact_nullspace`, fraction-free
elimination over the integers, decides.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence


def parse_rational(text) -> Fraction:
    """Parse "p/q" / "p" strings (or ints) into an exact Fraction: "p", "-p"
    and "p/q" in ASCII digits by int(), any other string by Fraction(str)."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        num, slash, den = text.partition("/")
        if text.isascii() and num.removeprefix("-").isdecimal() and (den.isdecimal() or not slash):
            return Fraction(int(num), int(den or 1))
        return Fraction(text)
    raise TypeError(f"cannot parse rational from {text!r}")


def format_rational(value: Fraction | int, den: int = 1) -> str:
    """value / den as str(Fraction) writes it, "p/q" in lowest terms or "p":
    a Fraction value as it is (den 1), an int over the int den > 0 reduced
    by one gcd."""
    if value.__class__ is Fraction:
        return str(value)
    g = gcd(value, den)
    return str(value // g) if g == den else f"{value // g}/{den // g}"


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


def _reduced(nums: list[int], den: int) -> tuple[list[int], int]:
    """nums / den with gcd(den, *nums) = 1, for den > 0; all-zero numerators
    come back over 1."""
    g = gcd(den, *nums)
    if g == 1:
        return nums, den
    return [a // g for a in nums], den // g


# the largest prime below 2**30, the modulus of the fit's rank certificate
P = 1073741789


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _nullspace(rows: Iterable[Sequence[Fraction | int]], ncols: int) -> list[list[int]]:
    """Primitive integer basis of the nullspace of a matrix over Q.

    The rows, of ints or Fractions, are read one at a time and kept, a row
    with a Fraction in it cleared to integers (the nullspace stays the
    same).  Each is also reduced modulo the prime P against the pivot rows
    so far mod P, in the order they were found, each step touching only the
    entries from its pivot column on: a pivot row is zero before its pivot
    column and in the pivot columns found before it, so a column once
    cleared stays clear.

    A matrix of full column rank mod P has full column rank over Q: one of
    its ncols x ncols minors is nonzero mod P, so it is a nonzero integer.
    So once the rank mod P reaches ncols, [] comes back and no further row
    is read.  That is all that is concluded mod P: a lower rank mod P says
    nothing, since P may divide every maximal minor.

    A row scaled by a nonzero integer scales each minor by an integer, so
    rows need not be primitive here: one whose content P divides only sends
    the job to the fallback.  When the rows run out below full rank mod P,
    `_exact_nullspace` decides over the rows read, made primitive, the pivot
    rows mod P first.  These are independent over Q, as a minor of them is
    nonzero mod P, so unless P was unlucky it eliminates one more row only.
    Dumas, Giorgi and Pernet (ACM TOMS 2008) compute ranks this way over
    word-size prime fields; here it only certifies an empty nullspace.
    """
    independent, others, pivots = [], [], {}   # pivot column -> row mod P from it on, led by 1
    for row in rows:
        if any(c.__class__ is not int for c in row):
            den = lcm(*(c.denominator for c in row))
            row = [c.numerator * (den // c.denominator) for c in row]
        r = [v % P for v in row]
        for pc, pivot_row in pivots.items():
            c = r[pc]
            if c:
                r[pc:] = [(a - c * b) % P for a, b in zip(r[pc:], pivot_row)]
        lead = next((c for c, v in enumerate(r) if v), None)
        (others if lead is None else independent).append(row)
        if lead is not None:
            inv = pow(r[lead], -1, P)
            pivots[lead] = [v * inv % P for v in r[lead:]]
            if len(pivots) == ncols:
                return []
    return _exact_nullspace([_primitive(row) for row in independent + others], ncols)


def _exact_nullspace(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Primitive integer basis of the nullspace of primitive integer rows.

    The rows are reduced one at a time against the pivot rows so far, in
    column order, by fraction-free elimination: with pivot value a and entry
    b in its column, the row becomes a*row - b*pivot_row over the gcd of its
    entries, so the numbers stay near the size of the minors (as in Bareiss
    1968, where the common factor is a known minor).  No Fraction is formed.
    A row not then zero is the pivot row of its leading column; once every
    column has one, [] comes back.  Else the pivot rows are brought to
    reduced row echelon form, and the basis vector of free column c (1 at c,
    minus each pivot row's entry in column c at its pivot column) is cleared
    to integers, divided by its content and signed so that its first nonzero
    entry is positive.  That vector is unique, so the basis depends neither
    on the row scaling nor on the order or choice of pivot rows.  A row that
    reduces to zero is in the span of the pivot rows so far; the rows after
    it are only tested against their basis, and eliminated, with the pivot
    rows, only if some basis vector does not annihilate them.
    """
    def reduce(row, pc, pivot_row):
        a, b = pivot_row[pc], row[pc]
        return _primitive([a * x - b * y for x, y in zip(row, pivot_row)])

    echelon: dict[int, list[int]] = {}          # pivot column -> pivot row
    rows = iter(rows)
    for row in rows:
        for pc in sorted(echelon):
            if row[pc]:
                row = reduce(row, pc, echelon[pc])
        if not any(row):
            break
        echelon[next(c for c, v in enumerate(row) if v)] = row
        if len(echelon) == ncols:
            return []
    pivots = sorted(echelon)
    for i, pc in reversed(list(enumerate(pivots))):
        for above in pivots[:i]:
            if echelon[above][pc]:
                echelon[above] = reduce(echelon[above], pc, echelon[pc])
    basis = []
    for fc in (c for c in range(ncols) if c not in echelon):
        entries = [(pc, echelon[pc][pc], echelon[pc][fc]) for pc in pivots if echelon[pc][fc]]
        scale = lcm(*(abs(a) for _, a, _ in entries))
        vec = [0] * ncols
        vec[fc] = scale
        for pc, a, v in entries:
            vec[pc] = -v * (scale // a)
        g = gcd(*vec) if next(v for v in vec if v) > 0 else -gcd(*vec)
        basis.append([v // g for v in vec])
    outside = [row for row in rows if any(sum(map(mul, row, vec)) for vec in basis)]
    return _exact_nullspace(list(echelon.values()) + outside, ncols) if outside else basis
