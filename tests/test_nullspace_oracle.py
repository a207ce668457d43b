"""The fit's integer nullspace against Gauss-Jordan over Fraction.

`reference_nullspace` is the elimination the fit used before it worked over
the integers: Gauss-Jordan over Fraction with the pivot scaled to 1, then each
reduced-row-echelon basis vector cleared of denominators, divided by its
content and signed so that its first nonzero entry is positive.  That basis is
unique, so `_nullspace` must return it entry for entry, whatever the row
scaling and the choice of pivot rows.
"""
import random
from fractions import Fraction as F
from math import gcd, lcm

import pytest

from snul.fieldext import _nullspace


def reference_nullspace(rows, ncols):
    m = [[F(v) for v in row] for row in rows]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        pivot_row = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        pivots.append(col)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [F(0)] * ncols
        vec[fc] = F(1)
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -m[prow][fc]
        basis.append(_normalize(vec))
    return basis


def _normalize(vec):
    cleared = [q * lcm(*(q.denominator for q in vec)) for q in vec]
    g = gcd(*(q.numerator for q in cleared))
    cleared = [q / g for q in cleared]
    if next(q for q in cleared if q) < 0:
        cleared = [-q for q in cleared]
    return cleared


def _check(rows, ncols, rank=None):
    got = _nullspace(rows, ncols)
    want = reference_nullspace(rows, ncols)
    if rank is not None:
        assert len(want) == ncols - rank
    assert all(type(v) is int for vec in got for v in vec)
    assert got == want
    for vec in got:
        assert all(sum(a * v for a, v in zip(row, vec)) == 0 for row in rows)


def _fraction(rng, num_bits, den_bits):
    num = rng.getrandbits(num_bits) * rng.choice((1, -1))
    return F(num, rng.getrandbits(den_bits) + 1)


def _matrix_of_rank(rng, nrows, ncols, rank, num_bits=4, den_bits=3):
    """nrows x ncols as (nrows x rank) times (rank x ncols); the rank is
    checked against the reference."""
    left = [[_fraction(rng, num_bits, den_bits) for _ in range(rank)] for _ in range(nrows)]
    right = [[_fraction(rng, num_bits, den_bits) for _ in range(ncols)] for _ in range(rank)]
    return [[sum((left[i][k] * right[k][j] for k in range(rank)), F(0))
             for j in range(ncols)] for i in range(nrows)]


@pytest.mark.parametrize("ncols", [1, 2, 3, 5, 8])
def test_every_rank(ncols):
    rng = random.Random(1000 + ncols)
    for rank in range(ncols + 1):
        for _ in range(4):
            nrows = rng.randint(max(rank, 1), ncols + 4)
            _check(_matrix_of_rank(rng, nrows, ncols, rank), ncols, rank)


def test_more_columns_than_rows():
    rng = random.Random(7)
    for _ in range(20):
        ncols = rng.randint(4, 12)
        nrows = rng.randint(1, ncols - 1)
        rank = rng.randint(0, nrows)
        _check(_matrix_of_rank(rng, nrows, ncols, rank), ncols, rank)


def test_zero_rows_and_columns():
    rng = random.Random(11)
    for _ in range(20):
        ncols = rng.randint(3, 9)
        rank = rng.randint(1, ncols - 1)
        rows = _matrix_of_rank(rng, rng.randint(rank, ncols + 2), ncols, rank)
        for _ in range(rng.randint(1, 3)):
            rows.insert(rng.randint(0, len(rows)), [F(0)] * ncols)
        dead = rng.sample(range(ncols), rng.randint(1, ncols - 1))
        rows = [[F(0) if j in dead else v for j, v in enumerate(row)] for row in rows]
        _check(rows, ncols)


@pytest.mark.parametrize("nrows", [0, 1, 4])
def test_all_zero_matrix(nrows):
    ncols = 5
    _check([[F(0)] * ncols for _ in range(nrows)], ncols, 0)
    assert _nullspace([[F(0)] * ncols] * nrows, ncols) == [
        [int(i == j) for i in range(ncols)] for j in range(ncols)]


def test_coprime_and_large_denominators():
    rng = random.Random(13)
    primes = [10007, 10009, 10037, 10039, 2 ** 61 - 1, 2 ** 89 - 1]
    for _ in range(20):
        ncols = rng.randint(3, 8)
        rank = rng.randint(0, ncols)
        rows = _matrix_of_rank(rng, rng.randint(max(rank, 1), ncols + 3), ncols, rank)
        # divide each row and each column by a prime: the rank is unchanged,
        # and entries of one row carry coprime denominators
        col_primes = rng.choices(primes, k=ncols)
        rows = [[v / (p * q) for v, q in zip(row, col_primes)]
                for row, p in zip(rows, rng.choices(primes, k=len(rows)))]
        _check(rows, ncols, rank)


def test_entries_of_several_hundred_bits():
    rng = random.Random(17)
    for _ in range(6):
        ncols = rng.randint(3, 7)
        rank = rng.randint(1, ncols)
        rows = _matrix_of_rank(rng, rng.randint(rank, ncols + 2), ncols, rank,
                               num_bits=300, den_bits=200)
        _check(rows, ncols, rank)


def test_negative_first_entry_is_flipped():
    # x0 + x1 = 0: the reduced-row-echelon vector is (-1, 1), returned as (1, -1)
    assert _nullspace([[F(1, 2), F(1, 2)]], 2) == [[1, -1]]
    # rows with different denominators: 2 x0 = 3 x1, nullspace (3, 2)
    assert _nullspace([[F(2, 3), F(-1, 1)], [F(1, 7), F(-3, 14)]], 2) == [[3, 2]]
