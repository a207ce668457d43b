"""The fit's integer nullspace against Gauss-Jordan over Fraction.

`reference_nullspace` is the elimination the fit used before it worked over
the integers: Gauss-Jordan over Fraction with the pivot scaled to 1, then each
reduced-row-echelon basis vector cleared of denominators, divided by its
content and signed so that its first nonzero entry is positive.  That basis is
unique, so `_nullspace` must return it entry for entry, whatever the row
scaling and the choice of pivot rows.

`fraction_riccati_rows` is the way the fit built its rows before it read the
integer numerators of the series: Fractions read off `.coefficients`.  The
reference nullspace of those rows is what `riccati_nullspace` must return.
"""
import json
import random
from fractions import Fraction as F
from math import gcd, lcm
from pathlib import Path

import pytest

from snul import (LaurentSeries, build_lattice, fieldext, laguerre_hahn, riccati_nullspace,
                  solve_moments_from_riccati)
from snul.fieldext import P, _nullspace
from snul.laguerre_hahn import Workspace

from conftest import REFERENCE_CONIC, qhermite_corecursive_riccati, qhermite_riccati

DATA = Path(__file__).parent / "data"


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


def test_multiples_of_the_modulus():
    # rank deficient, some columns and some rows times a power of P: the
    # rank over Q is unchanged, the rank mod P drops, and the exact
    # elimination must give the basis over Q
    rng = random.Random(37)
    powers = (P, -P, P * P)
    for _ in range(20):
        ncols = rng.randint(3, 8)
        rank = rng.randint(1, ncols - 1)
        rows = _matrix_of_rank(rng, rng.randint(rank, ncols + 3), ncols, rank)
        col_scale = [rng.choice(powers) if rng.random() < 0.5 else 1 for _ in range(ncols)]
        row_scale = [rng.choice(powers) if rng.random() < 0.3 else 1 for _ in rows]
        rows = [[v * c * r for v, c in zip(row, col_scale)] for row, r in zip(rows, row_scale)]
        _check(rows, ncols, rank)


@pytest.mark.parametrize("kind", ["int", "Fraction"])
def test_row_whose_content_the_modulus_divides(kind, monkeypatch):
    # rows are not made primitive before the pass mod P, so a row P times a
    # row of the matrix is zero there: full column rank over Q is then not
    # seen mod P, and the exact elimination must answer over primitive rows
    handed = []
    exact = fieldext._exact_nullspace
    monkeypatch.setattr(fieldext, "_exact_nullspace",
                        lambda rows, ncols: handed.append(rows) or exact(rows, ncols))
    rng = random.Random(41)
    for _ in range(10):
        ncols = rng.randint(2, 7)
        for rank in (ncols, ncols - 1):
            rows = _matrix_of_rank(rng, ncols, ncols, rank)
            den = lcm(*(v.denominator for row in rows for v in row))
            rows = [[int(v * den) for v in row] for row in rows]
            del handed[:]
            if rank == ncols:
                # without the multiple of P the pass mod P answers alone
                assert _nullspace(rows, ncols) == [] and not handed, ncols
            i = rng.randrange(ncols)
            rows[i] = [v * P for v in rows[i]]
            if kind == "Fraction":
                rows[i] = [F(v, 3) for v in rows[i]]
            _check(rows, ncols, rank)
            assert len(handed) == 1, (ncols, rank)
            assert all(gcd(*row) in (0, 1) for row in handed[0]), (ncols, rank)


def test_rank_mod_P_below_rank_over_Q(monkeypatch):
    # the rows that were pivots mod P go first, and once a row they span
    # reduces to zero the rest are only tested against the basis of the
    # pivot rows; a last row P times one outside their span is zero mod P,
    # so it fails that test and the elimination goes on, over the pivot rows
    # and that row, to the basis over Q
    handed = []
    exact = fieldext._exact_nullspace
    monkeypatch.setattr(fieldext, "_exact_nullspace",
                        lambda rows, ncols: handed.append(rows) or exact(rows, ncols))
    rng = random.Random(43)
    for _ in range(10):
        ncols = rng.randint(4, 8)
        rank = rng.randint(2, ncols - 1)
        rows = _matrix_of_rank(rng, rank + 1, ncols, rank - 1)
        rows.append([P * _fraction(rng, 4, 3) for _ in range(ncols)])
        del handed[:]
        _check(rows, ncols, rank)
        assert [len(r) for r in handed] == [len(rows), rank], (ncols, rank)


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


def _recorded(rows, read):
    """rows, one at a time, each appended to the list read as it is taken."""
    for row in rows:
        read.append(row)
        yield row


def _wide_full_rank_prefix(rng, ncols):
    """Rows whose first full-rank prefix ends at the last row: a triangular
    matrix of 300-bit entries with a nonzero diagonal, its columns mixed by
    a unimodular matrix (full rank by construction), in a random order with
    combinations of the rows so far between them."""
    big = lambda: rng.getrandbits(300) * rng.choice((1, -1))
    rows = [[0] * i + [big() or 1] + [big() for _ in range(ncols - i - 1)] for i in range(ncols)]
    for _ in range(3 * ncols):
        i, j = rng.sample(range(ncols), 2)
        c = rng.randint(-3, 3)
        for row in rows:
            row[i] += c * row[j]
    rng.shuffle(rows)
    prefix = []
    for row in rows:
        for _ in range(rng.randint(0, 1) if prefix else 0):
            cs = [rng.randint(-2, 2) for _ in prefix]
            prefix.append([sum(c * r[k] for c, r in zip(cs, prefix)) for k in range(ncols)])
        prefix.append(row)
    return prefix


def test_full_column_rank_reads_no_further_row():
    # the rows after the first full-rank prefix are of several hundred bits;
    # once the rank reaches ncols, [] comes back and none of them is read
    rng = random.Random(19)

    def tail(ncols):
        return _matrix_of_rank(rng, rng.randint(1, 6), ncols, rng.randint(1, ncols),
                               num_bits=400, den_bits=300)

    cases = [(_matrix_of_rank(rng, ncols, ncols, ncols), tail(ncols), ncols)
             for ncols in (rng.randint(2, 8) for _ in range(10))]
    # 36 columns, as a fit at degree bounds 8,8,8,8, and a longer prefix
    cases.append((_wide_full_rank_prefix(rng, 36), tail(36), 36))
    # the determinant is P: rank 2 over Q but 1 mod P, so the mod-P stage
    # reads on to the end, and the exact elimination answers
    cases.append(([[1, 1], [1, 1 + P]], [], 2))
    for prefix, rest, ncols in cases:
        read = []
        assert _nullspace(_recorded(prefix + rest, read), ncols) == []
        assert read == prefix
        if ncols < 36:        # Gauss-Jordan over Fraction takes seconds at 36
            assert reference_nullspace(prefix, ncols) == []
            assert reference_nullspace(prefix[:-1], ncols) != []
            _check(prefix + rest, ncols, ncols)


def _echelon_generators(rng, ncols, rank):
    """rank rows with distinct leading columns, in ascending column order."""
    leads = sorted(rng.sample(range(ncols), rank))
    return [[F(0)] * lead + [_fraction(rng, 5, 3) or F(1)]
            + [_fraction(rng, 5, 3) for _ in range(ncols - lead - 1)] for lead in leads]


def test_pivot_rows_arrive_out_of_column_order():
    # row j leads at column lead_j, the generators come last leading column
    # first, each mixed with the generators after it, then combinations of all
    rng = random.Random(23)
    for _ in range(40):
        ncols = rng.randint(3, 9)
        rank = rng.randint(1, ncols - 1)
        gens = _echelon_generators(rng, ncols, rank)
        rows = []
        for j in reversed(range(rank)):
            row = list(gens[j])
            for later in gens[j + 1:]:
                c = _fraction(rng, 3, 2)
                row = [a + c * b for a, b in zip(row, later)]
            rows.append(row)
        for _ in range(rng.randint(0, 3)):
            cs = [_fraction(rng, 3, 2) for _ in gens]
            rows.append([sum((c * g[k] for c, g in zip(cs, gens)), F(0)) for k in range(ncols)])
        rng.shuffle(rows[rank:])
        _check(rows, ncols, rank)


def test_int_rows_and_mixed_rows():
    rng = random.Random(29)
    for _ in range(30):
        ncols = rng.randint(2, 8)
        rank = rng.randint(0, ncols)
        rows = _matrix_of_rank(rng, rng.randint(max(rank, 1), ncols + 3), ncols, rank)
        den = lcm(*(v.denominator for row in rows for v in row))
        ints = [[int(v * den) for v in row] for row in rows]
        assert all(type(v) is int for row in ints for v in row)
        _check(ints, ncols, rank)
        # each entry an int where it is one, a Fraction elsewhere
        mixed = [[int(v) if v.denominator == 1 and rng.random() < 0.7 else v for v in row]
                 for row in (ints[:1] + rows[1:])]
        assert _nullspace(mixed, ncols) == _nullspace(rows, ncols)
        _check(mixed, ncols, rank)


def fraction_riccati_rows(lattice, s, degree_bounds):
    """The rows of x^e, e from the top exponent down, as Fractions."""
    da, db, dc, dd = degree_bounds
    ws = Workspace(lattice, s)
    ds, ms = ws.dm()
    q = ws.e1e2()
    ds_c, q_c, ms_c = ({f.lowest_power - i: c for i, c in enumerate(f.coefficients)}
                       for f in (ds, q, ms))
    e_top = max(da + ds._effective_top(), db + q._effective_top(),
                dc + ms._effective_top(), dd)
    e_min = max(da - ds.truncation_order, db - q.truncation_order,
                dc - ms.truncation_order)
    rows = []
    for e in range(e_top, e_min - 1, -1):
        row = [ds_c.get(e - i, 0) for i in range(da + 1)]
        row += [-q_c.get(e - i, 0) for i in range(db + 1)]
        row += [-ms_c.get(e - i, 0) for i in range(dc + 1)]
        row += [-1 if e == i else 0 for i in range(dd + 1)]
        rows.append(row)
    return rows


def _riccati_moments(make, k=None, delta=0):
    """28 moments of the Riccati data make(lattice), the k-th moved by delta."""
    lattice = build_lattice(*REFERENCE_CONIC)
    moments = solve_moments_from_riccati(make(lattice), 28)
    if k is not None:
        moments[k] += delta
    return lattice, moments


def _random_moments():
    problem = json.loads((DATA / "random_moments.json").read_text(encoding="utf-8"))
    return build_lattice(*map(F, problem["lattice"])), [F(m) for m in problem["moments"]]


@pytest.mark.parametrize("make, empty", [
    (lambda: _riccati_moments(qhermite_riccati), False),
    (lambda: _riccati_moments(qhermite_corecursive_riccati), False),
    (_random_moments, True),
    (lambda: _riccati_moments(qhermite_riccati, 3, 1), True),
    (lambda: _riccati_moments(qhermite_riccati, 20, -1), True),
    (lambda: _riccati_moments(qhermite_corecursive_riccati, 10, 1), True),
], ids=["qhermite", "corecursive", "random_moments", "qhermite_u3+1", "qhermite_u20-1",
        "corecursive_u10+1"])
def test_riccati_rows_match_fraction_rows(make, empty, monkeypatch):
    bounds = (4, 4, 4, 4)
    lattice, moments = make()
    s = LaurentSeries.from_moments(moments)
    read = []
    monkeypatch.setattr(laguerre_hahn, "_nullspace",
                        lambda rows, ncols: _nullspace(_recorded(rows, read), ncols))
    got = riccati_nullspace(Workspace(lattice, s), bounds)
    fraction_rows = fraction_riccati_rows(lattice, s, bounds)
    assert got == reference_nullspace(fraction_rows, 20)
    assert (got == []) == empty
    # each row read is the row over Q times one positive integer, all ints
    assert all(type(v) is int for row in read for v in row)
    scale = F(next(a for a in read[0] if a)) / next(a for a in fraction_rows[0] if a)
    assert scale.denominator == 1 and scale > 0
    assert read == [[scale * v for v in row] for row in fraction_rows[:len(read)]]
    # reading stops at the first rows of full column rank, or at the end
    if empty:
        assert reference_nullspace(fraction_rows[:len(read)], 20) == []
        assert reference_nullspace(fraction_rows[:len(read) - 1], 20) != []
    else:
        assert len(read) == len(fraction_rows)
