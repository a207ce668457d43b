import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from snul import (
    DegenerateLattice,
    InvalidConic,
    LatticeClass,
    LaurentSeries,
    Poly,
    SurdPoly,
    UnsupportedLatticeClass,
    apply_D,
    apply_D_series,
    apply_E_series,
    apply_M,
    apply_M_series,
    apply_shift,
    build_lattice,
    classify_lattice,
    lattice_points,
)
from snul.fieldext import parse_rational
from snul.lattice import _kernel_columns, _operator_series, classify_invariants

from conftest import (
    IMAGINARY_CONIC,
    NEGATIVE_N2_CONIC,
    REFERENCE_CONIC,
    SURD_CONIC,
    RootPair,
    inv_y1_pair,
    pair_dm_series,
    random_fraction,
    random_poly,
    random_rational_lattice,
    vertex_form_lattice,
)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


# ---------------------------------------------------------------------------
# construction and classification
# ---------------------------------------------------------------------------

class TestBuild:
    def test_reference_lattice_invariants(self, reference_lattice):
        lat = reference_lattice
        assert lat.p == Poly([0, F(5, 4)])
        assert lat.r == Poly([-1, 0, F(9, 16)])
        assert lat.lam == F(9, 16)
        assert lat.tau == F(-9, 16)
        assert lat.q_trace == F(17, 4)
        assert lat.lattice_class is LatticeClass.Q_QUADRATIC
        # q = 4 solves q + 1/q = q_trace
        assert F(4) + F(1, 4) == lat.q_trace

    def test_centered_r_when_bd_equals_ae(self):
        # b*d = a*e makes the vertex shift vanish: r has no x term
        lat = build_lattice(1, -2, 1, 3, -6, 1)
        assert lat.r.coefficient(1) == 0

    def test_r_matches_vertex_form(self):
        # r = p^2 - (c x^2 + 2 e x + f)/a against r written around its vertex
        shipped = [json.loads(path.read_text())["lattice"]
                   for path in sorted(PROBLEMS.glob("*.json"))]
        rng = random.Random(31)
        drawn = []
        while len(drawn) < 200:
            conic = [random_fraction(rng, 6) for _ in range(6)]
            a, b, c, d, e, f = conic
            lam = b * b - a * c
            if a and lam and lam * (d * d - a * f) != (b * d - a * e) ** 2:
                drawn.append(conic)
        conics = [REFERENCE_CONIC, SURD_CONIC, IMAGINARY_CONIC] + shipped + drawn
        assert len(shipped) == 4
        for conic in conics:
            conic = [parse_rational(v) for v in conic]
            lat = build_lattice(*conic)
            p, r, lam, tau, q_trace = vertex_form_lattice(*conic)
            assert (lat.p.nums, lat.p.den) == (p.nums, p.den), conic
            assert (lat.r.nums, lat.r.den) == (r.nums, r.den), conic
            assert (lat.lam, lat.tau, lat.q_trace) == (lam, tau, q_trace), conic

    def test_c_zero_degenerate_at_first_table_use(self):
        # y1 y2 = (c x^2 + 2 e x + f)/a loses its x^2 term: the lattice is
        # built, and the kernel columns of D and M refuse at the first image
        # of a series with negative powers
        lat = build_lattice(1, 2, 0, 0, 1, 1)
        x = Poly([0, 1])
        assert _operator_series(lat, LaurentSeries(1, [1], 4)) == (
            LaurentSeries.from_poly(apply_D(lat, x), 5),
            LaurentSeries.from_poly(apply_M(lat, x), 4))
        with pytest.raises(DegenerateLattice, match="y_2 has degenerate"):
            _operator_series(lat, LaurentSeries(-1, [1], 4))
        with pytest.raises(DegenerateLattice, match="y_2 has degenerate"):
            _kernel_columns(lat, 4)

    def test_invalid_conic(self):
        with pytest.raises(InvalidConic):
            build_lattice(0, 1, 1, 0, 0, 1)

    def test_unsupported_classes(self):
        with pytest.raises(UnsupportedLatticeClass):
            build_lattice(1, 0, 0, 0, 0, 1)      # lambda = tau = 0
        with pytest.raises(UnsupportedLatticeClass):
            build_lattice(1, 1, 1, 0, 0, 0)      # tau = 0, lambda != 0
        with pytest.raises(UnsupportedLatticeClass):
            build_lattice(1, 1, 1, 0, 1, 0)      # lambda = 0, tau != 0

    def test_classification_table(self, reference_lattice):
        assert classify_lattice(reference_lattice) is LatticeClass.Q_QUADRATIC
        assert classify_invariants(F(0), F(0)) is LatticeClass.LINEAR
        assert classify_invariants(F(1), F(0)) is LatticeClass.Q_LINEAR
        assert classify_invariants(F(0), F(2)) is LatticeClass.QUADRATIC
        assert classify_invariants(F(9, 16), F(-9, 16)) is LatticeClass.Q_QUADRATIC

    def test_surd_lattice_field(self, surd_lattice):
        # sqrt(lambda) = sqrt(5) lies outside Q, and so does the leading
        # coefficient of sqrt(r): the sqrt(r) expansion is refused
        assert surd_lattice.lam == 5
        assert surd_lattice.r.leading_coefficient() == F(5, 4)
        with pytest.raises(ValueError, match="not the square of a rational"):
            surd_lattice.sqrt_r_series(4)

    def test_imaginary_lattice(self):
        lat = build_lattice(*IMAGINARY_CONIC)
        assert lat.lam == -1
        assert lat.lattice_class is LatticeClass.Q_QUADRATIC


# ---------------------------------------------------------------------------
# operators on polynomials
# ---------------------------------------------------------------------------

class TestPolyOperators:
    def test_shift_of_x_is_branch(self, reference_lattice):
        lat = reference_lattice
        x = Poly.x()
        e1 = apply_shift(lat, x, 1)
        assert e1.u == lat.p and e1.v == Poly.constant(-1)
        e2 = apply_shift(lat, x, 2)
        assert e2.u == lat.p and e2.v == Poly.constant(1)

    def test_shift_of_constant(self, reference_lattice):
        lat = reference_lattice
        c = Poly.constant(F(7, 3))
        img = apply_shift(lat, c, 2)
        assert img.u == c and img.v.is_zero

    def test_shift_of_x_squared(self, reference_lattice):
        lat = reference_lattice
        x2 = Poly([0, 0, 1])
        img = apply_shift(lat, x2, 2)
        assert img.u == lat.p * lat.p + lat.r
        assert img.v == lat.p * 2

    def test_D_of_linear_is_one(self, reference_lattice):
        lat = reference_lattice
        x = Poly.x()
        for beta in (0, F(3, 2), -4):
            assert apply_D(lat, x - beta) == Poly.one()

    def test_D_M_of_x_squared(self, reference_lattice):
        lat = reference_lattice
        x2 = Poly([0, 0, 1])
        assert apply_D(lat, x2) == Poly([0, F(5, 2)])      # y1 + y2
        assert apply_M(lat, x2) == Poly([-1, 0, F(17, 8)])  # p^2 + r

    def test_degree_law(self, rational_lattices):
        rng = random.Random(123)
        for lat in rational_lattices:
            for _ in range(12):
                f = random_poly(rng, max_degree=8, min_degree=1)
                assert apply_D(lat, f).degree == f.degree - 1
                assert apply_M(lat, f).degree == f.degree
            assert apply_D(lat, Poly.constant(5)).is_zero


# ---------------------------------------------------------------------------
# the operator identity suite (shared with the acceptance tests)
# ---------------------------------------------------------------------------

def delta_y(lat) -> SurdPoly:
    """Delta_y = y2 - y1 = 2 sqrt(r)."""
    return SurdPoly(Poly.zero(), Poly.constant(2), lat.r)


def check_product_quotient_identities(lat, f: Poly, g: Poly):
    """The product/quotient rules for D and M, quotient forms cleared of
    denominators, all as exact identities in K[x][sqrt(r)]."""
    e1f, e2f = apply_shift(lat, f, 1), apply_shift(lat, f, 2)
    e1g, e2g = apply_shift(lat, g, 1), apply_shift(lat, g, 2)
    df, mf = e2f.v, e2f.u
    dg, mg = e2g.v, e2g.u
    gf = g * f
    d_gf, m_gf = apply_D(lat, gf), apply_M(lat, gf)
    delta = delta_y(lat)

    # D(gf) = Dg Mf + Mg Df and M(gf) = Mg Mf + (Delta^2/4) Dg Df
    assert d_gf == dg * mf + mg * df
    assert m_gf == mg * mf + lat.r * dg * df
    # equivalent product forms through E1/E2
    assert SurdPoly.from_poly(d_gf, lat.r) == dg * e1f + df * e2g
    assert SurdPoly.from_poly(d_gf, lat.r) == dg * e2f + df * e1g
    # quotient rules, multiplied through by E1f E2f (and Delta_y where the
    # divided difference of the quotient appears):
    #   D(g/f) E1f E2f Delta_y = E2g E1f - E1g E2f
    lhs = e2g * e1f - e1g * e2f
    assert lhs == delta * (dg * mf - df * mg)          # central D-quotient
    assert lhs == delta * (dg * e1f - df * e1g)        # E1 form
    assert lhs == delta * (dg * e2f - df * e2g)        # E2 form
    # M(g/f) 2 E1f E2f = E1g E2f + E2g E1f, whose right side must be a
    # polynomial; with g = 1 it collapses to M(1/f) E1f E2f = Mf
    sym = e1g * e2f + e2g * e1f
    assert sym.is_polynomial
    assert sym == (mg * mf * 2 - lat.r * 2 * dg * df)  # identE1E2 in M/D form


def check_lemma_identities(lat, f: Poly, g: Poly):
    """Lemma: polynomiality of E1f E2f, Mf, (E1f)^2 + (E2f)^2, and the two
    mixed identities."""
    e1f, e2f = apply_shift(lat, f, 1), apply_shift(lat, f, 2)
    e1g, e2g = apply_shift(lat, g, 1), apply_shift(lat, g, 2)
    df, mf = e2f.v, e2f.u
    dg, mg = e2g.v, e2g.u

    prod = e1f * e2f
    assert prod.is_polynomial
    summ = e1f + e2f
    assert summ.is_polynomial and summ.u == mf * 2
    squares = e1f * e1f + e2f * e2f
    assert squares.is_polynomial
    assert squares.u == mf * mf * 4 - prod.u * 2
    # E1f E2g + E1g E2f = 2 Mg Mf - (Delta^2/2) Dg Df
    assert e1f * e2g + e1g * e2f == mg * mf * 2 - lat.r * 2 * dg * df
    # -Df E1g + Dg E1f = 2 Mf Dg - D(gf)
    assert e1f * dg - e1g * df == SurdPoly.from_poly(
        mf * dg * 2 - apply_D(lat, g * f), lat.r
    )


class TestOperatorLaws:
    def test_product_quotient_rules(self, rational_lattices, surd_lattice):
        rng = random.Random(42)
        for lat in list(rational_lattices) + [surd_lattice]:
            for _ in range(8):
                f = random_poly(rng, max_degree=6, min_degree=1)
                g = random_poly(rng, max_degree=6)
                check_product_quotient_identities(lat, f, g)

    def test_lemma_identities(self, rational_lattices, surd_lattice):
        rng = random.Random(43)
        for lat in list(rational_lattices) + [surd_lattice]:
            for _ in range(8):
                f = random_poly(rng, max_degree=6, min_degree=1)
                g = random_poly(rng, max_degree=5)
                check_lemma_identities(lat, f, g)

    def test_random_lattices(self):
        rng = random.Random(44)
        for _ in range(5):
            lat = random_rational_lattice(rng)
            f = random_poly(rng, max_degree=5, min_degree=1)
            g = random_poly(rng, max_degree=4, min_degree=1)
            check_product_quotient_identities(lat, f, g)
            check_lemma_identities(lat, f, g)


# ---------------------------------------------------------------------------
# operators on series
# ---------------------------------------------------------------------------

class TestSeriesOperators:
    def test_agrees_with_shift_on_polynomials(self, rational_lattices, surd_lattice):
        rng = random.Random(77)
        for lat in list(rational_lattices) + [surd_lattice]:
            f = random_poly(rng, max_degree=4, min_degree=1)
            emb = LaurentSeries.from_poly(f, 10)
            ds, ms = _operator_series(lat, emb)
            assert ds.agrees_with(LaurentSeries.from_poly(apply_D(lat, f), 11))
            assert ms.agrees_with(LaurentSeries.from_poly(apply_M(lat, f), 10))
            if lat is surd_lattice:
                continue          # sqrt(r) has no expansion over Q
            for j in (1, 2):
                img = apply_shift(lat, f, j)
                expect = LaurentSeries.from_poly(img.u, 10)
                if not img.v.is_zero:
                    expect = expect + lat.sqrt_r_series(14).mul_poly(img.v)
                assert apply_E_series(lat, emb, j).agrees_with(expect)

    def test_product_of_shifted_inverses(self, reference_lattice):
        # S = 1/x: (E1 S)(E2 S) = 1/(y1 y2) = a / (c x^2 + 2 e x + f)
        lat = reference_lattice
        s = LaurentSeries(-1, [1], 8)
        e1, e2 = apply_E_series(lat, s, 1), apply_E_series(lat, s, 2)
        quadratic = Poly([1, 0, 1])       # x^2 + 1 here
        expect = LaurentSeries.from_poly(quadratic, 12).inverse()
        assert (e1 * e2).agrees_with(expect)

    def test_D_of_constant_series(self, reference_lattice):
        lat = reference_lattice
        c = LaurentSeries.constant(F(3, 7), 8)
        assert apply_D_series(lat, c).is_zero_within_window()

    def test_M_minus_identity_leading_term(self, reference_lattice):
        # leading coefficient of M(x^-1) is the average of the 1/y_j leading
        # terms, (c1 + c2)/(2 c1 c2) = -b/c; the x^-1 term of MS - S is
        # (-b/c - 1) u_0.
        lat = reference_lattice
        s = LaurentSeries(-1, [1, F(1, 2)], 6)
        ms = apply_M_series(lat, s)
        lead = -lat.b_hat / lat.c_hat
        assert (ms - s).coefficient(-1) == lead - 1
        # on a lattice with b = -c the difference really is O(x^-2)
        lat2 = build_lattice(*IMAGINARY_CONIC)
        s2 = LaurentSeries(-1, [1, F(1, 2)], 6)
        diff = apply_M_series(lat2, s2) - s2
        assert diff.coefficient(-1) == 0
        assert diff.coefficient(0) == 0

    def test_quotient_rules_on_series(self, reference_lattice):
        # D(1/f) = -Df/(E1f E2f) and M(1/f) = Mf/(E1f E2f): the left sides
        # go through series inversion and composition, the right sides
        # through polynomial images; both must agree within the window.
        rng = random.Random(5)
        lat = reference_lattice
        for _ in range(4):
            f = random_poly(rng, max_degree=3, min_degree=1)
            inv = LaurentSeries.from_poly(f, 12).inverse()
            e1f, e2f = apply_shift(lat, f, 1), apply_shift(lat, f, 2)
            prod = (e1f * e2f).u
            inv_prod = LaurentSeries.from_poly(prod, 16).inverse()
            lhs_d = apply_D_series(lat, inv)
            rhs_d = -inv_prod.mul_poly(apply_D(lat, f))
            assert lhs_d.agrees_with(rhs_d)
            lhs_m = apply_M_series(lat, inv)
            rhs_m = inv_prod.mul_poly(apply_M(lat, f))
            assert lhs_m.agrees_with(rhs_m)

    def test_degenerate_branch_rejected(self):
        # c = 0 makes y1 y2 degenerate: one branch loses its leading term and
        # its 1/y_j expansion does not exist.
        for conic, branch in (
            ((1, 2, 0, 0, 1, 1), 2),      # p = -2x: y_2 = p + sqrt(r) loses its x term
            ((1, -2, 0, 0, 1, 1), 1),     # p = 2x: y_1 = p - sqrt(r) loses its x term
        ):
            lat = build_lattice(*conic)
            assert lat.q_trace is None
            s = LaurentSeries(-1, [1], 6)
            # both E_j go through the kernel of D and M, which needs y1 y2 to keep its
            # x^2 term; the error names the branch without an x term
            for j in (1, 2):
                with pytest.raises(DegenerateLattice, match=f"y_{branch} has degenerate"):
                    apply_E_series(lat, s, j)


def repeated_product_E_series(lat, s, j):
    """Composition with y_j where every power of 1/y_j comes from a fresh
    run of repeated products, w^k = w^(k-1) * w: the oracle for
    apply_E_series on lattices where sqrt(r) expands over Q."""
    n_s = s.truncation_order
    depth = n_s + 2
    acc = LaurentSeries.zero(depth)
    top = s._effective_top()
    if top >= 0:
        poly_part = Poly([s._padded(e) for e in range(top + 1)])
        if not poly_part.is_zero:
            image = apply_shift(lat, poly_part, j)
            ser = LaurentSeries.from_poly(image.u, depth)
            if not image.v.is_zero:
                ser = ser + lat.sqrt_r_series(depth).mul_poly(image.v)
            acc = acc + ser
    bottom = max(-n_s, s.lowest_power - len(s.coefficients) + 1) if s.coefficients else 0
    if bottom <= -1:
        w = lat.inv_y_series(j, depth)
        wpow = w
        for e in range(-1, bottom - 1, -1):
            if e < -1:
                wpow = wpow * w
            c = s._padded(e)
            if c:
                acc = acc + wpow * c
    return acc.restrict(min(acc.truncation_order, n_s))


def random_series(rng, window):
    top = rng.randint(-3, 2)
    coeffs = [random_fraction(rng) + random_fraction(rng)
              for _ in range(rng.randint(1, top + window + 1))]
    return LaurentSeries(top, coeffs, window)


class TestSeriesWindows:
    """D S, M S and E_j S of a moment series with window n are known down to
    x^-(n+1), x^-n and x^-n: each result is claimed exactly as deep as its
    arithmetic goes, and every claimed coefficient is right.  E_j S is a
    series over Q on the reference lattice only; on the others its images
    are the pair (M S, -/+ D S) of the pair oracle."""

    @pytest.mark.parametrize("conic", [REFERENCE_CONIC, SURD_CONIC, IMAGINARY_CONIC])
    def test_windows_are_tight(self, conic):
        lat = build_lattice(*conic)
        rng = random.Random(1308)
        moments = [F(1)] + [random_fraction(rng) or F(1) for _ in range(12)]
        windows = {}
        for cut in (0, 1):
            s = LaurentSeries.from_moments(moments[:len(moments) - cut])
            n = s.truncation_order
            ds, ms = apply_D_series(lat, s), apply_M_series(lat, s)
            windows[cut] = [ds.truncation_order, ms.truncation_order]
            # the deepest claimed coefficient of each, against the pair oracle
            o_d, o_m = pair_dm_series(lat, s)
            assert ds.coefficient(-(n + 1)) == o_d.coefficient(-(n + 1))
            assert ms.coefficient(-n) == o_m.coefficient(-n)
            if conic is REFERENCE_CONIC:
                es = [apply_E_series(lat, s, j) for j in (1, 2)]
                windows[cut] += [e.truncation_order for e in es]
                for j, e in zip((1, 2), es):
                    oracle = repeated_product_E_series(lat, s, j)
                    assert e.coefficient(-n) == oracle.coefficient(-n)
            assert windows[cut] == [n + 1, n, n, n][:len(windows[cut])]
        # dropping the last moment shortens every window by exactly one
        assert all(a - b == 1 for a, b in zip(windows[0], windows[1]))


# N = p^2 - r = 2x^2 - 4x + 3
DENSE_N_CONIC = (1, F(-1, 3), 2, F(1, 5), -2, 3)


def fraction_dm_table(lattice, depth, count):
    """Rows 0..count of the table of D x^-k and M x^-k at depth `depth`, by
    the recurrence over Q of the integer row table that the kernel columns
    replaced: row k is (D x^-k, M x^-k), from D 1 = 0, M 1 = 1 and

        D x^(-k-1) = (p D x^(-k) - M x^(-k)) / N,
        M x^(-k-1) = (p M x^(-k) - r D x^(-k)) / N."""
    _ZERO = F(0)
    table_depth = max(depth, 2)
    rows = (((_ZERO,) * (table_depth + 1),
             (F(1),) + (_ZERO,) * table_depth),)
    p0, p1 = (lattice.p.coefficient(i) for i in (0, 1))
    r0, r1, r2 = (lattice.r.coefficient(i) for i in (0, 1, 2))
    n0, n1, n2 = p0 * p0 - r0, 2 * p0 * p1 - r1, p1 * p1 - r2
    inv_n2 = 1 / n2
    zeros = (_ZERO,) * (table_depth + 1)

    def over_n(numerator, lead, x1=_ZERO):
        # g = f / N, f[i] = numerator(i) the x^(-i) coefficient; g has
        # x1 at x^-1 and is zero above x^(-lead) otherwise
        g = list(zeros)
        g[1] = x1
        for j in range(lead, table_depth + 1):
            g[j] = (numerator(j - 2) - n1 * g[j - 1] - n0 * g[j - 2]) * inv_n2
        return tuple(g)

    grown = list(rows)
    while len(grown) <= count:
        # D x^(-k-1) leads at x^(-k-2) at the highest, M x^(-k-1) at
        # x^(-k-1); only p M 1 = p reaches x^1, where M x^-1 = p/N starts
        k = len(grown) - 1
        d, m = grown[-1]
        grown.append((
            over_n(lambda i: p0 * d[i] + p1 * d[i + 1] - m[i], k + 2),
            over_n(lambda i: (p0 * m[i] + p1 * m[i + 1]
                              - r0 * d[i] - r1 * d[i + 1] - r2 * d[i + 2]),
                   max(k + 1, 2), p1 * inv_n2 if k == 0 else _ZERO),
        ))
    return tuple(grown)


def column_images(lattice, depth, k):
    """D x^-k and M x^-k, k >= 1, down to x^-depth, read off the kernel
    columns: the images of S = u_t[1/(x - t)] with u_(k-1) = 1 alone."""
    cg, g, q2, cols, mcols = _kernel_columns(lattice, depth)
    j = k - 1
    d = [F(-cg * cols[i][j], q2 ** (i - 1)) if j < len(cols[i]) else F(0)
         for i in range(depth + 1)]
    m = [F(mcols[i][j], g * q2 ** i) if j < len(mcols[i]) else F(0)
         for i in range(depth + 1)]
    return d, m


class TestPowerTable:
    @pytest.mark.parametrize("conic", [REFERENCE_CONIC, SURD_CONIC, IMAGINARY_CONIC,
                                       NEGATIVE_N2_CONIC])
    def test_matches_repeated_products(self, conic):
        lat = build_lattice(*conic)
        rng = random.Random(1306)
        # odd and even windows: on the last conic q2 < 0, so the common
        # denominator q2^(n-1) of an image changes sign with its window
        for window in (6, 4, 12, 9, 16, 7, 20):
            for _ in range(3):
                s = random_series(rng, window)
                # (D s, M s) on every lattice, against the pair oracle on
                # the windows they claim
                assert _operator_series(lat, s) == pair_dm_series(lat, s)
                if conic is REFERENCE_CONIC:
                    for j in (1, 2):
                        got = apply_E_series(lat, s, j)
                        assert got == repeated_product_E_series(lat, s, j)
        if conic is NEGATIVE_N2_CONIC:
            assert _kernel_columns(lat, 1)[2] < 0

    @pytest.mark.parametrize("conic", [REFERENCE_CONIC, SURD_CONIC, IMAGINARY_CONIC])
    def test_rows_match_repeated_products(self, conic):
        # D x^-k and M x^-k off the kernel columns; the oracle reads them off
        # E_1 x^-k = (1/y_1)^k = M x^-k - sqrt(r) D x^-k, by repeated
        # products of the pair 1/y_1 = (p + sqrt(r)) / N
        lat = build_lattice(*conic)
        depth = 24
        w = inv_y1_pair(lat, depth)
        power = RootPair.rational(LaurentSeries.constant(1, depth + 2), lat.r)
        for k in range(1, 22):
            power = power * w
            d_oracle, m_oracle = -power.v, power.u
            assert min(d_oracle.truncation_order, m_oracle.truncation_order) >= depth
            d, m = column_images(lat, depth, k)
            assert LaurentSeries(0, d, depth).agrees_with(d_oracle)
            assert LaurentSeries(0, m, depth).agrees_with(m_oracle)

    @pytest.mark.parametrize("conic", [REFERENCE_CONIC, SURD_CONIC, IMAGINARY_CONIC,
                                       DENSE_N_CONIC])
    def test_integer_rows_match_fraction_recurrence(self, conic):
        # [x^-i] D x^-(j+1) = -c' C_ij / q2^(i-1), and M x^-(j+1) off the
        # M column, against the rows of the recurrence over Q; rows k > depth
        # are zero down to x^-depth
        lat = build_lattice(*conic)
        for depth, count in ((20, 5), (20, 44), (44, 44)):
            cg, g, q2, cols, mcols = _kernel_columns(lat, depth)
            assert len(cols) == depth + 2 and len(mcols) == depth + 1
            assert all(type(v) is int for col in cols + mcols for v in col)
            assert all(len(col) == i - 1 for i, col in enumerate(cols) if i >= 2)
            assert all(len(col) == i for i, col in enumerate(mcols))
            expected = fraction_dm_table(lat, depth, count)
            assert len(expected) == count + 1
            for k, want in enumerate(expected[1:], 1):
                assert column_images(lat, depth, k) == tuple(list(v) for v in want)
        if conic is DENSE_N_CONIC:
            # every term of N is nonzero and its scaled leading coefficient
            # is not a unit
            assert lat.p * lat.p - lat.r == Poly([3, -4, 2])
            assert abs(q2) > 1

    def test_shared_lattice_across_threads(self):
        import sys
        import threading

        rng = random.Random(1307)
        oracle_lat = build_lattice(*REFERENCE_CONIC)
        cases = [(random_series(rng, window), j)
                 for window in (5, 14, 8, 18, 11, 3) for j in (1, 2)]
        expected = [repeated_product_E_series(oracle_lat, s, j) for s, j in cases]
        lat = build_lattice(*REFERENCE_CONIC)     # shared, its integer form formed concurrently
        results = {}

        def worker(w):
            order = cases[w:] + cases[:w]
            for rep in range(3):
                for idx, (s, j) in enumerate(order):
                    got = apply_E_series(lat, s, j)
                    results[(w, idx, rep)] = got == expected[(idx + w) % len(cases)]

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(w,)) for w in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(th.is_alive() for th in threads)
        assert len(results) == 6 * 3 * len(cases) and all(results.values())


# ---------------------------------------------------------------------------
# float diagnostics
# ---------------------------------------------------------------------------

class TestLatticePoints:
    def test_reference_points(self, reference_lattice):
        pts = lattice_points(reference_lattice, 4)
        assert pts is not None
        # x(s) = (2/3)(4^s + 4^-s)
        for s, value in enumerate(pts):
            assert value == pytest.approx((2 / 3) * (4 ** s + 4 ** -s), rel=1e-9)

    def test_asymmetric_conic_unavailable(self, surd_lattice):
        assert lattice_points(surd_lattice, 3) is None
