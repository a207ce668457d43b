"""The exact product kernel against a schoolbook reference.

`fieldext.convolve` computes every Poly product, LaurentSeries product and
`mul_poly` on integer numerators over each operand's common denominator.
The references here multiply coefficient by coefficient with QuadNumber
arithmetic, one exact field operation per multiply-add, and index series
coefficients by exponent, so they share no code with the kernel.
"""
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snul import LaurentSeries, Poly, QuadField
from snul.fieldext import convolve

FIELDS = [QuadField.rationals(), QuadField(5), QuadField(-1)]
FIELD_IDS = ["Q", "Q(sqrt5)", "Q(sqrt-1)"]


def schoolbook(field, xs, ys, length):
    out = [field.zero] * length
    for i, a in enumerate(xs):
        for j, b in enumerate(ys):
            if i + j < length:
                out[i + j] = out[i + j] + a * b
    return out


def by_exponent(f):
    """{exponent: coefficient} of the known coefficients of a series."""
    return {f.lowest_power - i: c for i, c in enumerate(f.coefficients)}


def assert_series_product(prod, f_terms, g_terms, order, field):
    """prod agrees with the product of the two term dicts down to x^-order."""
    ref = {}
    for ea, a in f_terms.items():
        for eb, b in g_terms.items():
            ref[ea + eb] = ref.get(ea + eb, field.zero) + a * b
    assert prod.truncation_order == order
    top = max([0, *ref]) + 1
    for e in range(top, -order - 1, -1):
        assert prod.coefficient(e) == ref.get(e, field.zero), e


def series_window(f, g):
    """The product window: an unknown coefficient of either operand first
    reaches x^-(order+1)."""
    def top(s):
        return s.lowest_power if s.coefficients else -s.truncation_order - 1
    return min(f.truncation_order - top(g), g.truncation_order - top(f))


# Coefficient lists meant to hit what the kernel's integer bookkeeping can
# get wrong: zero and empty operands, interior zeros, one shared
# denominator, coprime denominators, surd parts on both sides.
def _cases(field):
    s = field(0, 1) if field.d != 1 else field(1)
    return [
        ([], [field(1), field(2)]),
        ([field(0)], [field(F(1, 3)), field(0), field(5)]),
        ([field(F(1, 6)), field(F(5, 6)), field(F(-7, 6))],
         [field(F(1, 6), F(1, 6)), field(F(-1, 6))]),
        ([field(F(1, 7)), field(0), field(0), field(F(3, 7), F(2, 7))],
         [field(F(2, 11), F(-1, 13)), field(0), field(F(5, 13))]),
        ([s, field(F(1, 2), F(1, 3))], [s, field(F(-1, 5), F(3, 4)), field(F(2, 9))]),
        ([field(F(2, 3), F(5, 7)), field(1), field(0), field(F(-4, 5))],
         [field(0), field(F(1, 9), F(1, 4))]),
    ]


class TestKernel:
    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    def test_matches_schoolbook_at_every_length(self, field):
        for xs, ys in _cases(field):
            full = len(xs) + len(ys) - 1 if xs and ys else 0
            for length in range(0, full + 3):
                for a, b in ((xs, ys), (ys, xs)):
                    out = convolve(field, a, b, length)
                    assert len(out) == length
                    assert out == schoolbook(field, a, b, length)

    def test_surd_parts_meet_in_the_rational_part(self):
        field = QuadField(5)
        # (1 + sqrt5)(1 - sqrt5) = -4, and (sqrt5 x + 1)^2 = 5x^2 + 2 sqrt5 x + 1
        assert convolve(field, [field(1, 1)], [field(1, -1)], 1) == [field(-4)]
        root5 = [field(1), field(0, 1)]
        assert convolve(field, root5, root5, 3) == [field(1), field(0, 2), field(5)]


coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=12)


def poly_strategy(field):
    entries = st.one_of(
        st.just((0, 0)), st.tuples(coefficients, st.just(0)), st.tuples(coefficients, coefficients))
    return st.lists(entries, max_size=7).map(
        lambda cs: Poly(field, [field(a, b) for a, b in cs]))


class TestPolyProducts:
    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    def test_fixed_cases(self, field):
        for xs, ys in _cases(field):
            a, b = Poly(field, xs), Poly(field, ys)
            n = len(a.coeffs) + len(b.coeffs) - 1 if a and b else 0
            assert (a * b).coeffs == Poly(field, schoolbook(field, a.coeffs, b.coeffs, n)).coeffs

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_against_schoolbook(self, field, data):
        a = data.draw(poly_strategy(field))
        b = data.draw(poly_strategy(field))
        n = len(a.coeffs) + len(b.coeffs) - 1 if a and b else 0
        assert a * b == Poly(field, schoolbook(field, a.coeffs, b.coeffs, n))


def random_series(rng, field, top, order, zero_share=0.3):
    def entry():
        if rng.random() < zero_share:
            return field(0)
        den = rng.choice([1, 2, 3, 7, 11, 12])
        a = F(rng.randint(-9, 9), den)
        b = F(rng.randint(-5, 5), rng.choice([1, 5, 13])) if rng.random() < 0.5 else 0
        return field(a, b)
    return LaurentSeries(field, top, [entry() for _ in range(max(top + order + 1, 0))], order)


class TestSeriesProducts:
    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    def test_fixed_cases(self, field):
        for xs, ys in _cases(field):
            for f_top, g_top, f_order, g_order in ((0, -1, 6, 6), (2, 1, 1, 9), (-1, 3, 8, 0)):
                f = LaurentSeries(field, f_top, xs, f_order)
                g = LaurentSeries(field, g_top, ys, g_order)
                order = series_window(f, g)
                assert_series_product(f * g, by_exponent(f), by_exponent(g), order, field)

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    def test_random_windows(self, field):
        rng = random.Random(4021 + field.d)
        for _ in range(40):
            f = random_series(rng, field, rng.randint(-3, 3), rng.randint(0, 9))
            g = random_series(rng, field, rng.randint(-3, 3), rng.randint(0, 9))
            order = series_window(f, g)
            if f.is_zero or g.is_zero or f.lowest_power + g.lowest_power < -order:
                assert (f * g).is_zero
                continue
            assert_series_product(f * g, by_exponent(f), by_exponent(g), order, field)

    def test_window_cuts_inside_the_operands(self):
        field = QuadField(5)
        rng = random.Random(77)
        f = random_series(rng, field, 2, 12, zero_share=0)
        g = random_series(rng, field, 1, 3, zero_share=0)
        order = series_window(f, g)
        assert order == 1                     # far shorter than either operand
        prod = f * g
        assert prod.coefficient(-order) != 0  # the last coefficient is computed
        assert_series_product(prod, by_exponent(f), by_exponent(g), order, field)


class TestMulPoly:
    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    def test_fixed_cases(self, field):
        for xs, ys in _cases(field):
            f = LaurentSeries(field, 1, xs, 7)
            p = Poly(field, ys)
            if p.is_zero:
                assert f.mul_poly(p).is_zero
                continue
            p_terms = dict(enumerate(p.coeffs))
            assert_series_product(f.mul_poly(p), by_exponent(f), p_terms, 7 - p.degree, field)

    @pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
    def test_random_windows(self, field):
        rng = random.Random(913 + field.d)
        for _ in range(40):
            f = random_series(rng, field, rng.randint(-3, 2), rng.randint(0, 10))
            p = Poly(field, random_series(rng, field, 0, rng.randint(0, 6)).coefficients)
            if p.is_zero:
                continue
            order = f.truncation_order - p.degree
            prod = f.mul_poly(p)
            if f.is_zero or f.lowest_power + p.degree < -order:
                assert prod.is_zero and prod.truncation_order == order
                continue
            assert_series_product(prod, by_exponent(f), dict(enumerate(p.coeffs)), order, field)
