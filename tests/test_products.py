"""The exact product kernel and the integer storage against schoolbook
references.

`fieldext._int_dot` computes every Poly product, sum of products
(`Poly.dot`), LaurentSeries product and `mul_poly` on the integer numerators
each object stores over its one denominator.  The references here multiply
coefficient by coefficient with Fraction arithmetic, one exact operation per
multiply-add, and index series coefficients by exponent, so they share no
code with the kernel.
"""
import random
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snul import LaurentSeries, Poly
from snul.fieldext import _int_dot


def schoolbook(xs, ys, length):
    out = [F(0)] * length
    for i, a in enumerate(xs):
        for j, b in enumerate(ys):
            if i + j < length:
                out[i + j] = out[i + j] + a * b
    return out


def by_exponent(f):
    """{exponent: coefficient} of the known coefficients of a series."""
    return {f.lowest_power - i: c for i, c in enumerate(f.coefficients)}


def assert_series_product(prod, f_terms, g_terms, order):
    """prod agrees with the product of the two term dicts down to x^-order."""
    ref = {}
    for ea, a in f_terms.items():
        for eb, b in g_terms.items():
            ref[ea + eb] = ref.get(ea + eb, F(0)) + a * b
    assert prod.truncation_order == order
    top = max([0, *ref]) + 1
    for e in range(top, -order - 1, -1):
        assert prod.coefficient(e) == ref.get(e, F(0)), e


def series_window(f, g):
    """The product window: an unknown coefficient of either operand first
    reaches x^-(order+1)."""
    def top(s):
        return s.lowest_power if s.coefficients else -s.truncation_order - 1
    return min(f.truncation_order - top(g), g.truncation_order - top(f))


# Coefficient lists meant to hit what the kernel's integer bookkeeping can
# get wrong: zero and empty operands, interior zeros, one shared
# denominator, coprime denominators.
CASES = [
    ([], [F(1), F(2)]),
    ([F(0)], [F(1, 3), F(0), F(5)]),
    ([F(1, 6), F(5, 6), F(-7, 6)], [F(1, 3), F(-1, 6)]),
    ([F(1, 7), F(0), F(0), F(5, 7)], [F(15, 143), F(0), F(5, 13)]),
    ([F(1), F(5, 6)], [F(1), F(11, 20), F(2, 9)]),
    ([F(29, 21), F(1), F(0), F(-4, 5)], [F(0), F(13, 36)]),
]

# Coefficients are rationals: every product test runs over Q and carries
# its field as the test id.
over_q = pytest.mark.parametrize("cases", [CASES], ids=["Q"])


def numerators(cs):
    """Integer numerators of the rationals cs over their least common
    denominator."""
    den = lcm(*(c.denominator for c in cs))
    return [int(c * den) for c in cs]


class TestKernel:
    @over_q
    def test_matches_schoolbook_at_every_length(self, cases):
        for xs, ys in cases:
            xs, ys = numerators(xs), numerators(ys)
            full = len(xs) + len(ys) - 1 if xs and ys else 0
            for length in range(0, full + 3):
                for a, b in ((xs, ys), (ys, xs)):
                    # a one-term sum, cut at the full product's length
                    out = _int_dot([(1, a, b)], length)
                    assert len(out) == min(length, full)
                    assert out + [0] * (length - len(out)) == schoolbook(a, b, length)


    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_weighted_sums_match_schoolbook(self, seed):
        rng = random.Random(seed)
        for _ in range(30):
            terms = [(rng.randint(-5, 5),
                      [rng.randint(-20, 20) for _ in range(rng.randint(0, 7))],
                      [rng.randint(-20, 20) for _ in range(rng.randint(0, 7))])
                     for _ in range(rng.randint(0, 4))]
            full = max([len(x) + len(y) - 1 for w, x, y in terms if w and x and y],
                       default=0)
            ref = [F(0)] * (full + 2)
            for w, x, y in terms:
                for k, c in enumerate(schoolbook(x, y, full + 2)):
                    ref[k] += w * c
            for length in (None, 0, 1, full // 2, full, full + 2):
                out = _int_dot(terms, length)
                n = full if length is None else min(length, full)
                assert out == ref[:n], (terms, length)


coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=12)
poly_strategy = st.lists(st.one_of(st.just(0), coefficients), max_size=7).map(Poly)


class TestPolyProducts:
    @over_q
    def test_fixed_cases(self, cases):
        for xs, ys in cases:
            a, b = Poly(xs), Poly(ys)
            n = len(a.coeffs) + len(b.coeffs) - 1 if a and b else 0
            assert (a * b).coeffs == Poly(schoolbook(a.coeffs, b.coeffs, n)).coeffs

    @pytest.mark.parametrize("polys", [poly_strategy], ids=["Q"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_against_schoolbook(self, polys, data):
        a, b = data.draw(polys), data.draw(polys)
        n = len(a.coeffs) + len(b.coeffs) - 1 if a and b else 0
        assert a * b == Poly(schoolbook(a.coeffs, b.coeffs, n))


class TestPolyDot:
    """`Poly.dot` against a sum of Fraction schoolbook products: signs and
    denominators at random, zero polynomials, int and Fraction weights."""

    @pytest.mark.parametrize("seed", [51, 52, 53, 54])
    def test_against_schoolbook(self, seed):
        rng = random.Random(seed)

        def rational():
            return F(rng.randint(-30, 30), rng.choice([1, 2, 3, 5, 12, 49]))

        def poly():
            return Poly([rational() for _ in range(rng.choice([0, 1, 2, 5, 8]))])

        for _ in range(40):
            pairs = []
            for _ in range(rng.randint(0, 4)):
                a = poly()
                b = rng.choice([poly(), rng.randint(-4, 4), rational()])
                pairs.append((a, b))
            full = max([len(a.coeffs) + (len(b.coeffs) if isinstance(b, Poly) else 1) - 1
                        for a, b in pairs], default=0)
            ref = [F(0)] * full
            for a, b in pairs:
                bs = b.coeffs if isinstance(b, Poly) else (F(b),)
                for k, c in enumerate(schoolbook(a.coeffs, bs, full)):
                    ref[k] += c
            got = Poly.dot(pairs)
            assert_stored_form(got)
            assert got == Poly(ref), pairs

    def test_products_and_scalings_are_one_term_sums(self):
        a, b = Poly([F(1, 2), F(-3, 4), 5]), Poly([F(2, 3), 0, F(7, 9)])
        assert Poly.dot([(a, b)]) == a * b
        assert Poly.dot([(a, F(-6, 7))]) == a * F(-6, 7)
        assert Poly.dot([(a, 3)]) == a * 3
        assert Poly.dot([(a, b), (a, -b)]) == Poly.zero()
        assert Poly.dot([]) == Poly.zero()
        assert Poly.dot([(Poly.zero(), b), (a, 0)]) == Poly.zero()


def random_series(rng, top, order, zero_share=0.3):
    def entry():
        if rng.random() < zero_share:
            return F(0)
        den = rng.choice([1, 2, 3, 7, 11, 12])
        a = F(rng.randint(-9, 9), den)
        return a + F(rng.randint(-5, 5), rng.choice([1, 5, 13])) if rng.random() < 0.5 else a
    return LaurentSeries(top, [entry() for _ in range(max(top + order + 1, 0))], order)


class TestSeriesProducts:
    @over_q
    def test_fixed_cases(self, cases):
        for xs, ys in cases:
            for f_top, g_top, f_order, g_order in ((0, -1, 6, 6), (2, 1, 1, 9), (-1, 3, 8, 0)):
                f = LaurentSeries(f_top, xs, f_order)
                g = LaurentSeries(g_top, ys, g_order)
                order = series_window(f, g)
                assert_series_product(f * g, by_exponent(f), by_exponent(g), order)

    @pytest.mark.parametrize("seed", [4022], ids=["Q"])
    def test_random_windows(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            f = random_series(rng, rng.randint(-3, 3), rng.randint(0, 9))
            g = random_series(rng, rng.randint(-3, 3), rng.randint(0, 9))
            order = series_window(f, g)
            if f.is_zero or g.is_zero or f.lowest_power + g.lowest_power < -order:
                assert (f * g).is_zero
                continue
            assert_series_product(f * g, by_exponent(f), by_exponent(g), order)

    def test_window_cuts_inside_the_operands(self):
        rng = random.Random(77)
        f = random_series(rng, 2, 12, zero_share=0)
        g = random_series(rng, 1, 3, zero_share=0)
        order = series_window(f, g)
        assert order == 1                     # far shorter than either operand
        prod = f * g
        assert prod.coefficient(-order) != 0  # the last coefficient is computed
        assert_series_product(prod, by_exponent(f), by_exponent(g), order)


class TestMulPoly:
    @over_q
    def test_fixed_cases(self, cases):
        for xs, ys in cases:
            f = LaurentSeries(1, xs, 7)
            p = Poly(ys)
            if p.is_zero:
                assert f.mul_poly(p).is_zero
                continue
            p_terms = dict(enumerate(p.coeffs))
            assert_series_product(f.mul_poly(p), by_exponent(f), p_terms, 7 - p.degree)

    @pytest.mark.parametrize("seed", [914], ids=["Q"])
    def test_random_windows(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            f = random_series(rng, rng.randint(-3, 2), rng.randint(0, 10))
            p = Poly(random_series(rng, 0, rng.randint(0, 6)).coefficients)
            if p.is_zero:
                continue
            order = f.truncation_order - p.degree
            prod = f.mul_poly(p)
            if f.is_zero or f.lowest_power + p.degree < -order:
                assert prod.is_zero and prod.truncation_order == order
                continue
            assert_series_product(prod, by_exponent(f), dict(enumerate(p.coeffs)), order)


# -- the integer storage ---------------------------------------------------------

def assert_stored_form(x):
    """den > 0, one gcd of 1, no zero at either end of a series or at the top
    of a polynomial, nothing below a series' window, and the Fractions the
    integers stand for."""
    nums, den = x.nums, x.den
    assert den > 0 and gcd(den, *nums) == 1
    if isinstance(x, Poly):
        assert not nums or nums[-1]
        assert x.coeffs == tuple(F(a, den) for a in nums)
    else:
        assert x.coefficients == tuple(F(a, den) for a in nums)
        if nums:
            assert nums[0] and nums[-1]
            assert x.lowest_power - len(nums) + 1 >= -x.truncation_order
        else:
            assert x.lowest_power == -x.truncation_order - 1


def assert_poly(p, terms):
    """p has the coefficients {degree: value} of terms."""
    assert_stored_form(p)
    for k in range(max([len(p.nums), *(k + 1 for k in terms)])):
        assert p.coefficient(k) == terms.get(k, 0), k


def assert_series(s, terms, order):
    """s is known down to x^-order with the coefficients {exponent: value}
    of terms there."""
    assert_stored_form(s)
    assert s.truncation_order == order
    for e in range(max([0, s.lowest_power, *terms]) + 1, -order - 1, -1):
        assert s.coefficient(e) == terms.get(e, 0), e


def combine(f_terms, g_terms, sign=1, cut=None):
    out = dict(f_terms)
    for e, b in g_terms.items():
        out[e] = out.get(e, 0) + sign * b
    return {e: c for e, c in out.items() if c and (cut is None or e >= -cut)}


def product(f_terms, g_terms, cut=None):
    out = {}
    for ea, a in f_terms.items():
        for eb, b in g_terms.items():
            out[ea + eb] = out.get(ea + eb, 0) + a * b
    return {e: c for e, c in out.items() if c and (cut is None or e >= -cut)}


# mixed signs, unrelated denominators and zeros
rationals = st.one_of(st.just(F(0)), coefficients)
scalars = st.one_of(st.integers(-6, 6), rationals)
raw_polys = st.lists(rationals, max_size=6)


@st.composite
def raw_series(draw):
    """(top, entries, order); entries may run past the window."""
    return (draw(st.integers(-3, 3)), draw(st.lists(rationals, max_size=12)),
            draw(st.integers(0, 9)))


def build_series(raw):
    top, entries, order = raw
    terms = {top - i: c for i, c in enumerate(entries) if c and top - i >= -order}
    return LaurentSeries(top, entries, order), terms, order


class TestIntegerStorage:
    @settings(max_examples=80, deadline=None)
    @given(xs=raw_polys, ys=raw_polys, c=scalars)
    def test_poly_operations(self, xs, ys, c):
        a, b = Poly(xs), Poly(ys)
        a_terms = {k: v for k, v in enumerate(xs) if v}
        b_terms = {k: v for k, v in enumerate(ys) if v}
        assert_poly(a, a_terms)
        assert_poly(a + b, combine(a_terms, b_terms))
        assert_poly(a - b, combine(a_terms, b_terms, -1))
        for s, terms in ((a + c, combine(a_terms, {0: c})), (c - a, combine({0: c}, a_terms, -1))):
            assert_poly(s, terms)
        assert_poly(-a, {k: -v for k, v in a_terms.items()})
        assert_poly(a * c, {k: v * c for k, v in a_terms.items() if c})
        assert_poly(a * b, product(a_terms, b_terms))

    @settings(max_examples=80, deadline=None)
    @given(f_raw=raw_series(), g_raw=raw_series(), ps=raw_polys, c=scalars,
           cut=st.integers(0, 9))
    def test_series_operations(self, f_raw, g_raw, ps, c, cut):
        f, f_terms, f_order = build_series(f_raw)
        g, g_terms, g_order = build_series(g_raw)
        assert_series(f, f_terms, f_order)
        order = min(f_order, g_order)
        assert_series(f + g, combine(f_terms, g_terms, cut=order), order)
        assert_series(f - g, combine(f_terms, g_terms, -1, cut=order), order)
        assert_series(-f, {e: -v for e, v in f_terms.items()}, f_order)
        assert_series(f * c, {e: v * c for e, v in f_terms.items() if c}, f_order)

        def top(terms, order):
            return max(terms) if terms else -order - 1
        order = min(f_order - top(g_terms, g_order), g_order - top(f_terms, f_order))
        assert_series(f * g, product(f_terms, g_terms, cut=order), order)

        p = Poly(ps)
        p_terms = {k: v for k, v in enumerate(ps) if v}
        if p_terms:
            order = f_order - max(p_terms)
            assert_series(f.mul_poly(p), product(f_terms, p_terms, cut=order), order)
        else:
            assert_series(f.mul_poly(p), {}, f_order)
        cut = min(cut, f_order)
        assert_series(f.restrict(cut), {e: v for e, v in f_terms.items() if e >= -cut}, cut)
        assert_series(LaurentSeries.from_poly(p, cut),
                      {k: v for k, v in p_terms.items() if k >= -cut}, cut)

    def test_equal_values_are_equal_and_hash_equal(self):
        a, b = Poly([F(1, 2), 1]), Poly([2, 4]) * F(1, 4)
        assert a == b and hash(a) == hash(b)
        c = Poly([F(1, 6), F(1, 3)]) + Poly([F(1, 3), F(2, 3)])   # over 6, reduced
        assert c == a and hash(c) == hash(a) and c.den == 2
        routes = [
            LaurentSeries(1, [F(1, 2), 1, 0, F(5, 7)], 1),
            LaurentSeries.from_poly(Poly([1, F(1, 2)]), 1),
            (LaurentSeries(1, [2, 4], 7) * F(1, 4)).restrict(1),
            LaurentSeries(1, [F(1, 6), F(1, 3)], 1) + LaurentSeries(1, [F(1, 3), F(2, 3)], 4),
            LaurentSeries(0, [1, 2], 2) * LaurentSeries(1, [F(1, 2)], 9),
        ]
        for s in routes:
            assert_stored_form(s)
            assert s == routes[0] and hash(s) == hash(routes[0])


# -- fused sums of products --------------------------------------------------------

@st.composite
def dot_pairs(draw):
    """1 to 4 pairs (series, weight, series terms, weight terms, window of
    their product), a weight being a Poly, a rational or a series, and
    sometimes the first pair again with its weight negated, so that the sum
    cancels it."""
    def top(terms, order):
        return max(terms) if terms else -order - 1
    pairs = []
    for _ in range(draw(st.integers(1, 4))):
        s, s_terms, s_order = build_series(draw(raw_series()))
        kind = draw(st.sampled_from(["poly", "scalar", "series"]))
        if kind == "poly":
            ps = draw(raw_polys)
            b, b_terms = Poly(ps), {k: v for k, v in enumerate(ps) if v}
            window = s_order - max(b_terms, default=0)
        elif kind == "scalar":
            b = draw(scalars)
            b_terms, window = ({0: F(b)} if b else {}), s_order
        else:
            b, b_terms, b_order = build_series(draw(raw_series()))
            window = min(s_order - top(b_terms, b_order), b_order - top(s_terms, s_order))
        pairs.append((s, b, s_terms, b_terms, window))
    if draw(st.booleans()):
        s, b, s_terms, b_terms, window = pairs[0]
        pairs.append((s, -b, s_terms, {e: -v for e, v in b_terms.items()}, window))
    return pairs


class TestSeriesDot:
    @settings(max_examples=80, deadline=None)
    @given(pairs=dot_pairs())
    def test_equals_the_chained_products(self, pairs):
        fused = LaurentSeries.dot([(s, b) for s, b, *_ in pairs])
        chained = None
        for s, b, *_ in pairs:
            term = s.mul_poly(b) if isinstance(b, Poly) else s * b
            chained = term if chained is None else chained + term
        assert fused == chained
        total = {}
        for _, _, s_terms, b_terms, _ in pairs:
            total = combine(total, product(s_terms, b_terms))
        order = min(window for *_, window in pairs)
        assert_series(fused, {e: c for e, c in total.items() if e >= -order}, order)

    def test_zero_operands_and_cancelling_weights(self):
        f = LaurentSeries(-1, [1, F(1, 2), 3, 0, 5], 6)
        g = LaurentSeries(0, [2, 0, F(-1, 3)], 4)
        p = Poly([1, 2, F(3, 7)])
        # a zero Poly leaves the series' own window; a zero series shrinks
        # by the other factor's degree or leading exponent
        assert LaurentSeries.dot([(f, Poly.zero())]) == LaurentSeries.zero(6)
        assert LaurentSeries.dot([(f, Poly.zero()), (g, p)]) == g.mul_poly(p)
        assert LaurentSeries.dot([(LaurentSeries.zero(6), p)]) == LaurentSeries.zero(4)
        assert LaurentSeries.dot([(LaurentSeries.zero(6), g)]) == LaurentSeries.zero(6)
        for pairs in ([(f, p), (f, -p)], [(f, g), (g, -f)], [(f, F(2, 3)), (f * 2, F(-1, 3))],
                      [(g, p), (g.mul_poly(p), -1)]):
            fused = LaurentSeries.dot(pairs)
            assert fused.is_zero and fused == LaurentSeries.zero(fused.truncation_order)
        assert LaurentSeries.dot([(f, g), (g, -f)]).truncation_order == (f * g).truncation_order
        assert LaurentSeries.dot([(f, p), (g, 1)]).truncation_order == 4
