import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snul import DivisionNotExact, Poly, SurdPoly, surd_exact_div

from conftest import random_poly

poly_strategy = st.lists(
    st.fractions(min_value=-20, max_value=20, max_denominator=8), min_size=0, max_size=7
).map(lambda cs: Poly(cs))


class TestPoly:
    def test_zero_degree_sentinel(self):
        assert Poly.zero().degree is None
        assert Poly.constant(3).degree == 0
        assert Poly([1, 0, 0]).degree == 0

    def test_trailing_zeros_trimmed(self):
        assert Poly([1, 2, 0, 0]) == Poly([1, 2])

    @given(a=poly_strategy, b=poly_strategy, c=poly_strategy)
    @settings(max_examples=60)
    def test_ring_laws(self, a, b, c):
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a

    @given(a=poly_strategy, b=poly_strategy)
    @settings(max_examples=60)
    def test_divmod(self, a, b):
        if b.is_zero:
            with pytest.raises(ZeroDivisionError):
                divmod(a, b)
            return
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree

    def test_exact_div_raises_on_remainder(self):
        x = Poly.x()
        with pytest.raises(DivisionNotExact):
            (x * x + 1).exact_div(x)
        assert (x * x - 1).exact_div(x - 1) == x + 1

    def test_horner_composition(self):
        x = Poly.x()
        f = x ** 3 - 2 * x + 5
        g = x * x + 1
        assert f(g) == g ** 3 - 2 * g + 5


class TestSurdPoly:
    def setup_method(self):
        self.rng = random.Random(20240517)
        self.r = Poly([-1, 0, F(9, 16)])

    def sqrt_r(self):
        return SurdPoly.sqrt_r(self.r)

    def test_sqrt_r_squares_to_r(self):
        s = self.sqrt_r()
        assert s * s == SurdPoly.from_poly(self.r, self.r)

    def test_conjugate_product_is_polynomial(self):
        # (p - sqrt r)(p + sqrt r) = p^2 - r; on the reference lattice
        # p = (5/4)x this is x^2 + 1, the value of (c x^2 + 2 e x + f)/a.
        p = Poly([0, F(5, 4)])
        y1 = SurdPoly(p, Poly.constant(-1), self.r)
        y2 = SurdPoly(p, Poly.constant(1), self.r)
        prod = y1 * y2
        assert prod.is_polynomial
        assert prod.u == Poly([1, 0, 1])

    def test_exact_div_identity(self):
        f = SurdPoly(Poly([1, 2]), Poly([3]), self.r)
        assert surd_exact_div(f, f) == SurdPoly.from_poly(Poly.one(), self.r)

    def test_exact_div_conjugate_factorization(self):
        p = Poly([0, F(5, 4)])
        y1 = SurdPoly(p, Poly.constant(-1), self.r)
        y2 = SurdPoly(p, Poly.constant(1), self.r)
        target = SurdPoly.from_poly(p * p - self.r, self.r)
        assert surd_exact_div(target, y2) == y1
        # ((x^2+1) + 0 sqrt(r)) / ((5/4)x + sqrt(r)) = (5/4)x - sqrt(r),
        # checked by multiplying back
        quotient = surd_exact_div(SurdPoly.from_poly(Poly([1, 0, 1]), self.r), y2)
        assert quotient == y1
        assert (quotient * y2).u == Poly([1, 0, 1])

    def test_mismatched_moduli_rejected(self):
        other_r = Poly([1, 0, 1])
        f = SurdPoly.from_poly(Poly.one(), self.r)
        g = SurdPoly.from_poly(Poly.one(), other_r)
        with pytest.raises(ValueError):
            f * g

    def test_div_after_mul_roundtrip(self):
        for _ in range(25):
            f = SurdPoly(random_poly(self.rng, 4), random_poly(self.rng, 3), self.r)
            g = SurdPoly(random_poly(self.rng, 3), random_poly(self.rng, 2), self.r)
            assert surd_exact_div(f * g, g) == f

    def test_ring_laws_random(self):
        for _ in range(15):
            f = SurdPoly(random_poly(self.rng, 3), random_poly(self.rng, 2), self.r)
            g = SurdPoly(random_poly(self.rng, 3), random_poly(self.rng, 2), self.r)
            h = SurdPoly(random_poly(self.rng, 2), random_poly(self.rng, 3), self.r)
            assert f * (g + h) == f * g + f * h
            assert (f * g) * h == f * (g * h)
            assert f * g == g * f
