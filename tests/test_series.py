import random
from fractions import Fraction as F

import pytest

from snul import (
    InsufficientTruncation,
    LaurentSeries,
    Poly,
    sqrt_series,
)


def random_series(rng, top=None, order=10):
    top = rng.randint(-3, 2) if top is None else top
    coeffs = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(top + order + 1)]
    return LaurentSeries(top, coeffs, order)


class TestWindows:
    def test_unknown_coefficient_raises(self):
        s = LaurentSeries(-1, [1, 2, 3], 3)
        assert s.coefficient(-3) == 3
        assert s.coefficient(5) == 0          # above the top: known zero
        with pytest.raises(InsufficientTruncation):
            s.coefficient(-4)

    def test_leading_zeros_normalized(self):
        s = LaurentSeries(2, [0, 0, 5, 1], 6)
        assert s.lowest_power == 0
        assert s.coefficient(0) == 5

    def test_product_window_is_pessimistic(self):
        f = LaurentSeries(-1, [1, 1], 2)    # known to x^-2
        g = LaurentSeries(0, [1, 1, 1], 2)  # known to x^-2
        prod = f * g
        # first unknown of f at x^-3 times top of g at x^0 pollutes x^-3
        assert prod.truncation_order == 2

    def test_sum_window_is_min(self):
        f = LaurentSeries(-1, [1], 5)
        g = LaurentSeries(-1, [1], 3)
        assert (f + g).truncation_order == 3

    def test_mul_poly_window(self):
        s = LaurentSeries(-1, [1, 2, 3, 4], 4)
        p = Poly([1, 0, 1])                 # x^2 + 1
        out = s.mul_poly(p)
        assert out.truncation_order == 2
        assert out.coefficient(1) == 1
        assert out.coefficient(-1) == 1 + 3        # x^2 * 3 x^-3 + 1 * 1 x^-1

    def test_agreement_within_common_window(self):
        f = LaurentSeries(-1, [1, 2, 3, 4, 5], 5)
        g = LaurentSeries(-1, [1, 2, 3], 3)
        assert f.agrees_with(g)
        h = LaurentSeries(-1, [1, 2, 9], 3)
        assert not f.agrees_with(h)
        assert (f - h).leading_exponent() == -3


class TestArithmetic:
    def setup_method(self):
        self.rng = random.Random(991)

    def test_identity_and_monomials(self):
        f = random_series(self.rng)
        one = LaurentSeries.constant(1, f.truncation_order)
        assert (f * one).agrees_with(f)
        x_inv = LaurentSeries(-1, [1], 6)
        assert (x_inv * x_inv).agrees_with(LaurentSeries(-2, [1], 6))

    def test_geometric_inverse(self):
        # 1/(x - 1) = x^-1 + x^-2 + ..., and multiplying back gives 1
        f = LaurentSeries.from_poly(Poly([-1, 1]), 8)
        inv = f.inverse()
        for e in range(-1, -9, -1):
            assert inv.coefficient(e) == 1
        assert (inv * f).agrees_with(LaurentSeries.constant(1, 8))

    def test_inverse_window_rule(self):
        f = LaurentSeries(2, [1, 0, 1, 2, 1], 2)   # known x^2..x^-2
        inv = f.inverse()
        assert inv.lowest_power == -2
        assert inv.truncation_order == 2 + 2 * 2
        assert (inv * f).agrees_with(LaurentSeries.constant(1, inv.common_order(f)))

    def test_inverse_of_window_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            LaurentSeries.zero(5).inverse()

    def test_ring_laws_random(self):
        for _ in range(20):
            f, g, h = (random_series(self.rng) for _ in range(3))
            assert (f * (g + h)).agrees_with(f * g + f * h)
            assert ((f * g) * h).agrees_with(f * (g * h))
            assert (f * g).agrees_with(g * f)

    def test_inverse_roundtrip_random(self):
        for _ in range(20):
            f = random_series(self.rng)
            if f.is_zero_within_window() or f.leading_coefficient() == 0:
                continue
            prod = f * f.inverse()
            assert prod.agrees_with(LaurentSeries.constant(1, prod.truncation_order))


class TestSqrtSeries:
    def test_perfect_squares(self):
        x_sq = Poly([0, 0, 1])
        s = sqrt_series(x_sq, 6)
        assert s.agrees_with(LaurentSeries.from_poly(Poly.x(), 6))
        binom_sq = Poly([1, 2, 1])
        s2 = sqrt_series(binom_sq, 6)
        assert s2.agrees_with(LaurentSeries.from_poly(Poly([1, 1]), 6))

    def test_reference_r(self):
        r = Poly([-1, 0, F(9, 16)])
        s = sqrt_series(r, 8)
        # (3/4)x (1 - (16/9) x^-2)^(1/2) = (3/4)x - (2/3)x^-1 - ...
        assert s.coefficient(1) == F(3, 4)
        assert s.coefficient(0) == 0
        assert s.coefficient(-1) == F(-2, 3)
        assert (s * s).agrees_with(LaurentSeries.from_poly(r, (s * s).truncation_order))

    def test_square_reproduces_r_random(self):
        rng = random.Random(7)
        for _ in range(10):
            lead = F(0)
            while lead <= 0:
                lead = F(rng.randint(1, 5), rng.randint(1, 4)) ** 2
            r = Poly([F(rng.randint(-3, 3)), F(rng.randint(-3, 3)), lead])
            s = sqrt_series(r, 9)
            sq = s * s
            assert sq.agrees_with(LaurentSeries.from_poly(r, sq.truncation_order))
            # window contract: powers x^2 .. x^-(N-2) all reproduced
            assert sq.truncation_order >= 9 - 2

    def test_surd_leading_coefficient(self):
        # sqrt(5) x leads sqrt(5 x^2 + 1): the expansion is refused, not
        # rounded into Q
        with pytest.raises(ValueError, match="not the square of a rational"):
            sqrt_series(Poly([1, 0, 5]), 6)

    def test_field_too_small(self):
        # sqrt(lc(r)) is irrational or imaginary: no expansion over Q
        for lead in (3, F(5, 4), F(4, 5), -1, F(-9, 16)):
            with pytest.raises(ValueError, match="not the square of a rational"):
                sqrt_series(Poly([0, 0, lead]), 4)
            with pytest.raises(ValueError, match="not the square of a rational"):
                sqrt_series(Poly([1, 0, lead]), 4)

    def test_degree_two_required(self):
        with pytest.raises(ValueError):
            sqrt_series(Poly([1, 1]), 4)
