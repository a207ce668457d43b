from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snul import FieldTooSmall, QuadField
from snul.fieldext import format_rational, parse_rational, square_free_split

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def quad_numbers(field):
    return st.builds(lambda a, b: field(a, b), rationals, rationals)


def test_square_free_split():
    assert square_free_split(1) == (1, 1)
    assert square_free_split(4) == (2, 1)
    assert square_free_split(18) == (3, 2)
    assert square_free_split(-12) == (2, -3)
    assert square_free_split(0) == (0, 0)


def test_square_free_split_large_prime_square():
    # both primes lie above any fixed trial-division bound of 10^5
    assert square_free_split(100003 ** 2 * 100019) == (100003, 100019)
    assert square_free_split(-(100019 ** 2) * 7) == (100019, -7)
    assert square_free_split(100003 * 100019) == (1, 100003 * 100019)


def test_field_collapse_on_square_radicand():
    field = QuadField.for_radicand(F(9, 16))
    assert field.is_rational
    # any surd part folds into the rational component when d = 1
    assert field(2, 3) == 5


def test_field_for_nonsquare():
    field = QuadField.for_radicand(F(5))
    assert field.d == 5
    assert QuadField.for_radicand(F(8, 9)).d == 2
    assert QuadField.for_radicand(F(-1)).d == -1


def test_sqrt_in_field():
    field = QuadField.for_radicand(F(9, 16))
    assert field.sqrt(F(9, 16)) == F(3, 4)
    field5 = QuadField(5)
    root = field5.sqrt(F(5))
    assert root.a == 0 and root.b == 1
    assert root * root == 5
    assert field5.sqrt(F(20, 9)) == field5(0, F(2, 3))
    with pytest.raises(FieldTooSmall):
        field5.sqrt(F(3))


def test_rational_transport():
    assert parse_rational("-5/4") == F(-5, 4)
    assert parse_rational("7") == 7
    assert format_rational(F(6, 4)) == "3/2"
    assert parse_rational(format_rational(F(-22, 7))) == F(-22, 7)


class TestFieldOperations:
    field = QuadField(5)

    @given(x=quad_numbers(field), y=quad_numbers(field), z=quad_numbers(field))
    @settings(max_examples=60)
    def test_ring_laws(self, x, y, z):
        assert (x + y) * z == x * z + y * z
        assert x * (y * z) == (x * y) * z
        assert x * y == y * x
        assert x + y == y + x

    @given(x=quad_numbers(field))
    @settings(max_examples=60)
    def test_inverse(self, x):
        if x.is_zero:
            with pytest.raises(ZeroDivisionError):
                x.inverse()
        else:
            assert x * x.inverse() == 1

    @given(x=quad_numbers(field))
    @settings(max_examples=40)
    def test_conjugate_norm_is_rational(self, x):
        n = x * x.conjugate()
        assert n.is_rational
