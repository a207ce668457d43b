from fractions import Fraction as F

from snul.fieldext import format_rational, parse_rational


def test_rational_transport():
    assert parse_rational("-5/4") == F(-5, 4)
    assert parse_rational("7") == 7
    assert format_rational(F(6, 4)) == "3/2"
    assert parse_rational(format_rational(F(-22, 7))) == F(-22, 7)
