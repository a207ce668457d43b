from fractions import Fraction as F

import pytest

from snul.fieldext import format_rational, parse_rational


def test_rational_transport():
    assert parse_rational("-5/4") == F(-5, 4)
    assert parse_rational("7") == 7
    assert format_rational(F(6, 4)) == "3/2"
    assert parse_rational(format_rational(F(-22, 7))) == F(-22, 7)


def test_numerator_formatter_matches_fraction_str():
    # a numerator over a positive denominator, as `snul derive` writes each
    # Poly coefficient from its nums and den: one gcd, no Fraction
    big = 3 ** 400 * 7 + 1                     # 637 bits
    cases = [(0, 1), (0, 12), (5, 1), (-5, 1), (12, 4), (-12, 8), (6, 9), (-7, 3),
             (big, 1), (-big, 1), (big * 6, 4), (-big, 3 ** 320), (3 ** 400 * 5, 3 ** 399),
             (2 ** 600, 2 ** 599 * 3), (-(2 ** 530), 2 ** 530)]
    for num, den in cases:
        assert format_rational(num, den) == str(F(num, den)), (num, den)
    for value in (F(0), F(-3), F(big, 3 ** 320), F(-1, big)):
        assert format_rational(value) == str(value)


# "p", "-p" and "p/q" in ASCII digits take the int() path of parse_rational,
# the rest go to Fraction(str)
PARSER_CASES = ["0", "-0/5", "007", "-16/9", "-" + "7" * 600 + "/3", " 3 ", "+3", "1.5",
                "1e3", "1_000", "3/-4", "--3", "1/0", "", "1/2/3", "\u0663", "\u0663/4"]


@pytest.mark.parametrize("text", PARSER_CASES)
def test_parser_matches_fraction_str(text):
    try:
        expected = F(text)
    except Exception as exc:        # the refusal must match in type
        with pytest.raises(type(exc)):
            parse_rational(text)
    else:
        got = parse_rational(text)
        assert got.__class__ is F and got == expected

