import numpy as np
import pytest

from menhir.algebra import COMPLEX, QUATERNION, REAL, clifford
from menhir.parsing import (
    ElementParseError,
    format_element,
    format_number,
    parse_algebra_tag,
    parse_element,
    parse_number,
)


def test_parse_numbers():
    assert parse_number("4/5") == 0.8
    assert parse_number("0.5") == 0.5
    assert parse_number("1e-3") == 1e-3
    with pytest.raises(ElementParseError):
        parse_number("x")
    # non-finite values and zero denominators are not numbers of the grammar
    for text in ("nan", "inf", "-inf", "1e400", "1/0", "0/0", "1e300/1e-300"):
        with pytest.raises(ElementParseError):
            parse_number(text)


def test_parse_algebra_tags():
    assert parse_algebra_tag("real") is REAL
    assert parse_algebra_tag("complex") is COMPLEX
    assert parse_algebra_tag("Quaternion") is QUATERNION
    assert parse_algebra_tag("clifford4") is clifford(4)
    with pytest.raises(ElementParseError):
        parse_algebra_tag("octonion")


@pytest.mark.parametrize(
    "text,algebra,coeffs",
    [
        ("4/5", COMPLEX, [0.8, 0.0]),
        ("3i/5", COMPLEX, [0.0, 0.6]),
        ("i/3", COMPLEX, [0.0, 1 / 3]),
        ("9/25i", COMPLEX, [0.0, 0.36]),
        ("1/2+i/3", COMPLEX, [0.5, 1 / 3]),
        ("-i", COMPLEX, [0.0, -1.0]),
        (" 0.5 - 0.25 j + k ", QUATERNION, [0.5, 0.0, -0.25, 1.0]),
        ("1+2i+3j+4k", QUATERNION, [1, 2, 3, 4]),
        ("0.25", REAL, [0.25]),
        ("1e-05+1e-05i", COMPLEX, [1e-05, 1e-05]),
    ],
)
def test_parse_element(text, algebra, coeffs):
    assert np.allclose(parse_element(text, algebra).coeffs, coeffs, atol=0)


def test_parse_clifford_brackets():
    vec = parse_element("[0.1,0.2,0.3]", clifford(3))
    assert np.allclose(vec.coeffs[[1, 2, 4]], [0.1, 0.2, 0.3])
    dense = parse_element("[1,0,0,0.25]", clifford(2))
    assert np.allclose(dense.coeffs, [1, 0, 0, 0.25])
    with pytest.raises(ElementParseError):
        parse_element("[0.1,0.2]", clifford(3))
    with pytest.raises(ElementParseError):
        parse_element("[0.1,0.2", clifford(2))


def test_parse_errors():
    with pytest.raises(ElementParseError):
        parse_element("abc", COMPLEX)
    with pytest.raises(ElementParseError):
        parse_element("1j", COMPLEX)  # j only exists in the quaternions
    with pytest.raises(ElementParseError):
        parse_element("", COMPLEX)
    with pytest.raises(ElementParseError):
        parse_element("1/2/3", REAL)
    with pytest.raises(ElementParseError):
        parse_element("3i/5/7", COMPLEX)
    for text in ("1/0", "3i/0", "1e400i", "[nan,0]", "[inf,0]", "[1/0,0]"):
        with pytest.raises(ElementParseError):
            parse_element(text, COMPLEX)


def test_format_number_rationals():
    assert format_number(0.8) == "4/5"
    assert format_number(0.36000000000000004) == "9/25"  # one ulp off the rational
    assert format_number(2.0) == "2"
    assert format_number(0.123456789123) == repr(0.123456789123)


def test_format_round_trip():
    rng = np.random.default_rng(60)
    for algebra in (REAL, COMPLEX, QUATERNION, clifford(3)):
        for _ in range(200):
            x = algebra.element(rng.standard_normal(algebra.dim))
            text = format_element(x)
            back = parse_element(text, algebra)
            assert back.max_diff(x) <= 1e-12


def test_format_examples():
    assert format_element(COMPLEX.element([0.8, 0.36])) == "4/5+9/25i"
    assert format_element(COMPLEX.element([0.5, 0.0])) == "1/2"
    assert format_element(COMPLEX.element([0.0, -1.0])) == "-i"
    assert format_element(QUATERNION.zero) == "0"
    vec = format_element(clifford(2).element([0, 0.5, 0.25, 0]))
    assert vec == "[1/2,1/4]"
