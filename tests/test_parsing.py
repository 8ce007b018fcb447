import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from menhir import parsing
from menhir.algebra import COMPLEX, QUATERNION, REAL, clifford, vector_embed
from menhir.calculus import compose_menhirs, thomas_rotation, velocity_of
from menhir.parsing import (
    ElementParseError,
    format_element,
    format_number,
    parse_algebra_tag,
    parse_bracket,
    parse_element,
    parse_number,
)
from util import max_diff, random_menhir, reference_format_element, reference_format_number


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


def test_numbers_are_ascii_rationals_and_decimals():
    # a bracket component and a term read one grammar: an optional sign,
    # an ASCII decimal, an optional ASCII denominator; whitespace is ignored
    clifford2 = clifford(2)
    assert parse_number("-1/2") == -0.5 and parse_number("+.5e1") == 5.0 and parse_number("1.") == 1.0
    assert np.array_equal(parse_bracket("[ -1 / 2 , +.25 ]"), [-0.5, 0.25])
    assert np.array_equal(parse_element("[1/2, -1e-1]", clifford2).coeffs,
                          vector_embed(np.array([0.5, -0.1]), clifford2).coeffs)
    # none of these is in the grammar, though float() reads most of them
    for text in ("0.1_0", "1_0", "-1/-2", "1/+2", "\u0665", "1/\u0662", "+-1", "0x1", "Infinity"):
        with pytest.raises(ElementParseError):
            parse_number(text)
        with pytest.raises(ElementParseError):
            parse_element(f"[{text},0]", clifford2)
    for text in ("\u0665", "\u0661i", "1/\u0662", "1_0", "0.1_0i"):
        with pytest.raises(ElementParseError):
            parse_element(text, COMPLEX)
    with pytest.raises(ElementParseError):
        parse_algebra_tag("clifford\u0663")


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
    # non-finite values print as their repr (the screen's loop never ended on
    # them), which the grammar does not read back
    for x in (math.nan, math.inf, -math.inf):
        assert format_number(x) == repr(x)
        with pytest.raises(ElementParseError):
            parse_number(format_number(x))


def test_format_round_trip():
    rng = np.random.default_rng(60)
    for algebra in (REAL, COMPLEX, QUATERNION, clifford(3)):
        for _ in range(200):
            x = algebra.element(rng.standard_normal(algebra.dim))
            text = format_element(x)
            back = parse_element(text, algebra)
            assert max_diff(back, x) <= 1e-12
            assert repr(x) == f"<{text} in {algebra!r}>"


def test_format_examples():
    assert format_element(COMPLEX.element([0.8, 0.36])) == "4/5+9/25i"
    assert format_element(COMPLEX.element([0.5, 0.0])) == "1/2"
    assert format_element(COMPLEX.element([0.0, -1.0])) == "-i"
    assert format_element(QUATERNION.zero) == "0"
    vec = format_element(clifford(2).element([0, 0.5, 0.25, 0]))
    assert vec == "[1/2,1/4]"


def test_format_number_tiny_and_integral_values():
    # a nonzero subnormal keeps its value and sign; an integral value never
    # prints as "N/1", however large
    cases = {
        -1e-323: "-1e-323",
        5e-324: "5e-324",
        1e16: "10000000000000000",
        -(2.0**60): str(-(2**60)),
        1e15: "1000000000000000",
    }
    for x, text in cases.items():
        assert format_number(x) == text
        assert parse_number(text) == x


def _nudged(p: int, q: int, ulps: int) -> float:
    x = p / q
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


def _changed_on_purpose(x: float) -> bool:
    """Inputs the Fraction reference prints as "0/1" or "N/1"."""
    return (x.is_integer() and abs(x) >= 1e15) or 0.0 < abs(x) <= 4 * math.ulp(0.0)


def _signed(lo: float, hi: float):
    return st.floats(lo, hi) | st.floats(-hi, -lo)


FORMAT_INPUTS = st.one_of(
    st.builds(_nudged, st.integers(-3_000_000, 3_000_000), st.integers(1, 10**6),
              st.integers(-6, 6)),
    _signed(5e-7, 1e-5),
    _signed(1e-19, 1e-17),
    # many p/q lie within 4 ulps of a large value; the semiconvergent often wins
    _signed(1e3, 1e12),
    st.integers(-(10**15) + 1, 10**15 - 1).map(float),
    st.just(-0.0),
    st.floats(allow_nan=False, allow_infinity=False),
).filter(lambda x: not _changed_on_purpose(x))


@settings(max_examples=2000, deadline=None)
@given(FORMAT_INPUTS)
def test_format_number_matches_fraction_reference(x):
    assert format_number(x) == reference_format_number(x)


def _screen_edges() -> list[float]:
    """Inputs at the edges of `format_number`'s float screen, in both signs:
    p/q nudged by 4 to 7 ulps with q of 999983, 10^6 - 1 and 10^6, at sizes
    10^-6 to 10^12; p/q just below and just above a power of two, nudged by
    up to 7 ulps; powers of two nudged across their binade edge."""
    rng = np.random.default_rng(64)
    ulps = [k for k in range(-7, 8) if abs(k) >= 4]
    values = []
    for q in (999_983, 10**6 - 1, 10**6):
        for size in np.logspace(-6, 12, 37).tolist():
            p = max(1, round(size * q * rng.uniform(1.0, 1.5)))
            values += [_nudged(p, q, k) for k in ulps]
    for e in range(-19, 41):
        p, q = (2**e, 1) if e >= 0 else (1, 2**-e)
        values += [_nudged(p, q, k) for k in range(-7, 8)]
        for q in (3, 999_983, 10**6 - 1, 10**6):
            below = math.floor(2.0**e * q)
            for p in (below, below + 1):
                if p > 0:
                    values += [_nudged(p, q, k) for k in range(-7, 8)]
    values = [x for x in values if not _changed_on_purpose(x)]
    return values + [-x for x in values]


def _near_rational(x: float) -> bool:
    """A p/q with q <= 10^6 lies within `_SCREEN_ULPS` ulps of x, exactly."""
    exact = Fraction(x)
    distance = abs(exact - exact.limit_denominator(10**6))
    return distance <= parsing._SCREEN_ULPS * Fraction(math.ulp(x))


def test_format_number_screen_edges_match_fraction_reference():
    for x in _screen_edges():
        assert format_number(x) == reference_format_number(x), x


def test_format_number_screen_skips_the_exact_search_only_far_from_rationals(monkeypatch):
    """The float screen certifies nearly every random coefficient, so the
    exact rational search, `Fraction.limit_denominator`, runs on few of them;
    it still runs on every input with a p/q (q <= 10^6) within `_SCREEN_ULPS`
    ulps."""
    searched = []
    limit_denominator = Fraction.limit_denominator

    def counted(self, max_denominator):
        searched.append(float(self))
        return limit_denominator(self, max_denominator)

    monkeypatch.setattr(Fraction, "limit_denominator", counted)
    for x in np.random.default_rng(65).uniform(-1.0, 1.0, 10_000).tolist():
        format_number(x)
    assert len(searched) <= 10
    near = [x for x in _screen_edges()
            if not x.is_integer() and abs(x) >= parsing._REPR_BELOW and _near_rational(x)]
    assert len(near) > 1000
    for x in near:
        searched.clear()
        format_number(x)
        assert searched == [x]


def test_format_element_matches_reference():
    rng = np.random.default_rng(61)
    lanes = [(REAL, 1), (COMPLEX, 2), (QUATERNION, 3), (QUATERNION, 4),
             (clifford(3), 3), (clifford(5), 5), (clifford(10), 10)]
    dense_clifford10 = 0
    for algebra, n in lanes:
        for _ in range(4 if n == 10 else 40):
            e1, e2 = random_menhir(rng, algebra, n), random_menhir(rng, algebra, n)
            rot = thomas_rotation(e1, e2)
            composite = compose_menhirs(e1, e2)
            outputs = [e1, composite, velocity_of(composite), rot.alpha, rot.beta]
            if algebra.kind in ("real", "complex"):
                outputs.append(rot.rho())
            for x in outputs:
                text = format_element(x)
                assert text == reference_format_element(x)
                dense_clifford10 += n == 10 and text.count(",") == algebra.dim - 1
        # exact rationals and zeros, as the command line prints them
        x = vector_embed(np.full(n, 0.5), algebra)
        assert format_element(x) == reference_format_element(x)
    # the clifford10 outputs carry rounding residues outside the vector model,
    # so they print every coefficient
    assert dense_clifford10 > 0
