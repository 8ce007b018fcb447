"""Text grammar for algebra elements, shared by the command line and tests.

Scalars and unit symbols combine into sums of terms; whitespace is ignored:

    real/complex/quaternion   "4/5", "0.5", "3i/5", "i/3", "9/25i", "1/2+i/3",
                              "0.2-0.5j+k"   (units i, j, k; rationals or decimals)
    clifford(n)               "[v1,...,vn]"        vector components, or
                              "[c0,...,c_{2^n-1}]" dense blade coefficients
                              (length n versus 2^n disambiguates; n < 2^n always)

Formatting is the inverse.  An integral coefficient prints as an integer, one
within 4 ulps of a rational p/q with q <= 10^6 as `p/q`, anything else as
`repr(float)`, so emitted text parses back to within 4 ulps.  Two steps decide
it.  A float continued fraction screens the value first: when exact checks
certify that no such p/q lies within 5 ulps, the repr prints at once, as it
does for all but about 0.05% of random coefficients.  Otherwise the exact
search decides: the closest p/q, by `Fraction.limit_denominator`.  The screen
skips work only; the text is what the exact search alone would print.  A
nonzero value below 5e-7 in magnitude (rounding residues, subnormals) always
prints as its repr: no such p/q but 0 lies within 4 ulps of it.  Zero
coefficients print as "0" without either step, which matters for the 2^n
coefficients of a Clifford element.  NaN and +-inf print as their repr, which
does not parse back.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .algebra import (
    Algebra,
    COMPLEX,
    QUATERNION,
    REAL,
    Element,
    clifford,
    vector_embed,
)

__all__ = [
    "ElementParseError",
    "format_element",
    "format_number",
    "parse_algebra_tag",
    "parse_bracket",
    "parse_element",
    "parse_number",
]


class ElementParseError(ValueError):
    """Input text does not match the element grammar."""


# ASCII digits only: \d and float() take every Unicode digit, float() `_` too
_NUM = r"[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?|\.[0-9]+(?:[eE][+-]?[0-9]+)?"
_NUMBER = re.compile(rf"[+-]?(?:{_NUM})(?:/(?:{_NUM}))?")
_TERM = re.compile(
    rf"^(?P<num>{_NUM})?"
    rf"(?:/(?P<den_pre>{_NUM}))?"
    rf"(?P<unit>[ijk])?"
    rf"(?:/(?P<den_post>{_NUM}))?$"
)
# split points: signs not part of an exponent
_SPLIT = re.compile(r"(?<![eE])(?=[+-])")

_UNIT_SLOT = {"": 0, "i": 1, "j": 2, "k": 3}


def parse_algebra_tag(tag: str) -> Algebra:
    """Algebra named on the command line: real, complex, quaternion, clifford<N>."""
    tag = tag.strip().lower()
    if tag == "real":
        return REAL
    if tag == "complex":
        return COMPLEX
    if tag == "quaternion":
        return QUATERNION
    m = re.fullmatch(r"clifford([0-9]+)", tag)
    if m:
        return clifford(int(m.group(1)))
    raise ElementParseError(
        f"unknown algebra tag {tag!r}; use real, complex, quaternion or clifford<N>"
    )


def parse_number(text: str) -> float:
    """A finite decimal or a rational p/q with q nonzero, signed or not."""
    text = text.strip()
    if not _NUMBER.fullmatch(text):
        raise ElementParseError(f"bad number {text!r}")
    num, slash, den = text.partition("/")
    try:
        value = float(num) / float(den) if slash else float(num)
    except ZeroDivisionError as exc:
        raise ElementParseError(f"bad number {text!r}") from exc
    if not math.isfinite(value):
        raise ElementParseError(f"non-finite number {text!r}")
    return value


def _parse_term(term: str) -> tuple[float, str]:
    sign = 1.0
    while term and term[0] in "+-":
        if term[0] == "-":
            sign = -sign
        term = term[1:]
    m = _TERM.match(term)
    if not m or (m.group("num") is None and m.group("unit") is None):
        raise ElementParseError(f"bad term {term!r}")
    if m.group("den_pre") and m.group("den_post"):
        raise ElementParseError(f"bad term {term!r}: two denominators")
    num = m.group("num") or "1"
    den = m.group("den_pre") or m.group("den_post")
    value = parse_number(f"{num}/{den}" if den else num)
    return sign * value, m.group("unit") or ""


def parse_bracket(text: str) -> np.ndarray:
    """The numbers of a bracket list "[x1,...,xm]", text that starts with "[",
    whitespace ignored.  An empty list or an empty component, as in
    "[0.1,,0.2]" or "[0.1,0.2,]", is a parse error."""
    body = "".join(text.split())
    if not body.endswith("]"):
        raise ElementParseError(f"unterminated bracket list {text!r}")
    parts = body[1:-1].split(",")
    if not all(parts):
        raise ElementParseError(f"empty component in bracket list {text!r}")
    return np.array([parse_number(p) for p in parts])


def _bracket_element(values: np.ndarray, algebra: Algebra) -> Element:
    if algebra.kind == "clifford" and values.size == algebra.n_gen:
        return vector_embed(values, algebra)
    if values.size == algebra.dim:
        return Element(algebra, values)
    raise ElementParseError(
        f"bracket list of length {values.size} fits neither the vector model "
        f"({algebra.default_model_dim()}) nor the blade count ({algebra.dim}) of {algebra!r}"
    )


def parse_element(text: str, algebra: Algebra) -> Element:
    """Parse an element of the given algebra from its text form."""
    compact = "".join(text.split())
    if not compact:
        raise ElementParseError("empty element")
    if compact.startswith("["):
        return _bracket_element(parse_bracket(compact), algebra)
    coeffs = np.zeros(algebra.dim)
    for term in filter(None, _SPLIT.split(compact)):
        value, unit = _parse_term(term)
        slot = _UNIT_SLOT[unit]
        if slot >= algebra.dim or (algebra.kind == "clifford" and unit):
            raise ElementParseError(f"unit {unit!r} does not exist in {algebra!r}")
        coeffs[slot] += value
    return Element(algebra, coeffs)


#: largest denominator of a printed rational
_MAX_DENOMINATOR = 1_000_000

#: below this the closest p/q is 0/1 (any other is twice as far): print repr
_REPR_BELOW = 1 / (2 * _MAX_DENOMINATOR)

#: a p/q within this many ulps of x prints as `p/q`
_PRINT_ULPS = 4

#: the float screen returns repr only with no p/q this many ulps near x: the
#: printing rule's ulps plus 1, since p/q itself rounds to a float within 1 ulp
#: of x (half an ulp of p/q, which is at most 2 ulps of x across a binade edge)
_SCREEN_ULPS = _PRINT_ULPS + 1


def _far_from_small_rationals(x: float) -> bool:
    """True only when no p/q with q <= _MAX_DENOMINATOR lies within
    _SCREEN_ULPS ulps of x, a non-integral float of at least _REPR_BELOW.

    A continued fraction in floats proposes the Farey neighbours of x of
    order _MAX_DENOMINATOR: the last convergent p1/q1 and the semiconvergent
    p2/q2.  Exact checks then decide.  Every fraction strictly between two
    with |p1 q2 - p2 q1| = 1 has a denominator of at least q1 + q2 (Hardy &
    Wright, ch. 3); so when q1 + q2 > _MAX_DENOMINATOR and x lies strictly
    between the two, more than _SCREEN_ULPS ulps from each, every p/q with
    q <= _MAX_DENOMINATOR is that far from x.  The loop only proposes: a pair
    that rounding led astray fails a check, and so does a product x q of 2^52
    or more, an integral float."""
    y, q0, q1 = x, 1.0, 0.0
    try:
        while True:
            f = y % 1.0
            q2 = q0 + (y - f) * q1
            if q2 > _MAX_DENOMINATOR:
                break
            q0, q1 = q1, q2
            y = 1.0 / f
    except ZeroDivisionError:  # the expansion ended: x is p/q in float arithmetic
        return False
    q2 = q0 + (_MAX_DENOMINATOR - q0) // q1 * q1
    y1, y2 = x * q1, x * q2
    p1, p2 = round(y1), round(y2)
    # d = y - p is exact, and y is off x q by at most half an ulp of y
    d1, d2 = y1 - p1, y2 - p2
    u = _SCREEN_ULPS * math.ulp(x)
    return ((d1 < 0) != (d2 < 0)
            and abs(d1) > u * q1 + math.ulp(y1)
            and abs(d2) > u * q2 + math.ulp(y2)
            and q1 + q2 > _MAX_DENOMINATOR
            and abs(p1 * int(q2) - p2 * int(q1)) == 1)


def format_number(x: float) -> str:
    """Text for a float: an integer when x is integral, a small rational when
    one sits within 4 ulps, otherwise the full repr.  Either form of a finite
    x parses back to within 4 ulps.  Past the screen the rational is the one
    `Fraction(x).limit_denominator(_MAX_DENOMINATOR)` finds."""
    x = float(x)
    if x.is_integer():
        return str(int(x))
    if abs(x) < _REPR_BELOW or not abs(x) < math.inf or _far_from_small_rationals(abs(x)):
        return repr(x)
    from fractions import Fraction  # not at import time: it loads decimal too

    best = Fraction(x).limit_denominator(_MAX_DENOMINATOR)
    if abs(float(best) - x) <= _PRINT_ULPS * math.ulp(x):
        return f"{best.numerator}/{best.denominator}"
    return repr(x)


def _format_rational_unit(value: float, unit: str) -> str:
    # "9/25i" style: the denominator precedes the unit symbol
    body = format_number(abs(value))
    if unit and body == "1":
        return unit
    return f"{body}{unit}"


def format_element(x: Element) -> str:
    algebra, coeffs = x.algebra, x.coeffs
    if algebra.kind == "clifford":
        vector = coeffs[algebra.model_indices(algebra.n_gen)]
        if np.count_nonzero(vector) == np.count_nonzero(coeffs):  # nothing off the model
            coeffs = vector
        # most blades of a rotor or a residue-laden vector are zero
        texts = ["0"] * coeffs.size
        slots = np.flatnonzero(coeffs)
        for k, value in zip(slots.tolist(), coeffs[slots].tolist()):
            texts[k] = format_number(value)
        return "[" + ",".join(texts) + "]"
    parts = []
    for value, unit in zip(coeffs.tolist(), ("", "i", "j", "k")):
        if value == 0.0:
            continue
        sign = "-" if value < 0 else ("+" if parts else "")
        parts.append(sign + _format_rational_unit(value, unit))
    return "".join(parts) if parts else "0"
