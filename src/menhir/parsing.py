"""Text grammar for algebra elements, shared by the command line and tests.

Scalars and unit symbols combine into sums of terms; whitespace is ignored:

    real/complex/quaternion   "4/5", "0.5", "3i/5", "i/3", "9/25i", "1/2+i/3",
                              "0.2-0.5j+k"   (units i, j, k; rationals or decimals)
    clifford(n)               "[v1,...,vn]"        vector components, or
                              "[c0,...,c_{2^n-1}]" dense blade coefficients
                              (length n versus 2^n disambiguates; n < 2^n always)

Formatting is the inverse: coefficients that are exactly representable as small
rationals print as `p/q`, everything else as `repr(float)`, so emitted text
round-trips bit for bit.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

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
    "parse_element",
    "parse_number",
]


class ElementParseError(ValueError):
    """Input text does not match the element grammar."""


_NUM = r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
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
    m = re.fullmatch(r"clifford(\d+)", tag)
    if m:
        return clifford(int(m.group(1)))
    raise ElementParseError(
        f"unknown algebra tag {tag!r}; use real, complex, quaternion or clifford<N>"
    )


def parse_number(text: str) -> float:
    """A finite decimal or a rational p/q with q nonzero."""
    text = text.strip()
    num, slash, den = text.partition("/")
    try:
        value = float(num) / float(den) if slash else float(num)
    except (ValueError, ZeroDivisionError) as exc:
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


def _parse_bracket(text: str, algebra: Algebra) -> Element:
    body = text.strip()[1:-1].strip()
    parts = [p for p in body.split(",") if p.strip()] if body else []
    values = np.array([parse_number(p) for p in parts])
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
    compact = re.sub(r"\s+", "", text)
    if not compact:
        raise ElementParseError("empty element")
    if compact.startswith("["):
        if not compact.endswith("]"):
            raise ElementParseError(f"unterminated bracket list {text!r}")
        return _parse_bracket(compact, algebra)
    coeffs = np.zeros(algebra.dim)
    for term in filter(None, _SPLIT.split(compact)):
        value, unit = _parse_term(term)
        slot = _UNIT_SLOT[unit]
        if slot >= algebra.dim or (algebra.kind == "clifford" and unit):
            raise ElementParseError(f"unit {unit!r} does not exist in {algebra!r}")
        coeffs[slot] += value
    return Element(algebra, coeffs)


def format_number(x: float) -> str:
    """Text for a float: a small rational when one sits within a few ulps,
    otherwise the full repr.  Either form parses back to within 4 ulps."""
    x = float(x)
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    frac = Fraction(x).limit_denominator(1_000_000)
    if abs(float(frac) - x) <= 4 * math.ulp(x):
        return f"{frac.numerator}/{frac.denominator}"
    return repr(x)


def _format_rational_unit(value: float, unit: str) -> str:
    # "9/25i" style: the denominator precedes the unit symbol
    body = format_number(abs(value))
    if unit and body == "1":
        return unit
    return f"{body}{unit}"


def format_element(x: Element) -> str:
    algebra = x.algebra
    if algebra.kind == "clifford":
        idx = algebra.model_indices(algebra.n_gen)
        rest = np.delete(x.coeffs, idx)
        if rest.size == 0 or np.abs(rest).max() == 0.0:
            values = x.coeffs[idx]
        else:
            values = x.coeffs
        return "[" + ",".join(format_number(v) for v in values) + "]"
    units = ["", "i", "j", "k"][: algebra.dim]
    parts = []
    for value, unit in zip(x.coeffs, units):
        if value == 0.0:
            continue
        sign = "-" if value < 0 else ("+" if parts else "")
        parts.append(sign + _format_rational_unit(value, unit))
    return "".join(parts) if parts else "0"
