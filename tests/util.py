"""Shared sampling helpers and reference implementations for the test suite.

The references are the package's first, loop-based algebra code: a scalar
swap count per pair of blades, a product summed blade by blade over the
nonzero coefficients of the left operand, and the Thomas rotation matrix
built by sandwiching each basis vector.  The table-driven kernel in
`menhir.algebra` is checked against them.  So are the closed-form Thomas
angle, against the angle read from the trace of the rotation matrix, and the
number formatting of `menhir.parsing`, against `Fraction.limit_denominator`.
"""

import functools
import math
from fractions import Fraction

import numpy as np

from menhir.algebra import vector_embed
from menhir.calculus import menhir_of


def unit_vector(rng, n):
    while True:
        d = rng.standard_normal(n)
        norm = np.linalg.norm(d)
        if norm > 1e-6:
            return d / norm


def ball_vector(rng, n, lo=0.0, hi=0.95):
    return unit_vector(rng, n) * rng.uniform(lo, hi)


def random_element(rng, algebra, scale=1.0):
    return algebra.element(rng.standard_normal(algebra.dim) * scale)


def random_menhir(rng, algebra, n, hi=0.9):
    return menhir_of(vector_embed(ball_vector(rng, n, 0.0, hi), algebra))


# -- reference implementations ------------------------------------------------------

def reference_blade_sign(a: int, b: int) -> float:
    """Sign of e_A e_B for blade bitmasks A, B, every generator squaring to -1."""
    swaps = int(a & b).bit_count()  # each shared generator contributes e_i^2 = -1
    x = a >> 1
    while x:
        swaps += int(x & b).bit_count()
        x >>= 1
    return -1.0 if swaps & 1 else 1.0


@functools.lru_cache(maxsize=None)
def _reference_sign_row(n_gen: int, a: int) -> np.ndarray:
    return np.array([reference_blade_sign(a, b) for b in range(1 << n_gen)])


def reference_sign_table(n_gen: int) -> np.ndarray:
    """table[a, b] = sign of e_a e_b, one scalar swap count per entry."""
    return np.array([_reference_sign_row(n_gen, a) for a in range(1 << n_gen)])


def reference_mul_coeffs(algebra, a, b) -> np.ndarray:
    """Coefficients of a b, summed blade by blade over the nonzero a_i."""
    idx = np.arange(algebra.dim)
    out = np.zeros(algebra.dim)
    for i in np.flatnonzero(a):
        out[idx ^ i] += a[i] * (_reference_sign_row(algebra.n_gen, int(i)) * b)
    return out


def reference_rotation_matrix(rotation, model_dim: int) -> np.ndarray:
    """Matrix of z -> alpha z beta^{-1}: column k is the sandwich of basis
    vector k, all products by `reference_mul_coeffs`."""
    algebra = rotation.algebra
    beta = rotation.beta.coeffs
    conj = beta * algebra.conj_sign
    beta_inv = conj / reference_mul_coeffs(algebra, beta, conj)[0]
    idx = algebra.model_indices(model_dim)
    cols = []
    for k in range(model_dim):
        basis = np.zeros(algebra.dim)
        basis[idx[k]] = 1.0
        image = reference_mul_coeffs(
            algebra, reference_mul_coeffs(algebra, rotation.alpha.coeffs, basis), beta_inv)
        cols.append(image[idx])
    return np.column_stack(cols)


def reference_angle(rotation, model_dim=None) -> float:
    """Principal rotation angle read from the trace of `rotation.matrix`,
    arccos((tr - (n - 2)) / 2); the planar angle of rho for the complexes."""
    kind = rotation.algebra.kind
    if kind == "real":
        return 0.0
    if kind == "complex":
        r = rotation.rho()
        return math.atan2(r.coeffs[1], r.coeffs[0])
    if model_dim is None:
        model_dim = rotation.algebra.default_model_dim()
    o = rotation.matrix(model_dim)
    c = (np.trace(o) - (model_dim - 2)) / 2.0
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def reference_format_number(x: float) -> str:
    """Integers below 1e15 as integers, else `Fraction.limit_denominator(10**6)`
    when within 4 ulps, else repr."""
    x = float(x)
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    frac = Fraction(x).limit_denominator(1_000_000)
    if abs(float(frac) - x) <= 4 * math.ulp(x):
        return f"{frac.numerator}/{frac.denominator}"
    return repr(x)


def reference_format_element(x) -> str:
    """`format_element` with every coefficient through `reference_format_number`."""
    algebra = x.algebra
    if algebra.kind == "clifford":
        idx = algebra.model_indices(algebra.n_gen)
        rest = np.delete(x.coeffs, idx)
        values = x.coeffs[idx] if rest.size == 0 or np.abs(rest).max() == 0.0 else x.coeffs
        return "[" + ",".join(reference_format_number(v) for v in values) + "]"
    parts = []
    for value, unit in zip(x.coeffs, ["", "i", "j", "k"]):
        if value == 0.0:
            continue
        body = reference_format_number(abs(value))
        if unit and body == "1":
            body = ""
        sign = "-" if value < 0 else ("+" if parts else "")
        parts.append(sign + body + unit)
    return "".join(parts) if parts else "0"
