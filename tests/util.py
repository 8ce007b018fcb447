"""Shared sampling helpers and reference implementations for the test suite.

The references are the package's first, loop-based algebra code: a scalar
swap count per pair of blades, a product summed blade by blade over the
nonzero coefficients of the left operand, and the Thomas rotation matrix
built by sandwiching each basis vector.  The table-driven kernel in
`menhir.algebra` is checked against them.  So are the closed-form Thomas
angle, against the angle read from the trace of the rotation matrix, and the
number formatting of `menhir.parsing`, against `Fraction.limit_denominator`.
`reference_composition` freezes the composition route with one product each
for the composite, alpha and beta (alpha for both on a rotor pair), which
`calculus._compose`, one product for all three, must match byte for byte.
`reference_boost_matrix` and `reference_polar_decompose` freeze the
oracle's boost and float64 split as first written, the split a product with
a third boost B(-u) that cancels entries of size gamma^2; the package's
boost and closed-form split must be at least as close to the 50-digit
references as they are.  `reference_read_catalog` is the row-by-row catalog
reader that the bulk `cli._read_catalog` must match in labels, bitwise in
stars and in its error messages, and `reference_shift_table` the table
writer, one repr per number, that `cli._shift_table` must match byte for
byte.  `halfway_texts` and `long_mantissa_text` write number texts on the
border of what orjson reads as float() does, for the catalog reader's tests
and its CI sweep.  The `exact_*` helpers redo a computation from the same float inputs
in 50-digit mpmath, which they import when called, so only the tests that
use them need it.  The
comparison helpers `max_diff` and `allclose`, the parts `norm_sq` and
`scalar_part`, the Lorentz check `is_lorentz` and the star-shift trial
`aberration_trial` serve only the tests, so they live here.
"""

import ast
import decimal
import functools
import importlib
import io
import math
import os
import tokenize
from fractions import Fraction

import numpy as np
import pytest

from menhir.algebra import vector_embed
from menhir.calculus import MoebiusMatrix, menhir_of
from menhir.lorentz import EXTENDED_MANTISSA_BITS
from menhir.parsing import ElementParseError
from menhir.verify import CONFIGS, TIERS, aberration_spread, sample_direction, sample_velocity


def unit_vector(rng, n):
    while True:
        d = rng.standard_normal(n)
        norm = np.linalg.norm(d)
        if norm > 1e-6:
            return d / norm


def ball_vector(rng, n, lo=0.0, hi=0.95):
    return unit_vector(rng, n) * rng.uniform(lo, hi)


#: marks a test of the oracle split's extended precision: it runs only where
#: long double is wider than double (not under MSVC or on macOS arm64)
needs_extended_split = pytest.mark.skipif(
    np.finfo(np.longdouble).nmant < EXTENDED_MANTISSA_BITS,
    reason="long double is double here, so the oracle splits in float64")


#: the speeds of the hard samples: both verify tiers, to the stress tier's edge
SPEEDS = (0.5, 0.95, 0.999, 1.0 - 1e-6)


def opposite_pair(rng, n, speed, angle):
    """A velocity pair of one speed whose directions are `angle` off antipodal."""
    d = unit_vector(rng, n)
    d2 = -(d + angle * unit_vector(rng, n))
    return d * speed, d2 * (speed / np.linalg.norm(d2))


def hard_pairs(rng, n, count=6):
    """Velocity pairs at every speed of SPEEDS, random and nearly opposite."""
    for speed in SPEEDS:
        for angle in (None, 1e-1, 1e-3, 1e-6):
            for _ in range(count):
                if angle is None:
                    yield unit_vector(rng, n) * speed, unit_vector(rng, n) * speed
                else:
                    yield opposite_pair(rng, n, speed, angle)


def random_element(rng, algebra, scale=1.0):
    return algebra.element(rng.standard_normal(algebra.dim) * scale)


def basis_blade(algebra, mask: int):
    """The basis blade of `algebra` with bitmask `mask`, coefficient 1."""
    coeffs = np.zeros(algebra.dim)
    coeffs[mask] = 1.0
    return algebra.element(coeffs)


def random_menhir(rng, algebra, n, hi=0.9):
    return menhir_of(vector_embed(ball_vector(rng, n, 0.0, hi), algebra))


def entries(m: MoebiusMatrix) -> tuple:
    return (m.a, m.b, m.c, m.d)


def max_diff(x, y) -> float:
    """Largest coefficient gap of two elements, or of two Moebius matrices
    entry by entry."""
    if isinstance(x, MoebiusMatrix):
        return max(max_diff(p, q) for p, q in zip(entries(x), entries(y)))
    return float(np.abs(x.coeffs - x._coerce(y).coeffs).max())


def allclose(x, y, atol: float = 1e-12) -> bool:
    return max_diff(x, y) <= atol


def norm_sq(x) -> float:
    """Sum of squared coefficients; equals x x* whenever that product is scalar."""
    return float(x.coeffs @ x.coeffs)


def scalar_part(x) -> float:
    return float(x.coeffs[0])


#: rounding that `is_lorentz` allows in L^T G L - G and in L00 >= 1
LORENTZ_ATOL = 1e-10


def minkowski_metric(n: int) -> np.ndarray:
    g = -np.eye(1 + n)
    g[0, 0] = 1.0
    return g


def is_lorentz(L) -> bool:
    """Orthochronous proper Lorentz check: L^T G L = G, det +1, L00 >= 1."""
    L = np.asarray(L, dtype=float)
    g = minkowski_metric(L.shape[0] - 1)
    if np.abs(L.T @ g @ L - g).max() > LORENTZ_ATOL:
        return False
    return bool(np.linalg.det(L) > 0.0 and L[0, 0] >= 1.0 - LORENTZ_ATOL)


def aberration_trial(rng, key: str, tier: str = "normal"):
    """One three-way star-shift trial of a verify lane; returns (spread, v, star)."""
    algebra, n = CONFIGS[key]
    lo, hi, _ = TIERS[tier]
    v = sample_velocity(rng, n, lo, hi)
    star = sample_direction(rng, n)
    return aberration_spread(v, star[np.newaxis], algebra), v, star


def normalized(m: MoebiusMatrix) -> MoebiusMatrix:
    """Projective normal form: rows left-divided by their leading entries."""
    one = m.a.algebra.one
    return MoebiusMatrix(one, m.a.inverse() * m.b, m.d.inverse() * m.c, one)


# -- threshold literals -----------------------------------------------------------

def _assignments(source: str) -> list[tuple[int, int, str]]:
    """(first line, last line, name) of each module-level `name = ...`."""
    spans = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            target = node.targets[0] if isinstance(node, ast.Assign) else node.target
            if isinstance(target, ast.Name):
                spans.append((node.lineno, node.end_lineno, target.id))
    return spans


def float_literals(path: str) -> list[tuple[int, str, str | None]]:
    """(line, text, name) of every nonzero float literal below 1 in the code
    of a Python file, strings and comments left out: `name` is the target of
    the module-level assignment that holds the literal, None outside one.
    Halves, quarters, eighths and sixteenths, such as the 0.5 of a midpoint,
    are arithmetic, not tolerances, and are left out too."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    spans = _assignments(source)
    found = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type != tokenize.NUMBER:
            continue
        value = ast.literal_eval(tok.string)
        if not (isinstance(value, float) and 0.0 < value < 1.0):
            continue
        if Fraction(tok.string.replace("_", "")).denominator > 16:
            line = tok.start[0]
            name = next((n for first, last, n in spans if first <= line <= last), None)
            found.append((line, tok.string, name))
    return found


def named_thresholds(path: str) -> dict:
    """Module-level names, with their values, that a `menhir` source file
    assigns a float below 1 or a value holding a float literal below 1."""
    module = importlib.import_module("menhir." + os.path.basename(path)[:-3])
    with open(path, encoding="utf-8") as fh:
        names = [name for _, _, name in _assignments(fh.read())]
    held = {name for _, _, name in float_literals(path)}
    values = {name: getattr(module, name) for name in names}
    return {name: value for name, value in values.items()
            if name in held or (isinstance(value, float) and 0.0 < value < 1.0)}


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


def reference_composition(e1, e2):
    """`compose_menhirs` and `thomas_rotation` as first written, one product
    each: the composite (e1 + e2)(1 + conj(e1) e2)^{-1}, alpha = 1 + e2
    conj(e1) and beta = 1 + conj(e2) e1, beta being the alpha object itself
    when conj(e) = -e for both menhirs.  Returns (composite, alpha, beta)."""
    c1, c2 = e1.conjugate(), e2.conjugate()
    composite = (e1 + e2) / (1.0 + c1 * e2)
    alpha = 1.0 + e2 * c1
    if not (e1.coeffs[0] or e2.coeffs[0] or np.count_nonzero(c1.coeffs + e1.coeffs)
            or np.count_nonzero(c2.coeffs + e2.coeffs)):
        return composite, alpha, alpha
    return composite, alpha, 1.0 + c2 * e1


def reference_boost_matrix(v) -> np.ndarray:
    """`lorentz.boost_matrix` as first written, rounding for rounding."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    n = v.size
    v2 = float(v @ v)
    g = 1.0 / np.sqrt(1.0 - v2)
    L = np.eye(1 + n)
    L[0, 0] = g
    L[0, 1:] = g * v
    L[1:, 0] = g * v
    L[1:, 1:] += g * g / (g + 1.0) * np.outer(v, v)
    return L


def reference_polar_decompose(L):
    """`lorentz.polar_decompose` as first written, without its input checks:
    u off the first row of L, and the rotation as the float64 product
    L B(-u) with `reference_boost_matrix`.  Returns (rotation, u)."""
    L = np.asarray(L, dtype=float)
    u = L[0, 1:] / L[0, 0]
    return L @ reference_boost_matrix(-u), u


def reference_read_catalog(path: str):
    """`cli._read_catalog` as first written, one row at a time: each row is
    checked as it is read, so an error names the first bad row; the rows are
    then normalised together in one array.  A leading byte-order mark is
    skipped, as the package reader skips it."""
    labels, rows = [], []
    with open(path, "r", encoding="utf-8-sig") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(",")  # float() ignores the spaces around a number
            label = None
            try:
                float(fields[0])
            except ValueError:
                label = fields[0].strip()
                fields = fields[1:]
            try:
                row = list(map(float, fields))
            except ValueError as exc:
                raise ElementParseError(f"{path}:{line_no}: bad catalog row") from exc
            # |row|^2 in Python floats: an overflowing row reads inf, with no warning
            if not 1e-24 <= sum(x * x for x in row) < math.inf:
                raise ElementParseError(f"{path}:{line_no}: direction must be finite and nonzero")
            labels.append(label if label is not None else f"star{len(labels)}")
            rows.append(row)
    if not rows:
        raise ElementParseError(f"{path}: empty catalog")
    if len({len(r) for r in rows}) != 1:
        raise ElementParseError(f"{path}: inconsistent dimensions")
    stars = np.array(rows)
    # the stacked (1 x n)(n x 1) products take the dot of np.linalg.norm on one
    # row, so each unit row is bitwise the row-by-row one
    norms = np.sqrt((stars[:, None, :] @ stars[:, :, None]).ravel())
    return labels, stars / norms[:, None]


def reference_shift_table(labels, stars: np.ndarray, shifted: np.ndarray) -> str:
    """`cli._shift_table` as first written, one repr per number: CSV schema
    v1, label, in_1..in_n, out_1..out_n."""
    n = stars.shape[1]
    columns = [f"in_{k+1}" for k in range(n)] + [f"out_{k+1}" for k in range(n)]
    lines = [",".join(["label"] + columns)]
    for label, a, s in zip(labels, stars.tolist(), shifted.tolist()):
        lines.append(f"{label}," + ",".join(map(repr, a + s)))
    return "\n".join(lines) + "\n"


# -- number texts on the border of JSON's grammar --------------------------------------

def scientific_text(digits: str, exponent: int) -> str:
    """d.ddd...e<exponent>: the digit string with its first digit at 10^exponent."""
    return f"{digits[0]}.{digits[1:] or '0'}e{exponent}"


def halfway_texts(x: float) -> list[str]:
    """The exact decimal halfway between the double x >= 0 and the next one
    up (float() rounds it to the one whose last bit is even), and the same
    digits with the last one dropped and with a 1 appended, just below and
    just above the halfway."""
    with decimal.localcontext() as context:
        context.prec = 1200  # exact: no halfway has 800 significant digits
        half = decimal.Decimal(x) + decimal.Decimal(math.ulp(x)) / 2
    _, digits, exponent = half.as_tuple()
    digits = "".join(map(str, digits))
    exponent += len(digits) - 1
    return [scientific_text(d, exponent) for d in (digits[:-1], digits, digits + "1")]


def long_mantissa_text(rng, n_digits: int, exponent: int) -> str:
    """A seeded n-digit mantissa, d.ddd...e<exponent>."""
    digits = "".join(map(str, rng.integers(0, 10, n_digits).tolist()))
    return scientific_text(str(rng.integers(1, 10)) + digits[1:], exponent)


# -- 50-digit references ---------------------------------------------------------------

EXACT_DIGITS = 50


def _exact(x):
    """The float coefficients of x as mpmath numbers (exact conversions)."""
    import mpmath
    return [mpmath.mpf(float(c)) for c in x]


def _exact_boost(v):
    import mpmath
    n = len(v)
    g = 1 / mpmath.sqrt(1 - mpmath.fsum(x * x for x in v))
    k = g * g / (g + 1)
    L = mpmath.eye(1 + n)
    L[0, 0] = g
    for i in range(n):
        L[0, 1 + i] = L[1 + i, 0] = g * v[i]
        for j in range(n):
            L[1 + i, 1 + j] += k * v[i] * v[j]
    return L


def exact_boost_matrix(v) -> np.ndarray:
    """The boost by the float velocity v from a 50-digit computation,
    rounded to a float array."""
    import mpmath
    with mpmath.workdps(EXACT_DIGITS):
        L = _exact_boost(_exact(v))
        return np.array(L.tolist(), dtype=float)


def exact_polar_split(v, w):
    """Velocity u and spatial rotation R of L(w) L(v) = R B(u), rounded to
    float arrays from a 50-digit computation on the float velocities v, w."""
    import mpmath
    n = len(v)
    with mpmath.workdps(EXACT_DIGITS):
        L = _exact_boost(_exact(w)) * _exact_boost(_exact(v))
        u = [L[0, 1 + i] / L[0, 0] for i in range(n)]
        R = L * _exact_boost([-x for x in u])
        return (np.array([float(x) for x in u]),
                np.array([[float(R[1 + i, 1 + j]) for j in range(n)] for i in range(n)]))


def _exact_ham(p, q):
    a, b, c, d = p
    e, f, g, h = q
    return [a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e]


def _exact_sandwich(alpha, beta):
    """The 4x4 mpmath matrix of z -> alpha z beta^{-1} on the quaternions,
    for alpha and beta given as mpmath coefficient lists."""
    import mpmath
    norm_sq = mpmath.fsum(x * x for x in beta)
    beta_inv = [beta[0] / norm_sq] + [-x / norm_sq for x in beta[1:]]
    o = mpmath.matrix(4, 4)
    for k in range(4):
        basis = [mpmath.mpf(0)] * 4
        basis[k] = mpmath.mpf(1)
        image = _exact_ham(_exact_ham(alpha, basis), beta_inv)
        for i in range(4):
            o[i, k] = image[i]
    return o


def exact_quaternion_rotation_matrix(alpha, beta) -> np.ndarray:
    """The rotation of the quaternion pair (alpha, beta) on the 4-D model:
    the sandwich z -> alpha z beta^{-1} of the same float alpha and beta,
    scaled by |beta|/|alpha|, from a 50-digit computation rounded to floats.
    The scale is 1 for an exact Thomas pair; separately rounded alpha and
    beta of a pair near the light cone have norms up to a few 1e-13 apart
    relatively, and the unscaled sandwich is that far from orthogonal."""
    import mpmath
    with mpmath.workdps(EXACT_DIGITS):
        p, q = _exact(alpha.coeffs), _exact(beta.coeffs)
        scale = mpmath.sqrt(mpmath.fsum(x * x for x in q) / mpmath.fsum(x * x for x in p))
        o = _exact_sandwich(p, q) * scale
        return np.array([[float(o[i, j]) for j in range(4)] for i in range(4)])


def exact_quaternion_angle(e1, e2) -> float:
    """Angle of the 4-D Thomas rotation z -> alpha z beta^{-1}, alpha =
    1 + e2 conj(e1) and beta = 1 + conj(e2) e1, from a 50-digit computation
    on the float quaternion menhirs e1 and e2.  The rotation is simple, so
    its matrix O gives sin and cos as |O - O^T|_F / (2 sqrt 2) and
    (tr O - 2) / 2."""
    import mpmath
    with mpmath.workdps(EXACT_DIGITS):
        p, q = _exact(e1.coeffs), _exact(e2.coeffs)

        def conj(x):
            return [x[0], -x[1], -x[2], -x[3]]

        alpha = _exact_ham(q, conj(p))
        beta = _exact_ham(conj(q), p)
        alpha[0] += 1
        beta[0] += 1
        o = _exact_sandwich(alpha, beta)
        sine = mpmath.sqrt(mpmath.fsum((o[i, j] - o[j, i]) ** 2
                                       for i in range(4) for j in range(4)))
        sine /= 2 * mpmath.sqrt(2)
        cosine = (mpmath.fsum(o[i, i] for i in range(4)) - 2) / 2
        return float(mpmath.atan2(sine, cosine))
