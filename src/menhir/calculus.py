"""Velocity composition in the unit-ball picture.

A velocity is an element of the open unit ball of an algebra's vector model
(speed of light = 1).  Its *menhir* is the radially rescaled point
e = v/(1 + sqrt(1 - |v|^2)); menhirs compose by the Poincare-like law

    e1 [+] e2 = (e1 + e2) (1 + conj(e1) e2)^{-1}

with e1 the boost applied first.  The residual Thomas rotation is carried by
the pair (1 + e2 conj(e1), 1 + conj(e2) e1) acting as a sandwich z -> a z b^{-1},
and both facts live inside one matrix identity

    M(e2) M(e1) = R(alpha, beta) M(e1 [+] e2),      M(e) = [[1, e], [e*, 1]]

which holds entrywise in every supported algebra, with (alpha, beta) from
`thomas_rotation` and e1 [+] e2 from `compose_menhirs`.  Functions here operate
on `Element` values; the radial maps also accept plain vectors.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .algebra import SINGULAR, Element, SingularElementError, _SCALAR_ATOL

__all__ = [
    "MoebiusMatrix",
    "RotationDescriptor",
    "SuperluminalError",
    "compose_menhirs",
    "compose_velocities",
    "menhir_gap",
    "menhir_of",
    "moebius_apply",
    "refine_gap_argmax",
    "rotation_axis_angle",
    "thomas_rotation",
    "velocity_of",
]

# The menhir map has a square-root singularity at |v| = 1.
SUPERLUMINAL_EDGE = 1.0 - 1e-12

#: largest | |z| - 1 | of a sphere point: word images stay unit to rounding
UNIT_ATOL = 1e-9
#: a length or area (or |B| over a rotor's |s|) at most this is zero
DEGENERATE_ATOL = 1e-14
#: simple-bivector residual bound; below _SCALAR_ATOL / (2 sqrt(2) n), see `_rotor`
_SIMPLE_ATOL = _SCALAR_ATOL / 100


class SuperluminalError(ValueError):
    """Input speed at or beyond the speed of light."""


def _norm(x) -> float:
    """Euclidean norm of an element or a plain vector; finite for finite input."""
    if isinstance(x, Element):
        return x.norm()
    return math.hypot(*np.asarray(x, dtype=float).ravel().tolist())


def _check_ball(x, what: str) -> float:
    """|x| if x is strictly inside the unit ball (`not <` also rejects NaN)."""
    n = _norm(x)
    if not n < SUPERLUMINAL_EDGE:
        raise SuperluminalError(f"|{what}| = {n!r} is not strictly below 1")
    return n


def menhir_of(v):
    """Menhir of a velocity: e = v / (1 + sqrt(1 - |v|^2)).

    Accepts an `Element` of a vector model or a plain real vector; the result
    is the same kind of object, parallel to the input.
    """
    n = _check_ball(v, "velocity")
    return v * (1.0 / (1.0 + math.sqrt(1.0 - n * n)))


def velocity_of(e):
    """Velocity of a menhir: v = 2 e / (1 + |e|^2).  Inverse of `menhir_of`."""
    n = _check_ball(e, "menhir")
    return e * (2.0 / (1.0 + n * n))


def compose_menhirs(e1: Element, e2: Element) -> Element:
    """Menhir of the composite boost: e1 applied first, then e2.

    (e1 + e2)(1 + conj(e1) e2)^{-1}; over Clifford vectors the denominator is
    the familiar 1 - e1 e2.
    """
    _check_ball(e1, "menhir")
    _check_ball(e2, "menhir")
    return (e1 + e2) / (1.0 + e1.conjugate() * e2)


@functools.lru_cache(maxsize=None)
def _bivector_slots(n_gen: int) -> tuple[np.ndarray, np.ndarray]:
    """Blade masks of the bivectors e_i e_j (i < j), and the gather that lays
    their coefficients b out as an antisymmetric matrix: [b, -b, 0][table]
    holds b_ij at (i, j) and -b_ij at (j, i)."""
    i, j = np.triu_indices(n_gen, 1)
    m = i.size
    table = np.full((n_gen, n_gen), 2 * m)
    table[i, j] = np.arange(m)
    table[j, i] = m + np.arange(m)
    return (1 << i) | (1 << j), table


_ZERO = np.zeros(1)


class _Rotor(NamedTuple):
    """q = s + B with B a simple bivector, and the plane rotation
    z -> q z q^{-1} it makes on the vector model.  f is the antisymmetric
    matrix of B, signed so that the rotation's matrix is
    I + (2s/|q|^2) f^T + (2/|q|^2) f^2, and f2 = f @ f."""

    s: float
    norm_b: float
    f: np.ndarray
    f2: np.ndarray

    @property
    def angle(self) -> float:
        return 2.0 * math.atan2(self.norm_b, abs(self.s))

    def matrix(self) -> np.ndarray:
        scale = self.s * self.s + self.norm_b * self.norm_b
        o = (2.0 / scale) * self.f2
        o -= (2.0 * self.s / scale) * self.f  # f^T = -f
        o.flat[::len(o) + 1] += 1.0  # + I, with no identity allocated
        return o


def _rotor(q: Element) -> _Rotor | None:
    """q as a rotor s + B, B a simple bivector; every imaginary quaternion
    counts as one.  None when q has a part of another grade, B is not simple
    or q is (nearly) zero: such a q is no rotor.  This is the one rotor test
    behind `RotationDescriptor.angle`, `RotationDescriptor.matrix` and
    `rotation_axis_angle`."""
    algebra, c = q.algebra, q.coeffs
    if algebra.kind == "quaternion":
        x, y, z = c[1:].tolist()
        nb = math.hypot(x, y, z)
        f = np.array([[0.0, z, -y], [-z, 0.0, x], [y, -x, 0.0]])
    else:
        masks, table = _bivector_slots(algebra.n_gen)
        b = c[masks]
        if np.count_nonzero(c[1:]) != np.count_nonzero(b):
            return None
        nb = math.hypot(*b.tolist())
        f = np.concatenate((b, -b, _ZERO))[table]
    s = float(c[0])
    scale = s * s + nb * nb
    if not scale >= SINGULAR:
        return None
    f2 = f @ f
    if algebra.kind == "clifford":
        # B is simple iff f has rank 2, i.e. f^3 = -|B|^2 f; the bound keeps
        # |B ^ B| within what `Element.inverse` allows on n <= 10 generators
        residual = f2 @ f
        residual += (nb * nb) * f
        if np.abs(residual, out=residual).max(initial=0.0) > _SIMPLE_ATOL * nb * max(1.0, scale):
            return None
    return _Rotor(s, nb, f, f2)


class RotationDescriptor:
    """The rotational factor of a two-boost composition, as a sandwich pair.

    Acts on sphere points by z -> alpha z beta^{-1}.  Over the complexes this
    collapses to multiplication by the unit number rho = alpha/beta; over
    imaginary quaternions and Clifford vectors alpha = beta and the action is
    the familiar conjugation sandwich.  `thomas_rotation` then passes one
    element as both, and that is what marks a rotor pair: `beta is alpha`.
    """

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: Element, beta: Element):
        self.alpha = alpha
        self.beta = beta

    @property
    def algebra(self):
        return self.alpha.algebra

    def _as_rotor(self) -> _Rotor | None:
        """alpha as a rotor when the pair is one element passed twice (`beta
        is alpha`), else None; two elements with equal bits are two."""
        return _rotor(self.alpha) if self.beta is self.alpha else None

    def rho(self) -> Element:
        """alpha / beta; over the reals and complexes this is the unit rotation number."""
        return self.alpha / self.beta

    def matrix(self, model_dim: int) -> np.ndarray:
        """Matrix of the sandwich action on the model vector space, in closed
        form, with no basis sandwich:
        - the real line (model 1): rho = alpha/beta gives [[rho]];
        - the complex plane (model 2): rho = alpha/beta = c + s i gives
          [[c, -s], [s, c]];
        - rotor pairs, one element s + B passed twice (B a simple bivector),
          as `thomas_rotation` builds for Clifford vectors and imaginary
          quaternions (model 3): I + (2s/q) F^T + (2/q) F^2 with F the
          antisymmetric matrix of B and q = s^2 + |B|^2 (see `_rotor`);
        - the full quaternions (model 4): the isoclinic product
          L(alpha/|alpha|) R(conj(beta)/|beta|) of the matrices of left and
          right multiplication, orthogonal to rounding.  It is the sandwich
          scaled by |beta|/|alpha|, which is 1 for a Thomas pair; a zero
          alpha or beta raises SingularElementError.
        Every two-boost pair has one of these forms.  Any other pair raises:
        UnsupportedDimensionError for a model the algebra lacks,
        SingularElementError when beta has no inverse, else ValueError."""
        algebra, kind = self.algebra, self.algebra.kind
        if kind == "real" and model_dim == 1:
            return self.rho().coeffs.reshape(1, 1)
        if kind == "complex" and model_dim == 2:
            c, s = self.rho().coeffs.tolist()
            return np.array([[c, -s], [s, c]])
        if kind == "quaternion" and model_dim == 4:
            na, nb = self.alpha.norm(), self.beta.norm()
            if not (na * na >= SINGULAR and nb * nb >= SINGULAR):
                raise SingularElementError(f"{self!r} has no rotation")
            a, b, c, d = (self.alpha.coeffs / na).tolist()
            e, f, g, h = (self.beta.coeffs / nb).tolist()
            left = np.array([[a, -b, -c, -d], [b, a, -d, c], [c, d, a, -b], [d, -c, b, a]])
            right = np.array([[e, f, g, h], [-f, e, -h, g], [-g, h, e, -f], [-h, -g, f, e]])
            return left @ right
        if (kind == "clifford" and model_dim == algebra.n_gen) or (
                kind == "quaternion" and model_dim == 3):
            rotor = self._as_rotor()
            if rotor is not None:
                return rotor.matrix()
        algebra.model_indices(model_dim)  # raises for a model the algebra lacks
        self.beta.inverse()  # raises for a beta with no inverse
        raise ValueError(f"{self!r} has no closed form on the {model_dim}-vector model")

    def angle(self) -> float:
        """Rotation angle in closed form, a property of the rotation, not of a
        model: 0 on the real line, the signed phase of rho in the plane, else
        the angle 2 atan2(|B|, |s|) of a rotor s + B (two-boost rotations are
        simple).  A quaternion pair is read by its rotor alpha, which on a
        two-boost pair has the real part and norm of beta; a zero alpha or
        beta raises SingularElementError.  Any other pair raises as `matrix`."""
        kind = self.algebra.kind
        if kind == "real":
            return 0.0
        if kind == "complex":
            r = self.rho()
            return math.atan2(r.coeffs[1], r.coeffs[0])
        if kind == "quaternion":
            rotor, nb = _rotor(self.alpha), self.beta.norm()
            if rotor is None or not nb * nb >= SINGULAR:
                raise SingularElementError(f"{self!r} has no rotation")
            return rotor.angle
        rotor = self._as_rotor()
        if rotor is None:
            self.matrix(self.algebra.n_gen)  # no rotor: raises
        return rotor.angle

    def __repr__(self):
        return f"RotationDescriptor(alpha={self.alpha!r}, beta={self.beta!r})"


def thomas_rotation(e1: Element, e2: Element) -> RotationDescriptor:
    """Rotation left over after composing boost e1 (first) with boost e2."""
    _check_ball(e1, "menhir")
    _check_ball(e2, "menhir")
    c1, c2 = e1.conjugate(), e2.conjugate()
    alpha = 1.0 + e2 * c1
    # beta is alpha bit for bit when conj(e) = -e for both menhirs (imaginary
    # quaternions, Clifford vectors; a scalar part rules it out at once):
    # (-e2) e1 has the terms of e2 (-e1), and `1.0 +` clears any -0.0
    if not (e1.coeffs[0] or e2.coeffs[0] or np.count_nonzero(c1.coeffs + e1.coeffs)
            or np.count_nonzero(c2.coeffs + e2.coeffs)):
        return RotationDescriptor(alpha, alpha)
    return RotationDescriptor(alpha, 1.0 + c2 * e1)


class MoebiusMatrix:
    """2x2 matrix over an algebra acting fractionally: z -> (a z + b)(c z + d)^{-1}."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: Element, b: Element, c: Element, d: Element):
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def boost(cls, eps: Element) -> "MoebiusMatrix":
        one = eps.algebra.one
        return cls(one, eps, eps.conjugate(), one)

    @classmethod
    def rotation(cls, alpha: Element, beta: Element) -> "MoebiusMatrix":
        zero = alpha.algebra.zero
        return cls(alpha, zero, zero, beta)

    def __matmul__(self, other: "MoebiusMatrix") -> "MoebiusMatrix":
        return MoebiusMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __repr__(self):
        return f"[[{self.a!r}, {self.b!r}], [{self.c!r}, {self.d!r}]]"


def moebius_apply(m: MoebiusMatrix, z: Element) -> Element:
    """Fractional-linear action of a boost/rotation matrix on a unit sphere point."""
    if not abs(z.norm() - 1.0) <= UNIT_ATOL:
        raise ValueError(f"sphere point must have unit norm, got {z.norm()!r}")
    return (m.a * z + m.b) * (m.c * z + m.d).inverse()


def compose_velocities(v: Element, w: Element):
    """Relativistic composition: velocity of (boost v then boost w) plus the
    Thomas rotation, both via the menhir route."""
    ev = menhir_of(v)
    ew = menhir_of(w)
    return velocity_of(compose_menhirs(ev, ew)), thomas_rotation(ev, ew)


def rotation_axis_angle(e1: Element, e2: Element):
    """Axis and angle of the Thomas rotation for purely imaginary quaternion menhirs.

    `thomas_rotation(e1, e2)` must give a quaternion rotor pair (`beta is
    alpha`), else ValueError: a real part rules it out.  Its element is the
    rotor q = 1 - e2 e1 = s + B; axis = B / |B| (None when the rotation is
    trivial, |B| <= DEGENERATE_ATOL |s|), angle = 2 atan2(|B|, |s|) in
    [0, pi), the closed form that `RotationDescriptor.angle` uses.
    """
    rotation = thomas_rotation(e1, e2)
    if rotation.algebra.kind != "quaternion" or rotation.beta is not rotation.alpha:
        raise ValueError("menhirs must be purely imaginary quaternions")
    rotor = _rotor(rotation.alpha)  # None only for q = 0, which no two menhirs give
    if rotor is None or rotor.norm_b <= DEGENERATE_ATOL * abs(rotor.s):
        return None, 0.0
    return rotation.alpha.coeffs[1:] / rotor.norm_b, rotor.angle


# -- menhir/velocity discrepancy ------------------------------------------------

def menhir_gap(v):
    """v - |menhir_of(v)| for speeds v in [0, 1); vectorizes over arrays."""
    v = np.asarray(v, dtype=float)
    return v - v / (1.0 + np.sqrt(1.0 - v * v))


def _gap_slope(v: float) -> float:
    s = math.sqrt(1.0 - v * v)
    return 1.0 - 1.0 / (s * (1.0 + s))


def refine_gap_argmax() -> float:
    """Speed maximizing the velocity/menhir discrepancy: bisection on the sign
    of the derivative over (0, 1) until the bracket is two adjacent floats."""
    lo, hi, mid = 0.0, 1.0, 0.5
    while lo < mid < hi:
        if _gap_slope(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid
