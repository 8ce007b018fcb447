"""Sphere reversions through interior points: the geometric wing.

A reversion through p (|p| < 1) sends a sphere point A to the second
intersection of the line through A and p with the sphere; it is an involution
and p, A, and the image are collinear.  Words of reversions act left to right
(postfix), so `apply_word(a, [p, q])` reverts through p first.  A boost by
velocity v deforms the celestial sphere exactly like the two-letter word
(origin, menhir_of(v)).

The planar constructions at the bottom recover the algebraic composition law
and Thomas angle with chords alone, and are cross-checked against the algebra
in the test suite.  Points here are plain real vectors, menhirs included.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .algebra import COMPLEX, vector_embed, vector_part
from .calculus import SuperluminalError, _check_ball, compose_menhirs, menhir_of, thomas_rotation

__all__ = [
    "ConstructionError",
    "ConstructionTrace",
    "DegenerateConstructionWarning",
    "apply_word",
    "boost_star_shift",
    "butterfly_check",
    "collinear",
    "construct_composite_menhir",
    "construct_rotation",
    "find_conjugate_point",
    "revert",
    "two_boost_fixed_points",
    "two_boost_word",
]


class ConstructionError(RuntimeError):
    """A straightedge construction could not be completed."""


class DegenerateConstructionWarning(UserWarning):
    """Construction degenerated; the algebraic value was returned instead."""

    def __init__(self, reason: str):
        super().__init__(f"construction degenerated ({reason}); returning the algebraic value")
        self.reason = reason


def _interior(p, what: str = "reversion point") -> np.ndarray:
    p = np.asarray(p, dtype=float)
    _check_ball(p, what)
    return p


def revert(a, p) -> np.ndarray:
    """Second intersection of line(a, p) with the unit sphere.

    The chord parameter is t = 2(1 - a.p)/|p - a|^2, strictly positive for
    interior p, so the second root never collides with a.  Vectorizes over a
    leading batch axis of `a`.
    """
    a = np.asarray(a, dtype=float)
    norms = np.linalg.norm(a, axis=-1)
    if not np.abs(norms - 1.0).max() <= 1e-9:
        raise ValueError("sphere point must have unit norm")
    p = _interior(p)
    d = p - a
    t = 2.0 * (1.0 - a @ p) / np.sum(d * d, axis=-1)
    if a.ndim > 1:
        return a + np.expand_dims(t, -1) * d
    return a + t * d


def apply_word(a, word) -> np.ndarray:
    """Left fold of reversions: the first listed point acts first."""
    out = np.asarray(a, dtype=float)
    for p in word:
        out = revert(out, p)
    return out


def boost_star_shift(a, v) -> np.ndarray:
    """Star shift under a boost by velocity v: the word (origin, menhir)."""
    a = np.asarray(a, dtype=float)
    e = menhir_of(np.asarray(v, dtype=float))
    if not e.any():  # null boost: the word (o, o) is exactly the identity
        return a.copy()
    return apply_word(a, [np.zeros_like(e), e])


def two_boost_word(e, f) -> list:
    """Two boosts (e first, then f) collapse to the two-letter word (-e, f)."""
    e = _interior(np.asarray(e, dtype=float), "menhir")
    f = _interior(np.asarray(f, dtype=float), "menhir")
    return [-e, f]


def collinear(points, atol: float = 1e-10) -> bool:
    pts = np.asarray(points, dtype=float)
    centered = pts - pts.mean(axis=0)
    s = np.linalg.svd(centered, compute_uv=False)
    return bool(s.size < 2 or s[1] <= atol * max(1.0, s[0]))


def _sphere_samples(n: int, count: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((count, n))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def butterfly_check(p, q, r, s, samples: int = 100, atol: float = 1e-9, seed: int = 0) -> bool:
    """Porism probe: for collinear p, q, r, s, does the word fix the sphere pointwise?

    The underlying porism says fixing a single point already forces the
    identity; this samples `samples` sphere points and checks them all.
    Non-collinear input is rejected, not decided.
    """
    pts = [np.asarray(x, dtype=float) for x in (p, q, r, s)]
    if not collinear(pts):
        raise ValueError("reversion points must be collinear")
    stars = _sphere_samples(pts[0].size, samples, seed)
    images = apply_word(stars, pts)
    return bool(np.abs(images - stars).max() <= atol)


def _line_intersection(p1, d1, p2, d2):
    """Least-squares meet of two lines p + t d; returns (point, residual)."""
    A = np.column_stack([d1, -d2])
    rhs = p2 - p1
    sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    x1 = p1 + sol[0] * d1
    x2 = p2 + sol[1] * d2
    return 0.5 * (x1 + x2), float(np.linalg.norm(x1 - x2))


def find_conjugate_point(a, b, a_new) -> np.ndarray:
    """Slide the pair: b' on line(a, b) with word (a, b) == word (a_new, b').

    Every reversion through a point of the line swaps the line's chord ends P
    and Q, so every word of two of them fixes P and Q.  With
    x(p) = (t_p - t_P)/(t_Q - t_p) for the chord parameter t of a point p of
    the line, the word (a, b) depends only on x(b)/x(a), so b' is solved from
    x(b') = x(b) x(a_new) / x(a).  The chord ends are the roots of
    |a + t u|^2 = 1, taken in cancellation-free form.
    """
    a = _interior(np.asarray(a, dtype=float))
    b = _interior(np.asarray(b, dtype=float))
    a_new = _interior(np.asarray(a_new, dtype=float), "replacement point")
    line_dir = b - a if np.linalg.norm(b - a) > 1e-14 else a_new - a
    if np.linalg.norm(line_dir) < 1e-14:
        return b.copy()  # a == b == a_new: nothing to slide
    if not collinear([a, b, a_new]):
        raise ValueError("replacement point must lie on line(a, b)")

    u = line_dir / np.linalg.norm(line_dir)
    # chord ends: roots of t^2 + 2 h t - k with h = a.u, k = 1 - |a|^2 > 0
    h, k = float(a @ u), 1.0 - float(a @ a)
    r = -(h + math.copysign(math.sqrt(h * h + k), h))
    t_p, t_q = sorted((r, -k / r))

    def x(t):
        return (t - t_p) / (t_q - t)

    ratio = x(float((b - a) @ u)) * x(float((a_new - a) @ u)) / x(0.0)
    b_new = a + (t_p + ratio * t_q) / (1.0 + ratio) * u
    try:
        _check_ball(b_new, "conjugate point")
    except SuperluminalError as exc:
        raise ConstructionError("conjugate point falls outside the open ball") from exc
    return b_new


# -- planar constructions ---------------------------------------------------------

def _as_complex(p) -> complex:
    p = np.asarray(p, dtype=float)
    if p.shape != (2,):
        raise ValueError("planar construction requires 2-vectors")
    return complex(p[0], p[1])


def _from_complex(z: complex) -> np.ndarray:
    return np.array([z.real, z.imag])


def two_boost_fixed_points(e, f) -> tuple[np.ndarray, np.ndarray]:
    """The two fixed circle points of the composite of boosts e then f (planar).

    The word (-e, f) is the Moebius map M(f) M(-e) = [[a, b], [c, d]], with
    M(w) = [[1, -w], [conj w, -1]] for the reversion z -> (z - w)/(conj(w) z - 1).
    Its fixed points are the roots of c z^2 + (d - a) z - b = 0, taken without
    cancellation as q/c and -b/q with q = -(p + sqrt(D))/2, p = d - a and
    D = p^2 + 4 b c.  Here c = conj(b) and d = conj(a), so p = -2i Im(a) is
    imaginary while D = 4(|b|^2 - Im(a)^2) is real: p and sqrt(D) are
    orthogonal and the + sign never cancels.  The points are returned sorted
    by angle in [0, 2 pi).  A product of two boosts in the plane is hyperbolic
    (D > 0, two fixed points on the circle) unless the boosts cancel, e = -f,
    when it is the identity and ConstructionError is raised.
    """
    ec = _as_complex(_interior(e, "menhir"))
    fc = _as_complex(_interior(f, "menhir"))
    a, b = 1.0 + fc * ec.conjugate(), ec + fc
    c, d = b.conjugate(), 1.0 + fc.conjugate() * ec
    p = d - a
    disc = p * p + 4.0 * b * c
    if not disc.real > 0.0:
        raise ConstructionError("the boosts cancel: every circle point is fixed")
    q = -0.5 * (p + cmath.sqrt(disc))
    fixed = sorted((q / c, -b / q), key=lambda z: cmath.phase(z) % (2.0 * math.pi))
    return tuple(_from_complex(z) for z in fixed)


@dataclass
class ConstructionTrace:
    """Labeled points and segments produced by a construction, for rendering."""

    points: list = field(default_factory=list)    # (label, (x, y))
    segments: list = field(default_factory=list)  # (label, (x1, y1), (x2, y2))

    def point(self, label, p):
        self.points.append((label, (float(p[0]), float(p[1]))))

    def segment(self, label, p, q):
        self.segments.append(
            (label, (float(p[0]), float(p[1])), (float(q[0]), float(q[1])))
        )


def construct_rotation(e, f, trace: ConstructionTrace | None = None):
    """Planar pair (A, B) realized by the rotational part of boosts e then f.

    A is a fixed point of the two-boost map and B its image under the
    rotational factor; the signed central angle from A to B is the Thomas
    angle.  Collinear menhirs give a trivial rotation with A = B.
    """
    e = _interior(np.asarray(e, dtype=float), "menhir")
    f = _interior(np.asarray(f, dtype=float), "menhir")
    ec, fc = _as_complex(e), _as_complex(f)
    ce, cf = vector_embed(e, COMPLEX), vector_embed(f, COMPLEX)
    if abs(ec.conjugate() * fc - fc.conjugate() * ec) <= 1e-14:  # collinear
        m = _as_complex(vector_part(compose_menhirs(ce, cf), 2))
        ref = m if abs(m) > 1e-14 else (ec if abs(ec) > 1e-14 else 1.0 + 0j)
        a = _from_complex(ref / abs(ref))
        if trace is not None:
            trace.point("A", a)
            trace.point("B", a)
        return a, a.copy(), 0.0
    fixed1, fixed2 = two_boost_fixed_points(e, f)
    a = fixed1
    b = vector_part(thomas_rotation(ce, cf).apply(vector_embed(a, COMPLEX)), 2)
    angle = math.atan2(a[0] * b[1] - a[1] * b[0], float(a @ b))
    if trace is not None:
        trace.point("F1", fixed1)
        trace.point("F2", fixed2)
        trace.point("A", a)
        trace.point("B", b)
        trace.segment("AoB", a, b)
    return a, b, angle


def construct_composite_menhir(e, f, trace: ConstructionTrace | None = None) -> np.ndarray:
    """Composite menhir by straightedge: meet of the chords (B foe, A) and (B' foe, A').

    B is the rotated image of A, primes are antipodes, and `foe` is the word
    (f, origin, e).  Degenerate (collinear) configurations fall back to the
    algebraic value with a DegenerateConstructionWarning.
    """
    e = _interior(np.asarray(e, dtype=float), "menhir")
    f = _interior(np.asarray(f, dtype=float), "menhir")
    ec, fc = _as_complex(e), _as_complex(f)

    def fallback(reason):
        warnings.warn(DegenerateConstructionWarning(reason), stacklevel=2)
        return vector_part(compose_menhirs(vector_embed(e, COMPLEX), vector_embed(f, COMPLEX)), 2)

    if abs(ec.conjugate() * fc - fc.conjugate() * ec) <= 1e-14:
        return fallback("collinear menhirs")

    a, b, _ = construct_rotation(e, f, trace)
    a2, b2 = -a, -b
    word = [f, np.zeros(2), e]
    x = apply_word(b, word)
    x2 = apply_word(b2, word)
    meet, resid = _line_intersection(x, a - x, x2, a2 - x2)
    denom = np.linalg.norm(a - x) * np.linalg.norm(a2 - x2)
    if denom < 1e-14 or resid > 1e-9:
        return fallback("parallel chords")
    try:
        _check_ball(meet, "meet")
    except SuperluminalError:
        return fallback("meet outside the disk")
    if trace is not None:
        trace.point("Bfoe", x)
        trace.point("B'foe", x2)
        trace.segment("alpha", x, a)
        trace.segment("beta", x2, a2)
        trace.point("e[+]f", meet)
    return meet
