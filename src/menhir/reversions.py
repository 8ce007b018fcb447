"""Sphere reversions through interior points: the geometric wing.

A reversion through p (|p| < 1) sends a sphere point A to the second
intersection of the line through A and p with the sphere; it is an involution
and p, A, and the image are collinear.  Words of reversions act left to right
(postfix), so `apply_word(a, [p, q])` reverts through p first.  A boost by
velocity v deforms the celestial sphere exactly like the two-letter word
(origin, menhir_of(v)).

The planar constructions at the bottom take plane points as complex numbers
and compute only with the Moebius matrix [[alpha, e + f], [conj(e + f),
conj(alpha)]], alpha = 1 + f conj(e), of the word (-e, f) of boosts e then f:
its fixed points, the rotated point B = A alpha/conj(alpha) and the composite
menhir (e + f)/alpha of the degenerate cases.  The test suite checks them
against the algebra layer, which this module does not call.  Other points
are plain real vectors, menhirs included.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .calculus import DEGENERATE_ATOL, UNIT_ATOL, SuperluminalError, _check_ball, menhir_of

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

#: seed of every sphere sample, and the points a butterfly probe checks
_SAMPLE_SEED = 0
_BUTTERFLY_SAMPLES = 100
#: largest gap of two coinciding sphere points: a fixed star moves by rounding
COINCIDENT_ATOL = 1e-9
#: largest second singular value, over max(1, the first), of collinear points
COLLINEAR_ATOL = 1e-12


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
    """Second intersection of line(a, p) with the unit sphere: the word [p]."""
    return apply_word(a, [p])


def apply_word(a, word) -> np.ndarray:
    """Left fold of reversions: the first listed point acts first.

    The sphere points `a` are checked once.  A reversion through p sends A to
    A + t (p - A), at the chord parameter t = 2(1 - A.p)/|p - A|^2, strictly
    positive for interior p, so the second root never collides with A.
    Vectorizes over a leading batch axis of `a`.
    """
    out = np.asarray(a, dtype=float)
    if not np.abs(np.linalg.norm(out, axis=-1) - 1.0).max(initial=0.0) <= UNIT_ATOL:
        raise ValueError("sphere point must have unit norm")
    for p in word:
        p = _interior(p)
        d = p - out
        t = 2.0 * (1.0 - out @ p) / np.sum(d * d, axis=-1)
        out = out + t[..., None] * d
    return out


def boost_star_shift(a, v) -> np.ndarray:
    """Star shift under a boost by velocity v: the word (origin, menhir)."""
    e = menhir_of(np.asarray(v, dtype=float))
    if not e.any():  # null boost: the word (o, o) is exactly the identity
        return apply_word(a, []).copy()  # the empty word still checks the stars
    return apply_word(a, [np.zeros_like(e), e])


def two_boost_word(e, f) -> list:
    """Two boosts (e first, then f) collapse to the two-letter word (-e, f)."""
    e = _interior(e, "menhir")
    f = _interior(f, "menhir")
    return [-e, f]


def collinear(points) -> bool:
    pts = np.asarray(points, dtype=float)
    centered = pts - pts.mean(axis=0)
    s = np.linalg.svd(centered, compute_uv=False)
    return bool(s.size < 2 or s[1] <= COLLINEAR_ATOL * max(1.0, s[0]))


def _sphere_samples(n: int, count: int) -> np.ndarray:
    rng = np.random.default_rng(_SAMPLE_SEED)
    pts = rng.standard_normal((count, n))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def butterfly_check(p, q, r, s) -> bool:
    """Porism probe: for collinear p, q, r, s, does the word fix the sphere pointwise?

    The underlying porism says fixing a single point already forces the
    identity; this samples `_BUTTERFLY_SAMPLES` sphere points and checks them
    all.  Non-collinear input is rejected, not decided.
    """
    pts = [np.asarray(x, dtype=float) for x in (p, q, r, s)]
    if not collinear(pts):
        raise ValueError("reversion points must be collinear")
    stars = _sphere_samples(pts[0].size, _BUTTERFLY_SAMPLES)
    images = apply_word(stars, pts)
    return bool(np.abs(images - stars).max() <= COINCIDENT_ATOL)


def find_conjugate_point(a, b, a_new) -> np.ndarray:
    """Slide the pair: b' on line(a, b) with word (a, b) == word (a_new, b').

    Every reversion through a point of the line swaps the line's chord ends P
    and Q, so every word of two of them fixes P and Q.  With
    x(p) = (t_p - t_P)/(t_Q - t_p) for the chord parameter t of a point p of
    the line, the word (a, b) depends only on x(b)/x(a), so b' is solved from
    x(b') = x(b) x(a_new) / x(a).  The chord ends are the roots of
    |a + t u|^2 = 1, taken in cancellation-free form.
    """
    a = _interior(a)
    b = _interior(b)
    a_new = _interior(a_new, "replacement point")
    line_dir = b - a if np.linalg.norm(b - a) > DEGENERATE_ATOL else a_new - a
    if np.linalg.norm(line_dir) < DEGENERATE_ATOL:
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

def _planar_word(e, f) -> tuple[complex, complex, complex]:
    """Menhirs e and f as complex numbers, checked inside the ball and then
    planar, with alpha = 1 + f conj(e) of the word's matrix."""
    e, f = _interior(e, "menhir"), _interior(f, "menhir")
    if e.shape != (2,) or f.shape != (2,):
        raise ValueError("planar construction requires 2-vectors")
    ec, fc = complex(*e), complex(*f)
    return ec, fc, 1.0 + fc * ec.conjugate()


def _from_complex(z: complex) -> np.ndarray:
    return np.array([z.real, z.imag])


def _collinear_menhirs(ec: complex, fc: complex) -> bool:
    """Collinear menhirs: the rotation is trivial and the chords do not meet."""
    return abs(ec.conjugate() * fc - fc.conjugate() * ec) <= DEGENERATE_ATOL


def _fixed_points(a: complex, b: complex) -> list[complex]:
    c, d = b.conjugate(), a.conjugate()
    p = d - a
    disc = p * p + 4.0 * b * c
    if not disc.real > 0.0:
        raise ConstructionError("the boosts cancel: every circle point is fixed")
    q = -0.5 * (p + cmath.sqrt(disc))
    return sorted((q / c, -b / q), key=lambda z: cmath.phase(z) % (2.0 * math.pi))


def two_boost_fixed_points(e, f) -> tuple[np.ndarray, np.ndarray]:
    """The two fixed circle points of the composite of boosts e then f (planar).

    With M(w) = [[1, -w], [conj w, -1]] for the reversion
    z -> (z - w)/(conj(w) z - 1), the word's matrix M(f) M(-e) = [[a, b], [c, d]]
    has c = conj(b) and d = conj(a).  Its fixed points are the roots of
    c z^2 + (d - a) z - b = 0, taken without cancellation as q/c and -b/q with
    q = -(p + sqrt(D))/2, p = d - a and D = p^2 + 4 b c: p = -2i Im(a) is
    imaginary and D = 4(|b|^2 - Im(a)^2) is real, so the + sign never cancels.
    They are returned sorted by angle in [0, 2 pi).  Two planar boosts make a
    hyperbolic map (D > 0, two fixed circle points) unless they cancel,
    e = -f: that identity raises ConstructionError.
    """
    ec, fc, alpha = _planar_word(e, f)
    return tuple(_from_complex(z) for z in _fixed_points(alpha, ec + fc))


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

    A is the first fixed point of the two-boost map and B = A alpha/conj(alpha)
    its image under the rotational factor of the word's matrix, with
    alpha = 1 + f conj(e); the signed central angle from A to B is the Thomas
    angle.  Collinear menhirs give a trivial rotation with A = B, the
    direction of the composite menhir (e + f)/alpha.
    """
    ec, fc, alpha = _planar_word(e, f)
    if _collinear_menhirs(ec, fc):
        m = (ec + fc) / alpha
        ref = m if abs(m) > DEGENERATE_ATOL else (ec if abs(ec) > DEGENERATE_ATOL else 1.0 + 0j)
        a = _from_complex(ref / abs(ref))
        if trace is not None:
            trace.point("A", a)
            trace.point("B", a)
        return a, a.copy(), 0.0
    fixed1, fixed2 = _fixed_points(alpha, ec + fc)
    rotated = fixed1 * alpha / alpha.conjugate()
    a, b = _from_complex(fixed1), _from_complex(rotated)
    if trace is not None:
        trace.point("F1", a)
        trace.point("F2", _from_complex(fixed2))
        trace.point("A", a)
        trace.point("B", b)
        trace.segment("AoB", a, b)
    return a, b, cmath.phase(fixed1.conjugate() * rotated)


# Meet error x chord sine stayed below 5e-16 for sines under 1e-2 (20 000 seeded
# pairs), so a meet at a sine above this bound is within about 5e-10.
MIN_CHORD_SINE = 1e-6


def _chord_meet(p1, d1, p2, d2) -> tuple[np.ndarray | None, float]:
    """Meet of the plane lines p1 + s d1 and p2 + t d2, s = (r x d2)/(d1 x d2)
    with r = p2 - p1, and the sine of their angle; (None, 0.0) if parallel."""
    cross = float(d1[0] * d2[1] - d1[1] * d2[0])
    if not cross:
        return None, 0.0
    s = float((p2[0] - p1[0]) * d2[1] - (p2[1] - p1[1]) * d2[0]) / cross
    return p1 + s * d1, abs(cross) / (math.hypot(*d1) * math.hypot(*d2))


def construct_composite_menhir(e, f, trace: ConstructionTrace | None = None) -> np.ndarray:
    """Composite menhir by straightedge: meet of the chords (B foe, A) and (B' foe, A').

    B is the rotated image of A from `construct_rotation`, primes are
    antipodes, and `foe` is the word (f, origin, e).  Collinear menhirs, and
    chords that cross at a sine of at most `MIN_CHORD_SINE`, fall back to
    (e + f)/(1 + f conj(e)) with a DegenerateConstructionWarning.
    """
    ec, fc, alpha = _planar_word(e, f)

    def fallback(reason):
        warnings.warn(DegenerateConstructionWarning(reason), stacklevel=2)
        return _from_complex((ec + fc) / alpha)

    if _collinear_menhirs(ec, fc):
        return fallback("collinear menhirs")

    a, b, _ = construct_rotation(e, f, trace)
    word = [f, np.zeros(2), e]
    x, x2 = apply_word(b, word), apply_word(-b, word)
    meet, sine = _chord_meet(x, a - x, x2, -a - x2)
    if not sine > MIN_CHORD_SINE:
        return fallback("parallel chords")
    try:
        _check_ball(meet, "meet")
    except SuperluminalError:
        return fallback("meet outside the disk")
    if trace is not None:
        trace.point("Bfoe", x)
        trace.point("B'foe", x2)
        trace.segment("alpha", x, a)
        trace.segment("beta", x2, -a)
        trace.point("e[+]f", meet)
    return meet
