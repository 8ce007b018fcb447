"""Explicit (1+n)-dimensional Lorentz matrices, used as independent ground truth.

Signature convention (+, -, ..., -); matrices act on column vectors (t, x).
A boost by velocity v is the hyperbolic rotation of rapidity atanh|v| in the
(t, v-hat) plane, realized directly from gamma rather than by exponentiation.
`composition_split` is the package's two-boost oracle; the float64
`polar_decompose` is benchmark-only and not exported.
"""

from __future__ import annotations

import functools

import numpy as np

from .calculus import _check_ball

__all__ = [
    "aberrate_ray",
    "axis_projection_shift",
    "boost_matrix",
    "composition_split",
]

#: float type of `composition_split`: long double, 63 mantissa bits on x86
#: Linux; where it is double (MSVC, macOS arm64) the split runs in float64
SPLIT_DTYPE = np.longdouble
#: mantissa bits of an extended long double; `verify` names fewer on stderr
EXTENDED_MANTISSA_BITS = 63


@functools.lru_cache(maxsize=None)
def _signature(size: int, dtype) -> np.ndarray:
    """diag(-1, 1, ..., 1), read-only, built once per size and dtype."""
    j = np.eye(size, dtype=dtype)
    j[0, 0] = -1
    j.flags.writeable = False
    return j


def _boost(v: np.ndarray) -> np.ndarray:
    """The boost by v in the dtype of v, as J + p p^T / p_0 with
    p = (1 + gamma, gamma v) and J = diag(-1, 1, ..., 1)."""
    g = 1 / np.sqrt(1 - v @ v)
    p = np.empty(v.size + 1, v.dtype)
    p[0] = 1 + g
    np.multiply(g, v, out=p[1:])
    return _signature(p.size, v.dtype) + p[:, None] * (p / p[0])


def boost_matrix(v) -> np.ndarray:
    """Pure boost sending the time axis e0 to (gamma, gamma v); fixes the
    orthogonal complement of span{e0, v}."""
    _check_ball(v, "v")
    return _boost(np.asarray(v, dtype=float).reshape(-1))


def _split(L: np.ndarray):
    """(R, u) with L = diag(1, R) B(u), in closed form and in the dtype of L:
    u = L_0s / L_00 and R = L_ss - L_s0 L_0s / (1 + L_00).  R's subtraction
    cancels entries of size L_00, so its error is L_00 times L's rounding."""
    row, l00 = L[0, 1:], L[0, 0]
    return L[1:, 1:] - L[1:, :1] * (row / (1 + l00)), row / l00


def polar_decompose(L):
    """Split an orthochronous proper Lorentz matrix as rotation @ boost, in
    float64: L = R B(u) with R fixing e0, u read off the first row
    e0^T L = (gamma, gamma u).  Returns (rotation, velocity).  L00 >= 1 or
    L00 <= -1 in a Lorentz matrix, so its sign tells them apart exactly.
    Benchmark-only: it stays for the benchmark's compose gate and span table
    until a benchmark change moves that gate to `composition_split`."""
    L = np.asarray(L, dtype=float)
    if not L[0, 0] > 0:
        raise ValueError("matrix is not orthochronous")
    rotation = np.eye(L.shape[0])
    rotation[1:, 1:], u = _split(L)
    return rotation, u


def composition_split(v, w):
    """Rotation and velocity of boost v then boost w: L = B(w) B(v) =
    diag(1, R) B(u).  Returns (R, u), R the spatial n x n rotation.

    L is formed and split in `SPLIT_DTYPE`, then both parts are rounded to
    float64.  Inside the ball L_00 = gamma_v gamma_w (1 + v.w) > 0, so L
    needs no orthochronous test."""
    _check_ball(v, "v")
    _check_ball(w, "w")
    v = np.asarray(v, dtype=SPLIT_DTYPE).reshape(-1)
    w = np.asarray(w, dtype=SPLIT_DTYPE).reshape(-1)
    rotation, u = _split(_boost(w) @ _boost(v))
    return rotation.astype(float), u.astype(float)


def aberrate_ray(L, a) -> np.ndarray:
    """Shift of the celestial point a under the Lorentz map L.

    The incoming ray is the null vector (-1, a); it is pulled back through L,
    rescaled to time component -1, and its spatial part returned.  For
    L = boost_matrix(v) the side-most stars (a perpendicular to v) land at
    projection +|v| on the v axis.  Because the ray is pulled back, the shift
    by L1 followed by the shift by L2 is aberrate_ray(L1 @ L2, a).
    """
    L = np.asarray(L, dtype=float)
    a = np.atleast_1d(np.asarray(a, dtype=float))
    ray = np.concatenate(([-1.0], a))
    w = np.linalg.solve(L, ray)
    out = w[1:] / (-w[0])
    return out / np.linalg.norm(out)


def axis_projection_shift(x: float, v: float) -> float:
    """New axis projection of a star: x' = (x + v)/(1 + v x)."""
    if not abs(x) <= 1.0:
        raise ValueError("projection must lie in [-1, 1]")
    _check_ball(v, "v")
    return (x + v) / (1.0 + v * x)
