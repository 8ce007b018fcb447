"""Explicit (1+n)-dimensional Lorentz matrices, used as independent ground truth.

Signature convention (+, -, ..., -); matrices act on column vectors (t, x).
A boost by velocity v is the hyperbolic rotation of rapidity atanh|v| in the
(t, v-hat) plane, realized directly from gamma rather than by exponentiation.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .calculus import _check_ball

__all__ = [
    "aberrate_ray",
    "axis_projection_shift",
    "boost_matrix",
    "composition_split",
    "polar_decompose",
]

#: rounding below 1 of an orthochronous L00; in a boost product it grows
#: like gamma_v gamma_w eps (about 2e-10 at the stress tier's edge)
_ORTHOCHRONOUS_ATOL = 1e-9

#: float type of `composition_split`: long double, 63 mantissa bits on x86
#: Linux; where it is double (MSVC, macOS arm64) the split runs in float64
SPLIT_DTYPE = np.longdouble
#: mantissa bits of an extended long double; `verify` names fewer on stderr
EXTENDED_MANTISSA_BITS = 63


def boost_matrix(v) -> np.ndarray:
    """Pure boost sending the time axis e0 to (gamma, gamma v); fixes the
    orthogonal complement of span{e0, v}.

    The verify trials compare against these matrices near the light cone, so
    every entry is rounded as in the first version of this function (the
    test reference): gamma from one square root, gamma v, and
    gamma^2/(gamma + 1) times each product v_i v_j."""
    v = np.asarray(v, dtype=float).reshape(-1)
    n = v.size
    _check_ball(v, "v")
    g = 1.0 / math.sqrt(1.0 - float(v @ v))
    gv = g * v
    L = np.eye(1 + n)
    L[0, 0] = g
    L[0, 1:] = gv
    L[1:, 0] = gv
    # (gamma - 1)/v^2 written as gamma^2/(gamma + 1) to stay finite at v = 0
    L[1:, 1:] += g * g / (g + 1.0) * (v[:, None] * v)
    return L


def polar_decompose(L):
    """Split an orthochronous proper Lorentz matrix as rotation @ boost.

    The boost velocity is read off the first row, e0^T L = (gamma, gamma u),
    so that L = R B(u) with R fixing e0 and orthogonal on the spatial block.
    Returns (rotation, velocity).
    """
    L = np.asarray(L, dtype=float)
    if L[0, 0] < 1.0 - _ORTHOCHRONOUS_ATOL:
        raise ValueError("matrix is not orthochronous")
    u = L[0, 1:] / L[0, 0]
    rotation = L @ boost_matrix(-u)
    return rotation, u


@functools.lru_cache(maxsize=None)
def _signature(size: int, dtype) -> np.ndarray:
    """diag(-1, 1, ..., 1), read-only, built once per size and dtype."""
    j = np.eye(size, dtype=dtype)
    j[0, 0] = -1
    j.flags.writeable = False
    return j


def _boost(v: np.ndarray) -> np.ndarray:
    """The boost of `boost_matrix` in the dtype of v, as J + p p^T / p_0 with
    p = (1 + gamma, gamma v) and J = diag(-1, 1, ..., 1)."""
    g = 1 / np.sqrt(1 - v @ v)
    p = np.concatenate(((1 + g,), g * v))
    return _signature(p.size, v.dtype) + np.multiply.outer(p, p / p[0])


def composition_split(v, w):
    """Rotation and velocity of boost v then boost w: L = B(w) B(v) =
    diag(1, R) B(u).  Returns (R, u), R the spatial n x n rotation.

    L is formed once in `SPLIT_DTYPE` and split in closed form,
    u = L_0s / L_00 and R = L_ss - L_s0 L_0s / (1 + L_00); both are rounded
    to float64.  R's subtraction cancels entries of size gamma_v gamma_w, as
    the float64 product L B(-u) of `polar_decompose` does, but in the wider
    mantissa.  For velocities inside the ball L_00 = gamma_v gamma_w
    (1 + v.w) > 0: L is orthochronous, and no rounding test is needed."""
    _check_ball(v, "v")
    _check_ball(w, "w")
    v = np.asarray(v, dtype=SPLIT_DTYPE).reshape(-1)
    w = np.asarray(w, dtype=SPLIT_DTYPE).reshape(-1)
    L = _boost(w) @ _boost(v)
    row, l00 = L[0, 1:], L[0, 0]
    rotation = L[1:, 1:] - np.multiply.outer(L[1:, 0], row / (1 + l00))
    return rotation.astype(float), (row / l00).astype(float)


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
