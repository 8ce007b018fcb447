"""Randomized equivalence trials between the menhir calculus and Lorentz matrices.

Each trial draws a velocity pair, composes it once through menhirs and once by
multiplying explicit boost matrices, and compares the resulting velocity and
rotation.  Trial i of a run with master seed s draws from
`np.random.default_rng([s, i])`, so a run is deterministic regardless of
execution order or parallelism, different master seeds give independent
samples, and the key (s, i) replays any one trial alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import Algebra, COMPLEX, QUATERNION, REAL, clifford, vector_embed
from .calculus import MoebiusMatrix, compose_velocities, menhir_of, moebius_apply
from .lorentz import aberrate_ray, boost_matrix, composition_split
from .reversions import boost_star_shift

__all__ = [
    "CONFIGS",
    "RunReport",
    "aberration_spread",
    "composition_trial",
    "run_equivalence",
    "sample_direction",
    "sample_velocity",
    "trial_tolerance",
]

#: algebra and spatial dimension for each verification lane
CONFIGS: dict[str, tuple[Algebra, int]] = {
    "real": (REAL, 1),
    "complex": (COMPLEX, 2),
    "imquaternion": (QUATERNION, 3),
    "quaternion": (QUATERNION, 4),
    "clifford2": (clifford(2), 2),
    "clifford3": (clifford(3), 3),
    "clifford4": (clifford(4), 4),
    "clifford5": (clifford(5), 5),
}

#: speed ranges and tolerances per tier; conditioning degrades near the cone
TIERS = {
    "normal": (0.0, 0.95, 1e-9),
    "stress": (0.95, 1.0 - 1e-6, 1e-6),
}

#: a drawn direction shorter than this is drawn again: too short to normalise
_MIN_DIRECTION_NORM = 1e-6


def sample_direction(rng: np.random.Generator, n: int) -> np.ndarray:
    while True:
        d = rng.standard_normal(n)
        norm = math.sqrt(d @ d)  # bitwise np.linalg.norm(d), without its dispatch
        if norm > _MIN_DIRECTION_NORM:
            return d / norm


def sample_velocity(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    return sample_direction(rng, n) * rng.uniform(lo, hi)


def composition_trial(rng: np.random.Generator, key: str, tier: str = "normal"):
    """One equivalence trial; returns (velocity error, rotation error, v, w).
    The velocity error counts the composite's part off the velocity model."""
    algebra, n = CONFIGS[key]
    lo, hi, _ = TIERS[tier]
    v = sample_velocity(rng, n, lo, hi)
    w = sample_velocity(rng, n, lo, hi)

    u, thomas = compose_velocities(vector_embed(v, algebra), vector_embed(w, algebra))
    u_menhir, residue = algebra.model_split(u.coeffs, n)
    rotation, u_oracle = composition_split(v, w)
    v_err = max(float(np.abs(u_menhir - u_oracle).max()), residue)
    r_err = float(np.abs(thomas.matrix(n) - rotation).max())
    return v_err, r_err, v, w


def aberration_spread(v: np.ndarray, stars: np.ndarray, algebra: Algebra) -> float:
    """Three-way star-shift comparison over a batch of stars (rows) boosted by v:
    the largest gap between the reversion word, the Moebius map in `algebra`
    and the null-ray oracle, or the Moebius images' largest coefficient off
    the model if that is larger."""
    by_word = boost_star_shift(stars, v)
    matrix = MoebiusMatrix.boost(menhir_of(vector_embed(v, algebra)))
    images = np.array([moebius_apply(matrix, vector_embed(a, algebra)).coeffs for a in stars])
    by_moebius, residue = algebra.model_split(images, v.size)
    L = boost_matrix(v)
    by_oracle = np.array([aberrate_ray(L, a) for a in stars])
    return max(
        float(np.abs(by_word - by_moebius).max()),
        float(np.abs(by_word - by_oracle).max()),
        float(np.abs(by_moebius - by_oracle).max()),
        residue,
    )


@dataclass
class RunReport:
    """Outcome of a batch of equivalence trials."""

    trials: int
    max_velocity_error: float = 0.0
    max_rotation_error: float = 0.0
    failures: list = field(default_factory=list)  # ((seed, index), inputs, errors)

    @property
    def ok(self) -> bool:
        return not self.failures


def trial_tolerance(tier: str, tolerance: float | None = None) -> float:
    """The error bound a trial of `tier` must meet: `tolerance`, or the
    tier's own when None.  A NaN, infinite or negative bound would pass
    trials it cannot judge, so it raises ValueError."""
    tol = TIERS[tier][2] if tolerance is None else tolerance
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and non-negative, got {tol!r}")
    return tol


def run_equivalence(
    key: str,
    trials: int,
    seed: int,
    tier: str = "normal",
    tolerance: float | None = None,
) -> RunReport:
    """Run `trials` oracle-equivalence trials for one configuration."""
    if trials < 1:
        raise ValueError("at least one trial is required")
    if key not in CONFIGS:
        raise ValueError(f"unknown configuration {key!r}; choose from {sorted(CONFIGS)}")
    if tier not in TIERS:
        raise ValueError(f"unknown tier {tier!r}")
    tol = trial_tolerance(tier, tolerance)

    report = RunReport(trials=trials)
    for index in range(trials):
        rng = np.random.default_rng([seed, index])
        v_err, r_err, v, w = composition_trial(rng, key, tier)
        # a NaN error replaces the max and stays there (max(nan, x) is nan)
        report.max_velocity_error = max(report.max_velocity_error, v_err) if v_err == v_err else v_err
        report.max_rotation_error = max(report.max_rotation_error, r_err) if r_err == r_err else r_err
        if not (v_err <= tol and r_err <= tol):
            report.failures.append(
                ((seed, index), {"v": v.tolist(), "w": w.tolist()}, {"velocity": v_err, "rotation": r_err})
            )
    return report
