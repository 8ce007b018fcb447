"""Relativistic composition of velocities through menhirs.

Three interlocking pictures of the same Lorentz-group action on the celestial
sphere:

* **algebra** -- reals, complexes, quaternions and Euclidean Clifford algebras
  under one dense-blade representation;
* **calculus** -- the menhir map e = v/(1 + sqrt(1 - v^2)), the Poincare-like
  composition law for menhirs, the Thomas rotation factor, and the 2x2
  pseudo-unitary matrices that carry both at once;
* **reversions** -- the ruler-only picture: a boost shifts stars by a reversion
  through the center followed by one through the menhir;
* **lorentz** -- explicit (1+n)-dimensional Lorentz matrices, kept as an
  independent oracle that every other representation is checked against.
"""

from .algebra import (
    Algebra,
    AlgebraMismatchError,
    COMPLEX,
    QUATERNION,
    REAL,
    SingularElementError,
    UnsupportedDimensionError,
    clifford,
    vector_embed,
    vector_part,
)
from .calculus import (
    MoebiusMatrix,
    RotationDescriptor,
    SuperluminalError,
    compose_menhirs,
    compose_velocities,
    menhir_gap,
    menhir_of,
    moebius_apply,
    refine_gap_argmax,
    rotation_axis_angle,
    thomas_rotation,
    velocity_of,
)
from .lorentz import (
    aberrate_ray,
    axis_projection_shift,
    boost_matrix,
    composition_split,
)
from .reversions import (
    ConstructionError,
    ConstructionTrace,
    DegenerateConstructionWarning,
    apply_word,
    boost_star_shift,
    butterfly_check,
    collinear,
    construct_composite_menhir,
    construct_rotation,
    find_conjugate_point,
    revert,
    two_boost_fixed_points,
    two_boost_word,
)
from .verify import CONFIGS, RunReport, run_equivalence

__version__ = "0.1.0"
