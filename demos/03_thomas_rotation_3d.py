# Thomas rotation in ordinary 3-space, via imaginary quaternions.
#
# Identify R^3 with the imaginary quaternions. For menhirs e1 (first boost)
# and e2 (second), the rotational part of the composition is the Hamilton
# sandwich z -> q z q^{-1} with q = 1 - e2 e1, so axis and angle drop out of
# one quaternion product.

import math

import numpy as np

from menhir import (
    QUATERNION,
    composition_split,
    menhir_of,
    rotation_axis_angle,
    thomas_rotation,
    vector_embed,
)

v = np.array([0.0, 0.0, 0.5])   # boost along z first
w = np.array([0.5, 0.0, 0.0])   # then along x

e1 = menhir_of(vector_embed(v, QUATERNION))
e2 = menhir_of(vector_embed(w, QUATERNION))

axis, angle = rotation_axis_angle(e1, e2)
print("rotation axis :", axis)
print("rotation angle:", math.degrees(angle), "deg")

# The sandwich as an orthogonal 3x3 matrix...
sandwich = thomas_rotation(e1, e2).matrix(3)

# ...must equal the rotation split off the Lorentz matrix of the two boosts.
rotation, u = composition_split(v, w)
print("max deviation from the oracle rotation:", np.abs(sandwich - rotation).max())
print("composite velocity (oracle):", u)

# Collinear boosts produce no rotation at all.
axis0, angle0 = rotation_axis_angle(e1, menhir_of(vector_embed([0.0, 0.0, -0.3], QUATERNION)))
print("collinear case:", axis0, angle0)
