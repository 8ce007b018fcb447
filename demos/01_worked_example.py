# Composing two perpendicular velocities with menhirs.
#
# A velocity v inside the unit disk has a "menhir": the radially rescaled
# point e = v/(1 + sqrt(1 - v^2)). Menhirs compose by the same formula
# Poincare found for collinear speeds, (e1 + e2)/(1 + conj(e1) e2), even when
# the velocities point in different directions; the price is a residual
# rotation (Thomas rotation), which the same arithmetic hands you for free.

import math

import numpy as np

from menhir import COMPLEX, compose_menhirs, composition_split, menhir_of, thomas_rotation, velocity_of

# Two perpendicular velocities, as complex numbers: 4/5 along x, 3/5 along y.
v = COMPLEX.element([4 / 5, 0.0])
w = COMPLEX.element([0.0, 3 / 5])

ev = menhir_of(v)
ew = menhir_of(w)
print("menhir of 4/5  :", ev)   # 1/2
print("menhir of 3i/5 :", ew)   # i/3

# The composite menhir comes out of the Poincare-like fraction.
m = compose_menhirs(ev, ew)
print("composite menhir:", m)   # (20 + 9i)/37

# Back to a velocity, and the resulting speed.
u = velocity_of(m)
print("composite velocity:", u)                   # 4/5 + 9i/25
print("speed:", u.norm(), "=", "sqrt(481)/25")    # ~0.87727

# The leftover rotation: a unit complex number.
rot = thomas_rotation(ev, ew)
print("rotation:", rot.rho())                     # (35 + 12i)/37
print("angle:", math.degrees(rot.angle()), "deg") # ~18.92

# Cross-check against the independent Lorentz-matrix oracle: multiply the two
# explicit boost matrices and split the product into rotation x boost.
rotation, u_oracle = composition_split([4 / 5, 0.0], [0.0, 3 / 5])
print("oracle velocity:", u_oracle)
print("oracle angle:", math.degrees(math.atan2(rotation[1, 0], rotation[0, 0])), "deg")
assert np.abs(u_oracle - [0.8, 0.36]).max() < 1e-12
