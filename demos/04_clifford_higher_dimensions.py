# Beyond quaternions: the same calculus in any dimension via Clifford algebras.
#
# Vectors of R^n sit inside Cliff(n) with v v = -|v|^2. The composition law
# keeps its shape, e [+] f = (e + f)(1 - e f)^{-1}, the rotation factor becomes
# the scalar-plus-bivector element 1 - f e, and everything still matches the
# (1+n)-dimensional Lorentz matrices entry for entry.

import numpy as np

from menhir import (
    MoebiusMatrix,
    clifford,
    compose_menhirs,
    composition_split,
    menhir_of,
    thomas_rotation,
    vector_embed,
    vector_part,
    velocity_of,
)
from menhir.algebra import RESIDUE_BOUND



def max_diff(p, q):
    """Largest coefficient gap between two 2x2 Moebius matrices, entry by entry."""
    return max(float(np.abs(x.coeffs - y.coeffs).max())
               for x, y in zip((p.a, p.b, p.c, p.d), (q.a, q.b, q.c, q.d)))


n = 5
algebra = clifford(n)
rng = np.random.default_rng(0)

v = rng.standard_normal(n)
v *= 0.7 / np.linalg.norm(v)
w = rng.standard_normal(n)
w *= 0.5 / np.linalg.norm(w)

e1 = menhir_of(vector_embed(v, algebra))
e2 = menhir_of(vector_embed(w, algebra))

# The rotation factor is a scalar plus a bivector:
rot = thomas_rotation(e1, e2)
print("rotation element 1 - e2 e1:", rot.alpha)
print("rotation angle:", rot.angle())

# Master equation, checked entrywise: M(e2) M(e1) = R(1 - e2 e1) M(e1 [+] e2).
lhs = MoebiusMatrix.boost(e2) @ MoebiusMatrix.boost(e1)
rhs = MoebiusMatrix.rotation(rot.alpha, rot.beta) @ MoebiusMatrix.boost(compose_menhirs(e1, e2))
print("master equation entrywise error:", max_diff(lhs, rhs))

# And the 6x6 Lorentz oracle agrees on both outputs.  The composite velocity
# is read off its vector model; what lies off it is rounding, at most RESIDUE_BOUND.
u = vector_part(velocity_of(compose_menhirs(e1, e2)), n, atol=RESIDUE_BOUND)
rotation, u_oracle = composition_split(v, w)
print("velocity deviation from oracle:", np.abs(u - u_oracle).max())
print("rotation deviation from oracle:", np.abs(rot.matrix(n) - rotation).max())
