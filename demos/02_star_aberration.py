# Aberration of the night sky, three ways.
#
# Mark stars as stones on a unit circle (the cromlech). A boost makes every
# star slide toward the direction of motion, except the one dead ahead and the
# one dead behind. The shift of a star at A is, equivalently:
#
#   1. geometry: reflect A through the center, then revert through the menhir;
#   2. algebra:  the fractional-linear map (A + e)/(conj(e) A + 1);
#   3. physics:  pull the null ray (-1, A) back through the Lorentz boost.

import numpy as np

from menhir import (
    COMPLEX,
    MoebiusMatrix,
    aberrate_ray,
    boost_matrix,
    boost_star_shift,
    menhir_of,
    moebius_apply,
    vector_embed,
    vector_part,
)
from menhir.algebra import RESIDUE_BOUND
from menhir.svgplot import render_starfield

v = np.array([4 / 5, 0.0])
angles = np.linspace(0, 2 * np.pi, 12, endpoint=False)
stars = np.column_stack([np.cos(angles), np.sin(angles)])

matrix = MoebiusMatrix.boost(menhir_of(vector_embed(v, COMPLEX)))
L = boost_matrix(v)

worst = 0.0
shifted = []
for a in stars:
    by_word = boost_star_shift(a, v)
    by_moebius = vector_part(moebius_apply(matrix, vector_embed(a, COMPLEX)), 2, atol=RESIDUE_BOUND)
    by_oracle = aberrate_ray(L, a)
    worst = max(worst, np.abs(by_word - by_moebius).max(), np.abs(by_word - by_oracle).max())
    shifted.append(by_word)
shifted = np.vstack(shifted)

print("three-way agreement across 12 stars:", worst)

# The side-most stars (x = 0) land exactly at axis projection 4/5,
# and the front/back stars do not move at all.
side = boost_star_shift(np.array([0.0, 1.0]), v)
print("side star lands at x =", side[0])
print("front star:", boost_star_shift(np.array([1.0, 0.0]), v))

with open("starfield.svg", "w") as fh:
    fh.write(render_starfield(stars, shifted, menhirs=[menhir_of(v)]))
print("wrote starfield.svg")
