# Straightedge relativity: composing boosts with chords alone.
#
# Reversions through collinear points obey a porism (the "butterfly"): if a
# four-letter word fixes a single circle point, it is the identity. That lets
# reversion pairs slide along their line, collapses two boosts into the
# two-letter word (-e, f), and yields ruler-only constructions of both the
# Thomas angle and the composite menhir.

import math

import numpy as np

from menhir import (
    COMPLEX,
    ConstructionTrace,
    apply_word,
    butterfly_check,
    compose_menhirs,
    construct_composite_menhir,
    construct_rotation,
    find_conjugate_point,
    two_boost_fixed_points,
    two_boost_word,
)

e = np.array([0.5, 0.0])
f = np.array([0.0, 1 / 3])

# Two boosts collapse to the word (-e, f): check on a few stars.
stars = np.column_stack([np.cos(np.linspace(0, 6, 7)), np.sin(np.linspace(0, 6, 7))])
long_way = apply_word(stars, [np.zeros(2), e, np.zeros(2), f])
short_way = apply_word(stars, two_boost_word(e, f))
print("two-boost word collapse error:", np.abs(long_way - short_way).max())

# The composite map has two fixed points, and they are not antipodal.
f1, f2 = two_boost_fixed_points(e, f)
print("fixed points:", f1, f2, "| antipodal?", bool(np.allclose(f1, -f2)))

# Rotation angle read off the circle...
a, b, angle = construct_rotation(e, f)
print("constructed Thomas angle:", math.degrees(angle), "deg (expect ~18.92)")

# ...and the composite menhir as the meet of two chords.
trace = ConstructionTrace()
m = construct_composite_menhir(e, f, trace)
algebraic = compose_menhirs(COMPLEX.element(e), COMPLEX.element(f))
print("constructed menhir:", m)
print("algebraic menhir  :", algebraic.coeffs)
print("labeled construction points:", [label for label, _ in trace.points])

# The porism behind it all: slide the pair (a, b) along its line to (a', b').
a0 = np.array([0.1, 0.2])
b0 = np.array([0.4, -0.1])
a_new = 0.5 * (a0 + b0)
b_new = find_conjugate_point(a0, b0, a_new)
print("slid pair gives identity word:", butterfly_check(a0, b0, b_new, a_new))
