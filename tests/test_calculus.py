import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from menhir.algebra import (
    COMPLEX,
    Element,
    QUATERNION,
    REAL,
    SingularElementError,
    UnsupportedDimensionError,
    clifford,
    vector_embed,
)
from menhir.calculus import (
    MoebiusMatrix,
    RotationDescriptor,
    SuperluminalError,
    _rotor,
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
from menhir.lorentz import axis_projection_shift, boost_matrix
from menhir.reversions import revert
from menhir.verify import CONFIGS, TIERS, sample_velocity
from util import (
    allclose,
    ball_vector,
    basis_blade,
    exact_quaternion_angle,
    exact_quaternion_rotation_matrix,
    max_diff,
    norm_sq,
    normalized,
    random_menhir,
    reference_angle,
    reference_composition,
    reference_rotation_matrix,
    scalar_part,
    unit_vector,
)

ALL = [(REAL, 1), (COMPLEX, 2), (QUATERNION, 3), (QUATERNION, 4),
       (clifford(2), 2), (clifford(3), 3), (clifford(4), 4), (clifford(5), 5)]

PHI = (1.0 + math.sqrt(5.0)) / 2.0


# -- quaternion brute-force helpers, independent of the package ----------------

def ham(p, q):
    a, b, c, d = p
    e, f, g, h = q
    return np.array([
        a * e - b * f - c * g - d * h,
        a * f + b * e + c * h - d * g,
        a * g - b * h + c * e + d * f,
        a * h + b * g - c * f + d * e,
    ])


def hconj(q):
    return np.array([q[0], -q[1], -q[2], -q[3]])


def hinv(q):
    return hconj(q) / (q @ q)


def mat2_mul(m, n):
    return [[ham(m[0][0], n[0][0]) + ham(m[0][1], n[1][0]),
             ham(m[0][0], n[0][1]) + ham(m[0][1], n[1][1])],
            [ham(m[1][0], n[0][0]) + ham(m[1][1], n[1][0]),
             ham(m[1][0], n[0][1]) + ham(m[1][1], n[1][1])]]


# -- worked example --------------------------------------------------------------

def test_worked_example():
    v = COMPLEX.element([4 / 5, 0.0])
    w = COMPLEX.element([0.0, 3 / 5])
    ev, ew = menhir_of(v), menhir_of(w)
    assert np.abs(ev.coeffs - [0.5, 0.0]).max() <= 1e-12
    assert np.abs(ew.coeffs - [0.0, 1 / 3]).max() <= 1e-12

    m = compose_menhirs(ev, ew)
    assert np.abs(m.coeffs - [20 / 37, 9 / 37]).max() <= 1e-12

    u = velocity_of(m)
    assert np.abs(u.coeffs - [4 / 5, 9 / 25]).max() <= 1e-12
    assert abs(u.norm() - math.sqrt(481) / 25) <= 1e-12

    rot = thomas_rotation(ev, ew)
    assert np.abs(rot.rho().coeffs - [35 / 37, 12 / 37]).max() <= 1e-12
    assert abs(rot.angle() - math.acos(35 / 37)) <= 1e-12

    u2, rot2 = compose_velocities(v, w)
    assert allclose(u2, u) and allclose(rot2.rho(), rot.rho())


def test_velocity_of_menhir_examples():
    assert allclose(velocity_of(REAL.scalar(0.5)), REAL.scalar(0.8), atol=1e-15)
    assert allclose(velocity_of(COMPLEX.zero), COMPLEX.zero)
    m = COMPLEX.element([20 / 37, 9 / 37])
    assert np.abs(velocity_of(m).coeffs - [4 / 5, 9 / 25]).max() <= 1e-12


def test_menhir_round_trip():
    rng = np.random.default_rng(11)
    for algebra, n in ALL:
        for _ in range(10_000 // 8):
            v = vector_embed(ball_vector(rng, n, 0.0, 1.0 - 1e-6), algebra)
            assert max_diff(velocity_of(menhir_of(v)), v) <= 1e-12
    # radial map in bulk: same arithmetic as the element route
    speeds = rng.uniform(0.0, 1.0 - 1e-6, 10_000)
    menhirs = speeds / (1.0 + np.sqrt(1.0 - speeds**2))
    back = 2.0 * menhirs / (1.0 + menhirs**2)
    assert np.abs(back - speeds).max() <= 1e-12


def test_square_law():
    # velocity_of(e) = e [+] e in every algebra
    rng = np.random.default_rng(12)
    for algebra, n in ALL:
        for _ in range(200):
            e = random_menhir(rng, algebra, n)
            assert max_diff(velocity_of(e), compose_menhirs(e, e)) <= 1e-12


def test_magnitude_law_and_alternate_forms():
    rng = np.random.default_rng(13)
    v = rng.uniform(0.0, 1.0 - 1e-9, 2000)
    e = v / (1.0 + np.sqrt(1.0 - v * v))
    assert np.abs((1 - v) / (1 + v) - ((1 - e) / (1 + e)) ** 2).max() <= 1e-12
    v_alt = ((1 + e) ** 2 - (1 - e) ** 2) / ((1 + e) ** 2 + (1 - e) ** 2)
    assert np.abs(v_alt - v).max() <= 1e-12
    e_alt = (np.sqrt(1 + v) - np.sqrt(1 - v)) / (np.sqrt(1 + v) + np.sqrt(1 - v))
    assert np.abs(e_alt - e).max() <= 1e-12


def _tier_menhirs(i, key, tier, count):
    """`count` menhirs of lane `key` at `tier` speeds, drawn from
    default_rng([26, i])."""
    algebra, n = CONFIGS[key]
    lo, hi, _ = TIERS[tier]
    rng = np.random.default_rng([26, i])
    return [menhir_of(vector_embed(sample_velocity(rng, n, lo, hi), algebra))
            for _ in range(count)]


def test_loop_axioms():
    rng = np.random.default_rng(14)
    for algebra, n in ALL:
        for _ in range(50):
            e = random_menhir(rng, algebra, n)
            zero = algebra.zero
            assert max_diff(compose_menhirs(e, zero), e) <= 1e-15
            assert max_diff(compose_menhirs(zero, e), e) <= 1e-15
            assert compose_menhirs(e, -e).norm() <= 1e-15
    # Ungar's gyrocommutative law e1 [+] e2 = alpha^{-1} (e2 [+] e1) beta, with
    # (alpha, beta) the Thomas pair, and left cancellation
    # (-e1) [+] (e1 [+] e2) = e2, on every lane in both tiers
    for tier in TIERS:
        for key in CONFIGS:
            gyration = cancellation = 0.0
            for i in range(200):
                e1, e2 = _tier_menhirs(i, key, tier, 2)
                rot = thomas_rotation(e1, e2)
                swapped = rot.alpha.inverse() * compose_menhirs(e2, e1) * rot.beta
                gyration = max(gyration, max_diff(compose_menhirs(e1, e2), swapped))
                cancellation = max(cancellation,
                                   max_diff(compose_menhirs(-e1, compose_menhirs(e1, e2)), e2))
            print(f"{tier} {key}: gyrocommutativity {gyration:.3g},",
                  f"left cancellation {cancellation:.3g}")
            assert gyration <= 1e-14 and cancellation <= 1e-12


def test_boost_words_are_pseudo_unitary():
    """P = M(e_k) ... M(e_1), k = 2..6, keeps the form J = diag(1, -1):
    P^dagger J P = prod(1 - |e_i|^2) J, with P^dagger = [[a*, c*], [b*, d*]]
    and * the algebra's conjugate; each entry is measured relative to the
    product.  Normal tier only: near the cone the product shrinks to 1e-6
    and the relative error grows to a few 1e-10."""
    for key, (algebra, _) in CONFIGS.items():
        one, zero = algebra.one, algebra.zero
        form = MoebiusMatrix(one, zero, zero, -one)
        worst = 0.0
        for i in range(200):
            menhirs = _tier_menhirs(i, key, "normal", 2 + i % 5)
            p = MoebiusMatrix.boost(menhirs[0])
            for e in menhirs[1:]:
                p = MoebiusMatrix.boost(e) @ p
            dagger = MoebiusMatrix(p.a.conjugate(), p.c.conjugate(),
                                   p.b.conjugate(), p.d.conjugate())
            scale = math.prod(1.0 - norm_sq(e) for e in menhirs)
            want = MoebiusMatrix(scale * one, zero, zero, -scale * one)
            worst = max(worst, max_diff(dagger @ form @ p, want) / scale)
        print(f"{key}: pseudo-unitarity {worst:.3g} relative")
        assert worst <= 1e-13


def test_nonassociative_witness_but_matrices_associate():
    a = QUATERNION.element([0, 0.5, 0, 0])
    b = QUATERNION.element([0, 0, 0.5, 0])
    c = QUATERNION.element([0, 0.5, 0, 0])
    lhs = compose_menhirs(compose_menhirs(a, b), c)
    rhs = compose_menhirs(a, compose_menhirs(b, c))
    assert max_diff(lhs, rhs) >= 1e-3  # the loop is not associative

    rng = np.random.default_rng(15)
    for _ in range(100):
        ms = [MoebiusMatrix.boost(random_menhir(rng, QUATERNION, 4)) for _ in range(3)]
        left = (ms[0] @ ms[1]) @ ms[2]
        right = ms[0] @ (ms[1] @ ms[2])
        assert max_diff(left, right) <= 1e-12


def test_noncommutative():
    a = QUATERNION.element([0, 0.5, 0, 0])
    b = QUATERNION.element([0, 0, 0.5, 0])
    assert max_diff(compose_menhirs(a, b), compose_menhirs(b, a)) > 1e-3
    assert MoebiusMatrix.boost(a) @ MoebiusMatrix.boost(b) is not None
    assert max_diff(MoebiusMatrix.boost(a) @ MoebiusMatrix.boost(b),
                    MoebiusMatrix.boost(b) @ MoebiusMatrix.boost(a)) > 1e-3


def test_moebius_matrix_repr_prints_its_entries_in_the_element_grammar():
    m = MoebiusMatrix.boost(QUATERNION.element([0, 0.5, 0.25, 0]))
    assert repr(m) == ("[[<1 in QUATERNION>, <1/2i+1/4j in QUATERNION>], "
                       "[<-1/2i-1/4j in QUATERNION>, <1 in QUATERNION>]]")


def test_collinear_thomas_rotation_trivial():
    rng = np.random.default_rng(16)
    for _ in range(100):
        d = unit_vector(rng, 2)
        e1 = COMPLEX.element(d * rng.uniform(0, 0.9))
        e2 = COMPLEX.element(d * rng.uniform(-0.9, 0.9))
        rho = thomas_rotation(e1, e2).rho()
        assert max_diff(rho, COMPLEX.one) <= 1e-12
        assert abs(thomas_rotation(e1, e2).angle()) <= 1e-12
    # a single boost has no rotation
    e = COMPLEX.element([0.3, 0.4])
    assert allclose(thomas_rotation(e, COMPLEX.zero).rho(), COMPLEX.one)


def test_master_equation_worked_example():
    e1 = COMPLEX.element([0.5, 0.0])
    e2 = COMPLEX.element([0.0, 1 / 3])
    rot, m = thomas_rotation(e1, e2), compose_menhirs(e1, e2)
    assert np.abs(rot.alpha.coeffs - [1.0, 1 / 6]).max() <= 1e-15
    assert np.abs(rot.beta.coeffs - [1.0, -1 / 6]).max() <= 1e-15
    assert np.abs(m.coeffs - [20 / 37, 9 / 37]).max() <= 1e-15
    # independent check with plain complex 2x2 arithmetic
    def as_c(x):
        return complex(x.coeffs[0], x.coeffs[1])
    m1 = np.array([[1, as_c(e1)], [as_c(e1).conjugate(), 1]])
    m2 = np.array([[1, as_c(e2)], [as_c(e2).conjugate(), 1]])
    lhs = m2 @ m1
    rhs = np.array([[as_c(rot.alpha), 0], [0, as_c(rot.beta)]]) @ np.array(
        [[1, as_c(m)], [as_c(m).conjugate(), 1]]
    )
    assert np.abs(lhs - rhs).max() <= 1e-15
    # trivial case: no first boost
    rot0 = thomas_rotation(COMPLEX.zero, e2)
    assert allclose(rot0.alpha, COMPLEX.one) and allclose(rot0.beta, COMPLEX.one)
    assert allclose(compose_menhirs(COMPLEX.zero, e2), e2)


def test_master_equation_quaternion_brute_force():
    e1 = np.array([0.0, 0.5, 0.0, 0.0])  # i/2
    e2 = np.array([0.0, 0.0, 0.5, 0.0])  # j/2
    one = np.array([1.0, 0, 0, 0])
    m1 = [[one, e1], [hconj(e1), one]]
    m2 = [[one, e2], [hconj(e2), one]]
    product = mat2_mul(m2, m1)

    q1, q2 = QUATERNION.element(e1), QUATERNION.element(e2)
    rot, m = thomas_rotation(q1, q2), compose_menhirs(q1, q2)
    alpha = one + ham(e2, hconj(e1))
    beta = one + ham(hconj(e2), e1)
    assert np.abs(rot.alpha.coeffs - alpha).max() <= 1e-15
    assert np.abs(rot.beta.coeffs - beta).max() <= 1e-15
    # alpha = 1 - j i / 4 = 1 + k/4 for imaginary menhirs
    assert np.abs(alpha - [1.0, 0, 0, 0.25]).max() <= 1e-15
    recomposed = mat2_mul(
        [[alpha, np.zeros(4)], [np.zeros(4), beta]],
        [[one, m.coeffs], [m.conjugate().coeffs, one]],
    )
    for i in (0, 1):
        for j in (0, 1):
            assert np.abs(product[i][j] - recomposed[i][j]).max() <= 1e-15


def test_master_equation_random():
    rng = np.random.default_rng(17)
    for algebra, n in [(COMPLEX, 2), (QUATERNION, 4), (clifford(2), 2),
                       (clifford(3), 3), (clifford(4), 4), (clifford(5), 5)]:
        for _ in range(200):
            e1 = random_menhir(rng, algebra, n)
            e2 = random_menhir(rng, algebra, n)
            lhs = MoebiusMatrix.boost(e2) @ MoebiusMatrix.boost(e1)
            rot = thomas_rotation(e1, e2)
            rhs = MoebiusMatrix.rotation(rot.alpha, rot.beta) @ MoebiusMatrix.boost(
                compose_menhirs(e1, e2))
            assert max_diff(lhs, rhs) <= 1e-12
            # projective normal forms agree as well
            assert max_diff(normalized(lhs), normalized(rhs)) <= 1e-12


def test_moebius_apply_examples():
    # real menhir fixes the axis points
    m = MoebiusMatrix.boost(COMPLEX.element([0.5, 0.0]))
    one = COMPLEX.element([1.0, 0.0])
    assert max_diff(moebius_apply(m, one), one) <= 1e-15
    # M(1/2) applied to i
    z = COMPLEX.element([0.0, 1.0])
    out = moebius_apply(m, z)
    assert np.abs(out.coeffs - [0.8, 0.6]).max() <= 1e-15
    assert abs(out.norm() - 1.0) <= 1e-15
    # rotation sandwich R(q, q) with q = cos t + k sin t turns the (i, j) plane by 2t
    t = 0.3
    q = QUATERNION.element([math.cos(t), 0, 0, math.sin(t)])
    r = MoebiusMatrix.rotation(q, q)
    z = QUATERNION.element([0, 1, 0, 0])
    out = moebius_apply(r, z)
    expected = [0.0, math.cos(2 * t), math.sin(2 * t), 0.0]
    assert np.abs(out.coeffs - expected).max() <= 1e-12


def test_moebius_apply_requires_unit_input():
    m = MoebiusMatrix.boost(COMPLEX.element([0.5, 0.0]))
    with pytest.raises(ValueError):
        moebius_apply(m, COMPLEX.element([0.5, 0.0]))


def test_sphere_preservation():
    rng = np.random.default_rng(18)
    for algebra, n in ALL:
        if algebra.kind == "real":
            continue
        for _ in range(100):
            e = random_menhir(rng, algebra, n)
            z = vector_embed(unit_vector(rng, n), algebra)
            out = moebius_apply(MoebiusMatrix.boost(e), z)
            assert abs(out.norm() - 1.0) <= 1e-9
            rot = thomas_rotation(e, random_menhir(rng, algebra, n))
            out2 = moebius_apply(MoebiusMatrix.rotation(rot.alpha, rot.beta), z)
            assert abs(out2.norm() - 1.0) <= 1e-9


def test_imaginary_quaternion_closure():
    rng = np.random.default_rng(19)
    for _ in range(300):
        e = vector_embed(ball_vector(rng, 3), QUATERNION)
        z = vector_embed(unit_vector(rng, 3), QUATERNION)
        out = moebius_apply(MoebiusMatrix.boost(e), z)
        assert abs(out.coeffs[0]) <= 1e-12
        assert abs(out.norm() - 1.0) <= 1e-12


def test_one_dimensional_isomorphism():
    rng = np.random.default_rng(20)
    v = rng.uniform(-0.999999, 0.999999, 10_000)
    w = rng.uniform(-0.999999, 0.999999, 10_000)
    ev = v / (1.0 + np.sqrt(1.0 - v * v))
    ew = w / (1.0 + np.sqrt(1.0 - w * w))
    combined = (v + w) / (1.0 + v * w)
    e_combined = combined / (1.0 + np.sqrt(1.0 - combined * combined))
    boxed = (ev + ew) / (1.0 + ev * ew)
    assert np.abs(boxed - e_combined).max() <= 1e-12
    # commutative square identity in R: (e#e)#(f#f) = (e#f)#(e#f)
    e, f = ev[:100], ew[:100]
    def box(a, b):
        return (a + b) / (1.0 + a * b)
    assert np.abs(box(box(e, e), box(f, f)) - box(box(e, f), box(e, f))).max() <= 1e-12


def test_perpendicular_speed_identity():
    # for v perpendicular to w: |v (+) w|^2 = v^2 + w^2 - v^2 w^2
    rng = np.random.default_rng(22)
    for _ in range(200):
        d1 = unit_vector(rng, 2)
        d2 = np.array([-d1[1], d1[0]])
        v = COMPLEX.element(d1 * rng.uniform(0, 0.95))
        w = COMPLEX.element(d2 * rng.uniform(0, 0.95))
        u, _ = compose_velocities(v, w)
        expected = norm_sq(v) + norm_sq(w) - norm_sq(v) * norm_sq(w)
        assert abs(norm_sq(u) - expected) <= 1e-12
    # the worked pair lands on sqrt(481)/25
    u, _ = compose_velocities(COMPLEX.element([0.8, 0]), COMPLEX.element([0, 0.6]))
    assert abs(u.norm() - math.sqrt(0.64 + 0.36 - 0.64 * 0.36)) <= 1e-15


def test_thomas_rotation_pair_has_equal_norms():
    rng = np.random.default_rng(23)
    for algebra, n in ALL:
        for _ in range(100):
            rot = thomas_rotation(random_menhir(rng, algebra, n), random_menhir(rng, algebra, n))
            assert abs(rot.alpha.norm() - rot.beta.norm()) <= 1e-12


def test_vector_menhirs_share_one_rotor():
    """Where conj(e) = -e, beta is the element alpha itself, and its bits are
    those of the second product; elsewhere beta stays its own product."""
    rng = np.random.default_rng(31)

    def pairs(algebra, n):
        for _ in range(4 if n == 10 else 40):
            yield random_menhir(rng, algebra, n), random_menhir(rng, algebra, n)
        # exact and negative zeros, and a zero menhir
        d = np.zeros(n)
        d[0], d[-1] = -0.0, 0.5
        yield vector_embed(d, algebra), vector_embed(-np.roll(d, 1), algebra)
        yield algebra.zero, random_menhir(rng, algebra, n)

    for algebra, n in [(QUATERNION, 3)] + [(clifford(k), k) for k in (2, 3, 4, 5, 10)]:
        for e1, e2 in pairs(algebra, n):
            rot = thomas_rotation(e1, e2)
            assert rot.beta is rot.alpha
            assert rot.beta.coeffs.tobytes() == (1.0 + e2.conjugate() * e1).coeffs.tobytes()
    for algebra, n in ((COMPLEX, 2), (QUATERNION, 4)):
        for e1, e2 in pairs(algebra, n):
            rot = thomas_rotation(e1, e2)
            if e1.coeffs[0] or e2.coeffs[0]:
                assert rot.beta is not rot.alpha
            assert rot.beta.coeffs.tobytes() == (1.0 + e2.conjugate() * e1).coeffs.tobytes()


def _composition_velocities(rng, n, count):
    """Velocity pairs of both tiers' speeds, and pairs of the special
    velocities: zero, all -0.0, a -0.0 slot, one velocity and its opposite."""
    for _ in range(count):
        lo, hi, _ = TIERS["normal" if rng.random() < 0.5 else "stress"]
        v, w = (sample_velocity(rng, n, lo, hi) for _ in range(2))
        if rng.random() < 0.3:  # some slots -0.0
            v[rng.random(n) < 0.4] = -0.0
        yield v, w
    d = sample_velocity(rng, n, 0.0, 0.95)
    partial = d.copy()
    partial[0] = -0.0
    special = [np.zeros(n), np.full(n, -0.0), partial, d, -d]
    yield from ((v, w) for v in special for w in special)


def test_one_product_composition_is_the_frozen_route():
    """The composite, alpha and beta of `compose_velocities`,
    `compose_menhirs` and `thomas_rotation` are those of the route with one
    product each, byte for byte, and so is which pairs share one rotor."""
    rng = np.random.default_rng(2901)
    for algebra, n in ALL + [(clifford(10), 10)]:
        for v, w in _composition_velocities(rng, n, 40 if n == 10 else 300):
            v, w = vector_embed(v, algebra), vector_embed(w, algebra)
            e1, e2 = menhir_of(v), menhir_of(w)
            composite, alpha, beta = reference_composition(e1, e2)
            u, rot = compose_velocities(v, w)
            assert u.coeffs.tobytes() == velocity_of(composite).coeffs.tobytes()
            assert compose_menhirs(e1, e2).coeffs.tobytes() == composite.coeffs.tobytes()
            for rotation in (rot, thomas_rotation(e1, e2)):
                assert rotation.alpha.coeffs.tobytes() == alpha.coeffs.tobytes()
                assert rotation.beta.coeffs.tobytes() == beta.coeffs.tobytes()
                assert (rotation.beta is rotation.alpha) == (beta is alpha)


def test_rotation_matrix_matches_sandwich_reference():
    rng = np.random.default_rng(29)
    lanes = list(CONFIGS.values()) + [(clifford(10), 10)]
    for algebra, n in lanes:
        for _ in range(3 if algebra.n_gen == 10 else 50):
            rot = thomas_rotation(random_menhir(rng, algebra, n), random_menhir(rng, algebra, n))
            assert np.abs(rot.matrix(n) - reference_rotation_matrix(rot, n)).max() <= 1e-14


def test_closed_form_matrices_need_no_sandwich():
    """Real and complex pairs and rotor pairs (imaginary quaternions, Clifford
    vectors) get their matrix in closed form, equal to the basis-sandwich
    reference."""
    rng = np.random.default_rng(32)
    cases = [(REAL, 1), (COMPLEX, 2), (QUATERNION, 3), (clifford(2), 2), (clifford(3), 3),
             (clifford(4), 4), (clifford(5), 5), (clifford(10), 10)]
    for algebra, n in cases:
        rot = thomas_rotation(random_menhir(rng, algebra, n), random_menhir(rng, algebra, n))
        assert np.abs(rot.matrix(n) - reference_rotation_matrix(rot, n)).max() <= 1e-14


def test_real_line_matrix_is_rho():
    rng = np.random.default_rng(36)
    for _ in range(100):
        rot = thomas_rotation(random_menhir(rng, REAL, 1), random_menhir(rng, REAL, 1))
        assert rot.matrix(1).tobytes() == np.array([[scalar_part(rot.rho())]]).tobytes()


def test_zero_and_collinear_boosts_rotate_nothing():
    rng = np.random.default_rng(33)
    for algebra, n in CONFIGS.values():
        zero, e = algebra.zero, random_menhir(rng, algebra, n)
        for e1, e2 in ((zero, zero), (e, zero), (zero, e)):
            assert np.array_equal(thomas_rotation(e1, e2).matrix(n), np.eye(n))
        for _ in range(200):
            # a random direction below the stress tier; a basis direction up
            # to the cone, where a rounded cross term would be amplified
            d, (s1, s2) = unit_vector(rng, n), rng.uniform(-0.95, 0.95, 2)
            if rng.uniform() < 0.5:
                d, (s1, s2) = np.eye(n)[rng.integers(n)], rng.uniform(-1 + 1e-9, 1 - 1e-9, 2)
            rot = thomas_rotation(menhir_of(vector_embed(s1 * d, algebra)),
                                  menhir_of(vector_embed(s2 * d, algebra)))
            assert np.abs(rot.matrix(n) - np.eye(n)).max() <= 1e-15


_SPEED = st.floats(0.0, 1.0 - 1e-9)
_DIRECTION = st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(CONFIGS)), _DIRECTION, _DIRECTION, _SPEED, _SPEED)
def test_rotation_matrix_is_a_rotation_hypothesis(key, d1, d2, s1, s2):
    """Every lane's matrix is a proper rotation to 1e-13, up to speeds 1e-9
    below the cone, and agrees with a reference to 1e-14.  The reference is
    the float sandwich, except on the 4-D quaternion lane: there the
    separately rounded alpha and beta have norms up to a few 1e-13 apart
    relatively, which the float sandwich keeps and the isoclinic closed form
    drops, so that lane is checked against the 50-digit sandwich of the same
    alpha and beta scaled by |beta|/|alpha|."""
    algebra, n = CONFIGS[key]
    d1, d2 = np.array(d1[:n]), np.array(d2[:n])
    assume(min(np.linalg.norm(d1), np.linalg.norm(d2)) > 1e-3)
    v = s1 * d1 / np.linalg.norm(d1)
    w = s2 * d2 / np.linalg.norm(d2)
    rot = thomas_rotation(menhir_of(vector_embed(v, algebra)),
                          menhir_of(vector_embed(w, algebra)))
    o = rot.matrix(n)
    assert np.abs(o.T @ o - np.eye(n)).max() <= 1e-13
    assert abs(np.linalg.det(o) - 1.0) <= n * 1e-13
    if key == "quaternion":
        reference = exact_quaternion_rotation_matrix(rot.alpha, rot.beta)
    else:
        reference = reference_rotation_matrix(rot, n)
    assert np.abs(o - reference).max() <= 1e-14


def test_rotation_matrix_rejects_scaled_rotor_pairs():
    """(q, c q) and (c q, q), with q a Thomas rotor and c in [0.5, 2], preserve
    the model, but they are no rotor pairs and have no closed form, so
    `matrix` raises ValueError."""
    rng = np.random.default_rng(35)
    cases = [(QUATERNION, 3)] + [(clifford(n), n) for n in (2, 3, 4, 5, 8, 10)]
    for algebra, n in cases:
        for _ in range(2 if n >= 8 else 20):
            q = thomas_rotation(random_menhir(rng, algebra, n),
                                random_menhir(rng, algebra, n)).alpha
            c = rng.uniform(0.5, 2.0)
            for rot in (RotationDescriptor(q, c * q), RotationDescriptor(c * q, q)):
                assert rot._as_rotor() is None
                with pytest.raises(ValueError):
                    rot.matrix(n)


def test_rotation_matrix_rejects_an_off_model_pair():
    algebra = clifford(3)
    e1 = basis_blade(algebra, 1)
    with pytest.raises(ValueError):
        RotationDescriptor(1.0 + e1, algebra.one).matrix(3)
    # singular pairs raise SingularElementError, as beta^{-1} does: a zero
    # beta, a zero rotor, a non-simple bivector, and on the 4-D quaternion
    # model a zero alpha as well
    c4 = clifford(4)
    non_simple = 1.0 + basis_blade(c4, 0b0011) + basis_blade(c4, 0b1100)
    for rot, n in ((RotationDescriptor(COMPLEX.one, COMPLEX.zero), 2),
                   (RotationDescriptor(QUATERNION.zero, QUATERNION.zero), 3),
                   (RotationDescriptor(QUATERNION.one, QUATERNION.zero), 4),
                   (RotationDescriptor(QUATERNION.zero, QUATERNION.one), 4),
                   (RotationDescriptor(algebra.zero, algebra.zero), 3),
                   (RotationDescriptor(non_simple, non_simple), 4)):
        with pytest.raises(SingularElementError):
            rot.matrix(n)
    with pytest.raises(UnsupportedDimensionError):
        thomas_rotation(algebra.zero, algebra.zero).matrix(4)


def test_closed_form_angle_matches_trace_reference():
    """`angle` against the arccos of the trace of `matrix`, on every lane in
    both tiers and on clifford10.  That cosine is good to about n * 1e-15, so
    its arccos is off by up to n * 1e-15 / sin(theta) near 0 and pi (2.5e-10
    at theta = 3.9e-7 against a 40-digit value, where the closed form is off
    by 5e-23); the comparison allows that much on top of 1e-11.  For rotor
    pairs the same matrix read as atan2(sine, cosine), with the sine from its
    antisymmetric part, must agree to 1e-11 at every angle."""
    rng = np.random.default_rng(30)
    lanes = list(CONFIGS.values()) + [(clifford(10), 10)]
    for algebra, n in lanes:
        for lo, hi, _ in TIERS.values():
            for _ in range(5 if n == 10 else 200):
                v, w = sample_velocity(rng, n, lo, hi), sample_velocity(rng, n, lo, hi)
                rot = thomas_rotation(menhir_of(vector_embed(v, algebra)),
                                      menhir_of(vector_embed(w, algebra)))
                theta, ref = rot.angle(), reference_angle(rot, n)
                assert abs(theta - ref) <= 1e-11 + n * 1e-15 / max(math.sin(ref), 2e-8)
                if np.array_equal(rot.alpha.coeffs, rot.beta.coeffs):
                    o = rot.matrix(n)
                    sine = np.linalg.norm(o - o.T) / (2.0 * math.sqrt(2.0))
                    assert abs(theta - math.atan2(sine, (np.trace(o) - (n - 2)) / 2.0)) <= 1e-11


def test_rotor_angle_needs_no_matrix(monkeypatch):
    def no_matrix(self, model_dim):
        raise AssertionError("matrix() called for a two-boost pair")

    rng = np.random.default_rng(31)
    cases = [(QUATERNION, 3), (QUATERNION, 4), (clifford(2), 2), (clifford(3), 3),
             (clifford(5), 5), (clifford(10), 10)]
    expected = []
    for algebra, n in cases:
        rot = thomas_rotation(random_menhir(rng, algebra, n), random_menhir(rng, algebra, n))
        expected.append((rot, reference_angle(rot, n)))
    monkeypatch.setattr(RotationDescriptor, "matrix", no_matrix)
    for rot, ref in expected:
        assert abs(rot.angle() - ref) <= 1e-11


def test_angle_error_types_unchanged():
    c3, c4 = clifford(3), clifford(4)
    # alpha != beta and off the model: matrix() raises ValueError
    with pytest.raises(ValueError):
        RotationDescriptor(1.0 + basis_blade(c3, 1), c3.one).angle()
    # alpha = beta, but no rotor: a non-simple bivector, a trivector part
    for a in (1.0 + basis_blade(c4, 0b0011) + basis_blade(c4, 0b1100),
              0.8 + 0.6 * basis_blade(c3, 0b011) + 0.1 * basis_blade(c3, 0b111)):
        with pytest.raises(SingularElementError):
            RotationDescriptor(a, a).angle()
    # a zero pair is no rotor either, and a quaternion pair with a zero alpha
    # or beta has no rotation
    for rot in (RotationDescriptor(c3.zero, c3.zero),
                RotationDescriptor(QUATERNION.one, QUATERNION.zero),
                RotationDescriptor(QUATERNION.zero, QUATERNION.one)):
        with pytest.raises(SingularElementError):
            rot.angle()
    # a model the algebra does not have: matrix() raises on the complex plane
    # and the real line, as on the others
    rng = np.random.default_rng(37)
    for algebra, n, bad in ((COMPLEX, 2, 3), (REAL, 1, 4)):
        rot = thomas_rotation(random_menhir(rng, algebra, n), random_menhir(rng, algebra, n))
        with pytest.raises(UnsupportedDimensionError):
            rot.matrix(bad)


def test_non_rotor_angle_is_exact_near_zero():
    """The 4-D quaternion model is no rotor pair (alpha != beta), and `angle`
    reads the rotor alpha.  Near-collinear boosts give Thomas angles near
    1e-9 and 1e-5, which match a 50-digit angle to 1e-15.  The arccos of the
    matrix's trace read 0.0 at 1e-9 and was off by about 1e-10 at 1e-5."""
    rng = np.random.default_rng(34)
    for target in (1e-9, 1e-5):
        for _ in range(20):
            d = unit_vector(rng, 4)
            perp = unit_vector(rng, 4)
            perp -= (perp @ d) * d
            perp /= np.linalg.norm(perp)
            # the Thomas angle is 0.1-0.3 times the angle between the boosts
            phi = 6.0 * target
            v = rng.uniform(0.3, 0.9) * d
            w = rng.uniform(0.3, 0.9) * (math.cos(phi) * d + math.sin(phi) * perp)
            e1 = menhir_of(vector_embed(v, QUATERNION))
            e2 = menhir_of(vector_embed(w, QUATERNION))
            rot = thomas_rotation(e1, e2)
            assert not np.array_equal(rot.alpha.coeffs, rot.beta.coeffs)
            exact = exact_quaternion_angle(e1, e2)
            assert target / 10 <= exact <= target * 10
            assert abs(rot.angle() - exact) <= 1e-15


def test_quaternion_angle_matches_the_exact_angle_in_both_tiers():
    """The 4-D angle, read from the rotor alpha alone, against the 50-digit
    angle of the matrix of the pair (alpha, beta), at the speeds of both
    verify tiers."""
    rng = np.random.default_rng(40)
    for lo, hi, _ in TIERS.values():
        for _ in range(100):
            e1, e2 = (menhir_of(vector_embed(sample_velocity(rng, 4, lo, hi), QUATERNION))
                      for _ in range(2))
            assert abs(thomas_rotation(e1, e2).angle() - exact_quaternion_angle(e1, e2)) <= 1e-15


def test_angle_picks_the_model_of_the_pair():
    # a velocity with a real part leaves alpha != beta, a pair of the 4-D
    # model, and imaginary velocities give a rotor pair of the 3-D one; both
    # angles are the rotor alpha's
    rng = np.random.default_rng(38)
    for _ in range(50):
        rot = thomas_rotation(random_menhir(rng, QUATERNION, 4), random_menhir(rng, QUATERNION, 4))
        assert rot.beta is not rot.alpha
        assert rot.angle() == _rotor(rot.alpha).angle
        rot = thomas_rotation(random_menhir(rng, QUATERNION, 3), random_menhir(rng, QUATERNION, 3))
        assert rot.beta is rot.alpha
        assert rot.angle() == _rotor(rot.alpha).angle


def test_equal_bits_are_no_rotor_pair():
    """A rotor pair is one element passed twice.  A copy of a Thomas rotor
    with the same bits makes a pair of two elements: no rotor pair, so
    `matrix` has no closed form for it and raises ValueError."""
    rng = np.random.default_rng(39)
    cases = [(QUATERNION, 3)] + [(clifford(n), n) for n in (2, 3, 4, 5, 8)]
    for algebra, n in cases:
        for _ in range(2 if n == 8 else 20):
            q = thomas_rotation(random_menhir(rng, algebra, n),
                                random_menhir(rng, algebra, n)).alpha
            copy = Element(algebra, q.coeffs.copy())
            assert copy.coeffs.tobytes() == q.coeffs.tobytes()
            rot = RotationDescriptor(q, copy)
            assert rot._as_rotor() is None
            assert RotationDescriptor(q, q)._as_rotor() is not None
            with pytest.raises(ValueError):
                rot.matrix(n)


def test_collinear_real_menhirs_match_scalar_formula():
    rng = np.random.default_rng(21)
    for _ in range(100):
        a, b = rng.uniform(-0.9, 0.9, 2)
        e1, e2 = REAL.scalar(a), REAL.scalar(b)
        expected = (a + b) / (1.0 + a * b)
        assert abs(scalar_part(compose_menhirs(e1, e2)) - expected) <= 1e-15


def test_rotation_axis_angle():
    e1 = vector_embed([0.5, 0, 0], QUATERNION)  # i/2
    e2 = vector_embed([0, 0.5, 0], QUATERNION)  # j/2
    axis, angle = rotation_axis_angle(e1, e2)
    # q = 1 - e2 e1 = 1 + k/4: axis +k, angle 2 arccos(1/|q|)
    assert np.abs(axis - [0, 0, 1]).max() <= 1e-12
    assert abs(angle - 2 * math.acos(1 / math.sqrt(1 + 1 / 16))) <= 1e-12
    # matches the sandwich matrix (independent reconstruction via Rodrigues)
    kmat = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    rodrigues = np.eye(3) + math.sin(angle) * kmat + (1 - math.cos(angle)) * kmat @ kmat
    sandwich = thomas_rotation(e1, e2).matrix(3)
    assert np.abs(rodrigues - sandwich).max() <= 1e-12

    # collinear menhirs rotate nothing
    axis0, angle0 = rotation_axis_angle(e1, vector_embed([0.25, 0, 0], QUATERNION))
    assert axis0 is None and angle0 == 0.0
    axis1, angle1 = rotation_axis_angle(e1, QUATERNION.zero)
    assert axis1 is None and angle1 == 0.0

    with pytest.raises(ValueError):
        rotation_axis_angle(QUATERNION.element([0.1, 0.5, 0, 0]), e2)
    # any real part leaves no rotor pair, however small
    with pytest.raises(ValueError):
        rotation_axis_angle(QUATERNION.element([1e-13, 0.5, 0, 0]), e2)
    with pytest.raises(ValueError):
        rotation_axis_angle(COMPLEX.element([0.1, 0.2]), COMPLEX.element([0.1, 0.2]))


def test_rotation_axis_angle_reads_the_thomas_pair():
    # the rotor of `thomas_rotation` is bitwise 1 - e2 e1, so axis and angle
    # are bitwise those of that product read on its own
    rng = np.random.default_rng(39)
    for _ in range(200):
        e1, e2 = random_menhir(rng, QUATERNION, 3), random_menhir(rng, QUATERNION, 3)
        q = (1.0 - e2 * e1).coeffs
        norm_b = math.hypot(*q[1:].tolist())
        axis, angle = rotation_axis_angle(e1, e2)
        assert np.array_equal(axis, q[1:] / norm_b)
        assert angle == 2.0 * math.atan2(norm_b, abs(q[0]))


def test_superluminal_guards():
    with pytest.raises(SuperluminalError):
        menhir_of(COMPLEX.element([1.0, 0.0]))
    with pytest.raises(SuperluminalError):
        menhir_of(COMPLEX.element([1.0 - 1e-13, 0.0]))
    with pytest.raises(SuperluminalError):
        velocity_of(REAL.scalar(1.0))
    with pytest.raises(SuperluminalError):
        compose_velocities(COMPLEX.element([2.0, 0.0]), COMPLEX.zero)
    # every speed check is the same rule: NaN, inf and the edge itself all fail
    for bad in (math.nan, math.inf, 1.0 - 1e-13):
        with pytest.raises(SuperluminalError):
            menhir_of(COMPLEX.element([bad, 0.0]))
        with pytest.raises(SuperluminalError):
            boost_matrix([bad, 0.0])
        with pytest.raises(SuperluminalError):
            revert(np.array([0.0, 1.0]), np.array([bad, 0.0]))
        with pytest.raises(SuperluminalError):
            axis_projection_shift(0.5, bad)
    # just inside the guard is fine
    menhir_of(COMPLEX.element([1.0 - 1e-6, 0.0]))


def test_golden_ratio_discrepancy():
    v_star = refine_gap_argmax()
    assert abs(v_star - PHI ** -0.5) <= 1e-6
    e_star = v_star - float(menhir_gap(v_star))
    assert abs(v_star / e_star - PHI) <= 1e-9
    # endpoints coincide
    assert float(menhir_gap(0.0)) == 0.0
    assert abs(float(menhir_gap(1.0 - 1e-15))) <= 1e-7
