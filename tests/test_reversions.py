import math
import warnings

import numpy as np
import pytest

from menhir.algebra import COMPLEX, RESIDUE_BOUND, Algebra, vector_embed, vector_part
from menhir.calculus import (
    MoebiusMatrix,
    SuperluminalError,
    compose_menhirs,
    menhir_of,
    moebius_apply,
    velocity_of,
)
from menhir.lorentz import aberrate_ray, boost_matrix
from menhir.reversions import (
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
from util import ball_vector, unit_vector


def _complex_revert(z, p):
    return (z - p) / (p.conjugate() * z - 1.0)


def test_revert_through_origin_is_antipode():
    rng = np.random.default_rng(40)
    for n in (2, 3, 5):
        a = unit_vector(rng, n)
        assert np.abs(revert(a, np.zeros(n)) + a).max() <= 1e-15


def test_revert_worked_quadratic():
    a = np.array([0.0, 1.0])
    p = np.array([0.5, 0.0])
    # independent root: |a + t(p - a)|^2 = 1 solved with numpy
    d = p - a
    roots = np.roots([d @ d, 2 * a @ d, 0.0])
    t = roots[np.abs(roots) > 1e-12][0].real
    expected = a + t * d
    got = revert(a, p)
    assert np.abs(got - expected).max() <= 1e-12
    assert np.abs(got - [0.8, -0.6]).max() <= 1e-12
    # and the fractional-linear formula agrees
    z = _complex_revert(complex(0, 1), complex(0.5, 0))
    assert abs(complex(*got) - z) <= 1e-12


def test_revert_involution_and_collinearity():
    rng = np.random.default_rng(41)
    for _ in range(400):
        n = int(rng.integers(2, 6))
        a = unit_vector(rng, n)
        p = ball_vector(rng, n)
        image = revert(a, p)
        assert abs(np.linalg.norm(image) - 1.0) <= 1e-12
        assert np.abs(revert(image, p) - a).max() <= 1e-12
        assert collinear([p, a, image])


def test_revert_one_expression_for_a_point_and_a_batch():
    # one expression serves a single point and a batch; each result is
    # bitwise the direct formula for its shape
    rng = np.random.default_rng(44)
    for n in (2, 3, 5):
        stars = np.array([unit_vector(rng, n) for _ in range(20)])
        p = ball_vector(rng, n)
        d = p - stars
        t = 2.0 * (1.0 - stars @ p) / np.sum(d * d, axis=-1)
        assert np.array_equal(revert(stars, p), stars + np.expand_dims(t, -1) * d)
        a, d = stars[0], p - stars[0]
        assert np.array_equal(revert(a, p), a + 2.0 * (1.0 - a @ p) / np.sum(d * d) * d)


def test_revert_rejects_bad_input():
    with pytest.raises(ValueError):
        revert(np.array([0.5, 0.0]), np.zeros(2))
    with pytest.raises(ValueError):
        revert(np.array([1.0, 0.0]), np.array([1.0, 0.0]))


def test_planar_revert_matches_fractional_formula():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        theta = rng.uniform(0, 2 * math.pi)
        a = np.array([math.cos(theta), math.sin(theta)])
        p = ball_vector(rng, 2)
        got = revert(a, p)
        want = _complex_revert(complex(*a), complex(*p))
        assert abs(complex(*got) - want) <= 1e-12


def test_apply_word_basics():
    rng = np.random.default_rng(43)
    a = unit_vector(rng, 3)
    p = ball_vector(rng, 3)
    assert np.abs(apply_word(a, [p, p]) - a).max() <= 1e-12
    assert np.array_equal(apply_word(a, []), a)


def test_empty_batch_maps_to_an_empty_batch():
    # no star to check or move: every route returns the empty batch, as the
    # null boost always did
    p = np.array([0.3, -0.2, 0.1])
    for out, n in ((apply_word(np.zeros((0, 3)), [p]), 3),
                   (boost_star_shift(np.zeros((0, 3)), [0.5, 0.0, 0.0]), 3),
                   (boost_star_shift(np.zeros((0, 3)), np.zeros(3)), 3),
                   (apply_word(np.zeros((0, 2)), two_boost_word([0.5, 0.0], [0.0, 1 / 3])), 2)):
        assert out.shape == (0, n)


def test_null_boost_checks_its_stars():
    # the null boost takes the stars as they are, bit for bit, but only stars
    # on the sphere, as every other boost does
    for v in ([0.0, 0.0], [0.5, 0.0]):
        with pytest.raises(ValueError, match="unit norm"):
            boost_star_shift([[2.0, 0.0]], v)
    rng = np.random.default_rng(31)
    stars = np.array([[-0.0, 1.0, 0.0]] + [unit_vector(rng, 3) for _ in range(4)])
    out = boost_star_shift(stars, np.zeros(3))
    assert out is not stars and out.tobytes() == stars.tobytes()


def test_origin_then_menhir_is_moebius_boost():
    rng = np.random.default_rng(44)
    for _ in range(200):
        theta = rng.uniform(0, 2 * math.pi)
        a = np.array([math.cos(theta), math.sin(theta)])
        e = ball_vector(rng, 2)
        by_word = apply_word(a, [np.zeros(2), e])
        z, eps = complex(*a), complex(*e)
        want = (z + eps) / (eps.conjugate() * z + 1.0)
        assert abs(complex(*by_word) - want) <= 1e-12


def test_origin_slide_identity():
    # word (o, e) equals word (-e, o) on a thousand sphere samples
    rng = np.random.default_rng(45)
    e = np.array([0.35, -0.2])
    thetas = rng.uniform(0, 2 * math.pi, 1000)
    stars = np.column_stack([np.cos(thetas), np.sin(thetas)])
    lhs = apply_word(stars, [np.zeros(2), e])
    rhs = apply_word(stars, [-e, np.zeros(2)])
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_two_boost_word_identity():
    # (o e)(o f) collapses to (-e, f), pointwise
    rng = np.random.default_rng(46)
    for n in (2, 3, 4):
        e = ball_vector(rng, n)
        f = ball_vector(rng, n)
        stars = np.vstack([unit_vector(rng, n) for _ in range(1000)])
        long_word = apply_word(stars, [np.zeros(n), e, np.zeros(n), f])
        short_word = apply_word(stars, two_boost_word(e, f))
        assert np.abs(long_word - short_word).max() <= 1e-12


def test_two_boost_word_matches_matrix_action():
    e = np.array([0.5, 0.0])
    f = np.array([0.0, 1 / 3])
    matrix = MoebiusMatrix.boost(vector_embed(f, COMPLEX)) @ MoebiusMatrix.boost(
        vector_embed(e, COMPLEX)
    )
    rng = np.random.default_rng(47)
    for _ in range(100):
        theta = rng.uniform(0, 2 * math.pi)
        a = np.array([math.cos(theta), math.sin(theta)])
        by_word = apply_word(a, two_boost_word(e, f))
        by_matrix = vector_part(moebius_apply(matrix, vector_embed(a, COMPLEX)), 2, RESIDUE_BOUND)
        assert np.abs(by_word - by_matrix).max() <= 1e-12


def test_boost_star_shift_fixed_and_side_stars():
    v = np.array([0.8, 0.0])
    vhat = np.array([1.0, 0.0])
    assert np.abs(boost_star_shift(vhat, v) - vhat).max() <= 1e-12
    assert np.abs(boost_star_shift(-vhat, v) + vhat).max() <= 1e-12
    side = boost_star_shift(np.array([0.0, 1.0]), v)
    assert abs(side @ vhat - 0.8) <= 1e-12


def test_boost_star_shift_three_way():
    rng = np.random.default_rng(48)
    for n in (2, 3, 4, 5):
        from menhir.verify import CONFIGS

        algebra = {2: "complex", 3: "imquaternion", 4: "quaternion", 5: "clifford5"}[n]
        alg, _ = CONFIGS[algebra]
        for _ in range(100):
            v = ball_vector(rng, n)
            a = unit_vector(rng, n)
            by_word = boost_star_shift(a, v)
            by_oracle = aberrate_ray(boost_matrix(v), a)
            matrix = MoebiusMatrix.boost(menhir_of(vector_embed(v, alg)))
            by_moebius = vector_part(moebius_apply(matrix, vector_embed(a, alg)), n, RESIDUE_BOUND)
            assert np.abs(by_word - by_oracle).max() <= 1e-9
            assert np.abs(by_word - by_moebius).max() <= 1e-9


def test_butterfly_trivial_and_slide_cases():
    p = np.array([0.2, 0.1])
    q = np.array([0.6, 0.3])
    assert butterfly_check(p, q, q, p)
    e = np.array([0.4, 0.2])
    assert butterfly_check(np.zeros(2), e, np.zeros(2), -e)


def test_butterfly_random_quadruple_fails_everywhere():
    p, q, r, s = (np.array([t, 0.0]) for t in (0.1, 0.3, -0.2, 0.5))
    assert not butterfly_check(p, q, r, s)
    # porism: a failing word fails at every sampled star except the two points
    # where the carrying line meets the circle (even words always fix those)
    thetas = np.linspace(0.3, 2 * math.pi - 0.3, 100)
    thetas = thetas[np.abs(thetas - math.pi) > 0.3]
    stars = np.column_stack([np.cos(thetas), np.sin(thetas)])
    residuals = np.linalg.norm(apply_word(stars, [p, q, r, s]) - stars, axis=1)
    assert residuals.min() > 1e-6


def test_butterfly_rejects_non_collinear():
    with pytest.raises(ValueError):
        butterfly_check(
            np.array([0.1, 0.0]), np.array([0.0, 0.1]),
            np.array([0.2, 0.2]), np.array([0.3, 0.0]),
        )


def test_find_conjugate_point_examples():
    a = np.array([0.1, 0.2])
    b = np.array([0.4, -0.1])
    assert np.abs(find_conjugate_point(a, b, a) - b).max() <= 1e-9
    # sliding the origin pair: o b = (-b) o
    b2 = find_conjugate_point(np.zeros(2), b, -b)
    assert np.abs(b2).max() <= 1e-9
    # (a, a) is the identity, and so is only (a_new, a_new)
    assert np.abs(find_conjugate_point(a, a, b) - b).max() <= 1e-12
    # a == b == a_new: nothing to slide
    assert np.array_equal(find_conjugate_point(a, a, a), a)
    with pytest.raises(ValueError, match="replacement point must lie on line"):
        find_conjugate_point(a, b, np.array([0.0, 0.0]))
    # a and b near opposite chord ends, a_new just inside b: the slid point
    # rounds to |b'| = 1 + 4e-16
    a = np.array([-0.5544653437133112, -0.8322068147959151])
    b = np.array([0.5544653437193955, 0.8322068148050471])
    a_new = np.array([0.5544652686908806, 0.8322067021934259])
    with pytest.raises(ConstructionError, match="outside the open ball") as info:
        find_conjugate_point(a, b, a_new)
    assert isinstance(info.value.__cause__, SuperluminalError)


def test_find_conjugate_point_random_verified():
    rng = np.random.default_rng(49)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        direction = unit_vector(rng, n)
        center = rng.standard_normal(n) * 0.15
        ts = rng.uniform(-0.5, 0.5, 3)
        a, b, a_new = (center + t * direction for t in ts)
        if max(np.linalg.norm(x) for x in (a, b, a_new)) >= 0.9:
            continue
        b_new = find_conjugate_point(a, b, a_new)
        assert collinear([a, b, b_new])
        stars = np.vstack([unit_vector(rng, n) for _ in range(50)])
        lhs = apply_word(stars, [a, b])
        rhs = apply_word(stars, [a_new, b_new])
        assert np.abs(lhs - rhs).max() <= 1e-9
        # and the quadruple is a butterfly word
        assert butterfly_check(a, b, b_new, a_new)


def test_two_boost_fixed_points_not_antipodal():
    e = np.array([0.5, 0.0])
    f = np.array([0.0, 1 / 3])
    f1, f2 = two_boost_fixed_points(e, f)
    act = lambda a: apply_word(a, two_boost_word(e, f))
    assert np.abs(act(f1) - f1).max() <= 1e-9
    assert np.abs(act(f2) - f2).max() <= 1e-9
    assert np.linalg.norm(f1 + f2) > 0.1  # non-collinear menhirs: not antipodal


def test_two_boost_fixed_points_match_word_and_oracle():
    # aberrate_ray pulls the null ray back through L, so the map "boost by v
    # first, then by w" is aberrate_ray(boost_matrix(v) @ boost_matrix(w), .)
    rng = np.random.default_rng(51)
    for _ in range(500):
        e, f = menhir_of(ball_vector(rng, 2)), menhir_of(ball_vector(rng, 2))
        oracle = boost_matrix(velocity_of(e)) @ boost_matrix(velocity_of(f))
        fixed = two_boost_fixed_points(e, f)
        for z in fixed:
            assert abs(np.linalg.norm(z) - 1.0) <= 1e-15
            assert np.abs(apply_word(z, two_boost_word(e, f)) - z).max() <= 1e-12
            assert np.abs(aberrate_ray(oracle, z) - z).max() <= 1e-12
        angles = [math.atan2(z[1], z[0]) % (2 * math.pi) for z in fixed]
        assert angles[0] < angles[1]


def test_two_boost_fixed_points_near_the_light_cone():
    # the map stretches the circle 300-fold at the repelling fixed point,
    # which a search over sampled angles can miss
    e, f = np.array([0.725, 0.55]), np.array([-0.289, 0.889])
    f1, f2 = two_boost_fixed_points(e, f)
    for z in (f1, f2):
        assert np.abs(apply_word(z, two_boost_word(e, f)) - z).max() <= 1e-12
    assert np.linalg.norm(f1 - f2) > 0.1


def test_two_boost_fixed_points_identity_raises():
    e = np.array([0.3, -0.4])
    for first, second in [(e, -e), (np.zeros(2), np.zeros(2))]:
        with pytest.raises(ConstructionError, match="every circle point is fixed"):
            two_boost_fixed_points(first, second)


def test_two_boost_fixed_points_rejects_bad_menhirs():
    e = np.array([0.0, 0.5])
    for bad in ([2.0, 0.0], [1.0, 0.0], [math.nan, 0.0]):
        with pytest.raises(SuperluminalError):
            two_boost_fixed_points(np.array(bad), e)
        with pytest.raises(SuperluminalError):
            two_boost_fixed_points(e, np.array(bad))


def test_equal_menhirs_fix_the_axis():
    e = np.array([0.3, 0.4])
    f1, f2 = two_boost_fixed_points(e, e)
    ehat = e / np.linalg.norm(e)
    assert min(np.abs(f1 - ehat).max(), np.abs(f1 + ehat).max()) <= 1e-9
    assert min(np.abs(f2 - ehat).max(), np.abs(f2 + ehat).max()) <= 1e-9


def test_construct_rotation_matches_thomas_angle():
    e = np.array([0.5, 0.0])
    f = np.array([0.0, 1 / 3])
    a, b, angle = construct_rotation(e, f)
    assert abs(angle - math.acos(35 / 37)) <= 1e-9
    # swapped menhirs rotate the other way
    _, _, swapped = construct_rotation(f, e)
    assert abs(swapped + angle) <= 1e-9
    # the pair realizes the rotation: |A| = |B| = 1 and the central angle matches
    assert abs(np.linalg.norm(a) - 1.0) <= 1e-12
    assert abs(np.linalg.norm(b) - 1.0) <= 1e-12
    got = math.atan2(a[0] * b[1] - a[1] * b[0], float(a @ b))
    assert abs(got - angle) <= 1e-12


def test_construct_rotation_collinear_is_trivial():
    e = np.array([0.5, 0.0])
    trace = ConstructionTrace()
    a, b, angle = construct_rotation(e, e * 0.4, trace)
    assert angle == 0.0
    assert np.array_equal(a, b)
    assert trace.points == [("A", (1.0, 0.0)), ("B", (1.0, 0.0))] and not trace.segments


def test_planar_constructions_refuse_other_dimensions():
    e, f = np.array([0.5, 0.0, 0.0]), np.array([0.0, 0.3, 0.0])
    for construct in (construct_rotation, construct_composite_menhir):
        with pytest.raises(ValueError, match="planar construction requires 2-vectors"):
            construct(e, f)


def test_constructions_do_not_use_the_algebra_layer(monkeypatch):
    # the planar wing runs on the word's own complex arithmetic, so it stays
    # an independent check on the algebra even when no product can be formed
    def no_products(*args):
        raise AssertionError("planar construction used an algebra product")

    monkeypatch.setattr(Algebra, "mul_coeffs", no_products)
    e, f = np.array([0.5, 0.0]), np.array([0.0, 1 / 3])
    for z in two_boost_fixed_points(e, f):
        assert np.abs(apply_word(z, two_boost_word(e, f)) - z).max() <= 1e-12
    trace = ConstructionTrace()
    _, _, angle = construct_rotation(e, f, trace)
    assert abs(angle - math.acos(35 / 37)) <= 1e-12
    m = construct_composite_menhir(e, f, trace)
    assert np.abs(m - [20 / 37, 9 / 37]).max() <= 1e-12
    assert {"F1", "F2", "A", "B", "e[+]f"} <= {label for label, _ in trace.points}
    # collinear menhirs: trivial rotation, composite (e + f)/(1 + f conj e)
    g = np.array([0.25, 0.0])
    assert construct_rotation(e, g)[2] == 0.0
    with pytest.warns(DegenerateConstructionWarning, match="collinear"):
        m = construct_composite_menhir(e, g)
    assert np.abs(m - [2 / 3, 0.0]).max() <= 1e-12


def test_construct_composite_menhir_worked_example():
    e = np.array([0.5, 0.0])
    f = np.array([0.0, 1 / 3])
    m = construct_composite_menhir(e, f)
    assert np.abs(m - [20 / 37, 9 / 37]).max() <= 1e-9


def test_construct_composite_menhir_trivial_second_boost():
    e = np.array([0.4, 0.1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateConstructionWarning)
        m = construct_composite_menhir(e, np.zeros(2))
    assert np.abs(m - e).max() <= 1e-12


def test_construct_composite_menhir_meet_outside_the_disk_falls_back():
    # nearly opposite menhirs at |e| = |f| = 1 - 1e-10: the chords meet on or
    # past the circle, and the algebraic composite is returned with a warning
    r = 1.0 - 1e-10
    e = np.array([r, 0.0])
    f = r * np.array([-math.cos(1e-3), math.sin(1e-3)])
    with pytest.warns(DegenerateConstructionWarning, match="meet outside the disk"):
        m = construct_composite_menhir(e, f)
    algebraic = compose_menhirs(COMPLEX.element(e), COMPLEX.element(f)).coeffs
    assert np.abs(m - algebraic).max() <= 1e-15


def test_construct_composite_menhir_random():
    rng = np.random.default_rng(50)
    worst = 0.0
    for _ in range(100):
        e = menhir_of(ball_vector(rng, 2))
        f = menhir_of(ball_vector(rng, 2))
        algebraic = compose_menhirs(COMPLEX.element(e), COMPLEX.element(f)).coeffs
        geometric = construct_composite_menhir(e, f)
        worst = max(worst, float(np.abs(geometric - algebraic).max()))
    assert worst <= 1e-9


def test_second_chord_must_pair_with_the_antipode():
    # the meet needs the antipodal pair (A', B'); pairing B' foe with A
    # instead of A' does not reproduce the composition law
    from menhir.reversions import _chord_meet

    e = np.array([0.5, 0.0])
    f = np.array([0.0, 1 / 3])
    a, b, _ = construct_rotation(e, f)
    word = [f, np.zeros(2), e]
    x = apply_word(b, word)
    x2 = apply_word(-b, word)
    correct, _ = _chord_meet(x, a - x, x2, -a - x2)
    printed, _ = _chord_meet(x, a - x, x2, a - x2)
    algebraic = compose_menhirs(
        COMPLEX.element(e), COMPLEX.element(f)
    ).coeffs
    assert np.abs(correct - algebraic).max() <= 1e-9
    assert np.abs(printed - algebraic).max() > 1e-3


def test_chord_meet_closed_form():
    from menhir.reversions import _chord_meet

    # the diagonals of the square (0,0), (2,0), (2,2), (0,2) cross at (1,1),
    # at a right angle
    meet, sine = _chord_meet(np.zeros(2), np.array([2.0, 2.0]),
                             np.array([2.0, 0.0]), np.array([-2.0, 2.0]))
    assert np.array_equal(meet, [1.0, 1.0]) and abs(sine - 1.0) <= 1e-15
    # parallel lines and a zero direction have no meet
    for d2 in (np.array([3.0, 0.0]), np.zeros(2)):
        assert _chord_meet(np.zeros(2), np.array([1.0, 0.0]), np.ones(2), d2) == (None, 0.0)


def test_small_boost_construction_is_accurate_or_warns():
    """With one boost small the two chords cross at a small angle, and the
    meet loses digits as 1/sine.  The construction returns the meet only when
    the sine clears `MIN_CHORD_SINE`; every other call warns and returns the
    algebraic composite."""
    rng = np.random.default_rng(45)
    worst = 0.0
    for speed in (1e-4, 1e-5, 1e-6):
        for _ in range(300):
            e = menhir_of(ball_vector(rng, 2, 0.1, 0.9))
            f = menhir_of(unit_vector(rng, 2) * speed)
            algebraic = compose_menhirs(COMPLEX.element(e), COMPLEX.element(f)).coeffs
            with warnings.catch_warnings():
                warnings.simplefilter("error", DegenerateConstructionWarning)
                try:
                    geometric = construct_composite_menhir(e, f)
                except DegenerateConstructionWarning as exc:
                    assert exc.reason == "parallel chords"
                    continue
            worst = max(worst, float(np.abs(geometric - algebraic).max()))
    assert worst <= 1e-9


def test_construction_trace_is_populated():
    trace = ConstructionTrace()
    construct_composite_menhir(np.array([0.5, 0.0]), np.array([0.0, 1 / 3]), trace)
    labels = {label for label, *_ in trace.points}
    assert {"A", "B", "e[+]f"} <= labels
    assert len(trace.segments) >= 2
