import math
from pathlib import Path

import numpy as np
import pytest

from menhir.calculus import SuperluminalError, compose_velocities, thomas_rotation, menhir_of
from menhir.algebra import COMPLEX, RESIDUE_BOUND, vector_embed, vector_part
import menhir
from menhir import lorentz
from menhir.lorentz import (
    aberrate_ray,
    axis_projection_shift,
    boost_matrix,
    composition_split,
    polar_decompose,
)
from menhir.verify import CONFIGS, TIERS, sample_direction, sample_velocity
from util import (
    SPEEDS,
    ball_vector,
    exact_boost_matrix,
    exact_polar_split,
    hard_pairs,
    is_lorentz,
    minkowski_metric,
    needs_extended_split,
    reference_boost_matrix,
    reference_polar_decompose,
    unit_vector,
)


def test_one_dimensional_boost_is_hyperbolic_rotation():
    omega = 0.7
    L = boost_matrix([math.tanh(omega)])
    expected = np.array([[math.cosh(omega), math.sinh(omega)],
                         [math.sinh(omega), math.cosh(omega)]])
    assert np.abs(L - expected).max() <= 1e-12


def test_boost_examples():
    assert np.array_equal(boost_matrix([0.0, 0.0]), np.eye(3))
    L = boost_matrix([0.8, 0.0])
    assert np.abs(L[:, 0] - [5 / 3, 4 / 3, 0.0]).max() <= 1e-12
    # fixes the orthogonal complement of span{e0, v}
    assert np.abs(L @ [0, 0, 1] - [0, 0, 1]).max() == 0.0
    with pytest.raises(SuperluminalError):
        boost_matrix([1.0, 0.0])


def test_lorentz_group_law():
    rng = np.random.default_rng(30)
    for n in (1, 2, 3, 4):
        L = np.eye(1 + n)
        for _ in range(20):
            L = boost_matrix(ball_vector(rng, n)) @ L
        g = minkowski_metric(n)
        assert np.abs(L.T @ g @ L - g).max() <= 1e-10
        assert is_lorentz(L)


def test_polar_decompose_pure_boost():
    rng = np.random.default_rng(31)
    for n in (1, 2, 3):
        v = ball_vector(rng, n)
        rotation, u = polar_decompose(boost_matrix(v))
        assert np.abs(u - v).max() <= 1e-12
        assert np.abs(rotation - np.eye(1 + n)).max() <= 1e-10


def test_polar_decompose_worked_pair():
    L = boost_matrix([0.0, 0.6]) @ boost_matrix([0.8, 0.0])
    rotation, u = polar_decompose(L)
    assert np.abs(u - [0.8, 0.36]).max() <= 1e-12
    angle = math.atan2(rotation[2, 1], rotation[1, 1])
    assert abs(angle - math.acos(35 / 37)) <= 1e-12
    # recomposition and block structure
    assert np.abs(rotation @ boost_matrix(u) - L).max() <= 1e-10
    assert np.abs(rotation[0] - [1, 0, 0]).max() <= 1e-12
    assert np.abs(rotation[:, 0] - [1, 0, 0]).max() <= 1e-12
    block = rotation[1:, 1:]
    assert np.abs(block.T @ block - np.eye(2)).max() <= 1e-12


def test_polar_decompose_pure_rotation():
    theta = 0.4
    R = np.eye(3)
    R[1:, 1:] = [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    rotation, u = polar_decompose(R)
    assert np.abs(u).max() <= 1e-15
    assert np.abs(rotation - R).max() <= 1e-12


def test_polar_decompose_rejects_non_orthochronous():
    nan = np.eye(3)
    nan[0, 0] = math.nan
    for L in (-np.eye(3), nan):
        with pytest.raises(ValueError):
            polar_decompose(L)


def test_polar_decompose_takes_equal_and_opposite_boosts():
    """L00 of B(-v) B(v) is 1, and its rounding, about gamma^2 eps, falls
    on either side: the orthochronous check must not refuse the product.
    Two boosts the same way compose to a speed past the ball's guard
    (1 - 5e-13 from 1 - 1e-6 twice), which the split must take too."""
    rng = np.random.default_rng(34)
    for speed in (0.9999, 1.0 - 1e-6, 1.0 - 1e-7, 1.0 - 1e-8):
        polar_decompose(boost_matrix([-speed]) @ boost_matrix([speed]))
        for n in (2, 3, 4, 5):
            for _ in range(20):
                v = unit_vector(rng, n) * speed
                polar_decompose(boost_matrix(-v) @ boost_matrix(v))
                polar_decompose(boost_matrix(v) @ boost_matrix(-v))
    v = np.array([1.0 - 1e-6])
    _, u = polar_decompose(boost_matrix(v) @ boost_matrix(v))
    assert np.abs(u - exact_polar_split(v, v)[0]).max() <= 1e-12


def test_polar_recomposition_random():
    rng = np.random.default_rng(32)
    for n in (2, 3, 4):
        for _ in range(200):
            L = boost_matrix(ball_vector(rng, n)) @ boost_matrix(ball_vector(rng, n))
            rotation, u = polar_decompose(L)
            assert np.abs(rotation @ boost_matrix(u) - L).max() <= 1e-10
            assert np.abs(rotation[0, 1:]).max() <= 1e-10
            assert np.abs(rotation[1:, 0]).max() <= 1e-10


def _split_errors(pairs):
    """Worst gap to the 50-digit split of L(w) L(v), over u and R, of
    `composition_split`, of the float64 `polar_decompose` and of the frozen
    float64 split `reference_polar_decompose` of the reference boosts."""
    worst_split = worst_polar = worst_reference = 0.0
    for v, w in pairs:
        u_exact, r_exact = exact_polar_split(v, w)

        def gap(rotation, u):
            return max(np.abs(rotation - r_exact).max(), np.abs(u - u_exact).max())

        worst_split = max(worst_split, gap(*composition_split(v, w)))
        rotation, u = polar_decompose(boost_matrix(w) @ boost_matrix(v))
        worst_polar = max(worst_polar, gap(rotation[1:, 1:], u))
        rotation, u = reference_polar_decompose(reference_boost_matrix(w) @ reference_boost_matrix(v))
        worst_reference = max(worst_reference, gap(rotation[1:, 1:], u))
    return float(worst_split), float(worst_polar), float(worst_reference)


def test_polar_decompose_is_benchmark_only():
    """The package's two-boost oracle is `composition_split`.  The float64
    `polar_decompose` is not exported, and of the package and the demos only
    `lorentz.py` names it; the benchmark's span of it is checked in
    `test_bench_contract.py`."""
    assert not hasattr(menhir, "polar_decompose")
    assert "polar_decompose" not in lorentz.__all__
    root = Path(__file__).resolve().parents[1]
    files = sorted([*root.glob("demos/**/*.py"), *root.glob("src/menhir/**/*.py")])
    assert len(files) > 10
    naming = [path.relative_to(root).as_posix() for path in files
              if "polar_decompose" in path.read_text(encoding="utf-8")]
    assert naming == ["src/menhir/lorentz.py"]


@needs_extended_split
def test_composition_split_is_exact_to_rounding():
    """In extended precision the closed-form split stays within 1e-12 of a
    50-digit split in 1 to 5 dimensions, at every speed of SPEEDS, on random
    and nearly opposite pairs (angles 1e-1 to 1e-6 off antipodal), at v = 0
    and at w = -v; the frozen float64 split misses by more on the same
    sample, and the package's float64 split by no more than it."""
    rng = np.random.default_rng(38)
    pairs = []
    for n in range(1, 6):
        v = unit_vector(rng, n) * SPEEDS[-1]
        pairs += [*hard_pairs(rng, n, count=2), (np.zeros(n), v), (v, np.zeros(n)), (v, -v)]
    worst_split, worst_polar, worst_reference = _split_errors(pairs)
    print(f"composition_split: {worst_split:.3g}, polar_decompose: {worst_polar:.3g},",
          f"reference_polar_decompose: {worst_reference:.3g}")
    assert worst_split <= 1e-12 < worst_reference
    assert worst_polar <= worst_reference


def test_boost_and_split_keep_the_bits_of_their_outer_product_form():
    """`_boost` and `_split` broadcast into a p built in place; they return
    the values and signs of the concatenated p and `np.multiply.outer` they
    replaced (long double's padding bytes are not compared), in float64 and
    in long double, at every speed of SPEEDS and at v = 0."""
    def same(a, b):
        return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))

    rng = np.random.default_rng(33)
    for dtype in (np.float64, np.longdouble):
        for n in range(1, 6):
            for speed in (0.0, *SPEEDS):
                v = (unit_vector(rng, n) * speed).astype(dtype)
                g = 1 / np.sqrt(1 - v @ v)
                p = np.concatenate(((1 + g,), g * v))
                B = lorentz._signature(p.size, v.dtype) + np.multiply.outer(p, p / p[0])
                assert same(lorentz._boost(v), B)
                L = lorentz._boost((unit_vector(rng, n) * speed).astype(dtype)) @ B
                row, l00 = L[0, 1:], L[0, 0]
                R, u = lorentz._split(L)
                assert same(R, L[1:, 1:] - np.multiply.outer(L[1:, 0], row / (1 + l00)))
                assert same(u, row / l00)


def test_composition_split_at_zero_and_opposite_boosts():
    for n in (1, 3):
        rotation, u = composition_split(np.zeros(n), np.zeros(n))
        assert np.array_equal(rotation, np.eye(n)) and np.array_equal(u, np.zeros(n))
        v = np.full(n, 0.9 / math.sqrt(n))
        rotation, u = composition_split(v, -v)
        assert np.abs(rotation - np.eye(n)).max() <= 1e-14 and np.abs(u).max() <= 1e-14
    rotation, u = composition_split(0.6, 0.6)
    assert rotation.shape == (1, 1) and abs(u[0] - 15 / 17) <= math.ulp(1.0)
    for bad in ([1.0, 0.0], [math.nan, 0.0]):
        with pytest.raises(SuperluminalError):
            composition_split(bad, [0.0, 0.0])
        with pytest.raises(SuperluminalError):
            composition_split([0.0, 0.0], bad)


def test_composition_split_in_float64(monkeypatch):
    """Where long double is double, the same code runs in float64: on a
    stress-tier sample it stays within 1e-12 of the 50-digit split, no closer
    than the extended split and closer than the frozen float64 split, which
    misses by no less than `polar_decompose`."""
    rng = np.random.default_rng(39)
    lo, hi, _ = TIERS["stress"]
    pairs = [(sample_velocity(rng, n, lo, hi), sample_velocity(rng, n, lo, hi))
             for _, n in CONFIGS.values() for _ in range(25)]
    extended, polar, reference = _split_errors(pairs)
    monkeypatch.setattr(lorentz, "SPLIT_DTYPE", np.float64)
    double, _, _ = _split_errors(pairs)
    print(f"stress sample: extended {extended:.3g}, float64 {double:.3g}, polar {polar:.3g},",
          f"reference {reference:.3g}")
    assert extended <= double <= 1e-12 < reference
    assert polar <= reference


def test_oracle_matches_menhir_composition():
    rng = np.random.default_rng(33)
    for n, algebra in [(2, COMPLEX)]:
        for _ in range(200):
            v = ball_vector(rng, n)
            w = ball_vector(rng, n)
            u_el, rot = compose_velocities(vector_embed(v, algebra), vector_embed(w, algebra))
            rotation, u = polar_decompose(boost_matrix(w) @ boost_matrix(v))
            assert np.abs(vector_part(u_el, n, RESIDUE_BOUND) - u).max() <= 1e-9
            assert np.abs(rot.matrix(n) - rotation[1:, 1:]).max() <= 1e-9


def test_aberrate_identity_and_fixed_points():
    a = np.array([0.6, 0.8])
    assert np.abs(aberrate_ray(np.eye(3), a) - a).max() <= 1e-15
    v = np.array([0.7, 0.0])
    L = boost_matrix(v)
    for fixed in ([1.0, 0.0], [-1.0, 0.0]):
        assert np.abs(aberrate_ray(L, fixed) - fixed).max() <= 1e-12


def test_aberrate_side_stars():
    # a star perpendicular to the boost lands at axis projection |v|
    rng = np.random.default_rng(34)
    for n in (2, 3, 4):
        v = ball_vector(rng, n)
        vhat = v / np.linalg.norm(v)
        a = unit_vector(rng, n)
        a = a - (a @ vhat) * vhat
        a /= np.linalg.norm(a)
        out = aberrate_ray(boost_matrix(v), a)
        assert abs(out @ vhat - np.linalg.norm(v)) <= 1e-12


def test_axis_projection_shift():
    assert axis_projection_shift(0.0, 0.7) == pytest.approx(0.7, abs=1e-15)
    assert axis_projection_shift(1.0, 0.7) == pytest.approx(1.0, abs=1e-15)
    assert axis_projection_shift(-1.0, 0.7) == pytest.approx(-1.0, abs=1e-15)
    assert axis_projection_shift(-0.5, 0.5) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        axis_projection_shift(1.5, 0.2)
    with pytest.raises(SuperluminalError):
        axis_projection_shift(0.5, 1.0)


def test_aberration_follows_projection_rule():
    rng = np.random.default_rng(35)
    for _ in range(300):
        n = int(rng.integers(2, 5))
        v = ball_vector(rng, n)
        speed = np.linalg.norm(v)
        vhat = v / speed
        a = unit_vector(rng, n)
        out = aberrate_ray(boost_matrix(v), a)
        assert abs(out @ vhat - axis_projection_shift(float(a @ vhat), speed)) <= 1e-10


def test_rotation_comparison_across_representations():
    # complex rho -> 2x2 block, quaternion sandwich -> 3x3 block
    from menhir.algebra import QUATERNION

    rng = np.random.default_rng(36)
    for _ in range(100):
        v = ball_vector(rng, 3)
        w = ball_vector(rng, 3)
        ev = menhir_of(vector_embed(v, QUATERNION))
        ew = menhir_of(vector_embed(w, QUATERNION))
        sandwich = thomas_rotation(ev, ew).matrix(3)
        rotation, _ = polar_decompose(boost_matrix(w) @ boost_matrix(v))
        assert np.abs(sandwich - rotation[1:, 1:]).max() <= 1e-9


def test_oracle_is_as_accurate_as_its_first_version():
    """`aberrate --debug` and the benchmark's compose gate check against
    `boost_matrix` and `polar_decompose`: on a seeded sample, each is at
    least as close to its 50-digit reference as its frozen first version.
    Boosts at v = 0 are the identity, and at random speeds and within 1e-9 of
    the cone they err relatively by the rounding of 1 - v.v, which both share;
    the splits take pairs up to 0.9999, where the first version's third
    boost B(-u) cancels entries of size gamma^2.  The verify trials draw from
    the direction sampler, so it must equal its first version bit for bit.
    All in 1 to 10 dimensions; the exact references see every tenth draw."""
    rng = np.random.default_rng(36)
    boost = {"package": 0.0, "first version": 0.0}
    split = dict.fromkeys(boost, 0.0)
    for n in range(1, 11):
        assert np.array_equal(boost_matrix(np.zeros(n)), np.eye(1 + n))
        for i in range(200):
            d = unit_vector(rng, n)
            speeds = (rng.uniform(0.0, 1.0), 1.0 - rng.uniform(1e-11, 1e-9))
            v, w = ball_vector(rng, n, 0.0, 0.9999), ball_vector(rng, n, 0.0, 0.9999)
            if i % 10:
                continue
            for b in (speed * d for speed in speeds):
                exact = exact_boost_matrix(b)
                scale = np.abs(exact).max()
                for name, f in (("package", boost_matrix), ("first version", reference_boost_matrix)):
                    boost[name] = max(boost[name], np.abs(f(b) - exact).max() / scale)
            u_exact, r_exact = exact_polar_split(v, w)
            for name, f, g in (("package", polar_decompose, boost_matrix),
                               ("first version", reference_polar_decompose, reference_boost_matrix)):
                rotation, u = f(g(w) @ g(v))
                split[name] = max(split[name], np.abs(rotation[1:, 1:] - r_exact).max(),
                                  np.abs(u - u_exact).max())
        seed = int(rng.integers(2**32))
        for _ in range(20):
            assert np.array_equal(sample_direction(np.random.default_rng(seed), n),
                                  unit_vector(np.random.default_rng(seed), n))
            seed += 1
    for name in boost:
        print(f"{name}: boost relative error {boost[name]:.3g}, split error {split[name]:.3g}")
    assert boost["package"] <= boost["first version"]
    assert split["package"] <= split["first version"]
