import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from menhir.algebra import (
    COMPLEX,
    QUATERNION,
    REAL,
    RESIDUE_BOUND,
    Algebra,
    AlgebraMismatchError,
    Element,
    SingularElementError,
    UnsupportedDimensionError,
    clifford,
    vector_embed,
    vector_part,
)
from util import (
    allclose,
    ball_vector,
    basis_blade,
    norm_sq,
    random_element,
    reference_blade_sign,
    reference_mul_coeffs,
    reference_sign_table,
)

ALGEBRAS = [REAL, COMPLEX, QUATERNION, clifford(2), clifford(3), clifford(4), clifford(5)]

I = QUATERNION.element([0, 1, 0, 0])
J = QUATERNION.element([0, 0, 1, 0])
K = QUATERNION.element([0, 0, 0, 1])


def test_quaternion_table():
    assert allclose(I * J, K)
    assert allclose(J * I, -K)
    assert allclose(J * K, I)
    assert allclose(K * J, -I)
    assert allclose(K * I, J)
    assert allclose(I * K, -J)
    for u in (I, J, K):
        assert allclose(u * u, QUATERNION.scalar(-1.0))


def test_identity_multiplication():
    rng = np.random.default_rng(0)
    for algebra in ALGEBRAS:
        q = random_element(rng, algebra)
        assert allclose(algebra.one * q, q)
        assert allclose(q * algebra.one, q)


def test_clifford_vector_squares_to_minus_norm():
    for n in (2, 3, 5):
        algebra = clifford(n)
        e1 = basis_blade(algebra, 1)
        assert allclose(e1 * e1, algebra.scalar(-1.0))
        rng = np.random.default_rng(n)
        v = vector_embed(ball_vector(rng, n), algebra)
        assert allclose(v * v, algebra.scalar(-norm_sq(v)), atol=1e-12)


def test_conjugation_examples():
    q = QUATERNION.element([1.0, 2.0, -3.0, 4.0])
    assert np.allclose(q.conjugate().coeffs, [1.0, -2.0, 3.0, -4.0])
    assert allclose(REAL.scalar(5.0).conjugate(), REAL.scalar(5.0))
    # grade-2 blade: reversal with generator negation, computed from the definition
    algebra = clifford(3)
    e1, e2 = basis_blade(algebra, 1), basis_blade(algebra, 2)
    blade = e1 * e2
    by_definition = (-e2) * (-e1)
    assert allclose(blade.conjugate(), by_definition)
    assert allclose(blade.conjugate(), -blade)


def test_conjugation_matches_word_reversal():
    # conj(e_{i1}...e_{ik}) = (-e_{ik})...(-e_{i1}) for every blade, n = 2..5
    for n in range(2, 6):
        algebra = clifford(n)
        for mask in range(algebra.dim):
            gens = [i for i in range(n) if mask >> i & 1]
            word = algebra.one
            for g in reversed(gens):
                word = word * (-basis_blade(algebra, 1 << g))
            assert allclose(basis_blade(algebra, mask).conjugate(), word)


def test_norm_multiplicative():
    rng = np.random.default_rng(1)
    for algebra in (REAL, COMPLEX, QUATERNION):
        for _ in range(1000):
            p = random_element(rng, algebra)
            q = random_element(rng, algebra)
            lhs = norm_sq(p * q)
            rhs = norm_sq(p) * norm_sq(q)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
    # Clifford algebras are not composition algebras, but the norm is still
    # multiplicative on the elements the calculus uses: vectors
    for n in (2, 3, 5):
        algebra = clifford(n)
        for _ in range(300):
            p = vector_embed(ball_vector(rng, n), algebra)
            q = vector_embed(ball_vector(rng, n), algebra)
            lhs = norm_sq(p * q)
            rhs = norm_sq(p) * norm_sq(q)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_conjugation_is_involutive_antiautomorphism():
    rng = np.random.default_rng(2)
    for algebra in ALGEBRAS:
        for _ in range(1000 if algebra.kind != "clifford" else 200):
            p = random_element(rng, algebra)
            q = random_element(rng, algebra)
            p = p / max(p.norm(), 1.0)
            q = q / max(q.norm(), 1.0)
            assert allclose(p.conjugate().conjugate(), p)
            assert allclose((p * q).conjugate(), q.conjugate() * p.conjugate(), atol=1e-12)


def test_geometric_product_associative():
    rng = np.random.default_rng(3)
    for n in range(2, 7):
        algebra = clifford(n)
        for _ in range(30):
            a, b, c = (random_element(rng, algebra) for _ in range(3))
            a, b, c = (x / max(x.norm(), 1.0) for x in (a, b, c))
            assert allclose((a * b) * c, a * (b * c), atol=1e-12)


def test_vector_commutation_identity():
    # (1 - f e)(e + f) = (e + f)(1 - e f) for vectors
    rng = np.random.default_rng(4)
    for n in range(2, 6):
        algebra = clifford(n)
        for _ in range(50):
            e = vector_embed(ball_vector(rng, n), algebra)
            f = vector_embed(ball_vector(rng, n), algebra)
            lhs = (1.0 - f * e) * (e + f)
            rhs = (e + f) * (1.0 - e * f)
            assert allclose(lhs, rhs, atol=1e-12)


def test_quaternion_left_division_equals_right():
    # (1 + p conj(e))^{-1} (e + p) = (e + p)(1 + conj(e) p)^{-1}
    rng = np.random.default_rng(5)
    for _ in range(300):
        e = QUATERNION.element(ball_vector(rng, 4))
        p = QUATERNION.element(ball_vector(rng, 4))
        lhs = (1.0 + p * e.conjugate()).inverse() * (e + p)
        rhs = (e + p) * (1.0 + e.conjugate() * p).inverse()
        assert allclose(lhs, rhs, atol=1e-12)


def test_inverse_examples():
    two_i = QUATERNION.element([0, 2, 0, 0])
    assert allclose(two_i.inverse(), QUATERNION.element([0, -0.5, 0, 0]))
    for algebra in ALGEBRAS:
        assert allclose(algebra.one.inverse(), algebra.one)


def test_inverse_round_trip():
    rng = np.random.default_rng(6)
    for algebra in (REAL, COMPLEX, QUATERNION):
        for _ in range(200):
            q = random_element(rng, algebra)
            if q.norm() < 1e-3:
                continue
            assert allclose(q * q.inverse(), algebra.one, atol=1e-12)
            assert allclose(q.inverse() * q, algebra.one, atol=1e-12)


def test_clifford_rationalization():
    # (1 - e f)(1 - f e) is the scalar 1 + 2 g(e,f) + |e|^2 |f|^2
    rng = np.random.default_rng(7)
    for n in range(2, 6):
        algebra = clifford(n)
        for _ in range(25):
            ev = ball_vector(rng, n)
            fv = ball_vector(rng, n)
            expected = 1.0 + 2.0 * float(ev @ fv) + float(ev @ ev) * float(fv @ fv)
            e = vector_embed(ev, algebra)
            f = vector_embed(fv, algebra)
            product = (1.0 - e * f) * (1.0 - f * e)
            assert allclose(product, algebra.scalar(expected), atol=1e-12)
            inv = (1.0 - e * f).inverse()
            assert allclose(inv, (1.0 - f * e) / expected, atol=1e-12)
            assert allclose((1.0 - e * f) * inv, algebra.one, atol=1e-12)


def test_right_division():
    rng = np.random.default_rng(8)
    assert allclose(REAL.scalar(3.0) / REAL.scalar(2.0), REAL.scalar(1.5))
    assert allclose(I / J, -K)
    for algebra in (COMPLEX, QUATERNION):
        q = random_element(rng, algebra)
        assert allclose(q / q, algebra.one, atol=1e-12)
        # fraction rules: (pa)/(qa) = p/q, (ap)/q = a(p/q), p/(aq) = (p/q) a^{-1}
        for _ in range(100):
            p, q, a = (random_element(rng, algebra) for _ in range(3))
            if min(q.norm(), a.norm()) < 1e-2:
                continue
            assert allclose((p * a) / (q * a), p / q, atol=1e-9)
            assert allclose((a * p) / q, a * (p / q), atol=1e-9)
            assert allclose(p / (a * q), (p / q) * a.inverse(), atol=1e-9)


def test_vector_embed_examples():
    k = vector_embed([0, 0, 1], QUATERNION)
    assert allclose(k, K)
    z = vector_embed([3, 4], COMPLEX)
    assert np.allclose(z.coeffs, [3, 4]) and z.norm() == pytest.approx(5.0)
    v = vector_embed([1, 1, 0, 0], clifford(4))
    assert allclose(v * v, clifford(4).scalar(-2.0))


def test_vector_embed_dimension_errors():
    with pytest.raises(UnsupportedDimensionError):
        vector_embed([1, 2], REAL)
    with pytest.raises(UnsupportedDimensionError):
        vector_embed([1, 2, 3], COMPLEX)
    with pytest.raises(UnsupportedDimensionError):
        vector_embed([1, 2, 3, 4, 5], QUATERNION)
    with pytest.raises(UnsupportedDimensionError):
        vector_embed([1, 2], clifford(3))


def test_vector_part_round_trip():
    rng = np.random.default_rng(9)
    for algebra, n in [(REAL, 1), (COMPLEX, 2), (QUATERNION, 3), (QUATERNION, 4), (clifford(3), 3)]:
        v = ball_vector(rng, n)
        assert np.allclose(vector_part(vector_embed(v, algebra), n, RESIDUE_BOUND), v)
    with pytest.raises(ValueError):
        vector_part(QUATERNION.element([0.5, 0.1, 0, 0]), 3, RESIDUE_BOUND)
    with pytest.raises(ValueError):  # a NaN off the model is not within any bound
        vector_part(QUATERNION.element([math.nan, 0.1, 0.2, 0.3]), 3, 0.0)


def _reference_model_split(coeffs, algebra, n):
    """The model slots and the largest |coefficient| off them, by copying and
    zeroing the model slots."""
    idx = algebra.model_indices(n)
    rest = coeffs.copy()
    rest[..., idx] = 0.0
    return coeffs[..., idx], float(np.abs(rest).max())


def test_model_split_matches_copy_and_zero():
    rng = np.random.default_rng(11)
    models = [(REAL, 1), (COMPLEX, 1), (COMPLEX, 2), (QUATERNION, 3), (QUATERNION, 4),
              (clifford(3), 3), (clifford(8), 8)]
    for algebra, n in models:
        rows = rng.standard_normal((5, algebra.dim)) * rng.integers(0, 2, (5, algebra.dim))
        rows[1, algebra.model_indices(n)[0]] = math.nan  # NaN on the model: not a residue
        for coeffs in (rows, rows[0], rows[1]):
            vector, residue = algebra.model_split(coeffs, n)
            expected_vector, expected_residue = _reference_model_split(coeffs, algebra, n)
            assert np.array_equal(vector, expected_vector, equal_nan=True)
            assert residue == expected_residue and type(residue) is float
    off = QUATERNION.element([math.nan, 0.1, 0.2, 0.3]).coeffs
    assert math.isnan(QUATERNION.model_split(off, 3)[1])
    with pytest.raises(UnsupportedDimensionError):
        COMPLEX.model_split(np.zeros(2), 3)


def test_constructor_builds_only_the_supported_algebras():
    # each division algebra has one generator count, clifford 1 to 10
    for kind, n_gen in (("real", 3), ("complex", 5), ("quaternion", 0), ("quaternion", 1),
                        ("clifford", 0), ("clifford", 11), ("real", -1)):
        with pytest.raises(UnsupportedDimensionError, match=f"{kind} algebra has {n_gen} "):
            Algebra(kind, n_gen)
    with pytest.raises(ValueError, match="unknown algebra kind 'octonion'"):
        Algebra("octonion", 3)
    with pytest.raises(UnsupportedDimensionError):
        clifford(0)
    for kind, n_gen in (("real", 0), ("complex", 1), ("quaternion", 2), ("clifford", 1),
                        ("clifford", 10)):
        assert Algebra(kind, n_gen).dim == 1 << n_gen


def test_operators_refuse_foreign_operands():
    e = COMPLEX.element([0.5, 0.25])
    for operation in (lambda: e + "x", lambda: "x" - e, lambda: e * None, lambda: e / "x",
                      lambda: [1] * e, lambda: e - None):
        with pytest.raises(TypeError):
            operation()


def test_algebra_mismatch():
    with pytest.raises(AlgebraMismatchError):
        COMPLEX.one * QUATERNION.one
    with pytest.raises(AlgebraMismatchError):
        clifford(2).one + clifford(3).one


def test_singular_elements():
    with pytest.raises(SingularElementError):
        QUATERNION.scalar(0.0).inverse()
    # non-simple bivector: 1 + e1 e2 + e3 e4 is not rationalizable
    algebra = clifford(4)
    e = [basis_blade(algebra, 1 << i) for i in range(4)]
    x = 1.0 + e[0] * e[1] + e[2] * e[3]
    with pytest.raises(SingularElementError):
        x.inverse()


@pytest.mark.parametrize("x", [
    COMPLEX.element([math.nan, 0.0]),
    REAL.element([math.inf]),
    clifford(3).element([math.inf] + [0.0] * 7),
    clifford(3).element([0.0, 0.5, -math.inf, 0.0, 0.0, 0.0, 0.0, 0.0]),
], ids=["complex-nan", "real-inf", "clifford3-inf-scalar", "clifford3-inf-vector"])
def test_non_finite_elements_are_singular(x):
    # a NaN or inf x x* fails `not (... <= ...)`; it used to return NaN.  The
    # product x x* of an inf coefficient meets inf * 0, which numpy flags
    with np.errstate(invalid="ignore"), pytest.raises(SingularElementError):
        x.inverse()


def test_embeddings_commute():
    # R inside C inside H: zero-padding coefficients respects all operations
    rng = np.random.default_rng(10)
    for _ in range(200):
        a, b = rng.standard_normal(2)
        ra = REAL.scalar(a) * REAL.scalar(b)
        ca = COMPLEX.scalar(a) * COMPLEX.scalar(b)
        assert ca.coeffs[0] == pytest.approx(ra.coeffs[0]) and ca.coeffs[1] == 0.0
        za, zb = rng.standard_normal(2), rng.standard_normal(2)
        in_c = COMPLEX.element(za) * COMPLEX.element(zb)
        in_h = QUATERNION.element([*za, 0, 0]) * QUATERNION.element([*zb, 0, 0])
        assert np.allclose(in_h.coeffs[:2], in_c.coeffs) and np.allclose(in_h.coeffs[2:], 0.0)
        conj_c = COMPLEX.element(za).conjugate()
        conj_h = QUATERNION.element([*za, 0, 0]).conjugate()
        assert np.allclose(conj_h.coeffs[:2], conj_c.coeffs)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=8, max_size=8))
def test_quaternion_norm_multiplicative_hypothesis(values):
    p = QUATERNION.element(values[:4])
    q = QUATERNION.element(values[4:])
    assert norm_sq(p * q) == pytest.approx(norm_sq(p) * norm_sq(q), rel=1e-12, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=8, max_size=8))
def test_clifford3_antiautomorphism_hypothesis(values):
    algebra = clifford(3)
    p = algebra.element(values + [0.0] * (algebra.dim - 8))
    q = algebra.element([0.0] * (algebra.dim - 8) + values)
    assert allclose((p * q).conjugate(), q.conjugate() * p.conjugate(), atol=1e-9)


# -- table-driven kernel against the loop-based references --------------------------
# The kernel rounds the same terms and sums them in the same order as the
# blade-by-blade loop, so products must be equal, not merely close.

def test_sign_table_matches_reference():
    for n in range(8):
        algebra = clifford(n) if n else REAL
        dim = algebra.dim
        idx = np.arange(dim)
        assert algebra._xor.dtype == np.uint16
        assert np.array_equal(algebra._xor, idx[:, None] ^ idx[None, :])
        # k-indexed: _sign[i, k] is the sign of e_i e_(i^k)
        assert np.array_equal(algebra._sign, reference_sign_table(n)[idx[:, None], idx[:, None] ^ idx])


# From algebra._SPARSE_DIM = 256 slots (n >= 8) an algebra keeps no tables:
# signs come from its per-blade vectors, parity_sign[j & prefix[i]].

@pytest.mark.parametrize("n", [8, 9, 10])
def test_sign_rule_of_the_table_free_algebras(n):
    algebra = clifford(n)
    assert algebra._sign is None and algebra._xor is None
    if n == 8:  # every pair
        i, j = (x.ravel() for x in np.indices((algebra.dim, algebra.dim)))
    else:
        i, j = np.random.default_rng(n).integers(0, algebra.dim, size=(2, 20000))
    expected = [reference_blade_sign(int(x), int(y)) for x, y in zip(i, j)]
    assert np.array_equal(algebra.parity_sign[j & algebra.prefix[i]], expected)


@pytest.mark.parametrize("n", range(11))
def test_stacked_and_blade_products_match_reference(n):
    # 1-D products a b and e_m b, the basis-blade products of the sandwich
    # fallback of RotationDescriptor.matrix; equal up to the sign of a zero
    # slot, which np.array_equal ignores
    algebra = clifford(n) if n else REAL
    rng = np.random.default_rng(40 + n)
    dim = algebra.dim
    masks = np.unique(np.concatenate(([0, dim - 1], 1 << np.arange(n), rng.integers(0, dim, 4))))
    blades = [basis_blade(algebra, m).coeffs for m in masks.tolist()]
    for density in (1.0, 0.05):
        a = np.zeros(dim)
        a[rng.choice(dim, size=min(dim, 24), replace=False)] = rng.standard_normal(min(dim, 24))
        rights = np.where(rng.random((3, dim)) < density, rng.standard_normal((3, dim)), 0.0)
        rights[2] = 0.0
        for b in rights:
            product = algebra.mul_coeffs(a, b)
            assert product.dtype == np.float64 and product.shape == (dim,)
            assert np.array_equal(product, reference_mul_coeffs(algebra, a, b))
            for blade in blades:
                assert np.array_equal(algebra.mul_coeffs(blade, b),
                                      reference_mul_coeffs(algebra, blade, b))


def test_table_free_algebras_hold_small_arrays():
    held = 0
    for n in (8, 9, 10):
        algebra = clifford(n)
        arrays = [getattr(algebra, name) for name in Algebra.__slots__]
        # each vector model's slots and the slots off it
        arrays = [x for x in arrays if isinstance(x, np.ndarray)] + [
            slots for pair in algebra._models.values() for slots in pair]
        assert max(x.size for x in arrays) <= algebra.dim
        held += sum(x.nbytes for x in arrays)
    assert held < 64 * 1024


_COEFF = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
_SPARSE_COEFF = st.one_of(st.just(0.0), _COEFF)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mul_coeffs_matches_reference_hypothesis(data):
    # up to 2^8 slots: both sides of algebra._SPARSE_DIM, from where products
    # are taken over nonzero slots
    n = data.draw(st.integers(0, 8))
    algebra = clifford(n) if n else REAL
    coeff = data.draw(st.sampled_from([_COEFF, _SPARSE_COEFF]))  # dense or sparse operands
    a, b, c = (np.array(data.draw(st.lists(coeff, min_size=algebra.dim, max_size=algebra.dim)))
               for _ in range(3))
    for right in (b, c):
        assert np.array_equal(algebra.mul_coeffs(a, right), reference_mul_coeffs(algebra, a, right))


def test_mul_coeffs_matches_reference_clifford10():
    algebra = clifford(10)
    rng = np.random.default_rng(11)
    vectors = [1 << i for i in range(10)]
    for _ in range(20):
        a = np.zeros(algebra.dim)
        a[rng.choice(algebra.dim, size=12, replace=False)] = rng.standard_normal(12)
        # sparse rows times a dense operand, then the calculus' operands:
        # vector times vector, scalar + bivector times vector
        e, f = np.zeros(algebra.dim), np.zeros(algebra.dim)
        e[vectors], f[vectors] = rng.standard_normal(10), rng.standard_normal(10)
        denominator = algebra.one.coeffs + algebra.mul_coeffs(e, f)
        # and the product inside Element.inverse (scalar + bivector times its
        # conjugate), a unit rotor times a vector, a vector times the rotor
        rotor = denominator / np.linalg.norm(denominator)
        pairs = ((a, rng.standard_normal(algebra.dim)), (e, f), (denominator, e),
                 (denominator, denominator * algebra.conj_sign), (rotor, f), (f, rotor))
        for p, q in pairs:
            assert np.array_equal(algebra.mul_coeffs(p, q), reference_mul_coeffs(algebra, p, q))
    zero = np.zeros(algebra.dim)
    for p, q in ((zero, zero), (zero, rng.standard_normal(algebra.dim)), (e, zero)):
        product = algebra.mul_coeffs(p, q)
        assert product.dtype == np.float64 and product.shape == (algebra.dim,)
        assert not product.any()


@pytest.mark.parametrize("n", range(11))
def test_norm_is_bitwise_the_hypot_of_every_slot(n):
    algebra = clifford(n) if n else REAL
    rng = np.random.default_rng(n)
    for _ in range(20):
        dense = rng.standard_normal(algebra.dim) * 10.0 ** rng.integers(-200, 200)
        sparse = np.where(rng.random(algebra.dim) < 0.05, dense, 0.0)
        vector = vector_embed(rng.standard_normal(max(n, 1)), algebra).coeffs
        for coeffs in (dense, sparse, vector, -0.0 * dense):
            assert algebra.element(coeffs).norm() == math.hypot(*coeffs.tolist())



# -- the validation boundary -----------------------------------------------------------
# `Algebra.element` checks outside coefficients; `Element` stores what ring
# operations hand it, so those must always be float64 arrays of shape (2^n,).

def test_element_checks_its_coefficients():
    for algebra in ALGEBRAS:
        for bad in ([0.0] * (algebra.dim + 1), [[0.0] * algebra.dim], 1.0):
            with pytest.raises(ValueError):
                algebra.element(bad)
        x = algebra.element(list(range(algebra.dim)))  # ints become floats
        assert x.coeffs.dtype == np.float64 and x.coeffs.shape == (algebra.dim,)


_RING_SCALAR = st.one_of(
    st.integers(-1000, 1000),
    _COEFF,
    _COEFF.map(np.float64),
    _COEFF.map(np.float32),
    st.integers(-1000, 1000).map(np.int64),
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ring_operations_mixing_scalars_hypothesis(data):
    n = data.draw(st.integers(0, 5))
    algebra = clifford(n) if n else REAL
    p, q = (algebra.element(data.draw(st.lists(_SPARSE_COEFF, min_size=algebra.dim,
                                                   max_size=algebra.dim)))
            for _ in range(2))
    c = data.draw(_RING_SCALAR)
    scalar = np.zeros(algebra.dim)
    scalar[0] = float(c)
    cases = [
        (p * q, reference_mul_coeffs(algebra, p.coeffs, q.coeffs)),
        (p + q, p.coeffs + q.coeffs),
        (p - q, p.coeffs - q.coeffs),
        (p + c, p.coeffs + scalar),
        (c + p, scalar + p.coeffs),
        (p - c, p.coeffs - scalar),
        (c - p, scalar - p.coeffs),
        (p * c, p.coeffs * float(c)),
        (c * p, p.coeffs * float(c)),
        (-p, -p.coeffs),
    ]
    for result, expected in cases:
        assert isinstance(result, Element) and result.algebra == algebra
        assert result.coeffs.dtype == np.float64 and result.coeffs.shape == (algebra.dim,)
        assert np.array_equal(result.coeffs, expected)
    with pytest.raises(TypeError):  # a number is no dividend: write q.inverse() * c
        c / q


# every algebra the package builds, up to clifford(10)
_SUPPORTED = [REAL, COMPLEX, QUATERNION] + [clifford(n) for n in range(1, 11)]
_SLOT_VALUE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), _COEFF)


@st.composite
def _operand(draw, algebra):
    """An element of `algebra` with -0.0 or +0.0 in its background slots and a
    few drawn slots, so products stay cheap on clifford(10)."""
    coeffs = np.full(algebra.dim, draw(st.sampled_from([0.0, -0.0])))
    for slot, value in draw(st.dictionaries(st.integers(0, algebra.dim - 1), _SLOT_VALUE,
                                            max_size=6)).items():
        coeffs[slot] = value
    return algebra.element(coeffs)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_element_operations_never_change_their_operands(data):
    algebra = data.draw(st.sampled_from(_SUPPORTED))
    p, q = data.draw(_operand(algebra)), data.draw(_operand(algebra))
    c = data.draw(st.one_of(_RING_SCALAR, st.just(-0.0)))
    before = [x.coeffs.tobytes() for x in (p, q)]
    calls = [
        lambda: p + q, lambda: p + c, lambda: c + p,
        lambda: p - q, lambda: p - c, lambda: c - p,
        lambda: p * q, lambda: p * c, lambda: c * p,
        lambda: p / q, lambda: q / p, lambda: p / c, lambda: c / p,
        p.conjugate, p.inverse, p.norm, q.conjugate, q.inverse, q.norm,
    ]
    for call in calls:
        try:
            with np.errstate(all="ignore"):  # p / 0
                call()
        except (ZeroDivisionError, TypeError):
            pass  # a refused call must leave its operands alone too
        assert [x.coeffs.tobytes() for x in (p, q)] == before
