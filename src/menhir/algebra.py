"""Dense scalar arithmetic shared by every representation in the package.

Reals, complexes, quaternions and Euclidean Clifford algebras (with the sign
rule v v = -|v|^2 for vectors) are all stored the same way: a flat coefficient
array indexed by basis-blade bitmask, bit i set iff generator e_i is present.
The three division algebras are literally the 0-, 1- and 2-generator Clifford
multiplication tables; what differs between the four kinds is only the *vector
model*, i.e. which coefficients encode a spatial vector:

    real          span{1}                 model dimension 1
    complex       span{1, e1}             model dimension 2
    quaternion    span{e1, e2, e1 e2}     model dimension 3 (imaginary part)
                  full algebra            model dimension 4
    clifford(n)   span{e1, ..., en}       model dimension n

Conjugation reverses products and negates generators, hence acts on a grade-k
blade as the sign (-1)^(k(k+1)/2).  Inversion uses x*/(x x*) and is defined
exactly when x x* lands on a nonzero scalar: every nonzero division-algebra
element, and Clifford scalars, vectors, and scalar-plus-simple-bivector
elements such as the 1 - e f denominators produced by the composition law.
General multivector inversion is deliberately out of scope.

Products follow the bitmap-blade scheme of Dorst, Fontijne & Mann,
*Geometric Algebra for Computer Science*, ch. 19: the sign of e_i e_j is the
parity of the generator swaps and squares, popcount(j & (i ^ i>>1 ^ ...)),
read from two per-blade vectors every algebra keeps, as
`parity_sign[j & prefix[i]]`.  Coefficient k of a b is the sum over the
nonzero a_i of a_i sign(e_i e_j) b_j with j = i ^ k, taken in row order so
that it rounds exactly as a loop over the blades of a.  Below `_SPARSE_DIM`
= 256 slots two (2^n, 2^n) tables are built from those vectors, indexed by a
left blade i and an output blade k: `_xor[i, k] = i ^ k` and `_sign[i, k]`,
the sign of e_i e_(i^k); a product is one gather of b through those rows of
the tables and one sum over the rows.  From `_SPARSE_DIM` up, where the
tables would take 10 MB at 2^10 slots and the calculus' vectors and scalar +
bivector elements fill a few dozen slots, no table exists: b is multiplied
over its nonzero slots only and one `bincount` adds the terms in the same row
order; the terms it leaves out are exact zeros, so the values are the
gather's up to the sign of a zero slot (norms likewise skip zero slots
there).  Both operands of a product are 1-D coefficient arrays.

Coefficients are validated once, where they enter: `Algebra.element` (and the
text parsers, which build their arrays themselves) turns its input into a
float64 array of length 2^n and raises ValueError otherwise.  Every other
constructor, and every ring operation, already produces such an array, so
`Element` itself only stores what it is given.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "Algebra",
    "AlgebraMismatchError",
    "Element",
    "REAL",
    "COMPLEX",
    "QUATERNION",
    "SingularElementError",
    "UnsupportedDimensionError",
    "algebra_for_dimension",
    "clifford",
    "vector_embed",
    "vector_part",
]

# 2**10 blade coefficients; far beyond the desk scale this package targets.
_MAX_GENERATORS = 10
#: per kind: its generator counts (Cliff(0) would be the real line again), and
#: of n generators, its vector models' slots by model dimension, default first
_KINDS = {
    "real": (range(1), lambda n: {1: [0]}),
    "complex": (range(1, 2), lambda n: {2: [0, 1], 1: [0]}),
    "quaternion": (range(2, 3), lambda n: {3: [1, 2, 3], 4: [0, 1, 2, 3]}),  # imaginary or full
    "clifford": (range(1, _MAX_GENERATORS + 1), lambda n: {n: [1 << i for i in range(n)]}),
}

# Algebras of at least this many slots build no sign or xor table and take
# products and norms over nonzero slots only.  On the calculus' sparse
# operands the products cross over between 128 and 256 slots and norms
# between 32 and 64; below the threshold the dense forms are cheaper or no
# dearer.
_SPARSE_DIM = 256

#: x x* below this has no inverse: 1/(x x*) would leave the float64 range
SINGULAR = 1e-300
#: largest off-scalar part of x x*, over max(1, |scalar|), that is rounding
_SCALAR_ATOL = 1e-12
#: largest coefficient off a vector model that is rounding of a vector result
RESIDUE_BOUND = 1e-12


class AlgebraMismatchError(ValueError):
    """Operands live in different algebras."""


class SingularElementError(ZeroDivisionError):
    """Element has no inverse of the supported (rationalizable) form."""


class UnsupportedDimensionError(ValueError):
    """Vector length does not fit the algebra's vector model."""


def _blade_vectors(n_gen: int) -> tuple[np.ndarray, np.ndarray]:
    """(grades, prefix) of the 2**n_gen blade masks m: grades[m] is the
    popcount of m and prefix[m] = m ^ m>>1 ^ ..., whose bit j is the parity
    of the bits of m at or above j."""
    masks = np.arange(1 << n_gen, dtype=np.uint16)
    grades = np.zeros(masks.size, dtype=np.int64)
    prefix = np.zeros_like(masks)
    for s in range(n_gen):
        grades += (masks >> s) & 1
        prefix ^= masks >> s
    return grades, prefix


class Algebra:
    """Multiplication and conjugation rules over 2**n_gen basis blades.  The
    sign of e_i e_j is `parity_sign[j & prefix[i]]`, from two per-blade
    vectors; the `_sign` and `_xor` tables are built from them below
    `_SPARSE_DIM` slots, and are None from there up."""

    __slots__ = ("kind", "n_gen", "dim", "_sign", "_xor", "parity_sign", "prefix", "conj_sign",
                 "_models")

    def __init__(self, kind: str, n_gen: int):
        if kind not in _KINDS:
            raise ValueError(f"unknown algebra kind {kind!r}")
        generators, models = _KINDS[kind]
        if n_gen not in generators:
            raise UnsupportedDimensionError(f"no supported {kind} algebra has {n_gen} generators")
        self.kind = kind
        self.n_gen = n_gen
        self.dim = 1 << n_gen
        grades, self.prefix = _blade_vectors(n_gen)
        self.parity_sign = np.where(grades & 1, -1.0, 1.0)
        self._sign = self._xor = None
        if self.dim < _SPARSE_DIM:
            masks = np.arange(self.dim, dtype=np.uint16)
            self._xor = masks[:, None] ^ masks
            self._sign = self.parity_sign[self._xor & self.prefix[:, None]]
        # (-1)^(k(k+1)/2): + - - + repeating in the grade
        self.conj_sign = np.where(np.isin(grades % 4, (0, 3)), 1.0, -1.0)
        # per model dimension: the model's slots and the slots off it
        self._models = {}
        for model_dim, slots in models(n_gen).items():
            on, off = np.array(slots), np.delete(np.arange(self.dim), slots)
            on.flags.writeable = off.flags.writeable = False
            self._models[model_dim] = on, off

    def __repr__(self):
        if self.kind == "clifford":
            return f"clifford({self.n_gen})"
        return self.kind.upper()

    # -- construction -------------------------------------------------------

    def scalar(self, s: float) -> "Element":
        coeffs = np.zeros(self.dim)
        coeffs[0] = s
        return Element(self, coeffs)

    @property
    def one(self) -> "Element":
        return self.scalar(1.0)

    @property
    def zero(self) -> "Element":
        return self.scalar(0.0)

    def element(self, coeffs) -> "Element":
        """Element from any sequence of 2^n real coefficients; the one place
        where outside coefficients are converted and checked."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} coefficients, got {coeffs.shape}")
        return Element(self, coeffs)

    def model_indices(self, model_dim: int) -> np.ndarray:
        """Coefficient slots representing a vector of the given spatial
        dimension, as a shared read-only array."""
        try:
            return self._models[model_dim][0]
        except KeyError:
            raise UnsupportedDimensionError(
                f"{self!r} has no {model_dim}-dimensional vector model"
            ) from None

    def model_split(self, coeffs: np.ndarray, model_dim: int) -> tuple[np.ndarray, float]:
        """(vector, residue): the `model_dim`-vector model slots of one
        coefficient array, or of a stack of them along the last axis, and
        the largest |coefficient| off those slots (0.0 when there is none,
        NaN when one is NaN)."""
        on, off = self.model_indices(model_dim), self._models[model_dim][1]
        residue = np.maximum.reduce(np.abs(coeffs.take(off, axis=-1)), axis=None, initial=0.0)
        return coeffs.take(on, axis=-1), float(residue)

    def default_model_dim(self) -> int:
        return next(iter(self._models))

    # -- coefficient-level product ------------------------------------------

    def mul_coeffs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Coefficients of a b for 1-D `a` and `b`.  Only the rows of the
        nonzero coefficients of `a` are used.  The terms are rounded one by
        one and summed row after row, as a loop over the blades of `a` would,
        so terms that cancel in exact arithmetic (x y - y x) cancel here too.

        On algebras of `_SPARSE_DIM` slots or more, which keep no tables, `b`
        is multiplied over its nonzero slots only: output k = i ^ j of row i
        and slot j gets a_i parity_sign[j & prefix[i]] b_j, and one
        `bincount` adds each output's terms in row order, as the gather's
        row-wise sum does.  The terms it leaves out are a_i (+-0.0), so for
        finite operands the two forms differ at most in the sign of a zero
        slot (the bincount's is +0.0).  Below the threshold the gather of b
        through the table rows of all 2^n slots is cheaper."""
        rows = a.nonzero()[0]
        if self.dim >= _SPARSE_DIM:
            cols = b.nonzero()[0]
            k = rows[:, None] ^ cols
            terms = self.parity_sign.take(cols & self.prefix.take(rows)[:, None])  # e_i e_j
            terms *= a.take(rows)[:, None]
            terms *= b.take(cols)
            # astype: with no terms at all, bincount returns int64 zeros
            return np.bincount(k.ravel(), terms.ravel(), self.dim).astype(float, copy=False)
        # take() rather than fancy indexing: fewer microseconds on the small
        # algebras; in place below, so one temporary
        terms = b.take(self._xor.take(rows, axis=0))
        terms *= self._sign.take(rows, axis=0)
        terms *= a.take(rows)[:, None]
        return np.add.reduce(terms, axis=0)


REAL = Algebra("real", 0)
COMPLEX = Algebra("complex", 1)
QUATERNION = Algebra("quaternion", 2)


@functools.lru_cache(maxsize=None)
def clifford(n: int) -> Algebra:
    """The universal Clifford algebra of Euclidean R^n, generators squaring to -1."""
    return Algebra("clifford", n)


def algebra_for_dimension(n: int) -> Algebra:
    """Smallest algebra with an n-dimensional vector model: the division
    algebras up to n = 4 (imaginary then full quaternions), else clifford(n)."""
    if n == 1:
        return REAL
    if n == 2:
        return COMPLEX
    if n in (3, 4):
        return QUATERNION
    return clifford(n)


_SCALARS = (int, float, np.integer, np.floating)


class Element:
    """A value in one of the supported algebras, as a flat blade-coefficient array.

    Elements are immutable by convention.  `*` is the algebra product, `/` is
    right division p q^{-1} (the fraction convention used throughout), and
    plain numbers coerce to scalars of the same algebra; `2 / x` is a TypeError.

    The constructor stores `coeffs` as given, unchecked: it must be a float64
    array of shape (algebra.dim,).  Build elements from outside data with
    `Algebra.element`, which checks exactly that.
    """

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: Algebra, coeffs: np.ndarray):
        self.algebra = algebra
        self.coeffs = coeffs

    def _coerce(self, other) -> "Element":
        """`other` as an element of this algebra, NotImplemented for other types.
        Algebras are singletons (the module constants and `clifford(n)`), so
        operands match by identity."""
        if isinstance(other, Element):
            if other.algebra is not self.algebra:
                raise AlgebraMismatchError(
                    f"cannot combine {self.algebra!r} with {other.algebra!r}"
                )
            return other
        if isinstance(other, _SCALARS):
            return self.algebra.scalar(float(other))
        return NotImplemented

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Element(self.algebra, self.coeffs + other.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Element(self.algebra, self.coeffs - other.coeffs)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Element(self.algebra, other.coeffs - self.coeffs)

    def __neg__(self):
        return Element(self.algebra, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return Element(self.algebra, self.coeffs * float(other))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Element(self.algebra, self.algebra.mul_coeffs(self.coeffs, other.coeffs))

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return Element(self.algebra, self.coeffs * float(other))
        return NotImplemented

    def __truediv__(self, other):
        """Right division p/q = p q^{-1}."""
        if isinstance(other, _SCALARS):
            return Element(self.algebra, self.coeffs / float(other))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    # -- involutions and norms ------------------------------------------------

    def conjugate(self) -> "Element":
        return Element(self.algebra, self.coeffs * self.algebra.conj_sign)

    def norm(self) -> float:
        """Euclidean norm of the coefficients; finite for every finite element.
        On algebras of `_SPARSE_DIM` slots or more only the nonzero slots go
        to `math.hypot`: a zero adds exactly nothing to its scaled sum of
        squares, so the value is bitwise the hypot of all slots."""
        coeffs = self.coeffs
        if self.algebra.dim >= _SPARSE_DIM:
            coeffs = coeffs[coeffs.nonzero()]
        return math.hypot(*coeffs.tolist())

    def inverse(self) -> "Element":
        """x*/(x x*), valid when x x* is a finite nonzero scalar (division
        scalars, Clifford scalars/vectors, and rationalizable scalar+bivector
        elements); `not (... <= ...)` also refuses NaN and inf."""
        conj = self.conjugate()
        prod = self * conj
        s = prod.coeffs[0]
        rest = np.abs(prod.coeffs[1:]).max() if self.algebra.dim > 1 else 0.0
        if not (SINGULAR <= abs(s) < math.inf and rest <= _SCALAR_ATOL * max(1.0, abs(s))):
            raise SingularElementError(f"element is not rationalizable: {self!r}")
        return Element(self.algebra, conj.coeffs / s)

    def __repr__(self):
        from .parsing import format_element  # parsing imports this module

        return f"<{format_element(self)} in {self.algebra!r}>"


def vector_embed(v, algebra: Algebra) -> Element:
    """Embed a real vector into the algebra's vector model (length selects the model)."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    idx = algebra.model_indices(len(v))
    coeffs = np.zeros(algebra.dim)
    coeffs[idx] = v
    return Element(algebra, coeffs)


def vector_part(x: Element, model_dim: int, atol: float) -> np.ndarray:
    """Extract the real vector of the `model_dim`-vector model from an element.

    Raises if coefficients outside the model exceed `atol` (the element is not
    a vector of the requested kind).
    """
    vector, residue = x.algebra.model_split(x.coeffs, model_dim)
    if not residue <= atol:  # a NaN residue raises too
        raise ValueError(f"element is not a {model_dim}-vector: {x!r}")
    return vector
