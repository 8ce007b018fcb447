"""Every numeric threshold of the package has one name, and a margin.

Each margin test draws a fixed seeded sample of what the package feeds the
threshold, records the worst value it meets (printed with `-s`) and asserts
the margin, threshold over worst (worst over threshold for a guard, which
cuts off values the package must refuse).  A tolerance needs a margin of at
least `MIN_MARGIN`, so rounding does not trip it; one above about 10^3 is
too loose and is tightened, unless its test says why not.  The samples cover
the speeds of both verify tiers, up to 1 - 1e-6, and their worst-conditioned
inputs: stars near the menhir's direction, nearly opposite boosts.
"""

import glob
import math
import os
import shutil
import struct
import sys
from fractions import Fraction

import numpy as np
import orjson
import pytest

from menhir.algebra import (
    COMPLEX,
    QUATERNION,
    RESIDUE_BOUND,
    SINGULAR,
    SingularElementError,
    _SCALAR_ATOL,
    clifford,
    vector_embed,
)
from menhir.calculus import (
    DEGENERATE_ATOL,
    UNIT_ATOL,
    _SIMPLE_ATOL,
    _rotor,
    compose_menhirs,
    menhir_of,
    thomas_rotation,
    velocity_of,
)
from menhir.cli import (_ORJSON_AS_REPR, _ZERO_DIRECTION_SQ, _json_floats, _orjson_as_repr, _read_catalog,
                        _shift_table)
from menhir.parsing import _MAX_DENOMINATOR, _REPR_BELOW, format_number
from menhir.reversions import (
    COINCIDENT_ATOL,
    COLLINEAR_ATOL,
    apply_word,
    boost_star_shift,
    find_conjugate_point,
    revert,
)
from menhir.verify import _MIN_DIRECTION_NORM, CONFIGS, TIERS, run_equivalence
from util import (
    SPEEDS,
    float_literals,
    halfway_texts,
    hard_pairs,
    long_mantissa_text,
    named_thresholds,
    opposite_pair,
    reference_format_number,
    reference_shift_table,
    scalar_part,
    unit_vector,
)

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "menhir")
MIN_MARGIN = 10.0

def _record(name, bound, worst, guard=False):
    margin = worst / bound if guard else bound / worst
    print(f"{name} = {bound!r}: measured worst {worst:.3g}, margin {margin:.3g}")
    return margin


# -- one name per threshold ------------------------------------------------------------

def test_no_bare_float_literal_below_one_in_src():
    bare = [f"{os.path.basename(path)}:{line}: {text}"
            for path in sorted(glob.glob(os.path.join(SRC, "*.py")))
            for line, text, name in float_literals(path) if name is None]
    assert not bare, "float literals below 1 outside a named module-level assignment:\n" + "\n".join(bare)


def test_literal_scan_finds_a_planted_literal(tmp_path):
    path = tmp_path / "svgplot.py"
    shutil.copy(os.path.join(SRC, "svgplot.py"), path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('\n\n# 1e-9 in a comment\nNOTE = "1e-9 in a string"\n\n\ndef _planted(x):\n'
                 '    return 0.5 * x > 1e-9\n')
    planted = len(path.read_text().splitlines())
    assert [(line, text) for line, text, name in float_literals(str(path)) if name is None] == \
        [(planted, "1e-9")]


def test_readme_tolerance_table_names_every_threshold():
    with open(os.path.join(SRC, os.pardir, os.pardir, "README.md"), encoding="utf-8") as fh:
        table = [line for line in fh if line.startswith("| `")]
    listed = {line.split("`")[1] for line in table}
    named = {name for path in glob.glob(os.path.join(SRC, "*.py")) for name in named_thresholds(path)}
    assert listed == named


# -- unit sphere point, coincident points ----------------------------------------------

def test_unit_atol_margin():
    """Sphere points that `revert` and `moebius_apply` are handed: word images
    passed on to the next reversion (a two-boost starfield), also of stars
    that the origin's reversion sends close to the menhir, and normalised
    stars."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for speed in SPEEDS:
        for _ in range(60):
            n = int(rng.integers(2, 6))
            d = unit_vector(rng, n)
            stars = np.vstack([unit_vector(rng, n) for _ in range(8)]
                              + [eps * unit_vector(rng, n) - d for eps in (0.0, 1e-8, 1e-4, 1e-2)])
            stars /= np.linalg.norm(stars, axis=1, keepdims=True)
            images = apply_word(stars, [np.zeros(n), menhir_of(d * speed)])
            worst = max(worst, float(np.abs(np.linalg.norm(images, axis=1) - 1.0).max()))
    for a in rng.standard_normal((200, 3)):
        z = vector_embed(a / np.linalg.norm(a), QUATERNION)
        worst = max(worst, abs(z.norm() - 1.0))
    margin = _record("UNIT_ATOL", UNIT_ATOL, worst)
    assert MIN_MARGIN <= margin <= 1e4


def test_coincident_atol_margin():
    """Stars a word fixes: the butterfly quadruples of acceptance criterion 7
    fix every sphere point, and a boost fixes the stars on its axis."""
    rng = np.random.default_rng(102)
    worst = 0.0
    built = 0
    while built < 40:
        n = int(rng.integers(2, 5))
        direction, center = unit_vector(rng, n), rng.standard_normal(n) * 0.15
        a, b, a_new = (center + t * direction for t in rng.uniform(-0.5, 0.5, 3))
        if max(np.linalg.norm(x) for x in (a, b, a_new)) >= 0.9:
            continue
        stars = np.vstack([unit_vector(rng, n) for _ in range(20)])
        word = [a, b, find_conjugate_point(a, b, a_new), a_new]
        worst = max(worst, float(np.abs(apply_word(stars, word) - stars).max()))
        built += 1
    for speed in SPEEDS:
        for _ in range(100):
            d = unit_vector(rng, int(rng.integers(2, 6)))
            axis = np.vstack([d, -d])
            worst = max(worst, float(np.abs(boost_star_shift(axis, d * speed) - axis).max()))
    margin = _record("COINCIDENT_ATOL", COINCIDENT_ATOL, worst)
    assert MIN_MARGIN <= margin <= 1e4


# -- zero, collinear -------------------------------------------------------------------

def test_degenerate_atol_margin():
    """What must read as zero: |conj(e) f - conj(f) e| of collinear menhirs
    and |B| / |s| of the Thomas rotor of collinear quaternion menhirs."""
    rng = np.random.default_rng(103)
    worst = 0.0
    for speed in SPEEDS:
        for _ in range(100):
            d = unit_vector(rng, 2)
            e, f = (complex(*menhir_of(d * s)) for s in rng.uniform(-speed, speed, 2))
            worst = max(worst, abs(e.conjugate() * f - f.conjugate() * e))
            d3 = unit_vector(rng, 3)
            e1, e2 = (menhir_of(vector_embed(d3 * s, QUATERNION)) for s in rng.uniform(-speed, speed, 2))
            rotor = _rotor(thomas_rotation(e1, e2).alpha)
            worst = max(worst, rotor.norm_b / abs(rotor.s))
    margin = _record("DEGENERATE_ATOL", DEGENERATE_ATOL, worst)
    assert MIN_MARGIN <= margin <= 1e4


def test_collinear_atol_margin():
    """Second singular value over max(1, first) of the collinear point sets
    the package builds: a reversion's point, star and image, and the slid
    quadruples of `find_conjugate_point`, up to the edge of the ball.  These
    sets fail DEGENERATE_ATOL's margin, so collinearity is a fact of its own."""
    rng = np.random.default_rng(104)
    worst = 0.0

    def spread(points):
        s = np.linalg.svd(np.array(points) - np.mean(points, axis=0), compute_uv=False)
        return s[1] / max(1.0, s[0])

    for speed in SPEEDS:
        for _ in range(250):
            n = int(rng.integers(2, 6))
            a, p = unit_vector(rng, n), unit_vector(rng, n) * rng.uniform(0.0, speed)
            worst = max(worst, spread([p, a, revert(a, p)]))
            direction, center = unit_vector(rng, n), unit_vector(rng, n) * rng.uniform(0.0, speed)
            a, b, a_new = (center + t * direction for t in rng.uniform(-1.0, 1.0, 3))
            if max(np.linalg.norm(x) for x in (a, b, a_new)) >= speed:
                continue
            worst = max(worst, spread([a, b, find_conjugate_point(a, b, a_new), a_new]))
    margin = _record("COLLINEAR_ATOL", COLLINEAR_ATOL, worst)
    assert MIN_MARGIN <= margin <= 1e4
    assert DEGENERATE_ATOL / worst < MIN_MARGIN


# -- off the model, invertible, simple, singular -----------------------------------------

def test_residue_bound_margin():
    """Off-model coefficients of vector results: composite menhirs and
    velocities of Clifford vectors and imaginary quaternions."""
    rng = np.random.default_rng(105)
    worst = 0.0
    for algebra, n in ((QUATERNION, 3), (clifford(3), 3), (clifford(5), 5), (clifford(8), 8)):
        idx = algebra.model_indices(n)
        for v, w in hard_pairs(rng, n, count=2):
            ev, ew = (menhir_of(vector_embed(x, algebra)) for x in (v, w))
            composite = compose_menhirs(ev, ew)
            for coeffs in (composite.coeffs, velocity_of(composite).coeffs):
                off = coeffs.copy()
                off[idx] = 0.0
                worst = max(worst, float(np.abs(off).max()))
    margin = _record("RESIDUE_BOUND", RESIDUE_BOUND, worst)
    assert MIN_MARGIN <= margin <= 1e4


def _inverted(rng):
    """Elements the calculus inverts: composition denominators, Thomas pairs
    and Moebius denominators c z + d, on every lane."""
    for algebra, n in CONFIGS.values():
        for v, w in hard_pairs(rng, n, count=1):
            ev, ew = (menhir_of(vector_embed(x, algebra)) for x in (v, w))
            rotation = thomas_rotation(ev, ew)
            z = vector_embed(unit_vector(rng, n), algebra)
            yield from (1.0 + ev.conjugate() * ew, rotation.alpha, rotation.beta,
                        ev.conjugate() * z + 1.0)


def test_scalar_atol_and_singular_margins():
    """x x* of the inverted elements: its off-scalar part over max(1, |s|)
    against _SCALAR_ATOL, and its smallest scalar against the SINGULAR guard.
    _SCALAR_ATOL's margin stays above 10^3: `_SIMPLE_ATOL` is a hundredth of
    it, and at a tenth of its value that one's margin would fall below
    MIN_MARGIN."""
    rng = np.random.default_rng(106)
    worst, smallest = 0.0, math.inf
    for x in _inverted(rng):
        p = (x * x.conjugate()).coeffs
        s = abs(p[0])
        worst = max(worst, float(np.abs(p[1:]).max(initial=0.0)) / max(1.0, s))
        smallest = min(smallest, s)
    margin = _record("_SCALAR_ATOL", _SCALAR_ATOL, worst)
    assert MIN_MARGIN <= margin <= 1e5
    assert _record("SINGULAR", SINGULAR, smallest, guard=True) >= MIN_MARGIN
    # the guard's reason: above it 1/(x x*) is finite, below it is refused
    assert np.isfinite(COMPLEX.element([math.sqrt(2 * SINGULAR), 0.0]).inverse().coeffs).all()
    with pytest.raises(SingularElementError):
        COMPLEX.element([math.sqrt(SINGULAR / 2), 0.0]).inverse()


def test_simple_atol_margin_and_its_rotors_invert():
    """f^3 + |B|^2 f of the Thomas rotors of Clifford vectors, relative to
    |B| max(1, s^2 + |B|^2), up to `compose`'s edge speed 1 - 2e-12, where a
    rotor that `_rotor` rejected would be an error; and every s + B that
    `_rotor` accepts, B simple up to a small second plane, is one that
    `Element.inverse` accepts."""
    rng = np.random.default_rng(107)
    worst = 0.0
    for n in (3, 4, 5, 6, 8, 10):
        algebra = clifford(n)
        edge = [opposite_pair(rng, n, 1.0 - 2e-12, angle) for angle in (1e-1, 1e-3, 1e-5, 1e-6)
                for _ in range(2)]
        for v, w in [*hard_pairs(rng, n, count=2), *edge]:
            rotor = _rotor(thomas_rotation(*(menhir_of(vector_embed(x, algebra)) for x in (v, w))).alpha)
            if rotor.norm_b:
                residual = rotor.f2 @ rotor.f + rotor.norm_b ** 2 * rotor.f
                worst = max(worst, float(np.abs(residual).max())
                            / (rotor.norm_b * max(1.0, rotor.s ** 2 + rotor.norm_b ** 2)))
    margin = _record("_SIMPLE_ATOL", _SIMPLE_ATOL, worst)
    assert MIN_MARGIN <= margin <= 1e4

    def wedge(x, y):
        p = x * y
        return p - scalar_part(p)

    accepted = 0
    for n in (4, 6, 10):
        algebra = clifford(n)
        for delta in np.logspace(-17, -9, 40).tolist():
            a, b, c, d = (vector_embed(unit_vector(rng, n), algebra) for _ in range(4))
            q = 0.3 + wedge(a, b) + delta * wedge(c, d)
            if _rotor(q) is not None:
                q.inverse()
                accepted += 1
    assert 0 < accepted < 120


# -- catalog, sampler, formatting, tiers -----------------------------------------------

def test_zero_direction_guard(tmp_path):
    """A guard: the smallest |row|^2 of a seeded catalog is far above it, a
    row just above it normalises to a unit star and one below is refused."""
    rows = np.random.default_rng(109).standard_normal((2000, 3))
    smallest = float(np.min(np.sum(rows * rows, axis=1)))
    assert _record("_ZERO_DIRECTION_SQ", _ZERO_DIRECTION_SQ, smallest, guard=True) >= MIN_MARGIN
    edge = math.sqrt(_ZERO_DIRECTION_SQ)
    path = tmp_path / "edge.csv"
    path.write_text(f"{2 * edge!r},0,0\n")
    assert np.array_equal(_read_catalog(str(path))[1], [[1.0, 0.0, 0.0]])
    path.write_text(f"{edge / 2!r},0,0\n")
    with pytest.raises(Exception, match="finite and nonzero"):
        _read_catalog(str(path))


def test_sampler_direction_guard():
    """A guard, its value pinned by the first oracle: the shortest direction
    that verify draws over seeds 42 and 2102 is far above it."""
    smallest = math.inf
    for seed in (42, 2102):
        for i in range(1000):
            rng = np.random.default_rng([seed, i])
            for n in (1, 2, 3):
                smallest = min(smallest, float(np.linalg.norm(rng.standard_normal(n))))
    assert _record("_MIN_DIRECTION_NORM", _MIN_DIRECTION_NORM, smallest, guard=True) >= MIN_MARGIN


def test_repr_below_is_exact():
    """Not a tolerance: below the bound the closest p/q is 0/1, and at and
    above it `format_number` still matches the Fraction reference."""
    assert _REPR_BELOW == 5e-7
    below = math.nextafter(_REPR_BELOW, 0.0)
    assert Fraction(below).limit_denominator(_MAX_DENOMINATOR).numerator == 0
    for x in np.linspace(_REPR_BELOW / 2, 2 * _REPR_BELOW, 201).tolist() + [below, _REPR_BELOW]:
        assert format_number(x) == reference_format_number(x)


def test_orjson_as_repr_is_exact():
    """Not a tolerance: at each end of the range and one ulp inside it the
    table writer matches the repr join, and one ulp outside the range orjson
    alone would not (0.00009999999999999999 for 9.999999999999999e-05, 1e16
    for 1e+16).  `_orjson_as_repr`, which both orjson writers ask, says so
    too."""
    assert _ORJSON_AS_REPR == (1e-4, 1e16)
    lo, hi = _ORJSON_AS_REPR
    edges = [lo, math.nextafter(lo, math.inf), math.nextafter(lo, 0.0),
             math.nextafter(hi, 0.0), hi, math.nextafter(hi, math.inf)]
    for x in edges + [-x for x in edges]:
        stars, shifted = np.array([[x, 0.5]]), np.array([[0.5, x]])
        assert _shift_table(["s"], stars, shifted) == reference_shift_table(["s"], stars, shifted)
    alone = [orjson.dumps(x).decode() == repr(x) for x in edges]
    assert alone == [True, True, False, True, False, False]
    # +-0.0 counts as in the range: orjson prints it as repr does, alone and
    # in a numpy table
    zeros = [0.0, -0.0]
    assert [orjson.dumps(x).decode() for x in zeros] == list(map(repr, zeros))
    assert orjson.dumps(np.array(zeros), option=orjson.OPT_SERIALIZE_NUMPY) == b"[0.0,-0.0]"
    assert [_orjson_as_repr(x) for x in edges + zeros] == alone + [True, True]
    assert _orjson_as_repr(np.array(edges + zeros)).tolist() == alone + [True, True]


def test_orjson_reads_numbers_as_float_does():
    """Not a tolerance: each number the catalog reader takes from orjson
    (`_json_floats`) has float()'s bits.  The texts are the exact halfways
    between neighbouring doubles at exponents across the range, with their
    last digit dropped and with a 1 appended; the subnormal and overflow
    borders; 17- to 800-digit mantissas; integers past 2^64, which orjson
    reads as floats; each in both signs, one at a time and all in one parse.
    orjson may decline a text, and float() then reads it; a release that
    reads one with other bits fails here."""
    rng = np.random.default_rng(2505)
    bits = [e << 52 | m for e in range(0, 2047, 23) for m in rng.integers(0, 2**52, 3).tolist()]
    doubles = [struct.unpack("<d", struct.pack("<Q", k))[0] for k in bits]
    doubles += [0.0, 5e-324, math.nextafter(sys.float_info.min, 0.0), sys.float_info.min,
                1.0, 2.0**53, math.nextafter(sys.float_info.max, 0.0), sys.float_info.max]
    texts = [text for x in doubles for text in halfway_texts(x)]
    texts += ["2.4703282292062327e-324", "2.4703282292062328e-324", "2.2250738585072011e-308",
              "2.2250738585072012e-308", "1.7976931348623157e308", "1.7976931348623158e308",
              "1.7976931348623159e308", "1e308", "1e309", "1e-400", "18446744073709551616",
              "9223372036854775809"]
    texts += [long_mantissa_text(rng, n, e) for n in (17, 18, 19, 40, 100, 400, 800)
              for e in rng.integers(-330, 310, 40).tolist()]
    texts += ["1" + "".join(map(str, rng.integers(0, 10, n).tolist())) for n in range(19, 320, 7)]
    texts += ["-" + text for text in texts]
    read = [text for text in texts if _json_floats(text, 1) is not None]
    print(f"orjson reads {len(read)} of {len(texts)} texts")
    for text in read:
        assert _json_floats(text, 1)[0].hex() == float(text).hex(), text
    assert [x.hex() for x in _json_floats(",".join(read), len(read))] == [float(t).hex() for t in read]
    # not vacuous: orjson 3.8 declines only the texts past DBL_MAX and the
    # integers that fit 64 bits, which it reads as ints
    assert len(read) > len(texts) * 9 // 10


def test_tier_tolerance_margins():
    """The tiers' tolerances are acceptance bounds that `verify --help` and
    the benchmark's gate quote.  With the oracle split in extended precision
    both margins are above 10^6; the bounds are tightened once `verify
    --json` reports each lane's error budget (see ROADMAP)."""
    for tier, (_, _, tol) in TIERS.items():
        worst = 0.0
        for key in CONFIGS:
            report = run_equivalence(key, 60, 42, tier)
            worst = max(worst, report.max_velocity_error, report.max_rotation_error)
        assert _record(f"TIERS[{tier!r}]", tol, worst) >= MIN_MARGIN
