"""Command-line surface: compose velocities, shift star catalogs, render
cromlech diagrams, run the oracle verification suite, and scan the
velocity/menhir discrepancy.

Exit codes: 0 ok, 1 verification failure (a failed `verify` trial, or a
`compose` composite off its velocity model by more than rounding), 2 parse
error, 3 superluminal input, 4 I/O error, 5 unsupported rendering dimension.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import warnings
from itertools import compress

import click
import numpy as np

from . import lorentz
from .algebra import (QUATERNION, RESIDUE_BOUND, Element, UnsupportedDimensionError,
                      algebra_for_dimension, vector_embed, vector_part)
from .calculus import (
    SuperluminalError,
    _check_ball,
    compose_menhirs,
    menhir_gap,
    menhir_of,
    refine_gap_argmax,
    thomas_rotation,
    velocity_of,
)
from .parsing import ElementParseError, format_element, parse_algebra_tag, parse_bracket, parse_element
from .reversions import (
    ConstructionError,
    ConstructionTrace,
    DegenerateConstructionWarning,
    _sphere_samples,
    apply_word,
    boost_star_shift,
    construct_composite_menhir,
    two_boost_fixed_points,
    two_boost_word,
)
from .svgplot import render_starfield
from .verify import CONFIGS, TIERS, aberration_spread, run_equivalence, trial_tolerance


#: a catalog row with |row|^2 below this is a zero direction, not a star
_ZERO_DIRECTION_SQ = 1e-24


class OffModelError(ArithmeticError):
    """A composite leaves the velocity model by more than rounding."""


def _exit_codes(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OffModelError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
        except (ElementParseError, UnsupportedDimensionError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except SuperluminalError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except OSError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(4)

    return wrapper


def _quoting(**values):
    """Fill a command help's {name} fields with thresholds, written as 1e-9 (repr: 1e-09)."""
    def fill(fn):
        fn.__doc__ = fn.__doc__.format(**{k: repr(v).replace("e-0", "e-")
                                          for k, v in values.items()})
        return fn
    return fill


@click.group()
def main():
    """Relativistic velocity composition through menhirs.

    Element grammar: rationals ("4/5"), decimals, and unit symbols i, j, k
    ("3i/5", "1/2+i/3"); Clifford vectors as bracketed component lists
    ("[0.1,0.2,0.3]").  Algebra tags: real, complex, quaternion, clifford<N>.
    """


def _vector(x, n: int, text: str) -> np.ndarray:
    """The n-vector that element x stands for; anything else is a parse error."""
    try:
        return vector_part(x, n, atol=0.0)
    except ValueError as exc:
        raise ElementParseError(f"{text!r} is not a {n}-vector velocity") from exc


def _parse_velocity(text: str, algebra):
    x = parse_element(text, algebra)
    if algebra.kind == "clifford":
        _vector(x, algebra.n_gen, text)
    _check_ball(x, text)
    return x


def _on_model(composite: Element, alpha: Element) -> Element:
    """The composite menhir on the algebra's default vector model, its model
    slots bit for bit.  The part it leaves out is rounding residue, which
    grows like 1/|alpha|, alpha = 1 + e2 conj(e1): residue * |alpha| above
    RESIDUE_BOUND, or NaN, raises OffModelError, |alpha| computed only for a
    residue above it or NaN.  Its velocity, a positive multiple of it, is on
    the model too."""
    algebra = composite.algebra
    n = algebra.default_model_dim()
    vector, residue = algebra.model_split(composite.coeffs, n)
    if not residue <= RESIDUE_BOUND and not residue * alpha.norm() <= RESIDUE_BOUND:
        raise OffModelError(f"composite menhir is off the {n}-vector model by more "
                            f"than the rounding bound {RESIDUE_BOUND!r} / |alpha|")
    return vector_embed(vector, algebra)


def _rotation_payload(descriptor):
    if descriptor.algebra.kind in ("real", "complex"):
        return format_element(descriptor.rho())
    alpha = format_element(descriptor.alpha)
    # a rotor pair shares one element (see `thomas_rotation`): one text
    beta = alpha if descriptor.beta is descriptor.alpha else format_element(descriptor.beta)
    return {"alpha": alpha, "beta": beta}


@main.command()
@click.option("-a", "--algebra", "tag", default="complex", show_default=True,
              help="Algebra tag: real, complex, quaternion, clifford<N>.")
@click.option("-v", "--velocity", "v_text", required=True, help="First boost velocity.")
@click.option("-w", "--second", "w_text", required=True, help="Second boost velocity.")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json",
              show_default=True)
@_exit_codes
@_quoting(bound=RESIDUE_BOUND)
def compose(tag, v_text, w_text, fmt):
    """Compose two boost velocities (first -v, then -w).

    JSON schema v1 keys: menhir_v, menhir_w, composite_menhir,
    composite_velocity, speed, rotation, angle_rad.

    When the Thomas pair is a rotor pair (Clifford vectors, imaginary
    quaternions), the composite menhir prints on the velocity model: its
    rounding residue off the model (at most {bound} / |alpha|, alpha as under
    `rotation`, else exit 1) is dropped, every model slot keeps its bits, and
    the composite velocity taken from it reads back as a velocity.  `speed`
    is the norm of the printed velocity.
    """
    algebra = parse_algebra_tag(tag)
    ev, ew = (menhir_of(_parse_velocity(text, algebra)) for text in (v_text, w_text))
    composite = compose_menhirs(ev, ew)
    rotation = thomas_rotation(ev, ew)
    if rotation.beta is rotation.alpha:
        composite = _on_model(composite, rotation.alpha)
    u = velocity_of(composite)
    payload = {
        "menhir_v": format_element(ev),
        "menhir_w": format_element(ew),
        "composite_menhir": format_element(composite),
        "composite_velocity": format_element(u),
        "speed": u.norm(),
        "rotation": _rotation_payload(rotation),
        "angle_rad": rotation.angle(),
    }
    if fmt == "json":
        click.echo(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            click.echo(f"{key} = {value}")


def _parse_vector_velocity(text: str, n: int | None) -> np.ndarray:
    """Velocity as a plain vector inside the ball.  Bracketed text lists the
    components; bare element text is read in `algebra_for_dimension(n)`, and
    without n it is read once as a quaternion whose values pick the
    dimension: 2 (real, i) when j and k are zero, 3 (i, j, k) when the real
    part is zero, else 4."""
    if text.strip().startswith("["):
        v = parse_bracket(text)
        if n is not None and v.size != n:
            raise ElementParseError(f"expected {n} components, got {v.size}")
    elif n is None:
        c = parse_element(text, QUATERNION).coeffs
        v = c[:2] if not c[2:].any() else c[1:] if c[0] == 0.0 else c
    else:
        v = _vector(parse_element(text, algebra_for_dimension(n)), n, text)
    _check_ball(v, text)
    return v


def _is_number(field: str) -> bool:
    """Whether float() accepts the field.  No number starts with a letter other
    than the first letters of inf and nan, so such a field needs no call."""
    if field[:1].isalpha() and field[0] not in "iInN":
        return False
    try:
        float(field)
    except ValueError:
        return False
    return True


def _read_catalog(path: str):
    """Labels and unit star directions of a catalog file, in the format the
    `aberrate` help gives.  The file is read at once and its rows are parsed
    and checked together.  An error names the first bad row in file order,
    whether float() rejects one of its numbers or its direction is zero or
    non-finite.  A file that is not UTF-8, an empty catalog and rows of
    unequal length are errors too."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            # read() translates newlines as iterating the file does
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ElementParseError(f"{path}: not UTF-8 text") from exc
    lines = [line.strip() for line in text.split("\n")]
    line_nos = [k for k, line in enumerate(lines, 1) if line and not line.startswith("#")]
    rows = [lines[k - 1] for k in line_nos]
    if not rows:
        raise ElementParseError(f"{path}: empty catalog")
    # one flat list of fields, no list per row: the garbage collector would
    # scan a list per row again and again on a large catalog
    fields = ",".join(rows).split(",")  # float() ignores the spaces around a number
    counts = np.array([row.count(",") + 1 for row in rows], dtype=int)
    firsts = np.cumsum(counts) - counts
    labelled = np.array([not _is_number(fields[k]) for k in firsts.tolist()], dtype=bool)
    is_value = np.ones(len(fields), dtype=bool)
    is_value[firsts[labelled]] = False
    values = list(compress(fields, is_value.tolist()))  # the numbers, row after row
    widths = counts - labelled
    try:
        numbers = np.fromiter(map(float, values), float)
    except ValueError:
        # the rows before the first that float() rejects are still checked:
        # one of them may be the first bad row
        rejected = next(k for k, value in enumerate(values) if not _is_number(value))
        widths = widths[:np.searchsorted(np.cumsum(widths), rejected, side="right")]
        numbers = np.fromiter(map(float, values[:widths.sum()]), float)
    parsed = len(widths)
    width = widths.max(initial=0)
    stars = np.zeros((parsed, width))
    stars[np.arange(width) < widths[:, None]] = numbers
    # |row|^2 summed left to right, as sum(x * x for x in row) does; the zeros
    # that pad a short row add nothing
    squares = np.zeros(parsed)
    with np.errstate(over="ignore", invalid="ignore"):
        for column in stars.T:
            squares += column * column
        bad = np.flatnonzero(~((squares >= _ZERO_DIRECTION_SQ) & (squares < math.inf)))
    if bad.size:
        raise ElementParseError(f"{path}:{line_nos[bad[0]]}: direction must be finite and nonzero")
    if parsed < len(rows):
        raise ElementParseError(f"{path}:{line_nos[parsed]}: bad catalog row")
    if (widths != width).any():
        raise ElementParseError(f"{path}: inconsistent dimensions")
    labels = [fields[k].strip() if label else f"star{i}"
              for i, (k, label) in enumerate(zip(firsts.tolist(), labelled.tolist()))]
    # the stacked (1 x n)(n x 1) products take the dot of np.linalg.norm on one
    # row, so each unit row is bitwise the row-by-row one
    norms = np.sqrt((stars[:, None, :] @ stars[:, :, None]).ravel())
    return labels, stars / norms[:, None]


def _shift_table(labels, stars: np.ndarray, shifted: np.ndarray) -> str:
    """CSV schema v1: label, in_1..in_n, out_1..out_n."""
    n = stars.shape[1]
    columns = [f"in_{k+1}" for k in range(n)] + [f"out_{k+1}" for k in range(n)]
    lines = [",".join(["label"] + columns)]
    for label, a, s in zip(labels, stars.tolist(), shifted.tolist()):
        lines.append(f"{label}," + ",".join(map(repr, a + s)))
    return "\n".join(lines) + "\n"


def _write(out_path: str, text: str):
    """Command output to the file out_path, or to stdout for '-'."""
    if out_path == "-":
        click.echo(text, nl=False)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


@main.command()
@click.option("-v", "--velocity", "v_text", required=True, help="Boost velocity.")
@click.option("--catalog", "catalog_path", required=True, type=click.Path(),
              help="Star catalog, UTF-8 text with one star a row: [label,]x1,...,xn, where a "
                   "first field that is not a number is a label. '#' lines and blank lines are "
                   "skipped and rows are normalised; an error names file:line of the first bad "
                   "row (exit 2).")
@click.option("--out", "out_path", required=True, type=click.Path(), help="Output CSV path ('-' for stdout).")
@click.option("--debug", is_flag=True, help="Cross-check the shift three ways and report the spread.")
@_exit_codes
def aberrate(v_text, catalog_path, out_path, debug):
    """Shift a star catalog under a boost.

    CSV schema v1 columns: label, in_1..in_n, out_1..out_n.
    """
    labels, stars = _read_catalog(catalog_path)
    n = stars.shape[1]
    v = _parse_vector_velocity(v_text, n)
    shifted = boost_star_shift(stars, v)
    if debug:
        spread = aberration_spread(v, stars, algebra_for_dimension(n))
        click.echo(f"max cross-discrepancy (word/moebius/oracle): {spread:.3e}", err=True)
    _write(out_path, _shift_table(labels, stars, shifted))


def _starfield_points(n: int, count: int) -> np.ndarray:
    if n == 2:
        angles = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
        return np.column_stack([np.cos(angles), np.sin(angles)])
    return _sphere_samples(n, count)


def _two_boost_overlays(ev: np.ndarray, ew: np.ndarray):
    """Fixed points and construction trace of the planar two-boost map.  An
    overlay that cannot be drawn in full is reported on stderr; what was built
    of the construction is kept."""
    fixed, trace = (), ConstructionTrace()
    try:
        fixed = two_boost_fixed_points(ev, ew)
    except ConstructionError as exc:
        click.echo(f"warning: fixed points overlay omitted ({exc})", err=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegenerateConstructionWarning)
        try:
            construct_composite_menhir(ev, ew, trace)
        except ConstructionError as exc:
            click.echo(f"warning: construction overlay omitted ({exc})", err=True)
        except DegenerateConstructionWarning as exc:
            # collinear menhirs fall back before drawing, so nothing is lost
            if trace.points:
                click.echo(f"warning: construction overlay incomplete ({exc.reason})", err=True)
    return fixed, trace


@main.command()
@click.option("-v", "--velocity", "v_text", required=True, help="First boost velocity.")
@click.option("--w", "w_text", default=None, help="Optional second boost velocity (two-boost mode).")
@click.option("--count", default=12, show_default=True, type=click.IntRange(min=2),
              help="Number of star stones.")
@click.option("--format", "fmt", type=click.Choice(["svg", "csv"]), default="svg", show_default=True)
@click.option("--out", "out_path", default="-", show_default=True, type=click.Path())
@_exit_codes
def starfield(v_text, w_text, count, fmt, out_path):
    """Render the star shift on the cromlech (SVG for the planar case).

    CSV schema v1 columns: label, in_1..in_n, out_1..out_n.
    """
    v = _parse_vector_velocity(v_text, None)
    n = v.size
    w = None if w_text is None else _parse_vector_velocity(w_text, n)

    stars = _starfield_points(n, count)
    ev = menhir_of(v)
    menhirs = [ev]
    fixed, trace = (), None
    if w is None:
        shifted = boost_star_shift(stars, v)
    else:
        ew = menhir_of(w)
        menhirs.append(ew)
        shifted = apply_word(stars, two_boost_word(ev, ew))
        if n == 2:
            fixed, trace = _two_boost_overlays(ev, ew)

    if fmt == "svg":
        if n != 2:
            click.echo(f"error: SVG rendering supports only the planar case, got dimension {n}", err=True)
            sys.exit(5)
        text = render_starfield(stars, shifted, menhirs, fixed, trace)
    else:
        text = _shift_table([f"star{i}" for i in range(count)], stars, shifted)
    _write(out_path, text)


@main.command()
@click.option("--trials", default=1000, show_default=True, type=click.IntRange(min=1),
              help="Trials per configuration.")
@click.option("--seed", default=42, show_default=True, type=click.IntRange(min=0),
              help="Master seed; trial i draws from default_rng([seed, i]).")
@click.option("-a", "--algebra", "key", default="all", show_default=True,
              type=click.Choice(["all", *CONFIGS]), help="Verification lane.")
@click.option("--tier", type=click.Choice(["normal", "stress"]), default="normal", show_default=True)
@_exit_codes
@_quoting(normal=TIERS["normal"][2], stress=TIERS["stress"][2])
def verify(trials, seed, key, tier):
    """Check the menhir calculus against the Lorentz-matrix oracle.

    Tolerance: {normal} (normal), {stress} (stress); the MENHIR_TOLERANCE
    environment variable overrides it with a finite number >= 0.  A trial fails unless
    both of its errors are within the tolerance.  Exit code 1 when any trial
    fails.
    """
    tolerance = None
    env = os.environ.get("MENHIR_TOLERANCE")
    if env:
        try:
            tolerance = trial_tolerance(tier, float(env))
        except ValueError:
            raise click.UsageError(f"MENHIR_TOLERANCE={env!r} is not a finite number >= 0") from None
    bits = int(np.finfo(lorentz.SPLIT_DTYPE).nmant)
    if bits < lorentz.EXTENDED_MANTISSA_BITS:
        click.echo(f"note: no extended long double here; the oracle splits with {bits} "
                   f"mantissa bits, not {lorentz.EXTENDED_MANTISSA_BITS}", err=True)

    keys = list(CONFIGS) if key == "all" else [key]
    any_failures = False
    for k in keys:
        report = run_equivalence(k, trials, seed, tier, tolerance)
        status = "ok" if report.ok else "FAIL"
        click.echo(
            f"{k:<13} trials={report.trials} tier={tier} "
            f"max_velocity_error={report.max_velocity_error:.3e} "
            f"max_rotation_error={report.max_rotation_error:.3e} "
            f"failures={len(report.failures)} {status}"
        )
        for (master, index), inputs, errors in report.failures[:10]:
            click.echo(f"  failing seed {master} trial {index}: {inputs} -> {errors}", err=True)
        any_failures = any_failures or not report.ok
    if any_failures:
        sys.exit(1)


@main.command()
@click.option("--steps", default=1000, show_default=True, type=click.IntRange(min=100),
              help="Grid steps over [0, 1].")
@click.option("--out", "out_path", default="-", show_default=True, type=click.Path())
@_exit_codes
def goldenscan(steps, out_path):
    """Scan the discrepancy between a speed and its menhir.

    Emits CSV (v, menhir, gap) and reports the refined argmax and the v:menhir
    ratio there (the golden section of the segment, fittingly).
    """
    grid = np.linspace(0.0, 1.0, steps + 1)
    gaps = menhir_gap(grid)
    lines = ["v,menhir,gap"]
    for v, gap in zip(grid, gaps):
        lines.append(f"{float(v)!r},{float(v - gap)!r},{float(gap)!r}")
    _write(out_path, "\n".join(lines) + "\n")

    v_star = refine_gap_argmax()
    e_star = v_star - float(menhir_gap(v_star))
    click.echo(f"argmax v = {v_star!r}", err=True)
    click.echo(f"menhir e = {e_star!r}", err=True)
    click.echo(f"gap v-e  = {float(menhir_gap(v_star))!r}", err=True)
    click.echo(f"ratio v:e = {v_star / e_star!r}", err=True)


if __name__ == "__main__":
    main()
